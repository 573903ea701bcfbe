import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randerslab import orbits
from randerslab.modelspace import EUCLIDEAN, SpaceForm, geodesic_distance, s_c, sphere_area
from randerslab.orbits import (
    ANGULAR_EXACT,
    FULL_ROTATION,
    GREEDY,
    MATRIX_CONJUGATION,
    PRODUCT_ROTATION,
    GroupAction,
    MatrixPoint,
    PackingReport,
    coercivity_probe,
    expansion_profile,
    matrix_distance,
    orbit_diameter,
    orbit_hausdorff_matrix,
    orbit_hausdorff_product_spheres,
    orbit_sample,
    packing_count,
    simplex_min_exponent_sum,
    spherical_cap_count,
    tangent_packing_lower_bound,
)

EUCLID2 = SpaceForm(2, 0.0)
EUCLID3 = SpaceForm(3, 0.0)
EUCLID4 = SpaceForm(4, 0.0)
HYP2 = SpaceForm(2, -1.0)
ROT = GroupAction(FULL_ROTATION)
PROD22 = GroupAction(PRODUCT_ROTATION, (2, 2))
CONJ = GroupAction(MATRIX_CONJUGATION)


class TestOrbitSample:
    def test_origin_is_fixed(self):
        pts = orbit_sample(ROT, np.zeros(2), 7, space=EUCLID2)
        assert np.all(pts == 0.0)

    def test_axis_points_in_the_plane(self):
        pts = orbit_sample(ROT, np.array([5.0, 0.0]), 4, space=EUCLID2)
        expected = np.array([[5, 0], [0, 5], [-5, 0], [0, -5]], dtype=float)
        assert pts == pytest.approx(expected, abs=1e-12)

    def test_matrix_identity_is_fixed_by_conjugation(self):
        samples = orbit_sample(CONJ, MatrixPoint.identity(), 16)
        for s in samples:
            assert s.matrix == pytest.approx(np.eye(2), abs=1e-12)

    def test_matrix_samples_keep_determinant(self):
        samples = orbit_sample(CONJ, MatrixPoint(2.0, 0.5, 0.625), 32)
        for s in samples:
            assert s.a * s.c - s.b**2 == pytest.approx(1.0, abs=1e-10)

    def test_sphere_samples_have_right_radius(self):
        y = np.array([0.0, 0.0, 2.5])
        pts = orbit_sample(ROT, y, 100, space=EUCLID3)
        assert np.linalg.norm(pts, axis=1) == pytest.approx(np.full(100, 2.5), rel=1e-12)

    def test_deterministic(self):
        a = orbit_sample(PROD22, np.array([1.0, 0, 2.0, 0]), 50)
        b = orbit_sample(PROD22, np.array([1.0, 0, 2.0, 0]), 50)
        assert np.array_equal(a, b)


class TestPackingCount:
    def test_euclidean_exact_angular_count(self):
        report = packing_count(ROT, EUCLID2, np.array([100.0, 0.0]), 1.0)
        expected = math.floor(2.0 * math.pi / (2.0 * math.asin(1.0 / 100.0)))
        assert report.count == expected == 314
        assert report.method == ANGULAR_EXACT

    def test_fixed_point_count_one(self):
        report = packing_count(ROT, EUCLID2, np.zeros(2), 1.0)
        assert report.count == 1 and report.fixed_point
        report = packing_count(CONJ, None, MatrixPoint.identity(), 0.3)
        assert report.count == 1 and report.fixed_point

    def test_certificate_minimum_distance(self):
        report = packing_count(ROT, EUCLID2, np.array([25.0, 3.0]), 1.5)
        assert report.min_pairwise_distance >= 2 * 1.5 - 1e-12
        report.verify(ROT, EUCLID2)

    def test_angular_count_matches_circle_walk(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            r = rng.uniform(3.0, 60.0)
            rho = rng.uniform(0.3, r / 3.0)
            report = packing_count(ROT, EUCLID2, np.array([r, 0.0]), rho)
            assert report.method == ANGULAR_EXACT
            assert report.count == _brute_circle_walk(EUCLID2, r, rho)

    @pytest.mark.parametrize("curvature", [-1.0, -2.25])
    @pytest.mark.parametrize("rho", [0.3, 1.0, 2.0])
    def test_hyperbolic_angular_count_matches_circle_walk(self, curvature, rho):
        space = SpaceForm(2, curvature)
        for chart_r in [0.05, 0.3, 0.6, 0.9, 0.99]:
            report = packing_count(ROT, space, np.array([chart_r, 0.0]), rho)
            assert report.count == _brute_circle_walk(space, chart_r, rho)

    def test_isometry_invariance(self):
        rho = 0.7
        base = np.array([11.0, 0.0])
        count0 = packing_count(ROT, EUCLID2, base, rho).count
        for theta in [0.3, 1.1, 2.9]:
            rot = np.array(
                [
                    [math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)],
                ]
            )
            assert packing_count(ROT, EUCLID2, rot @ base, rho).count == count0

    def test_poincare_count_scaling(self):
        # count * rho * (1-|y|^2)/|y| hovers near a curvature constant within 2x of pi
        for chart_r in [0.9, 0.99, 0.999]:
            report = packing_count(ROT, HYP2, np.array([chart_r, 0.0]), 1.0)
            value = report.count * 1.0 * (1.0 - chart_r**2) / chart_r
            assert math.pi / 2.0 < value < 2.0 * math.pi

    def test_product_rotation_counts_diverge(self):
        rho = 30.0
        counts = []
        for t in [10.0, 100.0, 1000.0]:
            y = np.array([t, 0.0, t, 0.0]) / math.sqrt(2.0)
            counts.append(packing_count(PROD22, EUCLID4, y, rho).count)
        assert counts[0] < counts[1] < counts[2]

    def test_sphere_greedy_dimension_three(self):
        report = packing_count(ROT, EUCLID3, np.array([6.0, 0.0, 0.0]), 1.0)
        assert report.method == GREEDY
        assert report.count > 50
        report.verify(ROT, EUCLID3)

    def test_matrix_conjugation_greedy(self):
        y = MatrixPoint.diagonal(8.0)
        report = packing_count(CONJ, None, y, 0.25)
        assert report.count >= 2
        report.verify(CONJ, None)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            packing_count(ROT, EUCLID2, np.array([1.0, 0.0]), 0.0)


class TestExpansionProfile:
    def test_euclidean_counts_grow_linearly(self):
        radii = np.geomspace(10.0, 1000.0, 9)
        rows = expansion_profile(ROT, EUCLID2, 1.0, radii)
        counts = [row["count"] for row in rows]
        assert all(a < b for a, b in zip(counts, counts[1:]))
        for row in rows:
            if row["distance"] >= 100.0:
                assert row["count"] / (math.pi * row["distance"]) == pytest.approx(1.0, abs=0.1)

    def test_equal_radii_give_constant_counts(self):
        rows = expansion_profile(ROT, EUCLID2, 1.0, [50.0, 50.0, 50.0])
        counts = {row["count"] for row in rows}
        assert len(counts) == 1

    def test_product_rotation_diverges(self):
        rows = expansion_profile(PROD22, EUCLID4, 30.0, [10.0, 100.0, 1000.0])
        counts = [row["count"] for row in rows]
        assert counts[0] < counts[1] < counts[2]

    def test_empty_radii_rejected(self):
        with pytest.raises(ValueError):
            expansion_profile(ROT, EUCLID2, 1.0, [])


class TestOrbitDiameter:
    def test_circle_diameter(self):
        assert orbit_diameter(ROT, EUCLID2, np.array([3.0, 0.0]), n=4000) == pytest.approx(
            6.0, rel=1e-6
        )

    def test_fixed_point_diameter_zero(self):
        assert orbit_diameter(ROT, EUCLID2, np.zeros(2), n=100) == 0.0

    def test_product_first_block_only(self):
        # oracle: exhaustive pairwise distances over a 10^4-point sample
        r = 4.2
        diam = orbit_diameter(PROD22, EUCLID4, np.array([r, 0.0, 0.0, 0.0]), n=10_000)
        assert diam == pytest.approx(2.0 * r, rel=1e-6)

    def test_hyperbolic_circle_diameter(self):
        y = np.array([0.5, 0.0])
        expected = 2.0 * geodesic_distance(HYP2, np.zeros(2), y)
        assert orbit_diameter(ROT, HYP2, y, n=4000) == pytest.approx(expected, rel=1e-6)


class TestMatrixOrbitDiameter:
    def test_identity_orbit_is_a_point(self):
        # acosh(1 + eps) amplifies roundoff to sqrt(eps) ~ 1e-8
        assert orbit_diameter(CONJ, None, MatrixPoint.identity(), n=64) < 1e-7

    def test_diameter_realized_by_sampled_pair(self):
        y = MatrixPoint.diagonal(5.0)
        diam = orbit_diameter(CONJ, None, y, n=512)
        samples = orbit_sample(CONJ, y, 512)
        brute = max(
            matrix_distance(samples[i], samples[j])
            for i in range(0, 512, 16)
            for j in range(0, 512, 16)
        )
        assert diam >= brute - 1e-12
        assert diam <= 2.0 * math.sqrt(2.0) * math.log(5.0) + 1e-9


    @pytest.mark.parametrize("n", [500, 1500])
    def test_chunked_maximum_equals_outer_product_formula(self, n):
        y = MatrixPoint.diagonal(7.0)
        pts = orbit_sample(CONJ, y, n)
        a, b, c = (np.array([getattr(pt, k) for pt in pts]) for k in "abc")
        tr = np.outer(c, a) - 2.0 * np.outer(b, b) + np.outer(a, c)
        expected = math.sqrt(2.0) * math.acosh(max(1.0, float(tr.max()) / 2.0))
        assert orbit_diameter(CONJ, None, y, n=n) == expected

    def test_memory_stays_below_quadratic(self):
        # one 3000 x 3000 float array alone is 72 MB
        tracemalloc.start()
        try:
            orbit_diameter(CONJ, None, MatrixPoint.diagonal(7.0), n=3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestCoercivityProbe:
    def test_rotation_orbits_grow_with_distance(self):
        report = coercivity_probe(ROT, EUCLID2, t=1.0, search_radius=40.0)
        assert not report.small_orbit_found
        assert report.min_diameter == pytest.approx(40.0, rel=0.01)

    def test_small_shell_contains_small_orbits(self):
        report = coercivity_probe(ROT, EUCLID2, t=10.0, search_radius=4.0)
        assert report.small_orbit_found


class TestTangentLowerBound:
    def test_right_angles_admit_all_rays(self):
        # t_n = 1/sin(pi/4) = sqrt(2) <= 2 for every prefix
        angles = [math.pi / 2] * 6  # pairwise data for 4 rays
        assert tangent_packing_lower_bound(angles, 1.0, 2.0) == 4

    def test_small_t_gives_single_ball(self):
        angles = [math.pi / 3] * 3
        assert tangent_packing_lower_bound(angles, 1.0, 0.5) == 1

    def test_monotone_in_t(self):
        rng = np.random.default_rng(23)
        angles = rng.uniform(0.2, math.pi, size=45)  # 10 rays
        prev = 0
        for t in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]:
            n = tangent_packing_lower_bound(angles, 1.0, t)
            assert n >= prev
            prev = n

    def test_invalid_angles(self):
        with pytest.raises(ValueError):
            tangent_packing_lower_bound([0.0, 1.0], 1.0, 1.0)

    def test_packing_dominates_tangent_bound(self):
        # uniform rays in the plane: the exact circle packing must beat the
        # tangent-space construction with the same angle data
        m = 48
        ray_angles = 2.0 * math.pi * np.arange(m) / m
        pair_angles = []
        for n in range(1, m):
            for i in range(n):
                diff = abs(ray_angles[n] - ray_angles[i]) % (2.0 * math.pi)
                pair_angles.append(min(diff, 2.0 * math.pi - diff))
        rng = np.random.default_rng(29)
        for _ in range(50):
            t = rng.uniform(2.0, 400.0)
            rho = rng.uniform(0.1, t / 4.0)
            m_exact = packing_count(ROT, EUCLID2, np.array([t, 0.0]), rho).count
            bound = tangent_packing_lower_bound(pair_angles, rho, t)
            assert m_exact >= bound


class TestSphericalCap:
    def test_three_dimensional_inverse_sine_square(self):
        vals = [
            spherical_cap_count(3, 1.0, t) * math.sin(1.0 / t) ** 2 for t in [10, 100, 1000]
        ]
        assert max(vals) / min(vals) < 1.05

    def test_two_dimensional_consistent_with_exact(self):
        t, rho = 50.0, 1.0
        est = spherical_cap_count(2, rho, t)
        exact = packing_count(ROT, EUCLID2, np.array([t, 0.0]), rho).count
        assert 0.5 * est <= exact <= 2.0 * est

    def test_blows_up_as_ratio_vanishes(self):
        small = spherical_cap_count(3, 1.0, 10.0)
        large = spherical_cap_count(3, 1.0, 10_000.0)
        assert large > 1e5 * small / 1e2

    @pytest.mark.parametrize("t", [10.0, 1.5, 1.25, 1.1])
    def test_three_dimensional_closed_form(self, t):
        # a cap of angular radius theta covers sin^2(theta / 2) of S^2; t = 10
        # and 1.5 give theta < pi/2, t = 1.25 and 1.1 the reflected branch
        theta = 2.0 / t
        assert spherical_cap_count(3, 1.0, t) == pytest.approx(
            1.0 / math.sin(theta / 2.0) ** 2, rel=1e-14
        )

    def test_requires_t_above_rho(self):
        with pytest.raises(ValueError):
            spherical_cap_count(3, 2.0, 1.0)


class TestHausdorffMeasures:
    def test_product_spheres_sum_formula(self):
        res = orbit_hausdorff_product_spheres([2, 2], np.array([1.0, 0.0, 1.0, 0.0]))
        assert res.measure == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert res.m_g == 1.0
        assert res.lower_bound == pytest.approx(2.0 * math.pi * math.sqrt(2.0), rel=1e-12)
        assert res.holds

    def test_simplex_minimum_all_circles_is_one(self):
        assert simplex_min_exponent_sum([2, 2, 2]) == 1.0

    def test_simplex_minimum_exact_at_rational_kkt_points(self):
        # z = (1/2, 1/2) minimises both z_1 + z_2^2 and z_1^2 + z_2^2
        assert simplex_min_exponent_sum([2, 3]) == 0.75
        assert simplex_min_exponent_sum([3, 3]) == 0.5

    def test_simplex_minimum_rejects_blocks_below_two(self):
        for blocks in ([], [1, 2]):
            with pytest.raises(ValueError):
                simplex_min_exponent_sum(blocks)

    def test_simplex_minimum_against_grid_search(self):
        blocks = [2, 3]
        zs = np.linspace(0.0, 1.0, 20001)
        grid_min = float(np.min(zs ** 1 + (1.0 - zs) ** 2))
        assert simplex_min_exponent_sum(blocks) == pytest.approx(grid_min, abs=1e-6)

    def test_closed_forms_load_no_optimizer(self):
        code = (
            "import sys\n"
            "from randerslab.orbits import simplex_min_exponent_sum, spherical_cap_count\n"
            "spherical_cap_count(4, 1.0, 3.0)\n"
            "simplex_min_exponent_sum([3, 4])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_product_spheres_random_points(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            y = rng.normal(size=4)
            y *= rng.uniform(1.0, 50.0) / np.linalg.norm(y)
            res = orbit_hausdorff_product_spheres([2, 2], y)
            assert res.holds

    def test_matrix_identity(self):
        res = orbit_hausdorff_matrix(MatrixPoint.identity())
        assert res.length == pytest.approx(2.0 * math.pi * math.sqrt(2.0), rel=1e-12)
        assert res.distance_to_identity == 0.0
        assert res.kappa_check

    def test_matrix_diagonal_closed_forms(self):
        res = orbit_hausdorff_matrix(MatrixPoint.diagonal(2.0))
        assert res.length == pytest.approx(2.0 * math.pi * math.sqrt(4.25), rel=1e-12)
        assert res.distance_to_identity == pytest.approx(math.sqrt(2.0) * math.log(2.0), rel=1e-12)

    def test_matrix_curve_length_numeric_oracle(self):
        # arclength of theta -> X R(theta) in the Frobenius norm by fine
        # polygonal approximation
        X = MatrixPoint(2.0, 0.5, 0.625).matrix
        thetas = np.linspace(0.0, 2.0 * math.pi, 20001)
        mats = np.array(
            [
                X @ np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
                for t in thetas
            ]
        )
        seglen = np.sqrt(((np.diff(mats, axis=0)) ** 2).sum(axis=(1, 2)))
        res = orbit_hausdorff_matrix(MatrixPoint(2.0, 0.5, 0.625))
        assert res.length == pytest.approx(float(seglen.sum()), abs=1e-6)

    def test_matrix_kappa_check_on_log_grid(self):
        for lam in np.geomspace(1.0, 1e6, 25):
            res = orbit_hausdorff_matrix(MatrixPoint.diagonal(float(lam)))
            assert res.kappa_check

    def test_matrix_constraint_validation(self):
        with pytest.raises(ValueError):
            MatrixPoint(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            MatrixPoint(-1.0, 0.0, -1.0)


class TestMatrixDistance:
    def test_distance_to_self_is_zero(self):
        x = MatrixPoint(2.0, 0.5, 0.625)
        assert matrix_distance(x, x) == pytest.approx(0.0, abs=1e-7)

    def test_diagonal_closed_form(self):
        x = MatrixPoint.identity()
        y = MatrixPoint.diagonal(3.0)
        assert matrix_distance(x, y) == pytest.approx(math.sqrt(2.0) * math.log(3.0), rel=1e-12)

    def test_symmetry(self):
        x = MatrixPoint(2.0, 0.5, 0.625)
        y = MatrixPoint.diagonal(1.7)
        assert matrix_distance(x, y) == pytest.approx(matrix_distance(y, x), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan, 1e-310])
    def test_diagonal_rejects_nonpositive_or_nonfinite(self, lam):
        # at 1e-310 the inverse overflows to inf
        with pytest.raises(ValueError):
            MatrixPoint.diagonal(lam)


POINCARE3 = SpaceForm(3, -1.0)
PROD23 = GroupAction(PRODUCT_ROTATION, (2, 3))


class TestPinnedPackings:
    """Counts of the greedy walks at the configurations the benchmark runs."""

    @pytest.mark.parametrize(
        "action, space, rho, radius, count",
        [
            (ROT, POINCARE3, 1.0, 0.75, 27),
            (ROT, POINCARE3, 1.0, 0.8, 43),
            (ROT, POINCARE3, 1.0, 0.85, 85),
            (ROT, EUCLID3, 1.0, 5.0, 78),
            (ROT, EUCLID3, 1.0, 10.0, 318),
            (PROD23, SpaceForm(5, 0.0), 2.0, 5.0, 40),
            (PROD23, SpaceForm(5, 0.0), 2.0, 10.0, 380),
            (PROD23, SpaceForm(5, 0.0), 2.0, 15.0, 1408),
            (PROD23, SpaceForm(5, 0.0), 2.0, 20.0, 3454),
        ],
    )
    def test_expansion_counts(self, action, space, rho, radius, count):
        (row,) = expansion_profile(action, space, rho, [radius])
        assert (row["count"], row["method"]) == (count, GREEDY)

    @pytest.mark.parametrize("lam, count", [(10.0, 42), (100.0, 433)])
    def test_matrix_counts(self, lam, count):
        report = packing_count(CONJ, None, MatrixPoint.diagonal(lam), 0.5)
        assert (report.count, report.method) == (count, GREEDY)


# -- brute-force oracles: the greedy walks one candidate at a time, O(steps x accepted)


def _brute_sphere_walk(space, y, rho):
    """Greedy pass over the spiral candidates of the orbit sphere through y."""
    d = y.size
    r_orbit = geodesic_distance(space, np.zeros(d), y)
    step = rho / orbits._WALK_SUBDIVISION
    area = sphere_area(d) * s_c(space.curvature, r_orbit) ** (d - 1)
    n_steps = int(min(orbits._MAX_WALK, max(256, math.ceil(area / step ** (d - 1)))))
    pts = float(np.linalg.norm(y)) * orbits._sphere_points(d, n_steps)
    accepted = []
    for p in pts:
        if accepted:
            acc = np.array(accepted)
            diff2 = ((acc - p) ** 2).sum(axis=1)
            if space.model == EUCLIDEAN:
                dist = np.sqrt(diff2)
            else:
                denom = (1.0 - p @ p) * (1.0 - np.einsum("ij,ij->i", acc, acc))
                dist = np.arccosh(np.maximum(1.0, 1.0 + 2.0 * diff2 / denom))
                dist /= math.sqrt(-space.curvature)
            if dist.min() < 2.0 * rho:
                continue
        accepted.append(p)
    return np.array(accepted)


def _brute_circle_walk(space, chart_r, rho):
    """Count of a greedy pass around the circle of chart radius chart_r (dim 2).

    The scan steps the angle by an arc of rho/20 from the last center until a
    point clears 2 rho, bisects that crossing, and stops once the next center
    would lie within 2 rho of the first one.
    """

    def dist(a, b):
        diff2 = chart_r**2 * ((math.cos(a) - math.cos(b)) ** 2 + (math.sin(a) - math.sin(b)) ** 2)
        if space.model == EUCLIDEAN:
            return math.sqrt(diff2)
        key = 2.0 * diff2 / (1.0 - chart_r**2) ** 2
        return math.acosh(1.0 + key) / math.sqrt(-space.curvature)

    r_orbit = geodesic_distance(space, np.zeros(2), np.array([chart_r, 0.0]))
    arc = 2.0 * math.pi * s_c(space.curvature, r_orbit)
    n_steps = int(min(orbits._MAX_WALK, max(64, math.ceil(arc / (rho / orbits._WALK_SUBDIVISION)))))
    step = 2.0 * math.pi / n_steps
    count, last = 1, 0.0
    while True:
        lo, hi = last, min(last + step, 2.0 * math.pi)
        while dist(hi, last) < 2.0 * rho:
            if hi == 2.0 * math.pi:
                return count
            lo, hi = hi, min(hi + step, 2.0 * math.pi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if dist(mid, last) >= 2.0 * rho else (mid, hi)
        if dist(hi, 0.0) < 2.0 * rho:
            return count
        count, last = count + 1, hi


def _brute_matrix_walk(y, rho):
    """Greedy pass over the conjugation angle grid of the orbit through y."""
    probe = [
        matrix_distance(orbits._conjugate(y, t), orbits._conjugate(y, t + 1e-4)) / 1e-4
        for t in np.linspace(0.0, math.pi, 64)
    ]
    speed = max(max(probe), 1e-12)
    step = rho / orbits._WALK_SUBDIVISION
    n_steps = int(min(orbits._MAX_WALK, max(128, math.ceil(math.pi * speed / step))))
    accepted = []
    for t in math.pi * np.arange(n_steps) / n_steps:
        p = orbits._conjugate(y, float(t))
        if all(matrix_distance(p, q) >= 2.0 * rho for q in accepted):
            accepted.append(p)
    return accepted


def _brute_min_distance(space, centers):
    """Smallest distance over every pair of vector centers."""
    pts = np.asarray(centers, dtype=float)
    if len(pts) < 2:
        return math.inf
    i, j = np.triu_indices(len(pts), k=1)
    diff2 = ((pts[i] - pts[j]) ** 2).sum(axis=1)
    if space.model == EUCLIDEAN:
        return math.sqrt(float(diff2.min()))
    one_minus = 1.0 - np.einsum("ij,ij->i", pts, pts)
    key = float((2.0 * diff2 / (one_minus[i] * one_minus[j])).min())
    return math.acosh(max(1.0, 1.0 + key)) / math.sqrt(-space.curvature)


def _unit(v):
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 1e-3 else np.eye(v.size)[0]


_DIRECTION3 = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
# a fixed example sequence keeps the suite deterministic
_PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)


class TestGreedyAgainstBruteForce:
    """The packer returns exactly the centers of the one-at-a-time greedy."""

    @_PROPERTY
    @given(ratio=st.floats(0.5, 2.0), rho=st.floats(0.3, 3.0), direction=_DIRECTION3)
    def test_euclidean_sphere(self, ratio, rho, direction):
        y = ratio * rho * _unit(direction)
        report = packing_count(ROT, EUCLID3, y, rho)
        brute = _brute_sphere_walk(EUCLID3, y, rho)
        assert np.array_equal(report.centers, brute)
        assert report.min_pairwise_distance == pytest.approx(
            _brute_min_distance(EUCLID3, brute), rel=1e-14
        )

    @_PROPERTY
    @given(
        chart_r=st.floats(0.1, 0.6),
        rho=st.floats(0.7, 1.5),
        curvature=st.sampled_from([-1.0, -2.25]),
        direction=_DIRECTION3,
    )
    def test_hyperbolic_sphere(self, chart_r, rho, curvature, direction):
        space = SpaceForm(3, curvature)
        y = chart_r * _unit(direction)
        report = packing_count(ROT, space, y, rho)
        brute = _brute_sphere_walk(space, y, rho)
        assert np.array_equal(report.centers, brute)
        assert report.min_pairwise_distance == pytest.approx(
            _brute_min_distance(space, brute), rel=1e-14
        )

    @_PROPERTY
    @given(ratio=st.floats(0.6, 1.2), rho=st.floats(0.3, 3.0))
    def test_product_block(self, ratio, rho):
        block = GroupAction(PRODUCT_ROTATION, (4,))
        y = np.array([ratio * rho, 0.0, 0.0, 0.0])
        report = packing_count(block, EUCLID4, y, rho)
        brute = _brute_sphere_walk(EUCLID4, y, rho)
        assert np.array_equal(report.centers, brute)
        assert report.min_pairwise_distance == pytest.approx(
            _brute_min_distance(EUCLID4, brute), rel=1e-14
        )

    @_PROPERTY
    @given(
        lam=st.floats(1.5, 10.0), rho=st.floats(0.5, 2.0), phase=st.floats(0.0, math.pi)
    )
    def test_conjugation_orbit(self, lam, rho, phase):
        y = orbits._conjugate(MatrixPoint.diagonal(lam), phase)
        report = packing_count(CONJ, None, y, rho)
        assert report.centers == _brute_matrix_walk(y, rho)


class TestCertificate:
    def test_verify_rejects_overlapping_centers(self):
        centers = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        report = PackingReport(np.array([1.0, 0.0, 0.0]), 1.0, 2, centers, GREEDY)
        with pytest.raises(RuntimeError):
            report.verify(ROT, EUCLID3)

    @_PROPERTY
    @given(
        lam=st.floats(3.0, 20.0), rho=st.floats(0.3, 1.0), phase=st.floats(0.0, math.pi)
    )
    @example(lam=10.0, rho=0.5, phase=0.0)
    def test_matrix_minimum_is_the_closest_pair(self, lam, rho, phase):
        y = orbits._conjugate(MatrixPoint.diagonal(lam), phase)
        report = packing_count(CONJ, None, y, rho)
        pairwise = min(
            (matrix_distance(p, q) for p in report.centers for q in report.centers if p is not q),
            default=math.inf,
        )
        assert report.min_pairwise_distance == pytest.approx(pairwise, rel=1e-14)

    def test_verify_recomputes_for_matrix_orbits(self):
        y = MatrixPoint.diagonal(4.0)
        report = packing_count(CONJ, None, y, 0.5)
        report.verify(CONJ, None)
        crowded = PackingReport(y, 0.5, 2, [y, orbits._conjugate(y, 1e-3)], GREEDY)
        with pytest.raises(RuntimeError):
            crowded.verify(CONJ, None)


class TestLargeMatrixOrbits:
    """Conjugation orbits out to lambda = 1e6, the range the hausdorff CLI sweeps."""

    @pytest.mark.parametrize("lam", [1e3, 1e6])
    def test_orbit_sample(self, lam):
        # at 360 samples, conjugation drifts det(diag(1e3)) by 1.2e-10
        samples = orbit_sample(CONJ, MatrixPoint.diagonal(lam), 360)
        assert len(samples) == 360
        for s in samples:
            assert s.a + s.c == pytest.approx(lam + 1.0 / lam, rel=1e-12)

    @pytest.mark.parametrize("lam", [1e3, 1e6])
    def test_orbit_diameter(self, lam):
        # the quarter turn swaps the eigenvalues: d = sqrt(2) acosh((lam^2 + lam^-2)/2)
        expected = math.sqrt(2.0) * math.acosh((lam**2 + lam**-2) / 2.0)
        diam = orbit_diameter(CONJ, None, MatrixPoint.diagonal(lam), n=360)
        assert diam == pytest.approx(expected, rel=1e-9)

    def test_packing_count(self):
        report = packing_count(CONJ, None, MatrixPoint.diagonal(1e3), 2.0)
        assert report.count == len(report.centers) >= 2
        assert report.min_pairwise_distance >= 4.0 - 1e-12
        report.verify(CONJ, None)
