import gc
import itertools
import json
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
    """A conjugation orbit at n equal angles, as orbits._conjugates builds
    the candidates of the conjugation walk."""

    def test_matrix_identity_is_fixed_by_conjugation(self):
        samples = _conjugation_samples(MatrixPoint.identity(), 16)
        assert samples == pytest.approx(np.tile([1.0, 0.0, 1.0], (16, 1)), abs=1e-12)

    def test_matrix_samples_keep_determinant(self):
        samples = _conjugation_samples(MatrixPoint(2.0, 0.5, 0.625), 32)
        assert samples.shape == (32, 3)
        a, b, c = samples.T
        assert a * c - b**2 == pytest.approx(np.ones(32), abs=1e-10)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(lam=st.floats(1.0, 1e5), phase=st.floats(0.0, math.pi), n=st.integers(1, 400))
    def test_matrix_rows_match_pointwise_conjugation(self, lam, phase, n):
        y = MatrixPoint(*_conjugate(MatrixPoint.diagonal(lam), phase))
        expected = np.array([_conjugate(y, float(t)) for t in 2.0 * math.pi * np.arange(n) / n])
        assert np.array_equal(_conjugation_samples(y, n), expected)


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
        assert orbit_diameter(ROT, EUCLID2, np.array([3.0, 0.0])) == pytest.approx(
            6.0, rel=1e-6
        )

    def test_fixed_point_diameter_zero(self):
        assert orbit_diameter(ROT, EUCLID2, np.zeros(2)) == 0.0

    def test_product_first_block_only(self):
        r = 4.2
        diam = orbit_diameter(PROD22, EUCLID4, np.array([r, 0.0, 0.0, 0.0]))
        assert diam == pytest.approx(2.0 * r, rel=1e-6)

    def test_hyperbolic_circle_diameter(self):
        y = np.array([0.5, 0.0])
        expected = 2.0 * geodesic_distance(HYP2, np.zeros(2), y)
        assert orbit_diameter(ROT, HYP2, y) == pytest.approx(expected, rel=1e-6)


class TestMatrixOrbitDiameter:
    def test_identity_orbit_is_a_point(self):
        assert orbit_diameter(CONJ, None, MatrixPoint.identity()) < 1e-7

    def test_diameter_realized_by_sampled_pair(self):
        y = MatrixPoint.diagonal(5.0)
        diam = orbit_diameter(CONJ, None, y)
        samples = _conjugation_samples(y, 512)
        brute = max(
            _row_distance(samples[i], samples[j])
            for i in range(0, 512, 16)
            for j in range(0, 512, 16)
        )
        assert diam >= brute - 1e-12
        assert diam <= 2.0 * math.sqrt(2.0) * math.log(5.0) + 1e-9

    def test_memory_stays_below_quadratic(self):
        # one 3000 x 3000 float array alone is 72 MB; no orbit is sampled
        tracemalloc.start()
        try:
            orbit_diameter(CONJ, None, MatrixPoint.diagonal(7.0))
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

    @pytest.mark.parametrize(
        "action, space",
        [(ROT, EUCLID2), (ROT, HYP2), (ROT, EUCLID3), (ROT, SpaceForm(3, -2.25)), (PROD22, EUCLID4)],
    )
    @pytest.mark.parametrize("t, radius", [(1.0, 12.0), (10.0, 4.0), (3.0, 5.0), (7.0, 6.5), (0.5, 0.4)])
    def test_matches_the_grid_search(self, action, space, t, radius):
        # the former search: 32 directions at 5 radii of the shell, each
        # orbit's diameter now exact
        best, found = math.inf, False
        for frac in np.linspace(0.5, 1.0, 5):
            chart = orbits._chart_radius(space, frac * radius)
            for u in _sphere_directions(space.dim, 32):
                diam = orbit_diameter(action, space, chart * u)
                best, found = min(best, diam), found or diam <= t
        report = coercivity_probe(action, space, t, radius)
        assert report.min_diameter == pytest.approx(best, rel=1e-12)
        assert report.small_orbit_found == found
        if found:
            witness = report.witness
            inner = geodesic_distance(space, np.zeros(space.dim), witness)
            assert inner == pytest.approx(radius / 2.0, rel=1e-12)
            assert np.count_nonzero(witness) == 1 and witness[0] > 0.0

    def test_witness_past_the_chart_is_refused(self):
        # tanh(20) rounds to 1: the inner sphere at R/2 = 40 has no chart point
        with pytest.raises(ValueError, match="norm < 1"):
            coercivity_probe(ROT, HYP2, t=100.0, search_radius=80.0)

    def test_conjugation_is_refused(self):
        with pytest.raises(ValueError, match="rotation actions"):
            coercivity_probe(CONJ, EUCLID2, t=1.0, search_radius=2.0)


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

    def test_matrix_conjugation_length_sampled_polygon(self):
        # arclength of theta -> R X R^T over its period pi in the Frobenius
        # norm, by fine polygonal approximation, next to the curve length
        # of theta -> X R(theta) that `length` keeps reporting
        y = MatrixPoint.diagonal(10.0)
        thetas = np.linspace(0.0, math.pi, 20001)
        cos, sin = np.cos(thetas), np.sin(thetas)
        rot = np.stack([np.stack([cos, sin], axis=-1), np.stack([-sin, cos], axis=-1)], axis=-2)
        mats = rot @ y.matrix @ rot.transpose(0, 2, 1)
        seglen = np.sqrt(((np.diff(mats, axis=0)) ** 2).sum(axis=(1, 2)))
        res = orbit_hausdorff_matrix(y)
        assert res.conjugation_length == pytest.approx(float(seglen.sum()), abs=1e-6)
        assert round(res.conjugation_length, 2) == 43.98
        assert round(res.length, 2) == 62.83
        assert orbit_hausdorff_matrix(MatrixPoint.identity()).conjugation_length == 0.0

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


class TestConjugationWalkSize:
    """A conjugation orbit runs over its period pi at the constant speed
    sqrt(2) (l1 - l2), so its walk takes ceil(pi sqrt(2) (l1 - l2) / (rho / 20))
    candidates, at least 128 and at most 500,000."""

    @pytest.mark.parametrize(
        "lam, rho, rows",
        [(10.0, 0.5, 1760), (100.0, 0.5, 17770), (1e3, 0.5, 177716), (1e3, 2.0, 44429), (1e4, 0.5, 500000)],
    )
    def test_rows(self, lam, rho, rows):
        exact = math.ceil(math.pi * math.sqrt(2.0) * (lam - 1.0 / lam) / (rho / 20.0))
        assert min(exact, 500000) == rows
        assert orbits._conjugation_candidates(MatrixPoint.diagonal(lam), rho).shape == (rows, 3)


# -- brute-force oracles: the greedy walks one candidate at a time, O(steps x accepted)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _conjugate(x, theta):
    """(a, b, c) row of R(theta) x R(theta)^T, one point at a time."""
    m = _rotation(theta) @ x.matrix @ _rotation(theta).T
    return np.array([m[0, 0], m[0, 1], m[1, 1]])


def _conjugation_samples(y, n):
    """(a, b, c) rows of the conjugates of y at the n angles 2 pi k / n."""
    return orbits._conjugates(y, 2.0 * math.pi * np.arange(n) / n)


def _sphere_directions(d, n):
    """n unit vectors in R^d: equal angles on the circle, the Fibonacci
    spiral on the 2-sphere, the walk's Kronecker points above."""
    if d == 2:
        thetas = 2.0 * math.pi * np.arange(n) / n
        return np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return _reference_sphere_points3(n) if d == 3 else orbits._sphere_points(d, n)


def _row_distance(x, y):
    """matrix_distance between two (a, b, c) rows."""
    return matrix_distance(MatrixPoint(*x), MatrixPoint(*y))


def _spiral_candidates(space, y, rho):
    """The spiral candidates of the walk over the orbit sphere through y."""
    d = y.size
    r_orbit = geodesic_distance(space, np.zeros(d), y)
    step = rho / orbits._WALK_SUBDIVISION
    area = sphere_area(d) * s_c(space.curvature, r_orbit) ** (d - 1)
    n_steps = int(min(orbits._MAX_WALK, max(256, math.ceil(area / step ** (d - 1)))))
    return float(np.linalg.norm(y)) * _sphere_directions(d, n_steps)


def _brute_sphere_walk(space, y, rho):
    """Greedy pass over the spiral candidates of the orbit sphere through y:
    each candidate in order is accepted unless closer than 2 rho to an
    accepted one.  A block of candidates is measured against the centers
    accepted before it at once; the few it leaves are then taken one at a
    time against those accepted within the block."""
    pts = _spiral_candidates(space, y, rho)
    k = None if space.model == EUCLIDEAN else math.sqrt(-space.curvature)

    def far(cand, acc):
        # True for each row of cand at least 2 rho from every row of acc
        if len(acc) == 0:
            return np.ones(len(cand), dtype=bool)
        diff2 = ((acc[None, :, :] - cand[:, None, :]) ** 2).sum(axis=2)
        if k is None:
            dist = np.sqrt(diff2)
        else:
            denom = (1.0 - np.einsum("ij,ij->i", cand, cand))[:, None] * (1.0 - np.einsum("ij,ij->i", acc, acc))
            dist = np.arccosh(np.maximum(1.0, 1.0 + 2.0 * diff2 / denom))
            dist /= k
        return ~(dist.min(axis=1) < 2.0 * rho)

    accepted = np.empty((0, y.size))
    for start in range(0, len(pts), 1024):
        block = pts[start : start + 1024]
        before = len(accepted)
        for p in block[far(block, accepted)]:
            if far(p[None, :], accepted[before:])[0]:
                accepted = np.concatenate([accepted, p[None, :]])
    return accepted


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
    """Greedy pass over the conjugation angle grid of the orbit through y,
    sized by the orbit's constant speed sqrt(2) (l1 - l2)."""
    lam1, lam2 = y.eigenvalues
    speed = math.sqrt(2.0) * (lam1 - lam2)
    step = rho / orbits._WALK_SUBDIVISION
    n_steps = int(min(orbits._MAX_WALK, max(128, math.ceil(math.pi * speed / step))))
    accepted = []
    for t in math.pi * np.arange(n_steps) / n_steps:
        p = MatrixPoint(*_conjugate(y, float(t)))
        if all(matrix_distance(p, q) >= 2.0 * rho for q in accepted):
            accepted.append(p)
    return np.array([[p.a, p.b, p.c] for p in accepted])


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
        y = MatrixPoint(*_conjugate(MatrixPoint.diagonal(lam), phase))
        report = packing_count(CONJ, None, y, rho)
        assert np.array_equal(report.centers, _brute_matrix_walk(y, rho))


def _farthest_sampled_pair(action, space, y):
    """Largest distance over every pair of 512 points of the orbit of y:
    the conjugates at equal angles, or y moved blockwise by seeded random
    orthogonal matrices (QR of normal draws)."""
    if action.kind == MATRIX_CONJUGATION:
        a, b, c = _conjugation_samples(y, 512).T
        tr = np.outer(c, a) - 2.0 * np.outer(b, b) + np.outer(a, c)
        return math.sqrt(2.0) * math.acosh(max(1.0, float(tr.max()) / 2.0))
    rng = np.random.default_rng(0)
    parts = np.split(y, np.cumsum(action.blocks or (y.size,))[:-1])
    turns = [np.linalg.qr(rng.standard_normal((512, b.size, b.size)))[0] for b in parts]
    pts = np.concatenate([q @ b for q, b in zip(turns, parts)], axis=1)
    diff2 = sum(np.subtract.outer(col, col) ** 2 for col in pts.T)
    if space is None or space.model == EUCLIDEAN:
        return math.sqrt(float(diff2.max()))
    one_minus = 1.0 - (pts**2).sum(axis=1)
    key = float((2.0 * diff2 / np.outer(one_minus, one_minus)).max())
    return math.acosh(1.0 + key) / math.sqrt(-space.curvature)


class TestExactDiameter:
    """orbit_diameter is twice the distance from the fixed point: no sampled
    pair of the orbit lies farther apart, and the antipode lies that far."""

    @staticmethod
    def _check(action, space, y, antipode_distance):
        diam = orbit_diameter(action, space, y)
        assert diam >= _farthest_sampled_pair(action, space, y) * (1.0 - 1e-12)
        assert diam == pytest.approx(antipode_distance, rel=1e-12)

    @_PROPERTY
    @given(
        dim=st.integers(2, 4),
        curvature=st.sampled_from([0.0, -1.0, -2.25]),
        radius=st.floats(0.05, 0.99),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    )
    @example(dim=2, curvature=0.0, radius=0.03, direction=[1.0, 0.0, 0.0, 0.0])  # the circle of radius 3
    @example(dim=3, curvature=-1.0, radius=0.5, direction=[1.0, 0.0, 0.0, 0.0])  # diameter 2 ln 3
    def test_rotation_orbit(self, dim, curvature, radius, direction):
        # Euclidean radii span [5, 99]; Poincare chart radii run out to 0.99
        space = SpaceForm(dim, curvature)
        y = (100.0 * radius if curvature == 0.0 else radius) * _unit(direction[:dim])
        self._check(ROT, space, y, geodesic_distance(space, y, -y))

    @_PROPERTY
    @given(
        blocks=st.sampled_from([(2, 2), (2, 3), (3, 2, 2)]),
        scales=st.lists(st.floats(0.0, 50.0), min_size=3, max_size=3),
        ambient=st.booleans(),
    )
    def test_product_orbit(self, blocks, scales, ambient):
        y = np.concatenate([s * np.eye(b)[0] for s, b in zip(scales, blocks)])
        space = SpaceForm(y.size, 0.0) if ambient else None
        self._check(GroupAction(PRODUCT_ROTATION, blocks), space, y, float(np.linalg.norm(y - -y)))

    @_PROPERTY
    @given(lam=st.floats(1.1, 1e6), phase=st.floats(0.0, math.pi))
    @example(lam=1e6, phase=0.0)
    @example(lam=1e6, phase=math.pi / 4.0)
    def test_conjugation_orbit(self, lam, phase):
        y = MatrixPoint(*_conjugate(MatrixPoint.diagonal(lam), phase))
        inverse = MatrixPoint(y.c, -y.b, y.a)  # the quarter-turn conjugate
        self._check(CONJ, None, y, matrix_distance(y, inverse))


# -- reference copies: the Fibonacci spiral as np.stack of its columns, and the
# greedy walk with query_ball_point lists on a balanced kd-tree.  The brute-force
# oracles above reach only radii <= 2 rho, so these pin the spiral and the walk
# at the sizes the benchmark runs.


def _reference_sphere_points3(n):
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    k = np.arange(n)
    z = 1.0 - 2.0 * (k + 0.5) / n
    phi = 2.0 * math.pi * k / golden
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _reference_greedy_walk(action, space, points, rho) -> list:
    from scipy.spatial import cKDTree

    emb, chord, key, dist = orbits._orbit_metric(action, space, points)
    tree = cKDTree(emb, balanced_tree=False)  # sliding-midpoint splits build faster
    radius = chord(2.0 * rho)
    blocked = bytearray(len(emb))
    flags = np.frombuffer(blocked, dtype=bool)  # writable view of blocked
    accepted = []
    i = 0
    while i >= 0:
        accepted.append(i)
        near = np.asarray(tree.query_ball_point(emb[i], radius), dtype=np.intp)
        later = near[near > i]
        later = later[~flags[later]]
        flags[later[dist(key(i, later)) < 2.0 * rho]] = True
        i = blocked.find(0, i + 1)  # next unblocked candidate, -1 past the end
    return accepted


def _reference_pairwise_min_distance(action, space, centers) -> float:
    """Smallest pairwise distance among centers, certified with a kd-tree.

    The nearest-neighbour chords give a pair whose exact distance bounds the
    minimum from above; query_pairs collects every pair within the chord of
    that bound, and the exact formula measures those.
    """
    from scipy.spatial import cKDTree

    if len(centers) < 2:
        return math.inf
    emb, chord, key, dist = orbits._orbit_metric(action, space, centers)
    tree = cKDTree(emb)
    nearest = tree.query(emb, k=2)[1][:, 1]
    bound = float(dist(key(np.arange(len(emb)), nearest).min()))
    pairs = tree.query_pairs(chord(bound), output_type="ndarray")
    return float(dist(key(pairs[:, 0], pairs[:, 1]).min()))


class TestWalkAgainstReferenceCopies:
    @pytest.mark.parametrize("n", [256, 1000, 59088, 500000])
    def test_spiral_is_bit_identical(self, n):
        assert np.array_equal(orbits._spiral_rows(n, 0, np.empty((n, 3))), _reference_sphere_points3(n))

    @pytest.mark.parametrize(
        "space, radius, rho, n_steps",
        [
            (POINCARE3, 0.85, 1.0, 188644),
            (EUCLID3, 10.0, 1.0, 500000),
            (EUCLID3, 20.0 / math.sqrt(2.0), 2.0, 251328),  # a 3-block of the product (2, 3)
        ],
    )
    def test_sphere_walk(self, space, radius, rho, n_steps):
        y = np.array([radius, 0.0, 0.0])
        pts = radius * _reference_sphere_points3(n_steps)
        accepted = _reference_greedy_walk(ROT, space, pts, rho)
        emb, chord, key, dist = orbits._orbit_metric(ROT, space, pts)
        assert orbits._greedy_walk(len(pts), rho, orbits._tree_balls(emb, chord(2.0 * rho)), key, dist) == accepted
        assert orbits._sphere_walk(space, y, rho).tobytes() == pts[accepted].tobytes()

    def test_conjugation_walk(self):
        y, rho = MatrixPoint.diagonal(100.0), 0.5
        report = packing_count(CONJ, None, y, rho)
        n_steps = 17770
        pts = orbits._conjugates(y, math.pi * np.arange(n_steps) / n_steps)
        accepted = _reference_greedy_walk(CONJ, None, pts, rho)
        emb, chord, key, dist = orbits._orbit_metric(CONJ, None, pts)
        assert orbits._greedy_walk(len(pts), rho, orbits._angle_balls(emb, chord(2.0 * rho)), key, dist) == accepted
        assert report.centers.tobytes() == pts[accepted].tobytes()


class TestLatticeBall:
    """A 2-sphere walk takes each ball from the spiral's index window and
    golden-angle offsets; that fetch must hold every later member of the
    kd-tree chord ball, and the walk must accept what the reference accepts."""

    @pytest.mark.parametrize(
        "space, radius, rho",
        [
            (EUCLID3, 10.0, 1.0),  # 500,000 candidates; windows straddle the equator
            (POINCARE3, 0.99, 1.0),  # 500,000 candidates, 19,854 small balls
            (SpaceForm(3, -2.25), 0.6, 0.7),  # 256 candidates, balls near the whole sphere
        ],
    )
    def test_fetch_holds_the_chord_ball(self, space, radius, rho):
        from scipy.spatial import cKDTree

        pts = _spiral_candidates(space, np.array([radius, 0.0, 0.0]), rho)
        emb, chord, _, _ = orbits._orbit_metric(ROT, space, pts)
        reach = chord(2.0 * rho)
        spiral = orbits._SpiralWindow(space, len(pts), radius)
        balls = orbits._lattice_balls(spiral, spiral.chord(2.0 * rho))
        accepted = orbits._greedy_walk(len(pts), rho, balls, spiral.key, spiral.dist)
        assert accepted[0] == 0  # the first centre sits at the pole
        z = emb[:, 2]
        assert any(z[i] > 0.0 > z[i] - reach for i in accepted)  # a window across the equator
        probes = sorted(set(accepted) | set(np.linspace(0, len(pts) - 1, 257).astype(int).tolist()))
        later_ball = orbits._lattice_balls(orbits._SpiralWindow(space, len(pts), radius), reach)
        for i, near in zip(probes, cKDTree(emb).query_ball_point(emb[probes], reach)):
            near = np.asarray(near, dtype=np.intp)
            fetched = later_ball(i)
            assert np.all(fetched > i)
            assert np.isin(near[near > i], fetched).all(), i

    @_PROPERTY
    @given(
        radius=st.floats(0.05, 0.99),
        fraction=st.floats(-4.0, 0.0),
        curvature=st.sampled_from([0.0, -0.5, -1.0, -2.25]),
    )
    @example(radius=0.5, fraction=-4.0, curvature=0.0)  # reach 2e-4 s: the 1e-12 relative pad is below the rounding
    @example(radius=0.99, fraction=-4.0, curvature=-2.25)
    @example(radius=0.05, fraction=0.0, curvature=-0.5)  # reach 2 s: every arc passes the south pole
    def test_meridian_fetch_holds_the_chord_ball(self, radius, fraction, curvature):
        # rho is 10^fraction of the orbit's geodesic radius; the probes take
        # both poles, the equator and a grid between them
        from scipy.spatial import cKDTree

        space = SpaceForm(3, curvature)
        y = np.array([20.0 * radius if curvature == 0.0 else radius, 0.0, 0.0])
        rho = 10.0**fraction * geodesic_distance(space, np.zeros(3), y)
        pts = _spiral_candidates(space, y, rho)
        n = len(pts)
        reach = orbits._orbit_metric(ROT, space, pts)[1](2.0 * rho)
        later_ball = orbits._lattice_balls(orbits._SpiralWindow(space, n, y[0]), reach)
        ends = {0, 1, 2, n // 2 - 1, n // 2, n // 2 + 1, n - 3, n - 2, n - 1}
        probes = sorted(ends | set(np.linspace(0, n - 1, 65).astype(int).tolist()))
        for i, near in zip(probes, cKDTree(pts).query_ball_point(pts[probes], reach)):
            near = np.asarray(near, dtype=np.intp)
            fetched = later_ball(i)
            assert np.all((fetched > i) & (fetched < n))
            assert np.isin(near[near > i], fetched).all(), i

    @pytest.mark.parametrize(
        "space, radius, parent_fetch",
        [(EUCLID3, 10.0, 6536), (POINCARE3, 0.85, 9147)],
    )
    def test_fetch_stays_near_the_chord_ball(self, space, radius, parent_fetch):
        # mean candidates per acceptance; the z window alone fetched
        # parent_fetch, about 2.6 chord balls
        spiral = orbits._SpiralWindow(space, orbits._walk_size(space, np.array([radius, 0.0, 0.0]), 1.0), radius)
        later_ball, fetched = orbits._lattice_balls(spiral, spiral.chord(2.0)), []

        def counted(i):
            later = later_ball(i)
            fetched.append(len(later))
            return later

        orbits._greedy_walk(spiral.n, 1.0, counted, spiral.key, spiral.dist)
        assert np.mean(fetched) <= 0.6 * parent_fetch

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        radius=st.floats(0.05, 0.99),
        rho=st.floats(0.25, 2.0),
        curvature=st.sampled_from([0.0, -0.5, -1.0, -2.25]),
    )
    @example(radius=0.99, rho=1.0, curvature=-1.0)  # the README chart radius, at the cap
    @example(radius=0.5, rho=1.0, curvature=0.0)  # Euclidean radius 10, at the cap
    def test_walk_matches_the_reference(self, radius, rho, curvature):
        # Euclidean orbit radii span [1, 19.8], Poincare chart radii [0.05, 0.99]
        space = SpaceForm(3, curvature)
        y = np.array([20.0 * radius if curvature == 0.0 else radius, 0.0, 0.0])
        pts = _spiral_candidates(space, y, rho)
        accepted = _reference_greedy_walk(ROT, space, pts, rho)
        assert orbits._sphere_walk(space, y, rho).tobytes() == pts[accepted].tobytes()


class TestSpiralWindow:
    """A 2-sphere walk builds its spiral in index ranges, into one buffer
    that slides along it; every range, closed-form z and Poincare
    1 - |p|^2 must be bit for bit those of the whole spiral."""

    @pytest.mark.parametrize("n", [256, 1000, 59088])
    @pytest.mark.parametrize("start, size", [(0, 1), (1, 1), (5, 7), (3, 4097), (0, 65537)])
    def test_ranges_equal_the_reference(self, n, start, size):
        whole = _reference_sphere_points3(n)
        edges = list(range(start, n, size)) + [n]
        for lo, hi in zip(edges, edges[1:]):
            rows = orbits._spiral_rows(n, lo, np.empty((hi - lo, 3)))
            assert rows.tobytes() == whole[lo:hi].tobytes(), lo

    @pytest.mark.parametrize("n", [256, 188644, 500000])
    @pytest.mark.parametrize("r", [0.85, 10.0, 20.0 / math.sqrt(2.0)])
    def test_closed_form_z(self, n, r):
        spiral = orbits._SpiralWindow(EUCLID3, n, r)
        z = np.fromiter(map(spiral.z, range(n)), float, count=n)
        assert z.tobytes() == (r * _reference_sphere_points3(n))[:, 2].tobytes()

    @pytest.mark.parametrize("space", [EUCLID3, POINCARE3])
    @pytest.mark.parametrize("n, length, steps", [(1000, 5, [1]), (1000, 64, [1, 3, 70]), (59088, 4097, [7, 4097, 9001])])
    def test_held_rows_equal_the_whole_spiral(self, space, n, length, steps):
        # acceptances i with windows [i, i + length) that slide the buffer by
        # one row, by odd offsets, and past its end (no overlap kept)
        r = 0.85
        pts = r * _reference_sphere_points3(n)
        one_minus = 1.0 - np.einsum("ij,ij->i", pts, pts)
        spiral = orbits._SpiralWindow(space, n, r)
        spiral.open(length)
        i, accepted = 0, []
        for step in itertools.cycle(steps):
            if i >= n:
                break
            base = spiral.accept(i, min(n, i + length))
            accepted.append(i)
            held = slice(base, spiral.top)
            assert base <= i < spiral.top and spiral.rows[: spiral.top - base].tobytes() == pts[held].tobytes()
            if space is POINCARE3:
                assert spiral.one_minus[: spiral.top - base].tobytes() == one_minus[held].tobytes()
            i += step
        assert spiral.centers().tobytes() == pts[accepted].tobytes()

    @pytest.mark.parametrize("n", [256, 188644, 500000])
    def test_poincare_chord_covers_the_whole_spiral(self, n):
        # the walk scales its chord by a bound on 1 - |p|^2, not by a pass
        # over the candidates as the whole-array metric does
        unit = _reference_sphere_points3(n)
        for r in [0.05, 0.5, 0.75, 0.85, 0.9, 0.99, 0.999]:
            whole = orbits._orbit_metric(ROT, POINCARE3, r * unit)[1]
            window = orbits._SpiralWindow(POINCARE3, n, r).chord
            for d in [0.1, 1.0, 2.0, 5.0]:
                assert window(d) >= whole(d)

    @pytest.mark.parametrize(
        "space, radius, rho",
        [
            (EUCLID3, 10.0, 1.0),  # 500,000 candidates, 15.3 MB held before
            (POINCARE3, 0.99, 1.0),  # 500,000 candidates, 19,854 centres
            (POINCARE3, 0.85, 1.0),
            (EUCLID3, 20.0 / math.sqrt(2.0), 2.0),  # a 3-block of the product (2, 3)
        ],
    )
    def test_walk_holds_a_window(self, space, radius, rho):
        y = np.array([radius, 0.0, 0.0])
        gc.disable()  # what outlives the walk must be freed without a collection
        tracemalloc.start()
        try:
            centers = orbits._sphere_walk(space, y, rho)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak <= 4e6
        assert current <= 2 * centers.nbytes + 10_000


class TestAngleBall:
    """A conjugation walk takes each ball from the index window of its angle
    grid; that fetch must hold every later member of the kd-tree chord ball."""

    @_PROPERTY
    @given(lam=st.floats(1.5, 1e5), rho=st.floats(0.1, 3.0), phase=st.floats(0.0, math.pi))
    @example(lam=1e4, rho=0.5, phase=0.0)  # 500,000 candidates, windows of 13
    @example(lam=100.0, rho=0.5, phase=1.0)  # the benchmark's diag100, rotated
    @example(lam=1.5, rho=3.0, phase=0.0)  # one ball holds the whole orbit
    def test_fetch_holds_the_chord_ball(self, lam, rho, phase):
        from scipy.spatial import cKDTree

        y = MatrixPoint(*_conjugate(MatrixPoint.diagonal(lam), phase))
        pts = orbits._conjugation_candidates(y, rho)
        emb, chord, _, _ = orbits._orbit_metric(CONJ, None, pts)
        reach = chord(2.0 * rho)
        later_ball = orbits._angle_balls(emb, reach)
        n = len(pts)
        probes = sorted({0, 1, 2, n - 2, n - 1} | set(np.linspace(0, n - 1, 129).astype(int).tolist()))
        for i, near in zip(probes, cKDTree(emb).query_ball_point(emb[probes], reach)):
            near = np.asarray(near, dtype=np.intp)
            fetched = later_ball(i)
            assert np.all(fetched > i) and len(np.unique(fetched)) == len(fetched)
            assert np.isin(near[near > i], fetched).all(), i


def _conjugation_rho(lam, n_centers):
    """Half the distance of two points of the orbit of diag(lam) that are
    pi / n_centers apart in angle: a walk accepts about n_centers centers."""
    delta = lam - 1.0 / lam
    return math.acosh(1.0 + (math.sin(math.pi / n_centers) * delta) ** 2 / 2.0) / math.sqrt(2.0)


class TestPairwiseCertificate:
    """The pairwise certificate (a cell list on at most 3 columns, a kd-tree
    of the centres on more) returns, bit for bit, the minimum the reference
    kd-tree certificate returns."""

    @_PROPERTY
    @given(
        dim=st.integers(3, 5),
        curvature=st.sampled_from([0.0, -1.0, -2.25]),
        radius=st.floats(0.3, 0.9),
        rho=st.floats(0.5, 1.5),
    )
    @example(dim=3, curvature=-1.0, radius=0.9, rho=1.0)  # the README chart radius 0.9
    def test_sphere_walks(self, dim, curvature, radius, rho):
        # Euclidean radii span [3, 9] rho; Poincare chart radii [0.3, 0.9]
        space = SpaceForm(dim, curvature)
        y = (10.0 * radius * rho if curvature == 0.0 else radius) * np.eye(dim)[0]
        centers = orbits._sphere_walk(space, y, rho)
        expected = _reference_pairwise_min_distance(ROT, space, centers)
        assert orbits._pairwise_min_distance(ROT, space, centers) == expected

    @_PROPERTY
    @given(
        lam=st.floats(1.5, 1e5),
        n_centers=st.integers(2, 20_000),
        phase=st.floats(0.0, math.pi),
    )
    @example(lam=1e5, n_centers=20_000, phase=0.5)
    def test_conjugation_walks(self, lam, n_centers, phase):
        y = MatrixPoint(*_conjugate(MatrixPoint.diagonal(lam), phase))
        report = packing_count(CONJ, None, y, _conjugation_rho(lam, n_centers))
        expected = _reference_pairwise_min_distance(CONJ, None, report.centers)
        assert report.min_pairwise_distance == expected

    @pytest.mark.parametrize("phase", [0.0, 0.5])
    def test_walk_keeps_no_pair_its_certificate_refuses(self, phase):
        # the key c_i a_j - 2 b_i b_j + a_i c_j sums terms of order lambda^2
        # that cancel, so its two orders differ by about 1e-9 relative at
        # lambda = 1e5; the walk keys each pair as (earlier, later), as the
        # certificate does, so every pair it keeps reads >= 2 rho there
        y = MatrixPoint(*_conjugate(MatrixPoint.diagonal(1e5), phase))
        rho = _conjugation_rho(1e5, 20_000)
        assert packing_count(CONJ, None, y, rho).min_pairwise_distance >= 2.0 * rho

    @_PROPERTY
    @given(columns=st.integers(2, 3), seed=st.integers(0, 2**16), radius=st.floats(0.01, 2.0))
    @example(columns=3, seed=0, radius=1e-6)  # cells at their floor of 2^-18 of the extent
    def test_cell_pairs_hold_every_close_pair(self, columns, seed, radius):
        from scipy.spatial import cKDTree

        emb = np.random.default_rng(seed).normal(size=(400, columns))
        i, j = orbits._cell_pairs(emb, radius)
        assert np.all(i < j)
        assert cKDTree(emb).query_pairs(radius) <= set(zip(i.tolist(), j.tolist()))

    @_PROPERTY
    @given(
        model=st.sampled_from(["euclid", "poincare"]),
        polar=st.lists(
            st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi)),
            min_size=2, max_size=60, unique=True,
        ),
    )
    def test_plane_sets(self, model, polar):
        # Euclidean points within radius 9.5, Poincare points within 0.95
        space = EUCLID2 if model == "euclid" else HYP2
        scale = 10.0 if model == "euclid" else 1.0
        pts = np.array([[scale * r * math.cos(t), scale * r * math.sin(t)] for r, t in polar])
        expected = _reference_pairwise_min_distance(ROT, space, pts)
        assert orbits._pairwise_min_distance(ROT, space, pts) == expected


class TestProductCertificate:
    """A product report is certified by its blocks: bit for bit the kd-tree
    minimum over the full grid."""

    @_PROPERTY
    @given(
        blocks=st.sampled_from([(2, 3), (3, 2, 2), (2, 2), (3, 3)]),
        scales=st.lists(st.floats(0.0, 6.0), min_size=3, max_size=3),
        rho=st.floats(0.5, 1.5),
    )
    @example(blocks=(2, 3), scales=[20.0 / math.sqrt(2.0)] * 3, rho=2.0)  # the benchmark's radius 20
    @example(blocks=(3, 2, 2), scales=[3.0, 0.0, 2.0], rho=1.0)  # a block at its fixed point
    def test_grid_minimum_is_the_kd_tree_minimum(self, blocks, scales, rho):
        action = GroupAction(PRODUCT_ROTATION, blocks)
        y = np.concatenate([s * np.eye(b)[0] for s, b in zip(scales, blocks)])
        report = packing_count(action, SpaceForm(y.size, 0.0), y, rho)
        expected = _reference_pairwise_min_distance(action, None, report.centers)
        assert report.min_pairwise_distance == expected

    def test_verify_rejects_a_repeated_row(self):
        y = np.array([3.0, 0.0, 2.0, 0.0])
        report = packing_count(PROD22, None, y, 0.5)
        report.verify(PROD22, None)
        repeated = np.concatenate([report.centers, report.centers[-1:]])
        with pytest.raises(RuntimeError, match="repeated"):
            PackingReport(y, 0.5, len(repeated), repeated, GREEDY).verify(PROD22, None)

    def test_verify_rejects_a_crowded_block(self):
        # every pair of the grid differs by 4 in one block, but the two
        # points of the other block are 2e-3 apart
        crowded = [[1.0, 0.0], [math.cos(1e-3), math.sin(1e-3)]]
        centers = np.array([p + q for p in crowded for q in ([2.0, 0.0], [-2.0, 0.0])])
        report = PackingReport(np.array([1.0, 0.0, 2.0, 0.0]), 0.5, 4, centers, GREEDY)
        with pytest.raises(RuntimeError, match="violated"):
            report.verify(PROD22, None)


class TestWalkSize:
    """A sphere walk's candidate count stays finite at extreme radii and rho."""

    @pytest.mark.parametrize("radius, rho", [(1e153, 1.0), (0.5, 1e-200)])
    def test_overflow_takes_the_cap(self, monkeypatch, radius, rho):
        # area / step^2 overflows to inf, or step^2 underflows to 0; the walk
        # takes the capped candidate count (lowered here to keep it quick)
        monkeypatch.setattr(orbits, "_MAX_WALK", 300)
        report = packing_count(ROT, EUCLID3, np.array([radius, 0.0, 0.0]), rho)
        assert report.count == 300  # the spiral's points are all 2 rho apart

    def test_overflowing_area_power_takes_the_cap(self, monkeypatch):
        # r^3 of the 3-sphere's area is out of float range, which a Python
        # float power raises as OverflowError
        monkeypatch.setattr(orbits, "_MAX_WALK", 300)
        report = packing_count(ROT, EUCLID4, np.array([1e110, 0.0, 0.0, 0.0]), 1.0)
        assert report.count == 300

    @pytest.mark.parametrize("space, rho", [(EUCLID3, 1e300), (EUCLID4, 1e200)])
    def test_overflowing_cell_power_takes_the_floor(self, space, rho):
        # step^(d - 1) is out of float range: 256 candidates, one ball
        y = np.zeros(space.dim)
        y[0] = 1.0
        assert orbits._walk_size(space, y, rho) == 256
        assert packing_count(ROT, space, y, rho).count == 1

    def test_points_above_twelve_dimensions(self):
        # the Kronecker sequence takes one prime per coordinate
        pts = orbits._sphere_points(13, 5)
        assert pts.shape == (5, 13)
        assert np.linalg.norm(pts, axis=1) == pytest.approx(np.ones(5), rel=1e-12)

    def test_thirteen_dimensional_walk(self, monkeypatch):
        monkeypatch.setattr(orbits, "_MAX_WALK", 300)
        space, y = SpaceForm(13, 0.0), 2.0 * np.eye(13)[0]
        report = packing_count(ROT, space, y, 1.0)
        assert report.centers.shape == (report.count, 13)
        assert np.array_equal(report.centers, _brute_sphere_walk(space, y, 1.0))


class TestExactKey:
    @pytest.mark.parametrize("d", range(2, 8))
    def test_column_sum_is_the_row_sum(self, d):
        # the key sums squared differences column by column; for rows of
        # fewer than 8 terms that gives numpy's row sum, bit for bit
        pts = np.random.default_rng(d).normal(size=(50_000, d))
        _, _, key, _ = orbits._orbit_metric(ROT, SpaceForm(d, 0.0), pts)
        later = np.arange(1, len(pts))
        for i in (0, 1, 777):
            assert key(later, i).tobytes() == ((pts[later] - pts[i]) ** 2).sum(-1).tobytes()


class TestCertificate:
    def test_verify_rejects_overlapping_centers(self):
        centers = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        report = PackingReport(np.array([1.0, 0.0, 0.0]), 1.0, 2, centers, GREEDY)
        with pytest.raises(RuntimeError):
            report.verify(ROT, EUCLID3)

    def test_verify_rejects_repeated_centers(self):
        # consecutive equal rows bound the minimum by 0, which is the minimum
        centers = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        assert orbits._pairwise_min_distance(ROT, EUCLID3, centers) == 0.0
        report = PackingReport(centers[0], 0.5, 3, centers, GREEDY)
        with pytest.raises(RuntimeError, match="min distance 0.0 < 2 rho"):
            report.verify(ROT, EUCLID3)

    @_PROPERTY
    @given(
        lam=st.floats(3.0, 20.0), rho=st.floats(0.3, 1.0), phase=st.floats(0.0, math.pi)
    )
    @example(lam=10.0, rho=0.5, phase=0.0)
    def test_matrix_minimum_is_the_closest_pair(self, lam, rho, phase):
        y = MatrixPoint(*_conjugate(MatrixPoint.diagonal(lam), phase))
        report = packing_count(CONJ, None, y, rho)
        centers = report.centers
        pairwise = min(
            (_row_distance(p, q) for i, p in enumerate(centers) for j, q in enumerate(centers) if i != j),
            default=math.inf,
        )
        assert report.min_pairwise_distance == pytest.approx(pairwise, rel=1e-14)

    def test_verify_recomputes_for_matrix_orbits(self):
        y = MatrixPoint.diagonal(4.0)
        report = packing_count(CONJ, None, y, 0.5)
        report.verify(CONJ, None)
        crowded = PackingReport(y, 0.5, 2, np.array([[y.a, y.b, y.c], _conjugate(y, 1e-3)]), GREEDY)
        with pytest.raises(RuntimeError):
            crowded.verify(CONJ, None)


class TestAngularCertificate:
    """An ANGULAR_EXACT circle is certified by the cell list, as every other
    orbit that is not a product grid is."""

    @_PROPERTY
    @given(
        model=st.sampled_from(["euclid", "poincare"]),
        curvature=st.floats(-4.0, -0.25),
        radius=st.floats(0.05, 0.99),
        ratio=st.floats(0.005, 2.0),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    @example(model="euclid", curvature=-1.0, radius=0.5, ratio=1.5, phase=0.0)  # 1 center
    @example(model="euclid", curvature=-1.0, radius=0.5, ratio=0.9, phase=1.0)  # 2 centers
    @example(model="euclid", curvature=-1.0, radius=0.5, ratio=0.8, phase=2.0)  # 3 centers
    @example(model="poincare", curvature=-1.0, radius=0.3, ratio=0.9, phase=3.0)  # 2 centers
    def test_adjacent_minimum_is_the_kd_tree_minimum(self, model, curvature, radius, ratio, phase):
        # Euclidean radii span [5, 99]; Poincare chart radii run out to 0.99
        space = EUCLID2 if model == "euclid" else SpaceForm(2, curvature)
        chart_r = 100.0 * radius if model == "euclid" else radius
        y = chart_r * np.array([math.cos(phase), math.sin(phase)])
        rho = ratio * geodesic_distance(space, np.zeros(2), y)
        centers = orbits._circle_centers(space, y, rho)
        report = packing_count(ROT, space, y, rho)
        assert report.method == ANGULAR_EXACT and report.centers.tobytes() == centers.tobytes()
        assert report.min_pairwise_distance == _reference_pairwise_min_distance(ROT, space, centers)

    def test_centers_off_one_circle_are_refused(self):
        # the closest pair, (1, 0) and (1, 0.1), is not adjacent in angle:
        # the adjacent pairs alone would certify 4.0 >= 2 rho
        centers = np.array([[1.0, 0.0], [5.0, 0.2], [1.0, 0.1], [-5.0, 0.0]])
        cell_list = orbits._pairwise_min_distance(ROT, EUCLID2, centers)
        assert cell_list == _reference_pairwise_min_distance(ROT, EUCLID2, centers) == pytest.approx(0.1)
        report = PackingReport(np.array([1.0, 0.0]), 1.0, 4, centers, ANGULAR_EXACT)
        with pytest.raises(RuntimeError, match="violated"):
            report.verify(ROT, EUCLID2)

    def test_verify_rejects_crowded_circle(self):
        report = packing_count(ROT, HYP2, np.array([0.6, 0.0]), 0.4)
        report.verify(ROT, HYP2)
        crowded = 0.6 * np.array([[1.0, 0.0], [math.cos(1e-3), math.sin(1e-3)]])
        with pytest.raises(RuntimeError, match="violated"):
            PackingReport(report.y, 0.4, 2, crowded, ANGULAR_EXACT).verify(ROT, HYP2)


class TestCircleCap:
    """A circle of more than _MAX_CENTERS centers is refused before it is built."""

    def test_count_just_above_the_cap_raises(self):
        # pi r / rho is about 249k centers
        with pytest.raises(ValueError, match="materializes"):
            packing_count(ROT, EUCLID2, np.array([1000.0, 0.0]), 0.0126)

    def test_count_at_the_cap_is_built(self):
        rho = 1000.0 * math.sin(math.pi / (orbits._MAX_CENTERS + 0.5))
        assert packing_count(ROT, EUCLID2, np.array([1000.0, 0.0]), rho).count == orbits._MAX_CENTERS

    def test_vanishing_spacing_raises(self):
        # cosh(2 rho) rounds to 1, so the angular spacing is 0
        with pytest.raises(ValueError, match="materializes"):
            packing_count(ROT, HYP2, np.array([0.5, 0.0]), 1e-300)

    def test_cli_gives_error_record(self, capsys):
        from randerslab.cli import main

        argv = ["packing", "--space", "euclid", "--dim", "2", "--rho", "0.0126", "--radii", "1000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"


class TestWalkCap:
    """A greedy walk stops at its first acceptance past _MAX_CENTERS."""

    @pytest.mark.parametrize(
        "action, space, y, rho",
        [(ROT, EUCLID3, np.array([2.0, 0.0, 0.0]), 0.5), (CONJ, None, MatrixPoint.diagonal(10.0), 0.5)],
    )
    def test_walk_past_the_cap_raises(self, monkeypatch, action, space, y, rho):
        count = packing_count(action, space, y, rho).count
        monkeypatch.setattr(orbits, "_MAX_CENTERS", count)
        assert packing_count(action, space, y, rho).count == count
        monkeypatch.setattr(orbits, "_MAX_CENTERS", count - 1)
        with pytest.raises(ValueError, match=f"more than {count - 1} centers"):
            packing_count(action, space, y, rho)

    def test_cli_gives_error_record(self, monkeypatch, capsys):
        from randerslab.cli import main

        monkeypatch.setattr(orbits, "_MAX_CENTERS", 10)
        assert main(["packing", "--space", "euclid", "--dim", "3", "--radii", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"


class TestLargeMatrixOrbits:
    """Conjugation orbits out to lambda = 1e6, the range the hausdorff CLI sweeps."""

    @pytest.mark.parametrize("lam", [1e3, 1e6])
    def test_orbit_sample(self, lam):
        # at 360 samples, conjugation drifts det(diag(1e3)) by 1.2e-10
        samples = _conjugation_samples(MatrixPoint.diagonal(lam), 360)
        assert samples.shape == (360, 3)
        assert samples[:, 0] + samples[:, 2] == pytest.approx(np.full(360, lam + 1.0 / lam), rel=1e-12)

    @pytest.mark.parametrize("lam", [1e3, 1e6])
    def test_orbit_diameter(self, lam):
        # the quarter turn swaps the eigenvalues: d = sqrt(2) acosh((lam^2 + lam^-2)/2)
        expected = math.sqrt(2.0) * math.acosh((lam**2 + lam**-2) / 2.0)
        diam = orbit_diameter(CONJ, None, MatrixPoint.diagonal(lam))
        assert diam == pytest.approx(expected, rel=1e-9)

    def test_orbit_diameter_past_the_squares_overflow(self):
        # (lam - 1/lam)^2 overflows from lam ~ 1.3e154; the eigenvalues use hypot
        diam = orbit_diameter(CONJ, None, MatrixPoint.diagonal(1e200))
        assert diam == pytest.approx(2.0 * math.sqrt(2.0) * 200.0 * math.log(10.0), rel=1e-12)

    def test_packing_count(self):
        report = packing_count(CONJ, None, MatrixPoint.diagonal(1e3), 2.0)
        assert report.count == len(report.centers) >= 2
        assert report.min_pairwise_distance >= 4.0 - 1e-12
        report.verify(CONJ, None)
