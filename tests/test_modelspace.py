import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from randerslab.modelspace import (
    EUCLIDEAN,
    POINCARE_BALL,
    SpaceForm,
    area_factor,
    bishop_gromov_ratio,
    comparison_volume,
    croke_constant,
    cumulative_ball_volumes,
    exp_log_maps,
    geodesic_distance,
    s_c,
    sphere_area,
    unit_ball_volume,
)
from randerslab.numerics import adaptive_integrate, gauss_legendre


def conformal_factor(c, x):
    """|v|_g = factor * |v|_euclid for the curvature-c Poincare ball."""
    return 2.0 / (math.sqrt(-c) * (1.0 - float(np.dot(x, x))))


class TestWarpingAndVolume:
    def test_s_c_flat(self):
        assert s_c(0.0, 3.5) == pytest.approx(3.5)

    def test_s_c_zero(self):
        assert s_c(-1.0, 0.0) == 0.0

    def test_s_c_hyperbolic_direct(self):
        assert s_c(-4.0, 1.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)

    def test_s_c_rejects_positive_curvature(self):
        with pytest.raises(ValueError):
            s_c(1.0, 1.0)

    def test_flat_disk_area(self):
        assert comparison_volume(0.0, 2, 1.0) == pytest.approx(math.pi, rel=1e-13)

    @pytest.mark.parametrize("d,rho", [(2, 0.5), (3, 1.7), (4, 2.0), (6, 0.9)])
    def test_flat_closed_form(self, d, rho):
        assert comparison_volume(0.0, d, rho) == pytest.approx(
            unit_ball_volume(d) * rho**d, rel=1e-13
        )

    def test_hyperbolic_disk_area_closed_form(self):
        # int_0^rho sinh t dt = cosh(rho) - 1
        assert comparison_volume(-1.0, 2, 2.0) == pytest.approx(
            2.0 * math.pi * (math.cosh(2.0) - 1.0), rel=1e-12
        )

    def test_volume_increases_with_radius_and_curvature_magnitude(self):
        rhos = [0.5, 1.0, 2.0, 4.0]
        vols = [comparison_volume(-1.0, 3, r) for r in rhos]
        assert all(a < b for a, b in zip(vols, vols[1:]))
        cs = [0.0, -0.5, -1.0, -2.0]
        vols_c = [comparison_volume(c, 3, 1.5) for c in cs]
        assert all(a < b for a, b in zip(vols_c, vols_c[1:]))

    def test_unit_ball_volume_values(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-13)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-13)


class TestDistance:
    def test_euclidean_345(self):
        space = SpaceForm(2, 0.0)
        assert geodesic_distance(space, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_distance_to_self_is_zero(self):
        for space in [SpaceForm(2, 0.0), SpaceForm(3, -1.0)]:
            x = np.full(space.dim, 0.2)
            assert geodesic_distance(space, x, x) == 0.0

    def test_poincare_radial_closed_form(self):
        space = SpaceForm(2, -1.0)
        for r in [0.1, 0.5, 0.9, 0.99]:
            y = np.array([r, 0.0])
            assert geodesic_distance(space, np.zeros(2), y) == pytest.approx(
                2.0 * math.atanh(r), rel=1e-12
            )

    def test_poincare_radial_against_conformal_quadrature(self):
        # Radial segments are geodesics; integrate the conformal length
        # element along them as an independent oracle.
        space = SpaceForm(2, -1.0)
        r = 0.8
        res = adaptive_integrate(lambda t: 2.0 / (1.0 - t * t), 0.0, r, tol=1e-12)
        assert geodesic_distance(space, np.zeros(2), (r, 0.0)) == pytest.approx(
            res.value, rel=1e-10
        )

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        space = SpaceForm(3, -0.7)
        for _ in range(25):
            pts = rng.uniform(-0.55, 0.55, size=(3, 3))
            d01 = geodesic_distance(space, pts[0], pts[1])
            d10 = geodesic_distance(space, pts[1], pts[0])
            d02 = geodesic_distance(space, pts[0], pts[2])
            d12 = geodesic_distance(space, pts[1], pts[2])
            assert d01 == pytest.approx(d10, rel=1e-12)
            assert d02 <= d01 + d12 + 1e-12

    def test_curvature_rescaling(self):
        x, y = np.array([0.1, 0.2]), np.array([-0.3, 0.4])
        d1 = geodesic_distance(SpaceForm(2, -1.0), x, y)
        d4 = geodesic_distance(SpaceForm(2, -4.0), x, y)
        assert d4 == pytest.approx(d1 / 2.0, rel=1e-12)

    def test_point_outside_chart_rejected(self):
        space = SpaceForm(2, -1.0)
        with pytest.raises(ValueError):
            geodesic_distance(space, (0.0, 0.0), (1.0, 0.5))


class TestExpLog:
    def test_exp_of_zero_vector_is_base(self):
        for space in [SpaceForm(2, 0.0), SpaceForm(2, -1.0)]:
            exp_map, _ = exp_log_maps(space, np.array([0.3, -0.1]))
            assert exp_map(np.zeros(2)) == pytest.approx([0.3, -0.1])

    def test_euclidean_translation(self):
        exp_map, log_map = exp_log_maps(SpaceForm(3, 0.0), np.array([1.0, 2.0, 3.0]))
        assert exp_map([0.5, -1.0, 0.25]) == pytest.approx([1.5, 1.0, 3.25])
        assert log_map([0.0, 0.0, 0.0]) == pytest.approx([-1.0, -2.0, -3.0])

    def test_poincare_origin_closed_form(self):
        exp_map, _ = exp_log_maps(SpaceForm(2, -1.0), np.zeros(2))
        v = np.array([1.2, 0.0])
        assert exp_map(v) == pytest.approx([math.tanh(0.6), 0.0], rel=1e-12)

    def test_round_trip_and_distance_norm(self):
        rng = np.random.default_rng(11)
        for curvature in [0.0, -1.0]:
            space = SpaceForm(3, curvature)
            for _ in range(50):
                base = rng.uniform(-0.4, 0.4, size=3)
                v = rng.normal(size=3)
                v *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(v), 1e-12)
                exp_map, log_map = exp_log_maps(space, base)
                y = exp_map(v)
                back = log_map(y)
                assert np.linalg.norm(back - v) < 1e-9
                assert np.linalg.norm(log_map(y)) == pytest.approx(
                    geodesic_distance(space, base, y), abs=1e-9
                )

    def test_round_trip_steeper_curvature(self):
        # |v| ~ 10 at curvature -2.5 lands within ~1e-7 of the chart boundary,
        # where atanh amplifies representation error; tolerance reflects that.
        rng = np.random.default_rng(12)
        space = SpaceForm(3, -2.5)
        for _ in range(25):
            base = rng.uniform(-0.4, 0.4, size=3)
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(v), 1e-12)
            exp_map, log_map = exp_log_maps(space, base)
            assert np.linalg.norm(log_map(exp_map(v)) - v) < 2e-8

    def test_exp_against_geodesic_shooting(self):
        # Independent oracle: integrate the geodesic ODE of the conformal
        # metric (2/(1-|x|^2))^2 |dx|^2 and compare the endpoint.
        space = SpaceForm(2, -1.0)
        base = np.array([0.3, -0.2])
        v = np.array([0.9, 0.7])

        def rhs(_, state):
            x, xdot = state[:2], state[2:]
            grad_phi = 2.0 * x / (1.0 - x @ x)
            xdd = -2.0 * (xdot @ grad_phi) * xdot + (xdot @ xdot) * grad_phi
            return np.concatenate([xdot, xdd])

        xdot0 = v / conformal_factor(-1.0, base)
        sol = solve_ivp(
            rhs,
            (0.0, 1.0),
            np.concatenate([base, xdot0]),
            rtol=1e-11,
            atol=1e-12,
            dense_output=True,
        )
        exp_map, _ = exp_log_maps(space, base)
        assert exp_map(v) == pytest.approx(sol.y[:2, -1], abs=1e-6)

    def test_target_outside_chart_rejected(self):
        _, log_map = exp_log_maps(SpaceForm(2, -1.0), np.zeros(2))
        with pytest.raises(ValueError):
            log_map((1.2, 0.0))


class TestCrokeConstant:
    def test_dimension_two(self):
        assert croke_constant(2) == 1.0

    def test_dimension_three(self):
        # inner integral: int_0^{pi/2} cos^3 t sin t dt = 1/4
        inner = adaptive_integrate(
            lambda t: math.cos(t) ** 3 * math.sin(t), 0.0, math.pi / 2.0, tol=1e-13
        )
        assert inner.value == pytest.approx(0.25, abs=1e-12)
        expected = (4.0 * math.pi) ** (2.0 / 3.0) * (math.pi / 2.0) ** (-1.0 / 3.0)
        assert croke_constant(3) == pytest.approx(expected, rel=1e-10)

    def test_dimension_four(self):
        # inner integral: int_0^{pi/2} cos^2 t sin^2 t dt = pi/16
        inner = adaptive_integrate(
            lambda t: math.cos(t) ** 2 * math.sin(t) ** 2, 0.0, math.pi / 2.0, tol=1e-13
        )
        assert inner.value == pytest.approx(math.pi / 16.0, abs=1e-12)
        omega4 = unit_ball_volume(4)
        omega3 = unit_ball_volume(3)
        expected = (4.0 * omega4) ** 0.75 * (3.0 * omega3 * math.pi / 16.0) ** (-0.5)
        assert croke_constant(4) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("d", range(3, 12))
    def test_beta_closed_form(self, d):
        # int_0^{pi/2} cos^a t sin^b t dt = B((b+1)/2, (a+1)/2) / 2
        x, y = (d - 1) / 2.0, (d / (d - 2.0) + 1.0) / 2.0
        inner = 0.5 * math.gamma(x) * math.gamma(y) / math.gamma(x + y)
        expected = (d * unit_ball_volume(d)) ** (1.0 - 1.0 / d) * (
            (d - 1) * unit_ball_volume(d - 1) * inner
        ) ** (2.0 / d - 1.0)
        assert croke_constant(d) == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestBishopGromov:
    def test_euclidean_ratio_is_one(self):
        space = SpaceForm(3, 0.0)
        for rho in [0.3, 1.0, 5.0]:
            assert bishop_gromov_ratio(space, np.zeros(3), rho) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_space_form_equality_case(self):
        space = SpaceForm(2, -1.0)
        for rho in [0.5, 1.0, 3.0]:
            assert bishop_gromov_ratio(space, np.zeros(2), rho) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_cross_curvature_ratio_nondecreasing(self):
        space = SpaceForm(2, -1.0)
        r1 = bishop_gromov_ratio(space, np.zeros(2), 1.0, comparison_curvature=0.0)
        r2 = bishop_gromov_ratio(space, np.zeros(2), 2.0, comparison_curvature=0.0)
        assert r2 > r1 > 1.0

    def test_volume_independent_of_center(self):
        space = SpaceForm(2, -1.0)
        rng = np.random.default_rng(5)
        vols = []
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=2)
            vols.append(space.ball_volume(1.3) * bishop_gromov_ratio(space, x, 1.3))
        assert np.ptp(vols) < 1e-9 * vols[0]

    def test_hyperbolic_ball_volume_against_chart_integration(self):
        # Integrate the conformal area element over a metric disk centered
        # away from the origin; homogeneity says it matches the radial formula.
        space = SpaceForm(2, -1.0)
        center = np.array([0.3, 0.0])
        rho = 0.8
        rule = gauss_legendre(64)
        # polar chart around `center`, radial extent found by bisection per angle
        thetas = np.linspace(0.0, 2.0 * math.pi, 721)[:-1]
        total = 0.0
        for theta in thetas:
            u = np.array([math.cos(theta), math.sin(theta)])

            def inside(t):
                return geodesic_distance(space, center, center + t * u) < rho

            lo, hi = 0.0, 1.0 - max(abs(center @ u), np.linalg.norm(center)) - 1e-9
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if inside(mid):
                    lo = mid
                else:
                    hi = mid
            xs, ws = 0.5 * lo + 0.5 * lo * rule.nodes, 0.5 * lo * rule.weights
            pts = center[None, :] + xs[:, None] * u[None, :]
            dens = (2.0 / (1.0 - (pts**2).sum(axis=1))) ** 2
            total += float(ws @ (dens * xs)) * (2.0 * math.pi / len(thetas))
        assert total == pytest.approx(space.ball_volume(rho), rel=2e-3)

    def test_sandwich_between_comparison_volumes(self):
        space = SpaceForm(3, -1.0)
        for rho in [0.5, 1.0, 2.0]:
            vol = space.ball_volume(rho)
            assert comparison_volume(-0.5, 3, rho) <= vol <= comparison_volume(-2.0, 3, rho)


class TestRadialHelpers:
    def test_area_factor_matches_volume_derivative(self):
        space = SpaceForm(3, -0.5)
        r = 1.2
        h = 1e-6
        dv = (space.ball_volume(r + h) - space.ball_volume(r - h)) / (2 * h)
        assert float(area_factor(space, r)) == pytest.approx(dv, rel=1e-8)

    def test_cumulative_volumes_match_ball_volume(self):
        space = SpaceForm(2, -1.0)
        grid = np.linspace(0.0, 3.0, 301)
        w = cumulative_ball_volumes(space, grid)
        assert w[0] == 0.0
        assert w[-1] == pytest.approx(space.ball_volume(3.0), rel=1e-10)
        assert np.all(np.diff(w) > 0)

    def test_model_tags(self):
        assert SpaceForm(2, 0.0).model == EUCLIDEAN
        assert SpaceForm(2, -1.0).model == POINCARE_BALL
        with pytest.raises(ValueError):
            SpaceForm(1, 0.0)
        with pytest.raises(ValueError):
            SpaceForm(2, 0.5)
