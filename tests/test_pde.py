import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randerslab import pde
from randerslab.modelspace import SpaceForm
from randerslab.pde import (
    AlphaProfile,
    Nonlinearity,
    PDEProblem,
    SweepFailure,
    best_ray_witness,
    bonanno_parameters,
    c_infinity,
    coercivity_constant,
    energy,
    energy_along_ray,
    energy_gradient,
    example_problem,
    find_transition_lambda,
    finsler_ball_volume,
    grid_doubling_check,
    mckean_bound,
    multi_start_solve,
    reference_nonlinearity,
    replace_lambda,
    sup_j_under_phi_level,
)
from randerslab.pde import test_function as ramp_profile
from randerslab.randers import RandersStructure, global_reversibility, radial_conorm
from randerslab.rearrange import RadialProfile, gradient_lp_norm


@pytest.fixture(scope="module")
def problem():
    return example_problem()


@pytest.fixture(scope="module")
def solved(problem):
    """Shared transition scan + multi-start run (the expensive part)."""
    lam_t = find_transition_lambda(problem, 200.0)
    lam_sel = 2.0 * lam_t
    reports = multi_start_solve(problem, [0.0, lam_sel], max_iter=2000, tol_factor=1e-8)
    return lam_t, lam_sel, reports


class TestNonlinearity:
    def test_reference_satisfies_growth_hypotheses(self):
        nl = reference_nonlinearity(3.5)
        assert nl.w == 1.5 and nl.q == 4.5
        assert nl.h(0.0) == 0.0
        assert nl.h(-2.0) == 0.0

    def test_primitive_matches_quadrature(self):
        nl = reference_nonlinearity(3.5)
        ss = np.linspace(0.0, 3.0, 30001)
        hh = nl.h(ss)
        for s_target in [0.5, 1.0, 1.5, 2.7]:
            mask = ss <= s_target
            quad = float(np.trapezoid(hh[mask], ss[mask]))
            assert nl.H(s_target) == pytest.approx(quad, abs=1e-6)

    def test_exact_derivative_matches_fd(self):
        nl = reference_nonlinearity(3.5)
        ss = np.linspace(0.05, 3.0, 500)
        fd = (nl.h(ss + 1e-6) - nl.h(ss - 1e-6)) / 2e-6
        assert np.max(np.abs(nl.dh(ss) - fd)) < 1e-4

    def test_invalid_hypotheses_rejected(self):
        with pytest.raises(ValueError):
            reference_nonlinearity(3.5, w=0.9)
        with pytest.raises(ValueError):
            reference_nonlinearity(3.5, q=2.0)
        with pytest.raises(ValueError):
            # H not positive near zero violates the sign hypothesis
            Nonlinearity(
                h=lambda s: -np.asarray(s),
                H=lambda s: -np.asarray(s) ** 2 / 2.0,
                s0=1.0,
                C=2.0,
                w=1.5,
                q=3.0,
                c1=1.0,
            )


def _three_branch_reference(p, w, q, blend):
    """(h, dh, H) evaluated the straightforward way: every branch and a clip
    at every point, then np.where picks the active one."""
    a, b = 1.0 - blend, 1.0 + blend
    span = b - a
    fa, fb = a ** (q - 1.0), b ** (w - 1.0)
    ma, mb = (q - 1.0) * a ** (q - 2.0), (w - 1.0) * b ** (w - 2.0)
    c0, c1 = fa, ma * span
    c2 = 3.0 * (fb - fa) - (2.0 * ma + mb) * span
    c3 = 2.0 * (fa - fb) + (ma + mb) * span

    def cubic(t):
        return c0 + t * (c1 + t * (c2 + t * c3))

    def cubic_prime(t):
        return c1 + t * (2.0 * c2 + 3.0 * t * c3)

    def cubic_primitive(t):
        return span * t * (c0 + t * (c1 / 2.0 + t * (c2 / 3.0 + t * c3 / 4.0)))

    H_a = a**q / q
    H_b = H_a + cubic_primitive(1.0)

    def h(s):
        pos = np.maximum(s, 0.0)
        t = np.clip((pos - a) / span, 0.0, 1.0)
        out = np.where(pos <= a, pos ** (q - 1.0), np.where(pos >= b, pos ** (w - 1.0), cubic(t)))
        return np.where(pos == 0.0, 0.0, out)

    def dh(s):
        pos = np.maximum(s, 1e-300)
        t = np.clip((pos - a) / span, 0.0, 1.0)
        out = np.where(
            pos <= a,
            (q - 1.0) * pos ** (q - 2.0),
            np.where(pos >= b, (w - 1.0) * pos ** (w - 2.0), cubic_prime(t) / span),
        )
        return np.where(s <= 0.0, 0.0, out)

    def H(s):
        pos = np.maximum(s, 0.0)
        t = np.clip((pos - a) / span, 0.0, 1.0)
        return np.where(
            pos <= a,
            np.minimum(pos, a) ** q / q,
            np.where(pos >= b, H_b + (np.maximum(pos, b) ** w - b**w) / w, H_a + cubic_primitive(t)),
        )

    return h, dh, H


class TestNonlinearityKernels:
    """The active-branch kernels agree bit for bit with the three-branch
    formulas, at the branch ends and on either side of them."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        p=st.floats(2.1, 6.0),
        w_frac=st.floats(0.05, 0.95),
        dq=st.floats(0.1, 2.0),
        blend=st.floats(0.01, 0.49),
        drawn=st.lists(st.floats(-3.0, 3.0), max_size=64),
    )
    def test_kernels_match_three_branch_formulas(self, p, w_frac, dq, blend, drawn):
        w, q = 1.0 + w_frac * (p - 1.0), p + dq
        nl = reference_nonlinearity(p, w=w, q=q, blend=blend)
        ref = _three_branch_reference(p, w, q, blend)
        a, b = 1.0 - blend, 1.0 + blend
        ends = [a, b, 0.0]
        special = [-2.0, -1e-300, -0.0, 5e-324, 1e-310, 1e-300, 0.5 * a, 1.0, 3.0 * b, 1e6]
        special += [math.nextafter(x, d) for x in ends for d in (-math.inf, math.inf)]
        s = np.array(ends + special + drawn + [a + f * (b - a) for f in (0.25, 0.5, 0.75)])
        for fn, ref_fn in zip((nl.h, nl.dh, nl.H), ref):
            assert np.array_equal(fn(s), ref_fn(s))
            # a scalar gets the value of its array element
            for x in s[: len(ends) + len(special)]:
                assert fn(float(x)) == ref_fn(np.array([x]))[0]


class TestProblemValidation:
    def test_needs_hyperbolic_base(self):
        flat = RandersStructure(SpaceForm(2, 0.0))
        with pytest.raises(ValueError):
            PDEProblem(
                randers=flat,
                p=3.5,
                lam=0.0,
                alpha=AlphaProfile("gaussian", 1.0),
                nonlinearity=reference_nonlinearity(3.5),
            )

    def test_needs_p_above_dimension(self):
        structure = RandersStructure(SpaceForm(3, -1.0))
        with pytest.raises(ValueError):
            PDEProblem(
                randers=structure,
                p=2.5,
                lam=0.0,
                alpha=AlphaProfile("gaussian", 1.0),
                nonlinearity=reference_nonlinearity(2.5),
            )

    def test_exp_weight_must_beat_volume_growth(self):
        structure = RandersStructure(SpaceForm(3, -4.0))
        with pytest.raises(ValueError):
            PDEProblem(
                randers=structure,
                p=3.5,
                lam=0.0,
                alpha=AlphaProfile("exp", 1.0),
                nonlinearity=reference_nonlinearity(3.5),
            )

    def test_serialization_round_trip(self, problem):
        clone = PDEProblem.from_dict(problem.to_dict())
        assert clone.p == problem.p
        assert clone.randers == problem.randers
        assert clone.n_cells == problem.n_cells
        assert clone.r_max == problem.r_max


class TestEnergy:
    def test_zero_profile_zero_energy(self, problem):
        phi, j, e = energy(problem, np.zeros(problem.grid.size))
        assert phi == j == e == 0.0

    def test_riemannian_reduction_matches_radial_quadrature(self):
        prob = example_problem(beta_sup=0.0, n_cells=1024)
        r = prob.grid
        u = np.clip(1.0 - r / 1.5, 0.0, 1.0)
        phi, _, _ = energy(prob, u)
        profile = RadialProfile(r, u, prob.randers.base)
        expected = gradient_lp_norm(profile, prob.p) ** prob.p / prob.p
        assert phi == pytest.approx(expected, rel=1e-6)

    def test_gradient_energy_scaling(self):
        # p-homogeneity: <grad Phi(2u), 2u> = 2^p <grad Phi(u), u> for beta = 0
        prob = example_problem(beta_sup=0.0, n_cells=512)
        r = prob.grid
        u = np.exp(-((r - 0.8) ** 2)) * 0.7
        u[-1] = 0.0
        g1 = energy_gradient(prob, u)
        g2 = energy_gradient(prob, 2.0 * u)
        assert float(g2 @ (2.0 * u)) == pytest.approx(
            2.0**prob.p * float(g1 @ u), rel=1e-10
        )

    def test_gradient_matches_finite_differences(self, problem):
        prob = replace_lambda(problem, 1.7)
        rng = np.random.default_rng(3)
        r = prob.grid
        u = 0.9 * np.exp(-2.0 * (r - 1.0) ** 2) + 0.4 * np.clip(1 - r / 2.5, 0, 1)
        u[-1] = 0.0
        g = energy_gradient(prob, u)
        bulk = np.where(np.abs(g) > 3e-2 * np.max(np.abs(g)))[0]
        bulk = bulk[(bulk > 0) & (bulk < r.size - 1)]
        dr = np.diff(r)
        for idx in rng.choice(bulk, size=20, replace=False):
            local = min(dr[idx - 1], dr[idx])
            h = 0.01 * local * max(1.0, abs(u[idx]))

            def fd4(step, _idx=idx):
                def e_of(shift):
                    v = u.copy()
                    v[_idx] += shift
                    return energy(prob, v)[2]

                return (
                    8.0 * (e_of(step) - e_of(-step)) - (e_of(2 * step) - e_of(-2 * step))
                ) / (12.0 * step)

            fd = (16.0 * fd4(0.5 * h) - fd4(h)) / 15.0
            assert fd == pytest.approx(g[idx], rel=1e-6)


class TestTestFunction:
    def test_plateau_value_at_origin(self, problem):
        u = ramp_profile(problem, s0=1.0, big_r=1.5, small_r=0.5)
        assert u[0] == 1.0

    def test_midpoint_of_ramp(self, problem):
        # forward distance (R + r)/2 maps to value s0/2
        from randerslab.pde import _forward_distance

        u = ramp_profile(problem, s0=1.0, big_r=1.5, small_r=0.5)
        tau = _forward_distance(problem)
        mid = float(np.interp(1.0, tau, problem.grid))  # tau = (R+r)/2 = 1.0
        assert float(np.interp(mid, problem.grid, u)) == pytest.approx(0.5, abs=1e-3)

    def test_j_lower_bound(self, problem):
        u1 = ramp_profile(problem, s0=1.0, big_r=1.5, small_r=0.5)
        _, j1, _ = energy(problem, u1)
        nl = problem.nonlinearity
        alpha_at_rim = float(problem.alpha(1.5))
        vol_small = finsler_ball_volume(problem, 0.5)
        assert j1 >= nl.H(1.0) * alpha_at_rim * vol_small > 0

    def test_ramp_constraint_enforced(self, problem):
        a = problem.randers.beta_sup
        bad_r = 1.5 * (1 - a) / (1 + a) + 0.01
        with pytest.raises(ValueError):
            ramp_profile(problem, s0=1.0, big_r=1.5, small_r=bad_r)

    def test_phi_two_sided_bound(self, problem):
        s0, big_r, small_r = 1.0, 1.5, 0.5
        u1 = ramp_profile(problem, s0, big_r, small_r)
        phi1, _, _ = energy(problem, u1)
        r_f = global_reversibility(problem.randers)
        vol_big = finsler_ball_volume(problem, big_r)
        vol_small = finsler_ball_volume(problem, small_r)
        slope = s0 / (big_r - small_r)
        lo = slope**problem.p / r_f**problem.p * (vol_big - vol_small) / problem.p
        hi = slope**problem.p * r_f**problem.p * vol_big / problem.p
        assert lo <= phi1 <= hi


class TestConstants:
    def test_mckean_direct_value(self):
        assert mckean_bound(3, 1.0, 2.0) == pytest.approx(1.0)

    def test_coercivity_direct_value(self):
        assert coercivity_constant(3, 0.0, 2.0, 1.0) == pytest.approx(0.5)

    def test_coercivity_vanishes_as_beta_saturates(self):
        values = [coercivity_constant(3, a, 2.0, 1.0) for a in np.linspace(0.0, 0.99, 25)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mckean_bound(1, 1.0, 2.0)
        with pytest.raises(ValueError):
            coercivity_constant(3, 1.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def params(problem):
    return bonanno_parameters(problem, s0=1.0, big_r=1.5, small_r=0.5)


class TestBonanno:

    def test_strict_inequalities_hold(self, params):
        assert params.hypotheses_hold
        assert 0 < params.rho0 < params.phi_u1
        assert params.sup_bound_at_rho0 < params.rho0 * params.j_u1 / params.phi_u1

    def test_interval_endpoint_positive(self, params):
        assert params.a_bar > 0
        assert params.interval_end == params.a_bar
        # the interval reaches past the ramp's own transition ratio
        assert params.a_bar > params.phi_u1 / params.j_u1

    def test_measured_sup_below_analytic_bound(self, params):
        assert params.sup_measured_at_rho0 <= params.sup_bound_at_rho0

    def test_sup_ratio_vanishes_with_level(self, problem):
        ratios = []
        for k in [2, 3, 4, 5]:
            rho = 10.0 ** (-k)
            ratios.append(sup_j_under_phi_level(problem, rho, max_iter=40) / rho)
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_sweep_failure_when_grid_excludes_valid_levels(self, problem):
        with pytest.raises(SweepFailure):
            bonanno_parameters(
                problem, s0=1.0, big_r=1.5, small_r=0.5, rho_sweep=[1e9]
            )


def _holder_extremal_profile(problem, radius):
    """Nodal profile whose slope magnitudes are (dr/shell_g)^(1/(p-1)) on
    the cells inside `radius` and zero outside, falling to 0 at the rim: the
    equality case of the Hoelder estimate u(0) <= ||u'||_{L^p} (sum dr^p'
    shell_g^(1-p'))^(1/p') on the ball of that radius."""
    disc = problem.disc
    slopes = (disc["dr"] / disc["shell_g"]) ** (1.0 / (problem.p - 1.0))
    slopes = np.where(disc["r"][:-1] < radius, slopes, 0.0)
    return np.append(np.cumsum((slopes * disc["dr"])[::-1])[::-1], 0.0)


class TestCInfinityIsNotABound:
    """c_infinity is an ascent estimate, not a bound on sup |u| / ||u||_{W^{1,p}_g}.
    The Hoelder-extremal profile on the ball of radius 2.25 has quotient 0.967
    at 256 cells and 0.970 at 1024, above c_infinity's 0.897 and 0.815 (its
    1.1 margin included).  Once c_infinity is a certified bound this passes."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="c_infinity under-reports the supremum")
    @pytest.mark.parametrize("n_cells", [256, 1024])
    def test_holder_extremal_quotient_within_c_infinity(self, n_cells):
        from randerslab.sobolev import w1p_power

        prob = example_problem(n_cells=n_cells)
        disc = prob.disc
        u = _holder_extremal_profile(prob, 2.25)
        power = w1p_power(u[None, :], disc["dr"], disc["shell_g"], disc["trap_area_g"], prob.p)[0]
        assert u.max() / power ** (1.0 / prob.p) <= c_infinity(prob)


def _serial_c_infinity(problem, max_iter=200):
    """The one-seed-at-a-time ascent that the batched search replaced, kept
    verbatim as the reference it must reproduce bit for bit."""
    p = problem.p
    r = problem.grid
    x = r / r[-1]
    seeds = [
        (1.0 - x) ** k for k in (0.5, 1.0, 2.0, 4.0)
    ] + [np.exp(-((x / s) ** 2)) - math.exp(-1.0 / s**2) for s in (0.1, 0.3, 0.6)]
    seeds += [np.clip(1.0 - x / f, 0.0, 1.0) for f in (0.05, 0.15, 0.4)]
    disc = problem.disc

    def w1p_riemann_power(u):
        slopes = np.diff(u) / disc["dr"]
        return float(
            np.sum(np.abs(slopes) ** problem.p * disc["shell_g"])
            + np.sum(disc["trap_area_g"] * np.abs(u) ** problem.p)
        )

    best = 0.0
    for seed in seeds:
        u = np.maximum(seed, 0.0)
        u[-1] = 0.0
        if u.max() <= 0:
            continue
        quot = None
        step = 1.0
        for _ in range(max_iter):
            w_pow = w1p_riemann_power(u)
            sup = float(u.max())
            quot = sup / w_pow ** (1.0 / p)
            slopes = np.diff(u) / disc["dr"]
            gw = np.zeros_like(u)
            flux = p * np.abs(slopes) ** (p - 1.0) * np.sign(slopes) * disc["shell_g"] / disc["dr"]
            gw[:-1] -= flux
            gw[1:] += flux
            gw += p * disc["trap_area_g"] * np.abs(u) ** (p - 1.0) * np.sign(u)
            g_sup = np.zeros_like(u)
            g_sup[int(np.argmax(u))] = 1.0
            g = g_sup / sup - gw / (p * w_pow)
            g[-1] = 0.0
            improved = False
            while step > 1e-12:
                trial = np.maximum(u + step * g, 0.0)
                trial[-1] = 0.0
                if trial.max() > 0:
                    w_t = w1p_riemann_power(trial)
                    q_t = float(trial.max()) / w_t ** (1.0 / p)
                    if q_t > quot * (1.0 + 1e-12):
                        u = trial
                        improved = True
                        step *= 1.5
                        break
                step *= 0.5
            if not improved:
                break
        best = max(best, quot or 0.0)
    return 1.1 * best


def _serial_sup_j_under_phi_level(problem, rho, max_iter=120):
    """The one-seed-at-a-time projected ascent that the batched search
    replaced, kept verbatim as the reference it must reproduce bit for bit."""
    disc = problem.disc
    p = problem.p
    r = problem.grid
    x = r / r[-1]
    seeds = [
        (1.0 - x) ** k for k in (0.5, 1.0, 2.0)
    ] + [np.clip(1.0 - x / f, 0.0, 1.0) for f in (0.1, 0.3, 0.6)]
    seeds += [np.exp(-((x / s) ** 2)) - math.exp(-1.0 / s**2) for s in (0.2, 0.5)]

    def project(u):
        phi, _, _ = energy(problem, u)
        if phi > rho:
            u = u * (rho / phi) ** (1.0 / p) * (1.0 - 1e-12)
        return u

    best = 0.0
    for seed in seeds:
        u = np.maximum(seed, 0.0)
        u[-1] = 0.0
        if u.max() <= 0:
            continue
        u = project(u)
        _, j_val, _ = energy(problem, u)
        step = 1.0
        for _ in range(max_iter):
            g = disc["jw"] * problem.nonlinearity.h(u)
            g[-1] = 0.0
            improved = False
            while step > 1e-12:
                trial = project(np.maximum(u + step * g, 0.0))
                trial[-1] = 0.0
                _, j_t, _ = energy(problem, trial)
                if j_t > j_val * (1.0 + 1e-12) + 1e-300:
                    u, j_val = trial, j_t
                    improved = True
                    step *= 1.5
                    break
                step *= 0.5
            if not improved:
                break
        best = max(best, j_val)
    return best


def _serial_bonanno_parameters(problem, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "c_infinity", _serial_c_infinity)
        mp.setattr(pde, "sup_j_under_phi_level", _serial_sup_j_under_phi_level)
        return bonanno_parameters(problem, *args, **kwargs)


class TestBatchedSearches:
    """c_inf, the sub-level supremum and the Bonanno parameters they feed
    are exactly what the serial loops gave."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        beta_sup=st.floats(0.0, 0.5),
        alpha_rate=st.floats(0.4, 1.5),
        n_cells=st.integers(64, 256),
        level=st.floats(-6.0, 0.0),
        max_iter=st.sampled_from([1, 2, 7, 200]),
    )
    def test_equal_serial_references(self, beta_sup, alpha_rate, n_cells, level, max_iter):
        prob = example_problem(beta_sup=beta_sup, alpha_rate=alpha_rate, n_cells=n_cells)
        assert c_infinity(prob, max_iter=max_iter) == _serial_c_infinity(prob, max_iter=max_iter)
        rho = 10.0**level
        assert sup_j_under_phi_level(prob, rho) == _serial_sup_j_under_phi_level(prob, rho)
        assert bonanno_parameters(prob, 1.0, 1.5, 0.5) == _serial_bonanno_parameters(prob, 1.0, 1.5, 0.5)

    def test_default_problem(self, problem, params):
        assert params == _serial_bonanno_parameters(problem, s0=1.0, big_r=1.5, small_r=0.5)


class TestCoercivityWitness:
    def test_energy_blows_up_along_rays(self, problem):
        prob = replace_lambda(problem, 5.0)
        r = prob.grid
        shapes = [np.clip(1.0 - r / radius, 0.0, 1.0) for radius in np.linspace(0.5, 3.0, 10)]
        ts = np.geomspace(0.5, 512.0, 25)
        for shape in shapes:
            shape[-1] = 0.0
            es = energy_along_ray(prob, shape, ts)
            assert es[-1] > 1e3
            assert es[-1] > es[0]
            tail = es[-6:]
            assert all(a < b for a, b in zip(tail, tail[1:]))


class TestMultiStart:
    def test_lambda_zero_unique_trivial_point(self, problem):
        reports = multi_start_solve(problem, [0.0], max_iter=400, tol_factor=1e-8)
        rep = reports[0]
        assert rep.n_distinct == 1
        assert float(np.max(np.abs(rep.profiles[0].values))) == 0.0
        assert rep.energies[0] == 0.0
        assert rep.n_converged == rep.n_starts

    def test_transition_lambda_found(self, solved):
        lam_t, _, _ = solved
        assert 0.0 < lam_t < 200.0
        e_wit, witness = best_ray_witness(replace_lambda(example_problem(), lam_t))
        assert e_wit < 0

    def test_two_distinct_critical_points(self, solved):
        _, _, reports = solved
        rep = reports[1]
        assert rep.n_distinct >= 2
        sups = sorted(float(np.max(p.values)) for p in rep.profiles)
        assert sups[0] == 0.0  # the trivial solution is always present
        assert sups[-1] > 0.5  # and a genuinely nontrivial one

    def test_reported_gradient_criterion(self, solved):
        _, _, reports = solved
        for rep in reports:
            for e, g in zip(rep.energies, rep.gradient_norms):
                assert g <= 1e-8 * (1.0 + abs(e))

    def test_distinct_matrix_consistent(self, solved):
        _, _, reports = solved
        rep = reports[1]
        m = rep.n_distinct
        assert rep.distinct.shape == (m, m)
        assert not rep.distinct.diagonal().any()
        assert rep.distinct[0, 1] and rep.distinct[1, 0]

    def test_stability_under_grid_doubling(self, solved, problem):
        _, lam_sel, reports = solved
        rep = reports[1]
        for prof in rep.profiles:
            check = grid_doubling_check(replace_lambda(problem, lam_sel), prof.values)
            assert check.gradient_norm < 1e-6
            assert check.drift < 1e-2

    def test_deterministic(self, problem):
        a = multi_start_solve(problem, [1.0], max_iter=200, tol_factor=1e-8)[0]
        b = multi_start_solve(problem, [1.0], max_iter=200, tol_factor=1e-8)[0]
        assert a.n_distinct == b.n_distinct
        for pa, pb in zip(a.profiles, b.profiles):
            assert np.array_equal(pa.values, pb.values)

    def test_line_search_is_monotone(self, problem):
        # exact assertion: the accepted energy sequence never increases
        from randerslab.pde import _descend

        prob = replace_lambda(problem, 2.0)
        r = prob.grid
        seed = 1.5 * np.clip(1.0 - r / 1.5, 0.0, 1.0)
        energies = []
        _descend(prob, seed, 400, 1e-8, on_step=energies.append)
        assert len(energies) > 10
        assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_stalled_descent_hands_off_to_root_polish(self):
        # the ray-witness start at 2 lambda_t, as the pde CLI picks it at
        # 1024 cells, reaches the nontrivial minimiser; once its energy stops
        # changing the descent must hand over instead of running out the
        # 4000-step cap
        from randerslab.pde import _descend

        problem = example_problem(n_cells=1024)
        bp = bonanno_parameters(problem, 1.0, 1.5, 0.5)
        lam = 2.0 * find_transition_lambda(problem, min(200.0, bp.a_bar))
        prob = replace_lambda(problem, lam)
        _, witness = best_ray_witness(prob)
        steps = []
        u, e_val, g_norm, converged = _descend(prob, witness, 4000, 1e-8, on_step=steps.append)
        assert converged
        assert g_norm <= 1e-8 * (1.0 + abs(e_val))
        assert e_val < 0 and float(np.max(u)) > 0.5
        assert len(steps) <= 600

    def test_needs_enough_seeds(self, problem):
        with pytest.raises(ValueError):
            multi_start_solve(problem, [0.0], seeds=[np.zeros(problem.grid.size)] * 3)


@pytest.fixture(scope="module")
def selected_1024():
    """The 1024-cell problem and the lambda = 2 lambda_t that the pde CLI
    picks for it."""
    problem = example_problem(n_cells=1024)
    bp = bonanno_parameters(problem, 1.0, 1.5, 0.5)
    lam = min(2.0 * find_transition_lambda(problem, min(200.0, bp.a_bar)), bp.a_bar)
    return problem, lam


class TestRimFreeSolve:
    """Every Newton-type solve treats the Dirichlet rim as known, not free."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(3, 80), seed=st.integers(0, 2**32 - 1), margin=st.floats(1e-3, 10.0))
    def test_free_rows_solved_and_rim_zero(self, n, seed, margin):
        from randerslab.pde import _solve_tridiag

        rng = np.random.default_rng(seed)
        off = rng.uniform(-1.0, 1.0, n - 1)
        coupling = np.zeros(n)
        coupling[:-1] += np.abs(off)
        coupling[1:] += np.abs(off)
        diag = rng.choice([-1.0, 1.0], n) * (coupling + margin * rng.uniform(0.1, 1.0, n))
        rhs = rng.normal(size=n)
        x = _solve_tridiag(diag, off, rhs)
        assert x.shape == (n,) and x[-1] == 0.0
        terms = np.zeros((3, n - 1))
        terms[0] = diag[:-1] * x[:-1]
        terms[1, 1:] = off[:-1] * x[:-2]
        terms[2] = off * x[1:]
        residual = terms.sum(axis=0) - rhs[:-1]
        scale = np.abs(terms).sum(axis=0) + np.abs(rhs[:-1])
        assert np.all(np.abs(residual) <= 1e-12 * scale)

    def test_collapsing_start_reaches_zero_quickly(self, selected_1024):
        # a tent start that falls to u = 0 at 2 lambda_t: with the rim out
        # of the system Newton contracts u by about (p-2)/(p-1) per step
        from randerslab.pde import _default_seeds, _descend

        problem, lam = selected_1024
        prob = replace_lambda(problem, lam)
        steps = []
        u, e_val, g_norm, converged = _descend(
            prob, _default_seeds(prob, 1.0)[3], 4000, 1e-8, on_step=steps.append
        )
        assert converged
        assert not u.any() and e_val == 0.0 and g_norm == 0.0
        assert len(steps) <= 40

    def test_every_start_converges(self, selected_1024):
        problem, lam = selected_1024
        rep = multi_start_solve(problem, [lam])[0]
        assert rep.n_converged == rep.n_starts


class TestSolveErrors:
    """Only the errors solve_banded raises move a Newton-type step to its
    next tier; anything else is a bug and propagates."""

    @pytest.fixture
    def start(self):
        from randerslab.pde import _default_seeds

        prob = replace_lambda(example_problem(n_cells=64), 1.0)
        return prob, _default_seeds(prob, 1.0)[2]

    def test_type_error_propagates(self, start, monkeypatch):
        import scipy.linalg

        from randerslab.pde import _descend, _polish_root

        def broken(*args, **kwargs):
            raise TypeError("not a solver error")

        monkeypatch.setattr(scipy.linalg, "solve_banded", broken)
        prob, u0 = start
        with pytest.raises(TypeError):
            _descend(prob, u0, 50, 1e-8)
        with pytest.raises(TypeError):
            _polish_root(prob, u0, 1e-8)

    def test_singular_solve_falls_through(self, start, monkeypatch):
        import scipy.linalg

        from randerslab.pde import _descend

        original = scipy.linalg.solve_banded
        calls = []

        def singular_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_banded", singular_once)
        prob, u0 = start
        steps = []
        _descend(prob, u0, 1, 1e-8, on_step=steps.append)
        # the full Newton solve failed; the damped tier took the first step
        assert len(calls) >= 2 and len(steps) == 1


class TestZeroOnlyLevel:
    """Below the certified level of p Phi, 0 is the only critical point."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        n_cells=st.integers(64, 256),
        lam_frac=st.floats(0.0, 1.0),
        kind=st.sampled_from(["noise", "tent", "spike", "plateau"]),
        seed=st.integers(0, 2**32 - 1),
        level_frac=st.floats(1e-6, 0.999),
    )
    def test_no_critical_point_below_level(self, n_cells, lam_frac, kind, seed, level_frac):
        from randerslab.pde import _zero_only_level

        problem = example_problem(n_cells=n_cells)
        a_bar = bonanno_parameters(problem, 1.0, 1.5, 0.5).a_bar
        prob = replace_lambda(problem, lam_frac * a_bar)
        rng = np.random.default_rng(seed)
        r = prob.grid
        if kind == "noise":
            v = rng.random(r.size)
        elif kind == "tent":
            v = np.clip(1.0 - r / rng.uniform(0.05, r[-1]), 0.0, 1.0)
        elif kind == "spike":
            v = np.zeros(r.size)
            v[rng.integers(0, r.size - 1)] = 1.0
        else:
            radius = rng.uniform(0.1, 0.9) * r[-1]
            v = np.clip((radius - r) / (0.1 * radius), 0.0, 1.0)
        v[-1] = 0.0
        level = _zero_only_level(prob)
        phi, _, _ = energy(prob, v)
        v *= (level_frac * level / (prob.p * phi)) ** (1.0 / prob.p)
        assert prob.p * energy(prob, v)[0] < level
        assert float(energy_gradient(prob, v) @ v) > 0.0

    def test_nontrivial_minimiser_lies_above_level(self, solved, problem):
        from randerslab.pde import _zero_only_level

        _, lam_sel, reports = solved
        prob = replace_lambda(problem, lam_sel)
        nontrivial = [p.values for p in reports[1].profiles if p.values.any()]
        assert nontrivial
        for u in nontrivial:
            assert prob.p * energy(prob, u)[0] > _zero_only_level(prob)

    def test_level_below_every_ray_crossing(self, selected_1024):
        # on small amplitudes h(s) s = s^q, so along t * shape the identity
        # <grad E, u> = 0 has the closed-form root p Phi = L below
        from randerslab.pde import _ray_shapes, _zero_only_level

        problem, lam = selected_1024
        checked = 0
        for at in (replace_lambda(problem, f * lam) for f in (1.0, 4.0, 16.0)):
            p, q = at.p, at.nonlinearity.q
            level = _zero_only_level(at)
            for shape in _ray_shapes(at):
                p_phi = p * energy(at, shape)[0]
                crossing = (p_phi ** (q / p) / (at.lam * np.sum(at.disc["jw"] * shape**q))) ** (p / (q - p))
                if (crossing / p_phi) ** (1.0 / p) * shape.max() <= at.nonlinearity.s1:
                    assert level < crossing
                    checked += 1
        assert checked >= 20

    def test_no_level_unless_q_above_p(self):
        # for q < p the small-amplitude bound runs the other way: small
        # nontrivial minimisers exist and must not be reported as u = 0
        import dataclasses

        from randerslab.pde import _descend, _zero_only_level

        base = example_problem(n_cells=128)
        for p0 in (1.6, 2.5):  # q = p0 + 1 = 2.6 < p, then q = p = 3.5
            prob = replace_lambda(
                dataclasses.replace(base, nonlinearity=reference_nonlinearity(p0)), 0.1
            )
            assert _zero_only_level(prob) == 0.0
        prob = replace_lambda(
            dataclasses.replace(base, nonlinearity=reference_nonlinearity(1.6)), 0.1
        )
        _, witness = best_ray_witness(prob)
        u, e_val, _, converged = _descend(prob, witness, 4000, 1e-8)
        assert converged and e_val < 0.0
        assert 0.05 < u.max() < prob.nonlinearity.s1
        assert prob.p * energy(prob, u)[0] < _zero_only_level(replace_lambda(prob, 0.0))

    def test_lambda_zero_single_exact_zero_cluster(self):
        problem = example_problem(n_cells=1024)
        rep = multi_start_solve(problem, [0.0])[0]
        assert rep.n_distinct == 1
        assert not rep.profiles[0].values.any()
        assert rep.energies == [0.0] and rep.gradient_norms == [0.0]
        assert rep.n_converged == rep.n_starts


def _reference_energy_along_ray(problem, shape, ts):
    """The per-lambda ray energy that the ray table replaced, kept verbatim
    as the reference it must reproduce bit for bit."""
    shape = np.asarray(shape, dtype=float)
    phi0, _, _ = energy(problem, shape)
    jw = problem.disc["jw"]
    out = []
    for t in ts:
        j_t = float(np.sum(jw * problem.nonlinearity.H(t * shape)))
        out.append(t**problem.p * phi0 - problem.lam * j_t)
    return np.array(out)


def _reference_best_ray_witness(problem, ts=None):
    from randerslab.pde import _ray_shapes

    if ts is None:
        ts = np.geomspace(1e-2, 64.0, 80)
    best_e, best_u = math.inf, None
    for shape in _ray_shapes(problem):
        es = _reference_energy_along_ray(problem, shape, ts)
        k = int(np.argmin(es))
        if es[k] < best_e:
            best_e = float(es[k])
            best_u = float(ts[k]) * shape
    return best_e, best_u


def _reference_find_transition_lambda(problem, lam_hi, bisection_steps=14):
    def found(lam):
        e_best, _ = _reference_best_ray_witness(replace_lambda(problem, lam))
        return e_best < -1e-9

    if not found(lam_hi):
        raise SweepFailure("no witness")
    lo, hi = 0.0, float(lam_hi)
    for _ in range(bisection_steps):
        mid = 0.5 * (lo + hi)
        if found(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestRayTable:
    """The lambda-free ray table gives exactly the per-lambda scan."""

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        beta_sup=st.floats(0.0, 0.5),
        alpha_rate=st.floats(0.4, 1.5),
        n_cells=st.integers(64, 256),
        lams=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=3),
    )
    def test_equal_per_lambda_references(self, beta_sup, alpha_rate, n_cells, lams):
        prob = example_problem(beta_sup=beta_sup, alpha_rate=alpha_rate, n_cells=n_cells)
        for lam in lams:
            at = replace_lambda(prob, lam)
            e, u = best_ray_witness(at)
            e_ref, u_ref = _reference_best_ray_witness(at)
            assert e == e_ref and np.array_equal(u, u_ref)
            ts = np.geomspace(0.1, 10.0, 7)
            assert np.array_equal(energy_along_ray(at, u_ref, ts), _reference_energy_along_ray(at, u_ref, ts))
        try:
            expected = _reference_find_transition_lambda(prob, 200.0)
        except SweepFailure:
            with pytest.raises(SweepFailure):
                find_transition_lambda(prob, 200.0)
        else:
            assert find_transition_lambda(prob, 200.0) == expected

    def test_default_problem(self, problem, solved):
        lam_t, _, _ = solved
        assert lam_t == _reference_find_transition_lambda(problem, 200.0)


@functools.lru_cache(maxsize=None)
def _example_at(n_cells):
    return example_problem(n_cells=n_cells)


def _masked_energy_gradient(problem, u):
    """energy_gradient with the explicit zero derivative at flat cells that
    it used to carry, kept as the reference the unmasked flux must match."""
    u = np.asarray(u, dtype=float)
    disc = problem.disc
    slopes = np.diff(u) / disc["dr"]
    b = disc["b_mid"]
    conorms = radial_conorm(b, slopes)
    dphi_ds = np.where(slopes >= 0, 1.0 / (1.0 + b), -1.0 / (1.0 - b))
    dphi_ds = np.where(slopes == 0.0, 0.0, dphi_ds)
    flux = conorms ** (problem.p - 1.0) * dphi_ds * disc["vol_f"] / disc["dr"]
    grad = np.zeros_like(u)
    grad[:-1] -= flux
    grad[1:] += flux
    grad -= problem.lam * disc["jw"] * problem.nonlinearity.h(u)
    return grad


def _loop_ray_witness(problem, lam):
    """The shape-by-shape witness loop that the ray table's one row-major
    argmin replaced: a later shape wins only with a strictly lower energy."""
    from randerslab.pde import _ray_shapes

    ts = np.geomspace(1e-2, 64.0, 80)
    jw = problem.disc["jw"]
    best_e, best_u = math.inf, None
    for shape in _ray_shapes(problem):
        phi0, _, _ = energy(problem, shape)
        tp = [t**problem.p for t in ts]
        js = [float(np.sum(jw * problem.nonlinearity.H(t * shape))) for t in ts]
        es = np.asarray(tp) * phi0 - lam * np.asarray(js)
        k = int(np.argmin(es))
        if es[k] < best_e:
            best_e = float(es[k])
            best_u = float(ts[k]) * shape
    return best_e, best_u


def _pairwise_distinct(profiles, threshold):
    """The pairwise sup-distance loop that filled CriticalPointReport.distinct."""
    m = len(profiles)
    distinct = np.ones((m, m), dtype=bool)
    for i in range(m):
        distinct[i, i] = False
        for j in range(i + 1, m):
            far = float(np.max(np.abs(profiles[i] - profiles[j]))) > threshold
            distinct[i, j] = distinct[j, i] = far
    return distinct


class TestRetiredLoops:
    """The one-line forms of the gradient flux, the ray witness and the
    distinct matrix give exactly what the loops and masks they replaced
    gave."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n_cells=st.sampled_from([256, 1024]),
        kind=st.sampled_from(["noise", "tent", "steps", "plateau"]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 100.0),
    )
    def test_gradient_equals_masked_reference(self, n_cells, kind, seed, lam):
        prob = replace_lambda(_example_at(n_cells), lam)
        rng = np.random.default_rng(seed)
        r = prob.grid
        if kind == "noise":
            u = rng.normal(size=r.size)
        elif kind == "tent":
            u = rng.uniform(0.1, 3.0) * np.clip(1.0 - r / rng.uniform(0.05, r[-1]), 0.0, 1.0)
        elif kind == "steps":
            # many flat cells, rising and falling steps between them
            u = 0.5 * rng.integers(-1, 4, size=r.size).astype(float)
            u = np.repeat(u[:: 8], 8)[: r.size]
        else:
            radius = rng.uniform(0.1, 0.9) * r[-1]
            u = np.clip((radius - r) / (0.1 * radius), 0.0, 1.0)
        u[-1] = 0.0
        assert np.array_equal(energy_gradient(prob, u), _masked_energy_gradient(prob, u))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        n_cells=st.sampled_from([256, 1024]),
        lams=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=4),
    )
    def test_witness_equals_loop(self, n_cells, lams):
        from randerslab.pde import _RayTable

        prob = _example_at(n_cells)
        table = _RayTable(prob)
        for lam in lams:
            e, u = table.witness(lam)
            e_ref, u_ref = _loop_ray_witness(prob, lam)
            assert e == e_ref and np.array_equal(u, u_ref)

    @pytest.mark.parametrize("n_cells", [256, 1024])
    def test_distinct_equals_pairwise_loop(self, n_cells):
        prob = _example_at(n_cells)
        lam_t = find_transition_lambda(prob, 200.0)
        for rep in multi_start_solve(prob, [0.0, lam_t, 2.0 * lam_t, 5.0 * lam_t]):
            expected = _pairwise_distinct([p.values for p in rep.profiles], 1e-4)
            assert np.array_equal(rep.distinct, expected)
