import dataclasses
import functools
import math
import sys
from collections import deque
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randerslab import pde
from randerslab.modelspace import SpaceForm
from randerslab.pde import (
    _STALL_RTOL,
    _STALL_WINDOW,
    AlphaProfile,
    CriticalPointReport,
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
)
from randerslab.pde import _default_seeds, _solve_tridiag, _zero_only_level
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
    reports = multi_start_solve(problem, [0.0, lam_sel])
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
        with pytest.raises(ValueError, match="H must be positive"):
            # at p = 55, s^q / q underflows to 0 at the small end of the
            # (A1) grid, which a problem file could ask for
            reference_nonlinearity(55.0)

    def test_small_s_bound_where_s_power_underflows(self, monkeypatch):
        # at q = 42, s^q underflows to 0 at the small end of the (A3) check
        # grid: the check still passes H = s^q / q with c1 = 1/q and still
        # refuses twice that
        nl = reference_nonlinearity(41.0)
        assert nl.q == 42.0 and (1e-8) ** nl.q == 0.0
        reference_H = Nonlinearity.H
        monkeypatch.setattr(Nonlinearity, "H", lambda self, s: 2.0 * reference_H(self, s))
        with pytest.raises(ValueError, match="exceeds c1 below s1"):
            reference_nonlinearity(41.0)

    def test_equal_inputs_give_equal_terms(self):
        assert [f.name for f in dataclasses.fields(Nonlinearity)] == ["w", "q"]
        assert reference_nonlinearity(3.5) == reference_nonlinearity(3.5) == Nonlinearity(1.5, 4.5)
        assert reference_nonlinearity(3.5) != reference_nonlinearity(3.5, q=5.0)


def _three_branch_reference(p, w, q):
    """(h, dh, H) evaluated the straightforward way: every branch and a clip
    at every point, then np.where picks the active one."""
    a, b = 1.0 - 0.05, 1.0 + 0.05
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
        drawn=st.lists(st.floats(-3.0, 3.0), max_size=64),
    )
    def test_kernels_match_three_branch_formulas(self, p, w_frac, dq, drawn):
        w, q = 1.0 + w_frac * (p - 1.0), p + dq
        nl = reference_nonlinearity(p, w=w, q=q)
        ref = _three_branch_reference(p, w, q)
        a, b = 1.0 - 0.05, 1.0 + 0.05
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

    def test_round_trip_gives_an_equal_problem(self, problem):
        assert PDEProblem.from_dict(problem.to_dict()) == problem

    @pytest.mark.parametrize(
        "keys",
        [
            ("lamda",),
            ("grid", "ncells"),
            ("alpha", "rate"),
            ("alpha", "params", "decay"),
            ("nonlinearity", "w"),
            ("nonlinearity", "params", "p"),
            ("randers", "kappa"),
            ("randers", "beta_profile", "a"),
            ("randers", "beta_profile", "params", "b"),
        ],
        ids=".".join,
    )
    def test_unknown_keys_are_refused(self, keys):
        data = example_problem(n_cells=64).to_dict()
        functools.reduce(lambda level, key: level[key], keys[:-1], data)[keys[-1]] = 5.0
        with pytest.raises(ValueError, match=f"unknown key '{'.'.join(keys)}'"):
            PDEProblem.from_dict(data)

    def test_equal_inputs_give_equal_problems(self):
        assert example_problem(p=4.0, n_cells=64) == example_problem(p=4.0, n_cells=64)
        assert example_problem(p=4.0, n_cells=64) != example_problem(p=4.5, n_cells=64)


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
        u = ramp_profile(problem, s0=1.0, big_r=1.5, small_r=0.5)
        tau = problem.disc["tau"]
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
        # r must stay strictly below R (1-a)/(1+a): the bound itself is refused
        a = problem.randers.beta_sup
        bound = 1.5 * (1 - a) / (1 + a)
        for bad_r in (bound, bound + 0.01):
            with pytest.raises(ValueError, match="need 0 < r"):
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
        # the interval reaches past the ramp's own transition ratio
        assert params.a_bar > params.phi_u1 / params.j_u1

    def test_measured_sup_below_analytic_bound(self, problem, params):
        assert _serial_sup_j_under_phi_level(problem, params.rho0) <= params.sup_bound_at_rho0

    def test_sup_ratio_vanishes_with_level(self, problem):
        ratios = []
        for k in [2, 3, 4, 5]:
            rho = 10.0 ** (-k)
            ratios.append(_serial_sup_j_under_phi_level(problem, rho, max_iter=40) / rho)
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_sweep_failure_when_grid_excludes_valid_levels(self):
        # at d = 40, p = 41 no swept level meets the margin of the inequalities
        with pytest.raises(SweepFailure, match="no rho satisfied"):
            bonanno_parameters(example_problem(dim=40, p=41, n_cells=16), 1.0, 1.5, 0.5)

    @pytest.mark.parametrize("p", [4.5, 5.0])
    def test_sweep_failure_names_q_not_above_p(self, p):
        # a term built for p = 3.5 has q = 4.5: at p = 4.5 the estimate's
        # exponent p/(q - p) divides by zero, below it no level can fit
        problem = dataclasses.replace(example_problem(n_cells=64), p=p)
        with pytest.raises(SweepFailure, match=rf"^q = 4\.5 <= p = {p}:"):
            bonanno_parameters(problem, 1.0, 1.5, 0.5)


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
        from randerslab.sobolev import W1pRows

        prob = example_problem(n_cells=n_cells)
        disc = prob.disc
        u = _holder_extremal_profile(prob, 2.25)
        power = W1pRows(disc["dr"], disc["shell_g"], disc["trap_area_g"], prob.p).power(u[None, :])[0]
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
    """Projected ascent estimate of sup {J(u) : Phi(u) <= rho}, one seed at
    a time: seeds are rescaled onto the sub-level set (Phi is
    p-homogeneous) and pushed up the J gradient with backtracking.  The
    package runs no such ascent; TestBonanno measures its closed-form
    bound against this one."""
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
        return bonanno_parameters(problem, *args, **kwargs)


class TestBatchedSearches:
    """c_inf and the Bonanno parameters it feeds are exactly what the
    serial loops gave."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        # below 0.5: at a = 0.5 the ramp's r = 0.5 meets its bound R (1-a)/(1+a)
        beta_sup=st.floats(0.0, 0.5, exclude_max=True),
        alpha_rate=st.floats(0.4, 1.5),
        n_cells=st.integers(64, 256),
        max_iter=st.sampled_from([1, 2, 7, 200]),
    )
    def test_equal_serial_references(self, beta_sup, alpha_rate, n_cells, max_iter):
        prob = example_problem(beta_sup=beta_sup, alpha_rate=alpha_rate, n_cells=n_cells)
        assert c_infinity(prob, max_iter=max_iter) == _serial_c_infinity(prob, max_iter=max_iter)
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
        reports = multi_start_solve(problem, [0.0])
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
        distinct = _pairwise_distinct([p.values for p in rep.profiles], 1e-4)
        assert np.array_equal(distinct, ~np.eye(rep.n_distinct, dtype=bool))

    def test_stability_under_grid_doubling(self, solved, problem):
        _, lam_sel, reports = solved
        rep = reports[1]
        for prof in rep.profiles:
            check = grid_doubling_check(replace_lambda(problem, lam_sel), prof.values)
            assert check.gradient_norm < 1e-6
            assert check.drift < 1e-2

    def test_deterministic(self, problem):
        a = multi_start_solve(problem, [1.0])[0]
        b = multi_start_solve(problem, [1.0])[0]
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


def _reference_solve_tridiag(diag, off, rhs):
    """The free-row solve through scipy.linalg.solve_banded that the direct
    LAPACK call replaced, kept verbatim as the reference it must
    reproduce bit for bit."""
    from scipy.linalg import solve_banded

    m = diag.size - 1
    ab = np.zeros((3, m))
    ab[0, 1:] = off[: m - 1]
    ab[1, :] = diag[:m]
    ab[2, :-1] = off[: m - 1]
    out = np.zeros(m + 1)
    try:
        out[:m] = solve_banded((1, 1), ab, rhs[:m])
    except (np.linalg.LinAlgError, ValueError):
        return None
    return out if np.isfinite(out).all() else None


class TestLapackSolve:
    """The direct dgtsv call returns what solve_banded returned, array or
    None, on every kind of system the Newton-type tiers can hand it."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 80),
        kind=st.sampled_from(["dominant", "near_singular", "laplacian", "zero_row", "nonfinite"]),
        seed=st.integers(0, 2**32 - 1),
        where=st.sampled_from(["diag", "off", "rhs"]),
        bad=st.sampled_from([math.inf, -math.inf, math.nan]),
    )
    def test_equals_solve_banded(self, n, kind, seed, where, bad):
        from randerslab.pde import _solve_tridiag

        rng = np.random.default_rng(seed)
        off = rng.uniform(-1.0, 1.0, n - 1)
        coupling = np.zeros(n)
        coupling[:-1] += np.abs(off)
        coupling[1:] += np.abs(off)
        diag = rng.choice([-1.0, 1.0], n) * (coupling + rng.uniform(0.1, 1.0, n))
        rhs = rng.normal(size=n)
        m = n - 1
        if kind == "near_singular":
            # a weighted path Laplacian on the free rows, which is singular,
            # moved off singularity by a few parts in 1e14
            weights = np.abs(off[: m - 1])
            off[: m - 1] = -weights
            diag[:m] = 0.0
            diag[: m - 1] += weights
            diag[1:m] += weights
            diag[:m] *= 1.0 + 1e-14 * rng.uniform(-1.0, 1.0, m)
        elif kind == "laplacian":
            # integer path Laplacian on the free rows: exactly singular,
            # with an exact zero last pivot
            scale = 2.0 ** int(rng.integers(-20, 20))
            off[:] = -scale
            diag[:m] = 2.0 * scale
            diag[0] = diag[m - 1] = scale
            if m == 1:
                diag[0] = 0.0
        elif kind == "zero_row":
            row = int(rng.integers(0, m))
            diag[row] = 0.0
            off[max(row - 1, 0) : row + 1] = 0.0
        elif kind == "nonfinite":
            # solve_banded refused these; dgtsv alone can return a finite
            # solution for an infinite diagonal entry
            target = {"diag": diag, "off": off, "rhs": rhs}[where]
            target[int(rng.integers(0, target.size))] = bad
        given_arrays = [a.copy() for a in (diag, off, rhs)]
        with np.errstate(all="ignore"):
            expected = _reference_solve_tridiag(diag, off, rhs)
        x = _solve_tridiag(diag, off, rhs)
        if expected is None:
            assert x is None
        else:
            assert x is not None and np.array_equal(x, expected)
        for before, after in zip(given_arrays, (diag, off, rhs)):
            assert np.array_equal(before, after, equal_nan=True)


class TestSolveErrors:
    """Only a singular (info > 0) or non-finite system moves a Newton-type
    step to its next tier; any other error from the LAPACK call is a bug
    and propagates."""

    @pytest.fixture
    def start(self):
        from randerslab.pde import _default_seeds

        prob = replace_lambda(example_problem(n_cells=64), 1.0)
        return prob, _default_seeds(prob, 1.0)[2]

    def test_type_error_propagates(self, start, monkeypatch):
        from randerslab.pde import _descend, _lapack, _polish_root, _run_starts

        def broken(*args, **kwargs):
            raise TypeError("not a solver error")

        monkeypatch.setattr(_lapack(), "dgtsv", broken)
        prob, u0 = start
        with pytest.raises(TypeError):
            _descend(prob, u0, 50, 1e-8)
        with pytest.raises(TypeError):
            _run_starts(prob, [_polish_root(prob, u0, 1e-8)])

    def test_singular_solve_falls_through(self, start, monkeypatch):
        from randerslab.pde import _descend, _lapack

        original = _lapack().dgtsv
        calls = []

        def singular_once(*args, **kwargs):
            calls.append(args)
            out = original(*args, **kwargs)
            if len(calls) == 1:
                return (*out[:-1], 1)  # info > 0: a zero pivot
            return out

        monkeypatch.setattr(_lapack(), "dgtsv", singular_once)
        prob, u0 = start
        steps = []
        _descend(prob, u0, 1, 1e-8, on_step=steps.append)
        # the full Newton solve failed; the damped tier took the first step
        assert len(calls) >= 2 and len(steps) == 1


def test_missing_lapack_extension_is_named(monkeypatch):
    # no fallback: without scipy's LAPACK extension the first solve raises
    # an ImportError that names it
    import importlib.util

    from randerslab.pde import _solve_tridiag

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        _solve_tridiag(np.full(4, 2.0), np.full(3, -1.0), np.ones(4))


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

    def test_no_witness_up_to_the_bound(self, problem):
        # at lambda = 1 every ray's energy stays above 0, below the transition
        with pytest.raises(SweepFailure, match=r"no negative-energy ray witness up to lambda = 1\.0;"):
            find_transition_lambda(problem, 1.0)


def _reference_ray_table(problem):
    """The (shapes x ts) terms as the per-(shape, t) loop built them, kept
    verbatim as the reference the one-pass table must reproduce."""
    from randerslab.pde import _ray_shapes

    ts = np.geomspace(1e-2, 64.0, 80)

    def ray_terms(shape):
        phi0, _, _ = energy(problem, shape)
        jw = problem.disc["jw"]
        js = [float(np.sum(jw * problem.nonlinearity.H(t * shape))) for t in ts]
        return np.asarray([t**problem.p for t in ts]) * phi0, np.asarray(js)

    return tuple(map(np.array, zip(*(ray_terms(s) for s in _ray_shapes(problem)))))


class TestOneRayTable:
    """Each problem builds its lambda-free ray table once, in one pass."""

    def test_transition_and_multi_start_share_one_table(self, monkeypatch):
        problem = example_problem(n_cells=128)
        calls = []
        original = pde._ray_shapes

        def counted(prob):
            calls.append(prob.n_cells)
            return original(prob)

        monkeypatch.setattr(pde, "_ray_shapes", counted)
        lam_t = find_transition_lambda(problem, 200.0)
        report = multi_start_solve(problem, [0.0, 2.0 * lam_t])[1]
        assert calls == [128]
        assert report.n_starts == len(pde._default_seeds(problem, 1.0)) + 1
        assert best_ray_witness(replace_lambda(problem, 2.0 * lam_t))[0] < 0.0
        assert calls == [128]

    def test_lambda_clone_shares_and_regrid_rebuilds(self):
        import dataclasses

        problem = example_problem(n_cells=128)
        table = problem.rays
        assert replace_lambda(problem, 3.0).rays is table
        fine = dataclasses.replace(problem, n_cells=256)
        assert fine.rays is not table
        assert fine.rays.shapes.shape[1] == 257 and fine.rays is fine.rays

    @pytest.mark.parametrize("n_cells", [1024, 2048])
    def test_table_equals_per_shape_loop(self, n_cells):
        from randerslab.pde import _RayTable

        problem = example_problem(n_cells=n_cells)
        table = _RayTable(problem)
        phis, js = _reference_ray_table(problem)
        assert np.array_equal(table.phis, phis) and np.array_equal(table.js, js)


class TestLambdaClonesShareTheirBuild:
    """A lambda clone shares its problem's discretisation and ray table even
    when it, not the problem, builds them first."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"shapes": 0, "build": 0}
        shapes, build = pde._ray_shapes, PDEProblem._build

        def counted_shapes(prob):
            counts["shapes"] += 1
            return shapes(prob)

        def counted_build(prob):
            counts["build"] += 1
            return build(prob)

        monkeypatch.setattr(pde, "_ray_shapes", counted_shapes)
        monkeypatch.setattr(PDEProblem, "_build", counted_build)
        return counts

    def test_clones_of_a_fresh_problem_build_once(self, counts):
        problem = example_problem(n_cells=256)
        witnesses = [best_ray_witness(replace_lambda(problem, lam)) for lam in (1.0, 2.0, 3.0)]
        assert counts == {"shapes": 1, "build": 1}
        assert problem.rays.witness(2.0)[0] == witnesses[1][0]
        assert counts == {"shapes": 1, "build": 1}

    def test_dataclass_replace_starts_afresh(self, counts):
        import dataclasses

        problem = example_problem(n_cells=256)
        clone = replace_lambda(problem, 2.0)
        other = dataclasses.replace(clone, lam=3.0)
        assert other.disc is not problem.disc and clone.disc is problem.disc
        assert counts == {"shapes": 0, "build": 2}


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


def _random_profile(rng, r, kind):
    """A profile on the grid r with a zero rim: "noise", a "tent", "steps"
    (many flat cells, rising and falling steps between them) or a steep
    "plateau"."""
    if kind == "noise":
        u = rng.normal(size=r.size)
    elif kind == "tent":
        u = rng.uniform(0.1, 3.0) * np.clip(1.0 - r / rng.uniform(0.05, r[-1]), 0.0, 1.0)
    elif kind == "steps":
        u = 0.5 * rng.integers(-1, 4, size=r.size).astype(float)
        u = np.repeat(u[:: 8], 8)[: r.size]
    else:
        radius = rng.uniform(0.1, 0.9) * r[-1]
        u = np.clip((radius - r) / (0.1 * radius), 0.0, 1.0)
    u[-1] = 0.0
    return u


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
    """The pairwise sup-distance matrix of a report's profiles."""
    m = len(profiles)
    distinct = np.ones((m, m), dtype=bool)
    for i in range(m):
        distinct[i, i] = False
        for j in range(i + 1, m):
            far = float(np.max(np.abs(profiles[i] - profiles[j]))) > threshold
            distinct[i, j] = distinct[j, i] = far
    return distinct


class TestRetiredLoops:
    """The one-line forms of the gradient flux and the ray witness give
    exactly what the loops and masks they replaced gave, and the clustering
    leaves every pair of representatives distinct."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n_cells=st.sampled_from([256, 1024]),
        kind=st.sampled_from(["noise", "tent", "steps", "plateau"]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 100.0),
    )
    def test_gradient_equals_masked_reference(self, n_cells, kind, seed, lam):
        prob = replace_lambda(_example_at(n_cells), lam)
        u = _random_profile(np.random.default_rng(seed), prob.grid, kind)
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
            distinct = _pairwise_distinct([p.values for p in rep.profiles], 1e-4)
            assert np.array_equal(distinct, ~np.eye(rep.n_distinct, dtype=bool))


# The one-start-at-a-time kernels, descent and multi-start that the batched
# multi-start replaced, kept verbatim as the reference it must reproduce bit
# for bit; only the names carry the _reference_ prefix.


def _reference_phi_terms(problem: PDEProblem, u: np.ndarray):
    """The per-cell slopes and co-norms of a profile or stack."""
    disc = problem.disc
    slopes = np.diff(u) / disc["dr"]
    return slopes, radial_conorm(disc["b_mid"], slopes)


def _reference_dconorm(problem: PDEProblem, slopes: np.ndarray) -> np.ndarray:
    """dF*/dslope per cell."""
    b = problem.disc["b_mid"]
    return np.where(slopes >= 0, 1.0 / (1.0 + b), -1.0 / (1.0 - b))


def _reference_energy(problem: PDEProblem, u) -> tuple:
    """(Phi, J, E_lambda) of one profile."""
    u = np.asarray(u, dtype=float)
    disc = problem.disc
    if u.shape != disc["r"].shape:
        raise ValueError(f"profile must live on the {disc['r'].size}-node grid")
    _, conorms = _reference_phi_terms(problem, u)
    phi = float(np.sum(conorms**problem.p * disc["vol_f"])) / problem.p
    j = float(np.sum(disc["jw"] * problem.nonlinearity.H(u)))
    return phi, j, phi - problem.lam * j


def _reference_energy_gradient(problem: PDEProblem, u) -> np.ndarray:
    """The gradient of one profile."""
    u = np.asarray(u, dtype=float)
    disc = problem.disc
    slopes, conorms = _reference_phi_terms(problem, u)
    # a flat cell has a zero co-norm, so its flux is zero whatever the sign
    flux = conorms ** (problem.p - 1.0) * _reference_dconorm(problem, slopes) * disc["vol_f"] / disc["dr"]
    grad = np.zeros_like(u)
    grad[:-1] -= flux
    grad[1:] += flux
    grad -= problem.lam * disc["jw"] * problem.nonlinearity.h(u)
    return grad


def _reference_free_gradient(problem: PDEProblem, u: np.ndarray) -> np.ndarray:
    """The gradient with a zero rim entry."""
    g = _reference_energy_gradient(problem, u)
    g[-1] = 0.0
    return g


def _reference_hessian_bands(problem, u, flat_floor: bool = True):
    """The Hessian bands of one profile."""
    disc = problem.disc
    p = problem.p
    slopes, conorms = _reference_phi_terms(problem, u)
    dphi = _reference_dconorm(problem, slopes)
    if flat_floor:
        floor = 1e-6 * max(float(np.max(conorms)), 1e-30)
        conorms = np.maximum(conorms, floor)
    w = (
        (p - 1.0)
        * conorms ** (p - 2.0)
        * dphi**2
        * disc["vol_f"]
        / disc["dr"] ** 2
    )
    n = u.size
    diag_phi = np.zeros(n)
    diag_phi[:-1] += w
    diag_phi[1:] += w
    off = -w
    diag_react = -problem.lam * disc["jw"] * np.asarray(problem.nonlinearity.dh(u), dtype=float)
    return diag_phi, off, diag_react


def _reference_descend(problem, u0, max_iter, tol_factor, on_step=None):
    """The descent from one start."""
    u = np.maximum(np.asarray(u0, dtype=float).copy(), 0.0)
    u[-1] = 0.0
    _, _, e_val = _reference_energy(problem, u)
    g = _reference_free_gradient(problem, u)
    converged = False
    recent = deque([e_val], maxlen=_STALL_WINDOW + 1)

    def try_direction(direction, halvings):
        """Backtracking Armijo step along direction; returns the accepted
        alpha or None, updating the iterate on success."""
        nonlocal u, e_val, g
        alpha = 1.0
        for _ in range(halvings):
            trial = np.maximum(u + alpha * direction, 0.0)
            _, _, e_trial = _reference_energy(problem, trial)
            decrease = float(g @ (u - trial))
            if e_trial <= e_val - 1e-4 * decrease + 1e-300 and e_trial <= e_val:
                u, e_val = trial, e_trial
                g = _reference_free_gradient(problem, u)
                if on_step is not None:
                    on_step(e_val)
                return alpha
            alpha *= 0.5
        return None

    # lumped L^2 mass: damping by mu * M acts like a semi-implicit gradient
    # flow step of size 1/mu, uniformly across the stiff volume spectrum
    mass = problem.disc["trap_area_g"] + 1e-300
    mu = 1.0
    for _ in range(max_iter):
        g_norm = float(np.linalg.norm(g))
        if g_norm <= tol_factor * (1.0 + abs(e_val)):
            converged = True
            break
        diag_phi, off, diag_react = _reference_hessian_bands(problem, u)
        moved = False
        # 1) full Newton, but only when it earns a confident step: timid
        # fractional steps are the damped tier's job
        cand = _solve_tridiag(diag_phi + diag_react, off, -g)
        if cand is not None and float(g @ cand) < 0:
            moved = try_direction(cand, 2) is not None
        # 2) mass-damped semi-implicit step with adaptive damping
        if not moved:
            diag_pos = diag_phi + np.maximum(diag_react, 0.0)
            for _ in range(80):
                cand = _solve_tridiag(diag_pos + mu * mass, off, -g)
                if cand is not None and float(g @ cand) < 0:
                    alpha = try_direction(cand, 10)
                    if alpha is not None:
                        moved = True
                        if alpha >= 1.0:
                            mu *= 0.25
                        elif alpha >= 0.25:
                            mu *= 0.7
                        else:
                            mu *= 2.0
                        break
                mu *= 10.0
                if mu > 1e200:
                    break
        if not moved:
            break
        # Stagnation: once energy differences fall under the floating
        # resolution of E itself, the monotone line search cannot certify
        # further progress and the gradient stalls near sqrt(eps |E| Hmax).
        recent.append(e_val)
        if len(recent) == recent.maxlen and recent[0] - e_val <= _STALL_RTOL * abs(e_val):
            break
    # Endgame: finish by driving grad E to zero directly.
    g_norm = float(np.linalg.norm(g))
    if not converged:
        u, g_norm = _reference_polish_root(problem, u, tol_factor)
    phi, _, e_val = _reference_energy(problem, u)
    converged = converged or g_norm <= tol_factor * (1.0 + abs(e_val))
    if converged and problem.p * phi < _zero_only_level(problem):
        return np.zeros_like(u), 0.0, 0.0, True
    return u, e_val, g_norm, converged


def _reference_polish_root(problem, u, tol_factor):
    """The root polish of one iterate."""
    u = u.copy()
    g = _reference_free_gradient(problem, u)
    g_norm = float(np.linalg.norm(g))
    mass = problem.disc["trap_area_g"] + 1e-300
    tau = 0.0
    for _ in range(120):
        _, _, e_val = _reference_energy(problem, u)
        if g_norm <= tol_factor * (1.0 + abs(e_val)):
            break
        diag_phi, off, diag_react = _reference_hessian_bands(problem, u, flat_floor=False)
        diag = diag_phi + diag_react
        stepped = False
        for _ in range(40):
            cand = _solve_tridiag(diag + tau * mass, off, -g)
            if cand is not None:
                alpha = 1.0
                for _ in range(25):
                    trial = np.maximum(u + alpha * cand, 0.0)
                    g_trial = _reference_free_gradient(problem, trial)
                    n_trial = float(np.linalg.norm(g_trial))
                    if n_trial < g_norm * (1.0 - 1e-4 * alpha):
                        u, g, g_norm = trial, g_trial, n_trial
                        stepped = True
                        break
                    alpha *= 0.5
            if stepped:
                tau *= 0.25
                break
            tau = max(4.0 * tau, 1e-10)
            if tau > 1e18:
                break
        if not stepped:
            break
    return u, g_norm


def _reference_multi_start_solve(problem: PDEProblem, lambda_grid: Sequence[float]) -> list:
    """The multi-start, one seed after another."""
    s0 = problem.nonlinearity.s0
    seeds = _default_seeds(problem, s0)
    threshold = 1e-4 * s0
    reports = []
    for lam in lambda_grid:
        prob = replace_lambda(problem, float(lam))
        lam_seeds = list(seeds)
        if lam > 0:
            # starting below the zero level makes the descent provably end
            # at a nontrivial critical point whenever one exists on a ray
            e_wit, witness = problem.rays.witness(prob.lam)
            if e_wit < -1e-12:
                lam_seeds.append(witness)
        results = []
        n_conv = 0
        for seed in lam_seeds:
            u, e_val, g_norm, converged = _reference_descend(prob, seed, 4000, 1e-8)
            if converged:
                n_conv += 1
                results.append((u, e_val, g_norm))
        # cluster by sup distance, lowest energy first so representatives
        # are the best minimizers
        results.sort(key=lambda t: t[1])
        clusters = []
        for u, e_val, g_norm in results:
            if all(float(np.max(np.abs(u - c[0]))) > threshold for c in clusters):
                clusters.append((u, e_val, g_norm))
        reports.append(
            CriticalPointReport(
                lam=float(lam),
                profiles=[prob.profile(c[0]) for c in clusters],
                energies=[c[1] for c in clusters],
                gradient_norms=[c[2] for c in clusters],
                n_converged=n_conv,
                n_starts=len(lam_seeds),
            )
        )
    return reports


def _report_bytes(report):
    return (
        report.lam,
        [prof.values.tobytes() for prof in report.profiles],
        report.energies,
        report.gradient_norms,
        report.n_converged,
        report.n_starts,
    )


@functools.lru_cache(maxsize=None)
def _selected_at(n_cells):
    """The example problem at n_cells and twice its transition lambda."""
    prob = _example_at(n_cells)
    return prob, 2.0 * find_transition_lambda(prob, 200.0)


class TestBatchedMultiStart:
    """Every start of a lambda steps as one row of the kernels' stacks and
    gets exactly the numbers of the one-start-at-a-time loop."""

    @pytest.mark.parametrize("n_cells", [256, 1024])
    def test_equals_per_seed_loop(self, n_cells):
        prob, lam = _selected_at(n_cells)
        got = multi_start_solve(prob, [0.0, lam])
        expected = _reference_multi_start_solve(prob, [0.0, lam])
        assert [_report_bytes(r) for r in got] == [_report_bytes(r) for r in expected]
        at = replace_lambda(prob, lam)
        for prof in got[1].profiles:
            check = grid_doubling_check(at, prof.values)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pde, "_descend", _reference_descend)
                assert check == grid_doubling_check(at, prof.values)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        beta_sup=st.floats(0.0, 0.5),
        alpha_rate=st.floats(0.4, 1.5),
        n_cells=st.integers(64, 256),
    )
    def test_equals_per_seed_loop_across_problems(self, beta_sup, alpha_rate, n_cells):
        prob = example_problem(beta_sup=beta_sup, alpha_rate=alpha_rate, n_cells=n_cells)
        lam_t = find_transition_lambda(prob, 200.0)
        lams = [0.0, lam_t, 2.0 * lam_t]
        got = multi_start_solve(prob, lams)
        expected = _reference_multi_start_solve(prob, lams)
        assert [_report_bytes(r) for r in got] == [_report_bytes(r) for r in expected]

    @pytest.mark.parametrize("n_cells", [256, 1024])
    def test_descend_steps_as_alone(self, n_cells):
        from randerslab.pde import _descend

        prob, lam = _selected_at(n_cells)
        at = replace_lambda(prob, lam)
        for seed in _default_seeds(at, 1.0)[1:4] + [prob.rays.witness(lam)[1]]:
            steps, ref_steps = [], []
            u, *rest = _descend(at, seed, 4000, 1e-8, on_step=steps.append)
            u_ref, *rest_ref = _reference_descend(at, seed, 4000, 1e-8, on_step=ref_steps.append)
            assert steps == ref_steps and len(steps) > 0
            assert u.tobytes() == u_ref.tobytes() and rest == rest_ref

    @pytest.mark.parametrize("n_cells", [64, 256])
    def test_polish_as_reference(self, n_cells):
        # the example problem's multi-starts at 256 to 2,048 cells never
        # reach the root polish, so drive it from the default tents, one at
        # a time and as one batch
        from randerslab.pde import _polish_root, _run_starts

        prob, lam = _selected_at(n_cells)
        for at in (replace_lambda(prob, 0.5 * lam), replace_lambda(prob, lam)):
            tents = _default_seeds(at, 1.0)[1:]
            expected = [_reference_polish_root(at, u0, 1e-8) for u0 in tents]
            alone = [_run_starts(at, [_polish_root(at, u0, 1e-8)])[0] for u0 in tents]
            batch = _run_starts(at, [_polish_root(at, u0, 1e-8) for u0 in tents])
            for got in (alone, batch):
                assert [(u.tobytes(), g) for u, g in got] == [(u.tobytes(), g) for u, g in expected]


class TestStackedKernels:
    """Each row of a stacked kernel, and the one-row energy, gradient and
    Hessian bands, equal the one-profile kernels bit for bit."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n_cells=st.sampled_from([64, 256, 1024]),
        kinds=st.lists(st.sampled_from(["noise", "tent", "steps", "plateau"]), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 100.0),
        floors=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_rows_equal_references(self, n_cells, kinds, seed, lam, floors):
        from randerslab.pde import _energies, _gradients_and_bands

        prob = replace_lambda(_example_at(n_cells), lam)
        rng = np.random.default_rng(seed)
        stack = np.array([_random_profile(rng, prob.grid, kind) for kind in kinds])
        floors = floors[: len(kinds)]
        energies = _energies(prob, stack)
        grads, diag_phi, off, diag_react = _gradients_and_bands(prob, stack, floors)
        for i, u in enumerate(stack):
            assert energies[i] == energy(prob, u) == _reference_energy(prob, u)
            grad = _reference_energy_gradient(prob, u)
            assert np.array_equal(grads[i], grad) and np.array_equal(energy_gradient(prob, u), grad)
            bands = _reference_hessian_bands(prob, u, flat_floor=floors[i])
            assert all(np.array_equal(a, b) for a, b in zip((diag_phi[i], off[i], diag_react[i]), bands))
            for flat_floor in (True, False):
                bands = _reference_hessian_bands(prob, u, flat_floor=flat_floor)
                _, *got = _gradients_and_bands(prob, u[None], [flat_floor])
                assert all(np.array_equal(a[0], b) for a, b in zip(got, bands))


class TestProfileShape:
    """Every kernel refuses a profile, or a stack, off the problem grid with
    the same error."""

    @pytest.mark.parametrize("nodes", [64, 66])
    @pytest.mark.parametrize("name", ["energy", "energy_gradient"])
    def test_profile_of_wrong_length(self, name, nodes):
        with pytest.raises(ValueError, match="profile must live on the 65-node grid"):
            getattr(pde, name)(_example_at(64), np.zeros(nodes))

    @pytest.mark.parametrize("nodes", [64, 66])
    @pytest.mark.parametrize("name", ["_energies", "_gradients", "_gradients_and_bands"])
    def test_stack_of_wrong_width(self, name, nodes):
        args = ([True] * 3,) if name == "_gradients_and_bands" else ()
        with pytest.raises(ValueError, match="profile must live on the 65-node grid"):
            getattr(pde, name)(_example_at(64), np.zeros((3, nodes)), *args)

    @pytest.mark.parametrize("shape", [(10,), (64,), (66,), (1, 65)])
    def test_grid_doubling_profile_off_the_grid(self, shape):
        # a zero profile off the grid is refused, not reported stable
        with pytest.raises(ValueError, match="profile must live on the 65-node grid"):
            grid_doubling_check(_example_at(64), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_grid_doubling_non_finite_profile(self, bad):
        u = np.zeros(65)
        u[10] = bad
        with pytest.raises(ValueError, match="profile must be finite"):
            grid_doubling_check(_example_at(64), u)
