import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randerslab.numerics import (
    DIVERGENT,
    _trial,
    EvaluationError,
    adaptive_integrate,
    beta_fn,
    gamma_fn,
    gauss_legendre,
    is_divergent,
    lgamma_fn,
    seeded_line_search,
)


class TestGaussLegendre:
    def test_order_one_is_midpoint_rule(self):
        rule = gauss_legendre(1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([2.0])

    def test_order_two_classical_nodes(self):
        rule = gauss_legendre(2)
        assert sorted(rule.nodes) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
        assert rule.weights == pytest.approx([1.0, 1.0])

    def test_odd_power_integrates_to_zero(self):
        rule = gauss_legendre(16)
        assert abs(float(rule.weights @ rule.nodes**15)) < 1e-12

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 40])
    def test_weights_sum_to_interval_measure(self, order):
        rule = gauss_legendre(order)
        assert float(rule.weights.sum()) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("order", range(1, 13))
    def test_polynomial_exactness_up_to_degree(self, order):
        rule = gauss_legendre(order)
        for k in range(2 * order):
            exact = (1.0 + (-1.0) ** k) / (k + 1.0)
            got = float(rule.weights @ rule.nodes**k)
            assert got == pytest.approx(exact, abs=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestAdaptiveIntegrate:
    def test_polynomial(self):
        res = adaptive_integrate(lambda t: t * t, 0.0, 1.0, tol=1e-10)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert res.abs_error_estimate >= 0

    def test_endpoint_singularity_matches_beta_recurrence(self):
        # B(3, 2/3) = Gamma(3)Gamma(2/3)/Gamma(11/3); the recurrence
        # Gamma(11/3) = (8/3)(5/3)(2/3)Gamma(2/3) collapses it to 27/40.
        expected = 27.0 / 40.0
        res = adaptive_integrate(lambda s: s**2 * (1 - s) ** (-1.0 / 3.0), 0.0, 1.0)
        assert res.value == pytest.approx(expected, rel=1e-8)
        assert res.value == pytest.approx(beta_fn(3.0, 2.0 / 3.0), rel=1e-8)

    def test_nonintegrable_singularity_is_divergent(self):
        res = adaptive_integrate(lambda s: s**6 * (1 - s) ** (-4.0 / 3.0), 0.0, 1.0)
        assert is_divergent(res.value)
        assert res.abs_error_estimate is None

    def test_logarithmic_divergence_is_divergent(self):
        res = adaptive_integrate(lambda s: 1.0 / (1.0 - s), 0.0, 1.0)
        assert is_divergent(res.value)
        res = adaptive_integrate(lambda s: 1.0 / s, 0.0, 1.0)
        assert is_divergent(res.value)

    def test_growth_cap_divergence(self):
        res = adaptive_integrate(lambda s: math.exp(80 * s), 0.0, 1.0)
        assert is_divergent(res.value)

    def test_deterministic(self):
        f = lambda s: s**2 * (1 - s) ** (-1.0 / 3.0)
        first = adaptive_integrate(f, 0.0, 1.0)
        second = adaptive_integrate(f, 0.0, 1.0)
        assert first == second

    def test_exhausted_split_budget_is_flagged(self):
        # int_0^1 (1-s)^(-3/4) ds = 4: no two levels agree to tol/10, so
        # every level runs and the error estimate (1.6e-8) stays above tol;
        # the true error is 1.9e-8
        res = adaptive_integrate(lambda s: (1 - s) ** (-0.75), 0.0, 1.0, tol=1e-10)
        assert not res.converged
        assert res.abs_error_estimate > 1e-10
        assert res.value == pytest.approx(4.0, rel=1e-3)

    def test_converged_within_tolerance(self):
        res = adaptive_integrate(lambda s: (1 - s) ** (-0.4), 0.0, 1.0, tol=1e-10)
        assert res.converged
        assert res.abs_error_estimate <= 1e-10
        assert res.value == pytest.approx(1.0 / 0.6, abs=1e-9)
        assert adaptive_integrate(lambda t: t * t, 0.0, 1.0).converged

    @pytest.mark.parametrize(
        "tol, alpha",
        [(1e-10, a / 20) for a in range(10)] + [(1e-8, a / 20) for a in range(11)],
    )
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_documented_accuracy_range(self, tol, alpha, side):
        # the docstring's contract: (distance)^(-a) endpoint singularities
        # reach tol 1e-10 for a <= 0.45 and tol 1e-8 for a <= 1/2, with the
        # true error inside tol, not only the estimate
        if side == "left":
            f = lambda s: s ** (-alpha)
        else:
            f = lambda s: (1 - s) ** (-alpha)
        res = adaptive_integrate(f, 0.0, 1.0, tol=tol)
        assert res.converged
        assert abs(res.value - 1.0 / (1.0 - alpha)) <= tol

    def test_narrow_interval_is_sampled_inside(self):
        # narrower than four endpoint floors of 1e3 ulp: the floor shrinks
        a, b = 1.0, 1.0 + 4e-13
        seen = []
        res = adaptive_integrate(lambda s: seen.append(s) or math.sqrt((s - a) * (b - s)), a, b)
        assert all(a < s < b for s in seen)
        assert res.value == pytest.approx(math.pi / 8.0 * (b - a) ** 2, rel=1e-6)

    def test_divergent_verdict_counts_as_converged(self):
        res = adaptive_integrate(lambda s: 1.0 / (1.0 - s), 0.0, 1.0)
        assert is_divergent(res.value)
        assert res.converged

    def test_nonfinite_interior_value_raises(self):
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError):
            adaptive_integrate(lambda s: 1.0 / (s - 0.5), 0.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            adaptive_integrate(lambda s: s, 1.0, 0.0)
        with pytest.raises(ValueError):
            adaptive_integrate(lambda s: s, 0.0, 1.0, tol=0.0)


class TestGammaBeta:
    def test_gamma_against_stdlib(self):
        zs = np.concatenate([np.linspace(0.05, 0.95, 19), np.linspace(1.0, 49.5, 98)])
        for z in zs:
            assert gamma_fn(float(z)) == pytest.approx(math.gamma(float(z)), rel=1e-12)

    def test_lgamma_against_stdlib(self):
        for z in [0.1, 0.7, 1.0, 3.3, 12.0, 47.0]:
            assert lgamma_fn(z) == pytest.approx(math.lgamma(z), abs=1e-12, rel=1e-13)

    def test_beta_uniform_integrand(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_beta_gamma_recurrence_value(self):
        # Gamma(10/3) = (7/3)(4/3)(1/3)Gamma(1/3), so B(3, 1/3) = 27/14.
        assert beta_fn(3.0, 1.0 / 3.0) == pytest.approx(27.0 / 14.0, rel=1e-10)

    def test_beta_divergent_second_argument(self):
        assert is_divergent(beta_fn(7.0, -1.0 / 3.0))
        assert is_divergent(beta_fn(2.0, 0.0))

    def test_beta_invalid_first_argument(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_fn(-2.0, 1.0)

    def test_beta_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = rng.uniform(0.05, 30.0, size=2)
            assert beta_fn(x, y) == pytest.approx(beta_fn(y, x), rel=1e-12)

    def test_beta_agrees_with_quadrature(self):
        for x, y in itertools.product([0.5, 1.0, 2.5, 7.0], repeat=2):
            expected = beta_fn(x, y)
            res = adaptive_integrate(
                lambda s: s ** (x - 1.0) * (1.0 - s) ** (y - 1.0), 0.0, 1.0, tol=2e-9
            )
            assert res.value == pytest.approx(expected, rel=1e-8)

    def test_divergent_token_is_singleton(self):
        assert beta_fn(3.0, -1.0) is DIVERGENT
        assert repr(DIVERGENT) == "DIVERGENT"


class TestSeededLineSearch:
    def test_direction_gets_the_state_of_its_row(self):
        # each state row names the objective batch and position it came
        # from, which the direction cannot work out from the row alone
        target = np.array([0.5, 1.0, 2.0, 1.0, 0.0])
        batches, handed = [], []

        def objective(u):
            batches.append(u.copy())
            state = np.stack([np.full(len(u), len(batches) - 1), np.arange(len(u))], axis=1)
            return [float(v) for v in ((u - target) ** 2).sum(axis=1)], state

        def direction(u, state):
            for row, (batch, j) in zip(u, state.astype(int)):
                handed.append(np.array_equal(row, batches[batch][j]))
            return 2.0 * (target - u)

        seeds = np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [3.0, 0.0, 1.0, 2.0, 0.0], [0.2, 0.4, 0.6, 0.8, 0.0]])
        u, values = seeded_line_search(
            seeds, objective, direction, retract=lambda u: u, improves=lambda new, old: new < old,
            grow=1.5, max_iter=8,
        )
        assert len(handed) > len(seeds) and all(handed)
        assert values == [float(v) for v in ((u - target) ** 2).sum(axis=1)]

    @pytest.mark.parametrize("nodes", [2, 3, 129])
    @pytest.mark.parametrize("rows", [[], [0], [1, 2, 4], [0, 1, 2, 3, 4]])
    def test_trial_is_bit_identical_to_the_plain_expression(self, nodes, rows):
        rng = np.random.default_rng(nodes)
        u, g = rng.normal(size=(5, nodes)), rng.normal(size=(5, nodes))  # negative entries
        u[3] = 0.0
        step = np.array([1.0, 0.5, 1.3**7, 2.0**-40, 1e-12])
        rows = np.array(rows, dtype=np.intp)
        plain = np.maximum(u[rows] + step[rows, None] * g[rows], 0.0)
        plain[:, -1] = 0.0
        before = u.copy(), g.copy()
        assert np.array_equal(_trial(u, g, step, rows), plain)
        assert np.array_equal(u, before[0]) and np.array_equal(g, before[1])


# -- the batched search as it was before its rounds reused one trial buffer
# and updated the accepted rows array-wide, kept verbatim (but for the two
# names) as the reference the search must reproduce byte for byte


def _parent_trial(u, g, step, rows) -> np.ndarray:
    """max(u + step G, 0) on `rows`, with the rim at 0, built in place in
    the gathered copy of G: the same roundings as the plain expression."""
    trial = g[rows]
    trial *= step[rows, None]
    trial += u if rows.size == len(u) else u[rows]
    np.maximum(trial, 0.0, out=trial)
    trial[:, -1] = 0.0
    return trial


def _parent_seeded_line_search(
    seeds, objective, direction, retract, improves, grow: float, max_iter: int, g_tol: float = 0.0
):
    """Backtracking search from every seed (row of `seeds`) at once.

    Rows are clipped at zero with the last node (the Dirichlet rim) at 0;
    rows that vanish are dropped, `retract` maps the rest onto the start
    set.  Each row then searches exactly as it would alone: up to max_iter
    times, take G = direction(u, state) with its rim entry zeroed, since
    the rim is not an unknown (stop if ||G|| < g_tol), and halve the row's
    step until retract(clip(u + step G)) improves on u (accept, step *=
    grow) or step <= 1e-12 (stop); a trial that clips to zero is no
    improvement.  The callbacks act on stacks of rows; objective returns
    one Python float per row, so each accept test sees the scalars of a
    one-seed search, and one state row per row, which direction receives
    with the row it was computed for.  Returns the rows and their
    objective values.
    """
    u = np.maximum(np.asarray(seeds, dtype=float), 0.0)
    u[:, -1] = 0.0
    u = retract(u[u.max(axis=1) > 0])
    f, state = objective(u)
    f, state = list(f), np.array(state)
    g = np.zeros_like(u)
    step = np.ones(len(f))
    left = np.full(len(f), max_iter)  # iterations each row may still start
    active = np.ones(len(f), dtype=bool)
    fresh = np.ones(len(f), dtype=bool)  # the row needs a new direction
    while True:
        active &= (step > 1e-12) & ~(fresh & (left <= 0))
        turn = np.flatnonzero(active & fresh)
        if turn.size:
            g[turn] = direction(u[turn], state[turn])
            g[:, -1] = 0.0
            left[turn] -= 1
            fresh[turn] = False
            if g_tol:
                active[turn] &= [not np.linalg.norm(g[i]) < g_tol for i in turn]
        rows = np.flatnonzero(active)
        if not rows.size:
            return u, f
        trial = _parent_trial(u, g, step, rows)
        alive = trial.max(axis=1) > 0
        trial = retract(trial if alive.all() else trial[alive])
        f_trial, state_trial = objective(trial)
        for i, ok, j in zip(rows, alive, np.cumsum(alive) - 1):
            if ok and improves(f_trial[j], f[i]):
                u[i], f[i], state[i], fresh[i] = trial[j], f_trial[j], state_trial[j], True
                step[i] *= grow
            else:
                step[i] *= 0.5


def _both_searches(seeds, objective, direction, retract, improves, **kw):
    """The search and its reference on the same callbacks; rows and values
    as bytes, so -0.0 and +0.0 differ."""
    out = []
    for search in (seeded_line_search, _parent_seeded_line_search):
        u, values = search(seeds.copy(), objective, direction, retract, improves, **kw)
        assert all(type(v) is float for v in values)
        out.append((u.tobytes(), np.array(values).tobytes()))
    return out


_RETRACTS = {
    "identity": lambda u: u,
    "in place": lambda u: np.multiply(u, 0.75, out=u),  # writes to the rows it gets
    "fresh": lambda u: u / (1.0 + u.sum(axis=1))[:, None],
}


def _constant_gradient(nodes):
    """A direction, rim at 0, whose row-wise norm is not its 1-d norm."""
    for seed in itertools.count():
        c = np.random.default_rng(seed).normal(size=nodes)
        c[-1] = 0.0
        if np.linalg.norm(c[None], axis=1)[0] != np.linalg.norm(c):
            return c


class TestSearchEqualsReference:
    """The search returns the bytes of the loop it replaced."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        nodes=st.integers(2, 12),
        count=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        shift=st.sampled_from([0.0, 2.0]),
        grow=st.sampled_from([1.3, 1.5]),
        max_iter=st.integers(1, 25),
        g_tol=st.sampled_from([0.0, 1e-3]),
        retract=st.sampled_from(sorted(_RETRACTS)),
    )
    # a target below zero everywhere: the first trial of each row clips to
    # zero, and so do later ones
    @example(nodes=4, count=3, seed=0, shift=2.0, grow=1.5, max_iter=10, g_tol=0.0, retract="identity")
    def test_small_objectives(self, nodes, count, seed, shift, grow, max_iter, g_tol, retract):
        rng = np.random.default_rng(seed)
        seeds = rng.normal(size=(count, nodes))  # rows with no positive entry are dropped
        target = rng.normal(size=(count, nodes)) - shift
        weight = rng.uniform(0.5, 2.0, nodes)

        def objective(u):
            f = ((u - target[: len(u)]) ** 2 * weight).sum(axis=1)
            return [float(v) for v in f], np.stack([f, u.max(axis=1)], axis=1)

        def direction(u, state):
            return 2.0 * weight * (target[: len(u)] - u) / (1.0 + state[:, 1:])

        new, old = _both_searches(
            seeds, objective, direction, _RETRACTS[retract], lambda new, old: new < old,
            grow=grow, max_iter=max_iter, g_tol=g_tol,
        )
        assert new == old

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        ulps=st.integers(-2, 2),
        count=st.integers(1, 4),
        grow=st.sampled_from([1.3, 1.5]),
        max_iter=st.integers(1, 6),
        retract=st.sampled_from(sorted(_RETRACTS)),
    )
    def test_gradient_norm_at_g_tol(self, ulps, count, grow, max_iter, retract):
        # g_tol within a few ulps of the 1-d norm of a constant direction:
        # rows stop at once exactly when that norm is below g_tol
        c = _constant_gradient(33)
        g_tol = np.linalg.norm(c)
        for _ in range(abs(ulps)):
            g_tol = np.nextafter(g_tol, math.copysign(math.inf, ulps))
        seeds = np.random.default_rng(count).uniform(0.5, 1.5, size=(count, 33))
        new, old = _both_searches(
            seeds, lambda u: ([float(v) for v in -(u @ c)], u @ c), lambda u, _: np.tile(c, (len(u), 1)),
            _RETRACTS[retract], lambda new, old: new < old, grow=grow, max_iter=max_iter, g_tol=g_tol,
        )
        assert new == old
        start = _RETRACTS[retract](np.maximum(seeds, 0.0) * np.append(np.ones(32), 0.0))
        assert (new[0] == start.tobytes()) == (ulps > 0)
