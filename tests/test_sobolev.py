import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randerslab.modelspace import SpaceForm, area_factor
from randerslab.numerics import gauss_legendre, is_divergent
from randerslab.randers import BetaProfile, RandersStructure
from randerslab.rearrange import tent_profile
from randerslab.sobolev import (
    W1pRows,
    _seed_profiles,
    classify_pair,
    embedding_constant,
    funk_counterexample,
    sobolev_norms,
)

EUCLID2 = SpaceForm(2, 0.0)
HYP3 = SpaceForm(3, -1.0)


class TestClassifyPair:
    def test_sobolev_regime(self):
        pair = classify_pair(2.0, 4.0, 3)
        assert pair.regime == "S"
        assert pair.p_star == pytest.approx(6.0)

    def test_moser_trudinger_regime(self):
        assert classify_pair(3.0, 5.0, 3).regime == "MT"

    def test_morrey_regime(self):
        assert classify_pair(4.0, math.inf, 3).regime == "M"

    def test_rejections(self):
        assert classify_pair(2.0, 8.0, 3) is None  # above p* = 6
        assert classify_pair(2.0, 2.0, 3) is None  # q must exceed p
        assert classify_pair(1.0, 2.0, 3) is None  # p must exceed 1
        assert classify_pair(4.0, 5.0, 3) is None  # p > d forces q = inf
        assert classify_pair(3.0, math.inf, 3) is None  # p = d forces finite q

    def test_partition_matches_inequalities(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            p = float(rng.uniform(1.01, 8.0))
            q = math.inf if rng.random() < 0.2 else float(rng.uniform(1.01, 12.0))
            pair = classify_pair(p, q, d)
            if p < d:
                expected = "S" if (p < q < p * d / (d - p)) else None
            elif p == d:
                expected = "MT" if (p < q < math.inf) else None
            else:
                expected = "M" if q == math.inf else None
            assert (pair.regime if pair else None) == expected


class TestSobolevNorms:
    def test_riemannian_equals_finsler_without_beta(self):
        structure = RandersStructure(HYP3)
        u = tent_profile(structure, 1.5, 1.0, n=800)
        norms = sobolev_norms(u, structure, 2.5)
        assert norms.w1p_finsler == norms.w1p_riemann

    def test_euclidean_tent_hand_value(self):
        # cone of height 1 on B(0,1) in R^2, p = 2:
        # int |grad u|^2 = pi, int u^2 = pi/6, total 7 pi/6
        u = tent_profile(EUCLID2, 1.0, 1.0, n=8000)
        norms = sobolev_norms(u, EUCLID2, 2.0, qs=[2.0])
        assert norms.w1p_riemann == pytest.approx(7.0 * math.pi / 6.0, rel=1e-10)
        assert norms.linf == 1.0

    def test_equivalence_sandwich(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            a = float(rng.uniform(0.1, 0.8))
            p = float(rng.uniform(1.5, 5.0))
            structure = RandersStructure(HYP3, BetaProfile("tanh", a))
            radius = float(rng.uniform(0.5, 3.0))
            u = tent_profile(structure, radius, float(rng.uniform(0.5, 2.0)), n=700)
            norms = sobolev_norms(u, structure, p)
            d = structure.dim
            lower = (1 - a * a) ** ((d + 1) / 2.0) / (1 + a) ** p
            upper = 1.0 / (1 - a) ** p
            assert lower * norms.w1p_riemann <= norms.w1p_finsler * (1 + 1e-12)
            assert norms.w1p_finsler <= upper * norms.w1p_riemann * (1 + 1e-12)

    def test_quadrature_refinement_stable(self):
        structure = RandersStructure(HYP3, BetaProfile("tanh", 0.3))
        coarse = tent_profile(structure, 2.0, 1.0, n=1024)
        fine = tent_profile(structure, 2.0, 1.0, n=2048)
        n1 = sobolev_norms(coarse, structure, 3.0, qs=[2.0])
        n2 = sobolev_norms(fine, structure, 3.0, qs=[2.0])
        assert n1.w1p_finsler == pytest.approx(n2.w1p_finsler, rel=1e-3)
        assert n1.lq[2.0] == pytest.approx(n2.lq[2.0], rel=1e-3)


class TestEmbeddingConstant:
    PAIR = classify_pair(2.0, 4.0, 3)

    def test_positive(self):
        est = embedding_constant(HYP3, np.zeros(3), 1.0, self.PAIR)
        assert est > 0

    def test_translation_invariance(self):
        a = embedding_constant(HYP3, np.zeros(3), 1.0, self.PAIR)
        b = embedding_constant(HYP3, np.array([0.4, 0.1, 0.0]), 1.0, self.PAIR)
        assert a == pytest.approx(b, rel=0.01)

    def test_euclidean_translation_invariance(self):
        pair = classify_pair(2.0, 3.0, 2)
        a = embedding_constant(EUCLID2, np.zeros(2), 1.0, pair)
        b = embedding_constant(EUCLID2, np.array([5.0, -2.0]), 1.0, pair)
        assert a == pytest.approx(b, rel=0.01)

    def test_upper_bound_property(self):
        # any admissible profile's quotient dominates the reported infimum
        est = embedding_constant(HYP3, np.zeros(3), 1.0, self.PAIR, n_grid=128)
        u = tent_profile(HYP3, 1.0, 1.0, n=128)
        norms = sobolev_norms(u, HYP3, 2.0, qs=[4.0])
        quotient = norms.w1p_riemann ** 0.5 / norms.lq[4.0]
        assert est <= quotient * (1 + 1e-9)

    def test_hyperbolic_sweep_stays_positive(self):
        pair = classify_pair(4.0, math.inf, 3)
        estimates = []
        for chart in np.linspace(0.0, 0.9, 5):
            estimates.append(
                embedding_constant(HYP3, np.array([chart, 0.0, 0.0]), 1.0, pair, n_grid=96)
            )
        assert min(estimates) > 0


def _serial_embedding_constant(space, y, rho, pair, n_grid=192, max_iter=300):
    """The one-seed-at-a-time projected descent that the batched search
    replaced, kept verbatim as the reference it must reproduce bit for bit."""
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    space.point(y)
    p, q = pair.p, pair.q
    grid = np.linspace(0.0, rho, n_grid + 1)
    dr = np.diff(grid)
    rule = gauss_legendre(4)
    mid = 0.5 * (grid[:-1] + grid[1:])[:, None]
    half = 0.5 * dr[:, None]
    rs = mid + half * rule.nodes[None, :]
    area = area_factor(space, rs)
    shell = (half * rule.weights[None, :] * area).sum(axis=1)
    node_w = np.zeros(grid.size)
    cell_w = shell
    node_w[:-1] += 0.5 * cell_w
    node_w[1:] += 0.5 * cell_w

    def w_energy(u):
        slopes = np.diff(u) / dr
        return float(np.sum(np.abs(slopes) ** p * shell) + np.sum(node_w * np.abs(u) ** p))

    def l_norm(u):
        if q == math.inf:
            return float(np.max(u))
        return float(np.sum(node_w * np.abs(u) ** q)) ** (1.0 / q)

    def quotient(u):
        return w_energy(u) ** (1.0 / p) / l_norm(u)

    def grad_log_quotient(u):
        slopes = np.diff(u) / dr
        w_val = w_energy(u)
        gw = np.zeros_like(u)
        flux = p * np.abs(slopes) ** (p - 1) * np.sign(slopes) * shell / dr
        gw[:-1] -= flux
        gw[1:] += flux
        gw += p * node_w * np.abs(u) ** (p - 1) * np.sign(u)
        if q == math.inf:
            gl = np.zeros_like(u)
            gl[int(np.argmax(u))] = 1.0
            l_val = float(np.max(u))
            return gw / (p * w_val) - gl / l_val
        lq_pow = float(np.sum(node_w * np.abs(u) ** q))
        gl = q * node_w * np.abs(u) ** (q - 1) * np.sign(u)
        return gw / (p * w_val) - gl / (q * lq_pow)

    best = math.inf
    for seed in _seed_profiles(grid):
        u = seed.copy()
        u /= l_norm(u) if l_norm(u) > 0 else 1.0
        f_val = math.log(quotient(u))
        step = 1.0
        for _ in range(max_iter):
            g = grad_log_quotient(u)
            g[-1] = 0.0
            g_norm = float(np.linalg.norm(g))
            if g_norm < 1e-10:
                break
            improved = False
            while step > 1e-12:
                trial = np.maximum(u - step * g, 0.0)
                trial[-1] = 0.0
                if trial.max() <= 0:
                    step *= 0.5
                    continue
                trial /= l_norm(trial)
                f_trial = math.log(quotient(trial))
                if f_trial < f_val - 1e-14:
                    u, f_val = trial, f_trial
                    improved = True
                    step *= 1.3
                    break
                step *= 0.5
            if not improved:
                break
        best = min(best, quotient(u))
    return best


@st.composite
def _embedding_cases(draw):
    """(space, pair, rho, n_grid) over every regime, Morrey's q = inf included."""
    d = draw(st.integers(2, 4))
    regime = draw(st.sampled_from(["S", "MT", "M"]))
    if regime == "S":
        p = draw(st.floats(1.2, d - 0.2))
        q = p + draw(st.floats(0.05, 0.95)) * (p * d / (d - p) - p)
    elif regime == "MT":
        p, q = float(d), d + draw(st.floats(0.1, 4.0))
    else:
        p, q = d + draw(st.floats(0.1, 3.0)), math.inf
    curvature = draw(st.sampled_from([0.0, -0.25, -1.0, -4.0]))
    pair = classify_pair(p, q, d)
    assert pair is not None and pair.regime == regime
    return SpaceForm(d, curvature), pair, draw(st.floats(0.3, 2.0)), draw(st.integers(16, 96))


class TestBatchedEmbeddingSearch:
    """The batched seeded search returns exactly what the serial loop did."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(case=_embedding_cases())
    def test_equals_serial_reference(self, case):
        space, pair, rho, n_grid = case
        y = np.zeros(space.dim)
        assert embedding_constant(space, y, rho, pair, n_grid=n_grid) == _serial_embedding_constant(
            space, y, rho, pair, n_grid=n_grid
        )

    def test_readme_configuration(self):
        pair = classify_pair(2.0, 4.0, 3)
        y = np.array([0.4, 0.0, 0.0])
        value = embedding_constant(HYP3, y, 1.0, pair, n_grid=128)
        assert value == _serial_embedding_constant(HYP3, y, 1.0, pair, n_grid=128)
        assert value == 3.461248740078677

    def test_estimate_independent_of_centre(self):
        pair = classify_pair(2.0, 4.0, 3)
        values = {
            embedding_constant(HYP3, np.array([r, 0.0, 0.0]), 1.0, pair, n_grid=48)
            for r in (0.0, 0.3, 0.9)
        }
        assert len(values) == 1

    def test_overflow_names_the_parameters(self):
        # |u|^q of the first trials leaves the float range at rho = 1e99
        pair = classify_pair(2.0, 4.0, 2)
        with pytest.raises(ValueError, match=r"p = 2.0, q = 4.0, rho = 1e\+99: the discrete quotient leaves"):
            embedding_constant(EUCLID2, np.zeros(2), 1e99, pair, n_grid=128)

    def test_centre_still_validated(self):
        pair = classify_pair(2.0, 4.0, 3)
        with pytest.raises(ValueError, match="Euclidean norm < 1"):
            embedding_constant(HYP3, np.array([1.0, 0.0, 0.0]), 1.0, pair, n_grid=16)


class TestFunkCounterexample:
    def test_sobolev_case_values(self):
        pair = classify_pair(2.0, 4.0, 3)
        verdict = funk_counterexample(3, pair)
        assert verdict.t == pytest.approx(3.0)
        # finite side built from B(3, 1/3) = 27/14 and B(5, 1/3)
        assert not is_divergent(verdict.w_norm_bound)
        assert is_divergent(verdict.lq_norm)
        assert verdict.embedding_fails

    def test_morrey_case(self):
        pair = classify_pair(3.0, math.inf, 2)
        verdict = funk_counterexample(2, pair)
        assert verdict.t == pytest.approx(4.5)
        assert 1.0 - pair.p / verdict.t == pytest.approx(1.0 / 3.0)
        assert not is_divergent(verdict.w_norm_bound)
        assert is_divergent(verdict.lq_norm)
        assert verdict.embedding_fails

    def test_every_admissible_pair_fails(self):
        for d in (2, 3, 4):
            for p in [1.5, 2.0, 2.5, 3.0, 4.0, 6.0]:
                pairs = []
                if p < d:
                    p_star = p * d / (d - p)
                    pairs += [classify_pair(p, 0.5 * (p + p_star), d)]
                if p == d:
                    pairs += [classify_pair(p, p + 1.0, d), classify_pair(p, 3.0 * p, d)]
                if p > d:
                    pairs += [classify_pair(p, math.inf, d)]
                for pair in pairs:
                    if pair is None:
                        continue
                    verdict = funk_counterexample(d, pair)
                    assert 1.0 - pair.p / verdict.t > 0
                    if pair.q != math.inf:
                        assert 1.0 - pair.q / verdict.t <= 0
                    assert verdict.embedding_fails, (d, pair)

    def test_large_t_limit_regular(self):
        # as t grows the gradient-side Beta arguments approach regular values
        pair = classify_pair(2.0, 4.0, 3)
        prev = None
        for t in [3.0, 6.0, 12.0, 48.0, 192.0]:
            second = 1.0 - pair.p / t
            assert 0 < second < 1
            if prev is not None:
                assert second > prev
            prev = second


# -- the row kernels as first written, one fresh array per operation


def _ref_w1p_power(u, dr, shell, node_w, p):
    slopes = np.diff(u, axis=1) / dr
    return np.sum(np.abs(slopes) ** p * shell, axis=1) + np.sum(node_w * np.abs(u) ** p, axis=1)


def _ref_w1p_log_gradient(u, dr, shell, node_w, p, power):
    slopes = np.diff(u, axis=1) / dr
    gw = np.zeros_like(u)
    flux = p * np.abs(slopes) ** (p - 1) * np.sign(slopes) * shell / dr
    gw[:, :-1] -= flux
    gw[:, 1:] += flux
    gw += p * node_w * np.abs(u) ** (p - 1) * np.sign(u)
    return gw / (p * np.asarray(power))[:, None]


def _ref_sup_log_gradient(u):
    g = np.zeros_like(u)
    g[np.arange(len(u)), np.argmax(u, axis=1)] = 1.0
    return g / u.max(axis=1)[:, None]


def _stack(kind, nodes):
    rng = np.random.default_rng(nodes)
    if kind == "empty":
        return np.zeros((0, nodes))
    if kind == "one row":
        return rng.normal(size=(1, nodes))
    u = rng.normal(size=(10, nodes))  # negative entries included
    if kind == "zero rows":
        u[[0, 3]] = 0.0
    return u


class TestInPlaceRowKernels:
    """The in-place row kernels round exactly as the plain expressions do."""

    @pytest.mark.parametrize("kind", ["empty", "zero rows", "one row", "signed"])
    @pytest.mark.parametrize("nodes", [2, 3, 257])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.5, 4.5])
    def test_bit_identical_to_plain_expressions(self, kind, nodes, p):
        u = _stack(kind, nodes)
        grid = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, nodes))
        grid[0], grid[-1] = 0.0, 1.0
        dr = np.diff(grid)
        shell = np.random.default_rng(2).uniform(0.1, 2.0, nodes - 1)
        node_w = np.append(0.5 * shell, 0.0) + np.insert(0.5 * shell, 0, 0.0)
        before = u.copy()
        with np.errstate(all="ignore"):  # zero rows divide 0 by 0, as before
            power = _ref_w1p_power(u, dr, shell, node_w, p)
            assert np.array_equal(W1pRows(dr, shell, node_w, p).power(u), power)
            assert np.array_equal(
                W1pRows(dr, shell, node_w, p).log_gradient(u, power),
                _ref_w1p_log_gradient(u, dr, shell, node_w, p, power),
                equal_nan=True,
            )
        assert np.array_equal(u, before)  # the rows themselves are not written


def _weights(nodes):
    """dr, shell and node_w on a random grid of `nodes` nodes."""
    grid = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, nodes))
    grid[0], grid[-1] = 0.0, 1.0
    shell = np.random.default_rng(2).uniform(0.1, 2.0, nodes - 1)
    return np.diff(grid), shell, np.append(0.5 * shell, 0.0) + np.insert(0.5 * shell, 0, 0.0)


def _rows(count, nodes, seed, positive=False):
    """`count` rows with zero rows and -0.0 entries among them; signed
    unless `positive` (then every nonzero row has a positive max)."""
    u = np.random.default_rng(seed).normal(size=(count, nodes))
    if positive:
        u = np.abs(u)
        u[:, -1] = 0.0
    u[2:3] = 0.0
    u[1:2, ::3] = -0.0
    return u if not positive else u[u.max(axis=1) > 0]


def _bits(a):
    """The bytes of a as integers: unlike ==, they tell -0.0 from +0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _kernels(w, u, v):
    """power and log_gradient of u, sup_ratio_gradient of the positive v,
    each copied out of the workspace."""
    power = w.power(u)
    return [power, w.log_gradient(u, power).copy(), w.sup_ratio_gradient(v, w.power(v)).copy()]


class TestW1pRowsWorkspace:
    """One W1pRows workspace gives the bytes of the plain expressions, call
    after call, whatever its buffers held before."""

    @pytest.mark.parametrize("nodes", [2, 3, 257])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.5])
    def test_bytes_of_plain_expressions(self, nodes, p):
        dr, shell, node_w = _weights(nodes)
        u, v = _rows(10, nodes, 3), _rows(10, nodes, 4, positive=True)
        with np.errstate(divide="ignore", invalid="ignore"):  # zero rows divide 0 by 0
            power = _ref_w1p_power(u, dr, shell, node_w, p)
            v_power = _ref_w1p_power(v, dr, shell, node_w, p)
            plain = [
                power,
                _ref_w1p_log_gradient(u, dr, shell, node_w, p, power),
                _ref_sup_log_gradient(v) - _ref_w1p_log_gradient(v, dr, shell, node_w, p, v_power),
            ]
            got = _kernels(W1pRows(dr, shell, node_w, p), u, v)
        for a, b in zip(got, plain):
            assert np.array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("nodes", [2, 129])
    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_reused_workspace_gives_fresh_bytes(self, nodes, p):
        dr, shell, node_w = _weights(nodes)
        w = W1pRows(dr, shell, node_w, p)
        for seed, count in enumerate([10, 3, 0, 1, 10]):
            u, v = _rows(count, nodes, seed), _rows(count, nodes, 100 + seed, positive=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                got = _kernels(w, u, v)
                fresh = _kernels(W1pRows(dr, shell, node_w, p), u, v)
            for a, b in zip(got, fresh):
                assert np.array_equal(_bits(a), _bits(b))

    def test_rows_are_not_written(self):
        dr, shell, node_w = _weights(65)
        u, v = _rows(10, 65, 5), _rows(10, 65, 6, positive=True)
        before = _bits(u).copy(), _bits(v).copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            _kernels(W1pRows(dr, shell, node_w, 3.5), u, v)
        assert np.array_equal(_bits(u), before[0]) and np.array_equal(_bits(v), before[1])

    @pytest.mark.parametrize("layout", ["fortran", "column slice"])
    def test_layout_of_the_rows(self, layout):
        dr, shell, node_w = _weights(65)
        u, v = _rows(10, 65, 7), _rows(10, 65, 8, positive=True)
        if layout == "fortran":
            strided = np.asfortranarray(u), np.asfortranarray(v)
        else:
            strided = tuple(np.hstack([a, a])[:, 65:] for a in (u, v))
        assert not strided[0].flags.c_contiguous and not strided[1].flags.c_contiguous
        with np.errstate(divide="ignore", invalid="ignore"):
            got = _kernels(W1pRows(dr, shell, node_w, 3.5), *strided)
            plain = _kernels(W1pRows(dr, shell, node_w, 3.5), u, v)
        for a, b in zip(got, plain):
            assert np.array_equal(_bits(a), _bits(b))
