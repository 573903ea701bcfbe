import math

import numpy as np
import pytest

from randerslab.modelspace import SpaceForm
from randerslab.randers import (
    BetaProfile,
    FunkModel,
    RandersStructure,
    eikonal_residual,
    finsler_gradient,
    finsler_norm,
    funk_distance,
    global_reversibility,
    global_uniformity,
    polar_transform,
    radial_conorm,
    reversibility,
    uniformity,
    volume_density,
)


@pytest.fixture
def perturbed():
    return RandersStructure(SpaceForm(3, -1.0), BetaProfile("tanh", 0.5))


@pytest.fixture
def riemannian():
    return RandersStructure(SpaceForm(3, -1.0))


class TestFinslerNorm:
    def test_riemannian_reduction(self, riemannian):
        x = np.array([0.2, 0.1, -0.3])
        y = np.array([1.0, -2.0, 0.5])
        assert finsler_norm(riemannian, x, y) == pytest.approx(
            riemannian.metric_norm(x, y), rel=1e-14
        )

    def test_funk_at_origin_is_euclidean(self):
        fm = FunkModel(2)
        assert finsler_norm(fm, np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_funk_direct_substitution(self):
        # x = (1/2, 0), y = (1, 0): (sqrt(1 - (1/4 - 1/4)) + 1/2) / (3/4) = 2
        fm = FunkModel(2)
        assert finsler_norm(fm, np.array([0.5, 0.0]), np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_positive_homogeneity(self, perturbed):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-0.4, 0.4, size=3)
            y = rng.normal(size=3)
            base = finsler_norm(perturbed, x, y)
            for t in [0.0, 0.5, 2.0, 10.0]:
                assert finsler_norm(perturbed, x, t * y) == pytest.approx(
                    t * base, rel=1e-12, abs=1e-12
                )

    def test_positivity(self, perturbed):
        rng = np.random.default_rng(2)
        for _ in range(30):
            x = rng.uniform(-0.4, 0.4, size=3)
            y = rng.normal(size=3)
            assert finsler_norm(perturbed, x, y) > 0

    def test_point_outside_domain(self):
        fm = FunkModel(2)
        with pytest.raises(ValueError):
            finsler_norm(fm, np.array([1.0, 0.2]), np.array([1.0, 0.0]))


def _ref_finsler_norm(structure, x, y) -> float:
    """finsler_norm as first written, one closed form per structure type,
    kept verbatim as the reference that F = sqrt(g) + beta must reproduce."""
    y = np.asarray(y, dtype=float)
    if isinstance(structure, FunkModel):
        x = structure.chart_point(x)
        r2 = float(x @ x)
        y2 = float(y @ y)
        xy = float(x @ y)
        root = math.sqrt(max(0.0, y2 - (r2 * y2 - xy * xy)))
        return (root + xy) / (1.0 - r2)
    x = structure.chart_point(x)
    xn = float(np.linalg.norm(x))
    mu = structure.conformal_factor(x)
    drift = 0.0 if xn == 0.0 else structure.beta_norm(x) * float(x @ y) / xn
    return mu * (float(np.linalg.norm(y)) + drift)


class TestFinslerNormAgainstReference:
    """F = metric_norm + beta_covector . y agrees with the per-type closed
    forms it replaced, at random points, at the origin, for y and -y."""

    @pytest.mark.parametrize(
        "structure",
        [RandersStructure(SpaceForm(3, -1.0), BetaProfile("tanh", 0.5)), FunkModel(2), FunkModel(3)],
        ids=["randers-tanh-H3", "funk2", "funk3"],
    )
    def test_agrees_to_1e14(self, structure):
        rng = np.random.default_rng(11)
        d = structure.dim
        for k in range(200):
            direction = rng.normal(size=d)
            x = np.zeros(d) if k == 0 else rng.uniform(0.0, 0.9) * direction / np.linalg.norm(direction)
            y = rng.normal(size=d)
            for v in (y, -y):
                ref = _ref_finsler_norm(structure, x, v)
                assert finsler_norm(structure, x, v) == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestPolarTransform:
    def test_riemannian_reduction(self, riemannian):
        x = np.array([0.3, 0.0, 0.0])
        alpha = np.array([0.4, -0.2, 0.1])
        expected = math.sqrt(riemannian.cometric(x, alpha, alpha))
        assert polar_transform(riemannian, x, alpha) == pytest.approx(expected, rel=1e-14)

    def test_two_sided_norm_bounds(self, perturbed):
        rng = np.random.default_rng(3)
        a = perturbed.beta_sup
        for _ in range(100):
            x = rng.uniform(-0.4, 0.4, size=3)
            alpha = rng.normal(size=3)
            g_norm = math.sqrt(perturbed.cometric(x, alpha, alpha))
            fs = polar_transform(perturbed, x, alpha)
            assert g_norm / (1 + a) - 1e-12 <= fs <= g_norm / (1 - a) + 1e-12

    def test_matches_grid_maximization(self):
        structure = RandersStructure(SpaceForm(2, 0.0), BetaProfile("constant", 0.5))
        x = np.array([0.7, 0.0])
        alpha = np.array([0.5, 0.0])
        thetas = np.linspace(0.0, 2.0 * math.pi, 100001)[:-1]
        ys = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        b = structure.beta_norm(x)
        norms = np.linalg.norm(ys, axis=1) + b * (ys @ (x / np.linalg.norm(x)))
        grid_max = float(np.max((ys @ alpha) / norms))
        assert polar_transform(structure, x, alpha) == pytest.approx(grid_max, abs=1e-4)

    def test_conorm_triangle_inequality(self, perturbed):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.uniform(-0.4, 0.4, size=3)
            a1 = rng.normal(size=3)
            a2 = rng.normal(size=3)
            lhs = polar_transform(perturbed, x, a1 + a2)
            rhs = polar_transform(perturbed, x, a1) + polar_transform(perturbed, x, a2)
            assert lhs <= rhs + 1e-12

    def test_radial_conorm_signs(self):
        assert radial_conorm(0.5, -2.0) == pytest.approx(2.0 / 0.5)
        assert radial_conorm(0.5, 2.0) == pytest.approx(2.0 / 1.5)
        assert radial_conorm(0.0, -3.0) == pytest.approx(3.0)


class TestReversibilityUniformity:
    def test_riemannian_values(self, riemannian):
        x = np.array([0.2, 0.0, 0.0])
        assert reversibility(riemannian, x) == 1.0
        assert uniformity(riemannian, x) == 1.0
        assert global_reversibility(riemannian) == 1.0
        assert global_uniformity(riemannian) == 1.0

    def test_half_beta_values(self):
        structure = RandersStructure(SpaceForm(2, 0.0), BetaProfile("constant", 0.5))
        x = np.array([1.0, 0.0])
        assert reversibility(structure, x) == pytest.approx(3.0)
        assert uniformity(structure, x) == pytest.approx(1.0 / 9.0)

    def test_funk_model_extremes(self):
        fm = FunkModel(3)
        assert global_reversibility(fm) == math.inf
        assert global_uniformity(fm) == 0.0

    def test_uniformity_is_inverse_square_reversibility(self, perturbed):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-0.45, 0.45, size=3)
            assert uniformity(perturbed, x) == pytest.approx(
                1.0 / reversibility(perturbed, x) ** 2, rel=1e-12
            )

    def test_reversibility_controls_asymmetry(self, perturbed):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-0.4, 0.4, size=3)
            y = rng.normal(size=3)
            r = reversibility(perturbed, x)
            fwd = finsler_norm(perturbed, x, y)
            bwd = finsler_norm(perturbed, x, -y)
            assert bwd / r - 1e-12 <= fwd <= bwd * r + 1e-12


class TestVolumeDensity:
    def test_riemannian_density_is_one(self, riemannian):
        assert volume_density(riemannian, np.array([0.2, 0.1, 0.0])) == 1.0

    def test_half_beta_three_dimensional(self):
        structure = RandersStructure(SpaceForm(3, 0.0), BetaProfile("constant", 0.5))
        assert volume_density(structure, np.array([1.0, 0.0, 0.0])) == pytest.approx(9.0 / 16.0)

    def test_density_sandwich(self, perturbed):
        rng = np.random.default_rng(7)
        a = perturbed.beta_sup
        lower = (1 - a * a) ** ((perturbed.dim + 1) / 2.0)
        for _ in range(30):
            x = rng.uniform(-0.45, 0.45, size=3)
            dens = volume_density(perturbed, x)
            assert lower - 1e-12 <= dens <= 1.0 + 1e-12


class TestFinslerGradient:
    def test_riemannian_reduction(self, riemannian):
        x = np.array([0.2, -0.1, 0.3])
        du = np.array([0.7, 0.4, -0.2])
        expected = riemannian.raise_covector(x, du)
        assert finsler_gradient(riemannian, x, du) == pytest.approx(expected, rel=1e-12)

    def test_zero_covector_maps_to_zero(self, perturbed):
        assert finsler_gradient(perturbed, np.array([0.1, 0.0, 0.0]), np.zeros(3)) == pytest.approx(
            np.zeros(3)
        )

    def test_duality_identities(self, perturbed):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.uniform(-0.4, 0.4, size=3)
            du = rng.normal(size=3)
            grad = finsler_gradient(perturbed, x, du)
            fstar = polar_transform(perturbed, x, du)
            assert float(du @ grad) == pytest.approx(fstar**2, rel=1e-8)
            assert finsler_norm(perturbed, x, grad) == pytest.approx(fstar, rel=1e-8)

    def test_funk_distance_gradient_is_unit(self):
        # grad of d_F(0, .) has unit Finsler norm: the analytic differential
        # is (x/|x|)/(1-|x|).
        fm = FunkModel(3)
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            r = rng.uniform(0.1, 0.9)
            x = r * u
            du = u / (1.0 - r)
            grad = finsler_gradient(fm, x, du)
            assert finsler_norm(fm, x, grad) == pytest.approx(1.0, abs=1e-10)


class TestFunkDistance:
    def test_origin(self):
        assert funk_distance(2, np.zeros(2)) == 0.0

    def test_unit_value_inversion(self):
        r = 1.0 - math.exp(-1.0)
        assert funk_distance(2, np.array([r, 0.0])) == pytest.approx(1.0, rel=1e-12)

    def test_strictly_increasing_toward_boundary(self):
        rs = np.linspace(0.0, 0.999, 400)
        vals = [funk_distance(2, np.array([r, 0.0])) for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            funk_distance(2, np.array([1.0, 0.0]))


class TestEikonal:
    def test_euclidean_riemannian(self):
        structure = RandersStructure(SpaceForm(2, 0.0))
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, size=2)
            if np.linalg.norm(x) < 0.1:
                continue
            assert eikonal_residual(structure, np.zeros(2), x) < 1e-6

    def test_funk_model_bulk(self):
        for d in (2, 3):
            fm = FunkModel(d)
            rng = np.random.default_rng(20 + d)
            worst = 0.0
            for _ in range(200):
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                x = rng.uniform(0.05, 0.95) * u
                worst = max(worst, eikonal_residual(fm, np.zeros(d), x))
            assert worst < 1e-6

    def test_poincare_riemannian(self):
        structure = RandersStructure(SpaceForm(2, -1.0))
        rng = np.random.default_rng(30)
        for _ in range(20):
            x = rng.uniform(-0.6, 0.6, size=2)
            base = np.array([0.05, -0.1])
            if np.linalg.norm(x - base) < 0.05:
                continue
            assert eikonal_residual(structure, base, x) < 1e-6

    def test_residual_at_base_rejected(self):
        structure = RandersStructure(SpaceForm(2, 0.0))
        with pytest.raises(ValueError):
            eikonal_residual(structure, np.zeros(2), np.zeros(2))

    def test_unsupported_structure(self):
        structure = RandersStructure(SpaceForm(2, 0.0), BetaProfile("tanh", 0.3))
        with pytest.raises(NotImplementedError):
            eikonal_residual(structure, np.zeros(2), np.array([0.5, 0.0]))


class TestSerialization:
    def test_round_trip(self, perturbed):
        data = perturbed.to_dict()
        clone = RandersStructure.from_dict(data)
        assert clone == perturbed
        assert data["beta_sup"] == 0.5
        assert data["beta_profile"] == {"kind": "tanh", "params": {"a": 0.5}}

    def test_invalid_profiles(self):
        with pytest.raises(ValueError):
            BetaProfile("constant", 1.0)
        with pytest.raises(ValueError):
            BetaProfile("nope", 0.1)
        with pytest.raises(ValueError):
            BetaProfile("zero", 0.2)
