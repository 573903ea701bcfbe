"""Randers metrics F = sqrt(g) + beta over model spaces, and the Funk model.

A RandersStructure perturbs a SpaceForm metric g by a radial 1-form

    beta_x = b(r_g(x)) * (unit radial g-covector at x),

where r_g is the geodesic distance from the origin and b is a profile
bounded by a = sup b < 1.  Radial profiles keep the structure invariant
under the full rotation group, which is what the orbit and PDE machinery
relies on, while still exercising the general Randers formulas: the polar
transform, reversibility and uniformity constants, Hausdorff volume
density, and the Legendre-transform gradient.

The Funk model on the open unit ball is kept as a separate type rather
than a RandersStructure with a = 1: its norm of beta equals |x| with
supremum exactly 1, so the generic code path would sit on the edge of
degeneracy.  Funk-specific operations use closed forms (Klein base metric,
beta = x/(1-|x|^2), distance -log(1-|x|)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .modelspace import EUCLIDEAN, SpaceForm, geodesic_distance

__all__ = [
    "BetaProfile",
    "RandersStructure",
    "FunkModel",
    "finsler_norm",
    "polar_transform",
    "radial_conorm",
    "reversibility",
    "global_reversibility",
    "uniformity",
    "global_uniformity",
    "volume_density",
    "radial_density",
    "finsler_gradient",
    "funk_distance",
    "eikonal_residual",
]

_FD_STEP = 1e-5
# radii at which global_reversibility and global_uniformity sample beta
_SAMPLE_RADII = np.linspace(0.0, 100.0, 2001)


@dataclass(frozen=True)
class BetaProfile:
    """Radial profile r -> b(r) with sup b = a in [0, 1).

    kinds: "zero" (b = 0), "constant" (b = a away from the origin),
    "tanh" (b = a tanh(r), smooth and vanishing at the origin),
    "custom" (user callable, not serializable).
    """

    kind: str = "zero"
    a: float = 0.0
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise ValueError(f"beta_sup must lie in [0, 1), got {self.a}")
        if self.kind not in ("zero", "constant", "tanh", "custom"):
            raise ValueError(f"unknown beta profile kind {self.kind!r}")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom beta profile needs fn")
        if self.kind == "zero" and self.a != 0.0:
            raise ValueError("zero profile must have a = 0")

    def __call__(self, r):
        r_arr = np.asarray(r, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(r_arr)
        elif self.kind == "constant":
            out = np.where(r_arr > 0, self.a, 0.0)
        elif self.kind == "tanh":
            out = self.a * np.tanh(r_arr)
        else:
            out = np.clip(np.asarray(self.fn(r_arr), dtype=float), 0.0, self.a)
        return float(out) if r_arr.ndim == 0 else out

    def to_dict(self) -> dict:
        if self.kind == "custom":
            raise ValueError("custom beta profiles are not serializable")
        return {"kind": self.kind, "params": {"a": self.a}}

    @classmethod
    def from_dict(cls, data: dict) -> "BetaProfile":
        return cls(kind=data["kind"], a=float(data.get("params", {}).get("a", 0.0)))


@dataclass(frozen=True)
class RandersStructure:
    """F(x, y) = sqrt(g_x(y, y)) + beta_x(y) over a SpaceForm base."""

    base: SpaceForm
    beta: BetaProfile = BetaProfile()

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def beta_sup(self) -> float:
        return self.beta.a

    def chart_point(self, x) -> np.ndarray:
        return self.base.point(x)

    def geodesic_radius(self, x) -> float:
        x = self.base.point(x)
        return geodesic_distance(self.base, np.zeros(self.dim), x)

    def conformal_factor(self, x) -> float:
        """|v|_g = factor * |v|_euclid at x."""
        x = self.base.point(x)
        if self.base.model == EUCLIDEAN:
            return 1.0
        return 2.0 / (math.sqrt(-self.base.curvature) * (1.0 - float(x @ x)))

    def beta_norm(self, x) -> float:
        """||beta||_g(x) = b(r_g(x))."""
        return float(self.beta(self.geodesic_radius(x)))

    def beta_covector(self, x) -> np.ndarray:
        x = self.base.point(x)
        r_chart = float(np.linalg.norm(x))
        if r_chart == 0.0:
            return np.zeros(self.dim)
        return self.beta_norm(x) * self.conformal_factor(x) * x / r_chart

    def metric_norm(self, x, y) -> float:
        y = np.asarray(y, dtype=float)
        return self.conformal_factor(x) * float(np.linalg.norm(y))

    def cometric(self, x, alpha, gamma) -> float:
        """g*_x(alpha, gamma) for covectors in chart coordinates."""
        alpha = np.asarray(alpha, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        return float(alpha @ gamma) / self.conformal_factor(x) ** 2

    def raise_covector(self, x, alpha) -> np.ndarray:
        return np.asarray(alpha, dtype=float) / self.conformal_factor(x) ** 2

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "curvature": self.base.curvature,
            "beta_profile": self.beta.to_dict(),
            "beta_sup": self.beta_sup,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RandersStructure":
        base = SpaceForm(int(data["dim"]), float(data["curvature"]))
        beta = BetaProfile.from_dict(data["beta_profile"])
        if "beta_sup" in data and abs(beta.a - float(data["beta_sup"])) > 1e-12:
            raise ValueError("beta_sup does not match the profile parameters")
        return cls(base=base, beta=beta)


@dataclass(frozen=True)
class FunkModel:
    """The Funk metric on the open unit ball of R^d; sup ||beta||_g = 1."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")

    def chart_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {x.shape}")
        if float(np.linalg.norm(x)) >= 1.0:
            raise ValueError("Funk-model points need Euclidean norm < 1")
        return x

    def beta_norm(self, x) -> float:
        return float(np.linalg.norm(self.chart_point(x)))

    def metric_norm(self, x, y) -> float:
        """sqrt of the Klein metric applied to y."""
        x = self.chart_point(x)
        y = np.asarray(y, dtype=float)
        r2 = float(x @ x)
        quad = (1.0 - r2) * float(y @ y) + float(x @ y) ** 2
        return math.sqrt(max(0.0, quad)) / (1.0 - r2)

    def beta_covector(self, x) -> np.ndarray:
        x = self.chart_point(x)
        return x / (1.0 - float(x @ x))

    def cometric(self, x, alpha, gamma) -> float:
        x = self.chart_point(x)
        alpha = np.asarray(alpha, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        r2 = float(x @ x)
        return (1.0 - r2) * (float(alpha @ gamma) - float(x @ alpha) * float(x @ gamma))

    def raise_covector(self, x, alpha) -> np.ndarray:
        x = self.chart_point(x)
        alpha = np.asarray(alpha, dtype=float)
        r2 = float(x @ x)
        return (1.0 - r2) * (alpha - float(x @ alpha) * x)


def finsler_norm(structure, x, y) -> float:
    """F(x, y): positively 1-homogeneous in y, positive for y != 0."""
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


def _polar_pieces(structure, x, alpha):
    b = structure.beta_norm(x)
    if b >= 1.0:
        raise ValueError(f"degenerate Randers metric: ||beta||_g = {b} >= 1")
    s = structure.cometric(x, alpha, structure.beta_covector(x))
    a_norm2 = structure.cometric(x, alpha, alpha)
    return b, s, a_norm2


def polar_transform(structure, x, alpha) -> float:
    """Co-norm F*(x, alpha) = sup_y alpha(y)/F(x, y), in closed form."""
    b, s, a_norm2 = _polar_pieces(structure, x, alpha)
    one_m_b2 = 1.0 - b * b
    root = math.sqrt(max(0.0, s * s + one_m_b2 * a_norm2))
    return (root - s) / one_m_b2


def radial_conorm(b, slope):
    """F* of the radial covector slope * dr (dr the unit radial g-covector).

    Equals slope/(1+b) for outward-increasing data and |slope|/(1-b) for
    decreasing data; vectorized in both arguments.
    """
    b_arr = np.asarray(b, dtype=float)
    s_arr = np.asarray(slope, dtype=float)
    out = np.where(s_arr >= 0, s_arr / (1.0 + b_arr), -s_arr / (1.0 - b_arr))
    if np.isscalar(slope) and np.isscalar(b):
        return float(out)
    return out


def reversibility(structure, x) -> float:
    """r_F(x) = (1 + ||beta||)/(1 - ||beta||) >= 1."""
    b = structure.beta_norm(x)
    if b >= 1.0:
        return math.inf
    return (1.0 + b) / (1.0 - b)


def global_reversibility(structure) -> float:
    """sup_x r_F(x), sampled at 2001 radii in [0, 100]; +inf for the Funk
    model."""
    if isinstance(structure, FunkModel):
        return math.inf
    b_max = float(np.max(structure.beta(_SAMPLE_RADII)))
    return (1.0 + b_max) / (1.0 - b_max)


def uniformity(structure, x) -> float:
    """l_F(x) = ((1 - ||beta||)/(1 + ||beta||))^2 in [0, 1]."""
    b = structure.beta_norm(x)
    return ((1.0 - b) / (1.0 + b)) ** 2


def global_uniformity(structure) -> float:
    """inf_x l_F(x), sampled at 2001 radii in [0, 100]; 0 for the Funk
    model."""
    if isinstance(structure, FunkModel):
        return 0.0
    b_max = float(np.max(structure.beta(_SAMPLE_RADII)))
    return ((1.0 - b_max) / (1.0 + b_max)) ** 2


def volume_density(structure, x) -> float:
    """Hausdorff volume factor (1 - ||beta||^2)^((d+1)/2) against dv_g."""
    b = structure.beta_norm(x)
    d = structure.dim
    return (1.0 - b * b) ** ((d + 1) / 2.0)


def radial_density(ambient, r):
    """Hausdorff volume factor (1 - b(r)^2)^((d+1)/2) against dv_g at the
    geodesic radii r of a RandersStructure; 1 for a plain SpaceForm."""
    if not isinstance(ambient, RandersStructure):
        return np.ones_like(r)
    b = ambient.beta(r)
    return (1.0 - b * b) ** ((ambient.dim + 1) / 2.0)


def finsler_gradient(structure, x, du) -> np.ndarray:
    """Legendre-transform gradient: the y-derivative of F*^2/2 at du.

    Satisfies du(grad) = F*(x, du)^2 and F(x, grad) = F*(x, du).
    """
    du = np.asarray(du, dtype=float)
    if float(np.linalg.norm(du)) == 0.0:
        return np.zeros(structure.dim)
    b, s, a_norm2 = _polar_pieces(structure, x, du)
    one_m_b2 = 1.0 - b * b
    root = math.sqrt(max(1e-300, s * s + one_m_b2 * a_norm2))
    fstar = (root - s) / one_m_b2
    beta_sharp = structure.raise_covector(x, structure.beta_covector(x))
    alpha_sharp = structure.raise_covector(x, du)
    grad_fstar = ((s * beta_sharp + one_m_b2 * alpha_sharp) / root - beta_sharp) / one_m_b2
    return fstar * grad_fstar


def funk_distance(d: int, x) -> float:
    """Funk distance from the origin: -log(1 - |x|)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"expected {d} coordinates, got shape {x.shape}")
    r = float(np.linalg.norm(x))
    if r >= 1.0:
        raise ValueError(f"Funk distance needs |x| < 1, got {r}")
    return -math.log1p(-r)


def _distance_from(structure, base, x) -> float:
    if isinstance(structure, FunkModel):
        if float(np.linalg.norm(np.asarray(base, dtype=float))) != 0.0:
            raise NotImplementedError(
                "Funk distance is implemented from the origin only"
            )
        return funk_distance(structure.dim, x)
    if structure.beta_sup != 0.0:
        raise NotImplementedError(
            "distance from an arbitrary base point is only available for "
            "beta = 0 (Riemannian) structures and the Funk model"
        )
    return geodesic_distance(structure.base, base, x)


def eikonal_residual(structure, base, x) -> float:
    """|F*(x, D d(base, .)) - 1| with the differential by central differences.

    The distance-from-base function satisfies the eikonal identity
    F*(x, D d) = 1 almost everywhere; this measures how well the closed-form
    polar transform and the distance agree at x != base.
    """
    x = np.asarray(x, dtype=float)
    base = np.asarray(base, dtype=float)
    if np.array_equal(x, base):
        raise ValueError("the distance function is not differentiable at the base")
    h = _FD_STEP * max(1.0, float(np.linalg.norm(x)))
    grad = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        grad[i] = (_distance_from(structure, base, x + e) - _distance_from(structure, base, x - e)) / (2.0 * h)
    return abs(polar_transform(structure, x, grad) - 1.0)
