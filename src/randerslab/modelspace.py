"""Constant-curvature model geometries: Euclidean space and the Poincare ball.

A SpaceForm bundles a dimension d >= 2 with a curvature c <= 0.  The c < 0
case is realized on the open unit ball with the conformal metric

    g = (4 / (-c)) |dx|^2 / (1 - |x|^2)^2,

i.e. the unit-curvature Poincare model rescaled by the factor 2/sqrt(-c).
Points are plain coordinate arrays inside the chart domain.  Tangent vectors
handed to the exponential map are expressed so that their Euclidean length
equals the geodesic length of the resulting segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .numerics import adaptive_integrate, cell_nodes, gamma_fn

__all__ = [
    "EUCLIDEAN",
    "POINCARE_BALL",
    "SpaceForm",
    "unit_ball_volume",
    "sphere_area",
    "s_c",
    "comparison_volume",
    "geodesic_distance",
    "exp_log_maps",
    "croke_constant",
    "bishop_gromov_ratio",
    "area_factor",
    "cumulative_ball_volumes",
]

EUCLIDEAN = "EUCLIDEAN"
POINCARE_BALL = "POINCARE_BALL"


@dataclass(frozen=True)
class SpaceForm:
    """A d-dimensional space form with curvature c <= 0."""

    dim: int
    curvature: float = 0.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.curvature > 0:
            raise ValueError(f"curvature must be <= 0, got {self.curvature}")

    @property
    def model(self) -> str:
        return EUCLIDEAN if self.curvature == 0 else POINCARE_BALL

    def point(self, coords) -> np.ndarray:
        """Validate coordinates against the chart domain and return them."""
        x = np.asarray(coords, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("point coordinates must be finite")
        if self.model == POINCARE_BALL and float(np.linalg.norm(x)) >= 1.0:
            raise ValueError(
                f"Poincare-ball points need Euclidean norm < 1, got {np.linalg.norm(x):.6g}"
            )
        return x

    def distance(self, x, y) -> float:
        return geodesic_distance(self, x, y)

    def ball_volume(self, rho: float) -> float:
        """Volume of a geodesic ball of radius rho (center-independent)."""
        return comparison_volume(self.curvature, self.dim, rho)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit Euclidean d-ball, pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return math.pi ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0)


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^(d-1) in R^d."""
    return d * unit_ball_volume(d)


def s_c(c: float, t) -> float:
    """Warping function: t for c = 0, sinh(sqrt(-c) t)/sqrt(-c) for c < 0."""
    if c > 0:
        raise ValueError(f"curvature must be <= 0, got {c}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("s_c requires t >= 0")
    if c == 0:
        out = t_arr
    else:
        k = math.sqrt(-c)
        out = np.sinh(k * t_arr) / k
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def comparison_volume(c: float, d: int, rho: float) -> float:
    """Volume of the radius-rho ball in the d-dimensional space form of
    curvature c:  d * omega_d * int_0^rho s_c(t)^(d-1) dt."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if c > 0:
        raise ValueError(f"curvature must be <= 0, got {c}")
    omega = unit_ball_volume(d)
    if c == 0:
        return omega * rho**d
    # The integrand is analytic; a composite fixed rule resolves it to
    # machine accuracy while staying deterministic.
    k = math.sqrt(-c)
    panels = max(4, int(math.ceil(k * rho)))
    xs, half, w = cell_nodes(np.linspace(0.0, rho, panels + 1), 32)
    return d * omega * float(np.sum(half * w * (np.sinh(k * xs) / k) ** (d - 1)))


def geodesic_distance(space: SpaceForm, x, y) -> float:
    """Geodesic distance between chart points x and y."""
    xv = space.point(x)
    yv = space.point(y)
    if space.model == EUCLIDEAN:
        return float(np.linalg.norm(xv - yv))
    diff2 = float((xv - yv) @ (xv - yv))
    den = (1.0 - float(xv @ xv)) * (1.0 - float(yv @ yv))
    arg = 1.0 + 2.0 * diff2 / den
    return math.acosh(max(1.0, arg)) / math.sqrt(-space.curvature)


def _mobius_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mobius addition on the unit ball (unit-curvature model)."""
    ab = float(a @ b)
    a2 = float(a @ a)
    b2 = float(b @ b)
    num = (1.0 + 2.0 * ab + b2) * a + (1.0 - a2) * b
    return num / (1.0 + 2.0 * ab + a2 * b2)


def exp_log_maps(space: SpaceForm, base) -> Tuple[Callable, Callable]:
    """Mutually inverse exponential and logarithm maps at a base point.

    The tangent-vector convention is geodesic-length scaled: |log(y)| equals
    the geodesic distance from base to y, and exp(v) travels |v| units of
    arclength in the direction of v.
    """
    base_v = space.point(base)

    if space.model == EUCLIDEAN:

        def exp_map(v):
            v = np.asarray(v, dtype=float)
            return base_v + v

        def log_map(y):
            return space.point(y) - base_v

        return exp_map, log_map

    k = math.sqrt(-space.curvature)

    def exp_map(v):
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return base_v.copy()
        step = math.tanh(0.5 * k * norm) * v / norm
        return _mobius_add(base_v, step)

    def log_map(y):
        yv = space.point(y)
        w = _mobius_add(-base_v, yv)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return np.zeros(space.dim)
        return (2.0 / k) * math.atanh(norm) * w / norm

    return exp_map, log_map


def croke_constant(d: int) -> float:
    """Dimensional constant in the Hadamard-manifold Polya-Szego inequality.

    C(2) = 1 and for d >= 3

        C(d) = (d omega_d)^(1 - 1/d)
               * ((d-1) omega_{d-1} int_0^{pi/2} cos^(d/(d-2)) t sin^(d-2) t dt)^(2/d - 1).
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if d == 2:
        return 1.0
    expo = d / (d - 2.0)
    inner = adaptive_integrate(
        lambda t: math.cos(t) ** expo * math.sin(t) ** (d - 2),
        0.0,
        math.pi / 2.0,
        tol=1e-13,
    )
    omega_d = unit_ball_volume(d)
    omega_dm1 = unit_ball_volume(d - 1)
    factor = (d - 1) * omega_dm1 * inner.value
    return (d * omega_d) ** (1.0 - 1.0 / d) * factor ** (2.0 / d - 1.0)


def bishop_gromov_ratio(
    space: SpaceForm, x, rho: float, comparison_curvature: float | None = None
) -> float:
    """Vol(B(x, rho)) / V_{c,d}(rho) with c defaulting to the space's own
    curvature.  Equals 1 identically in the matching space form."""
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    space.point(x)
    c = space.curvature if comparison_curvature is None else comparison_curvature
    vol = space.ball_volume(rho)
    return vol / comparison_volume(c, space.dim, rho)


def area_factor(space: SpaceForm, r) -> np.ndarray:
    """Geodesic-sphere area d*omega_d*s_c(r)^(d-1); the radial volume density."""
    r_arr = np.asarray(r, dtype=float)
    return space.dim * unit_ball_volume(space.dim) * s_c(space.curvature, r_arr) ** (
        space.dim - 1
    )


def cumulative_ball_volumes(space: SpaceForm, radii: np.ndarray) -> np.ndarray:
    """Ball volumes W(r_i) at an increasing grid of geodesic radii r_0 = 0 < ...

    Computed cell by cell with a fixed Gauss rule so that differences
    W(r_{i+1}) - W(r_i) are exact shell volumes up to machine precision.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii[0] != 0.0 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be a strictly increasing 1-d grid starting at 0")
    xs, half, w = cell_nodes(radii, 8)
    shells = (half * area_factor(space, xs) * w).sum(axis=1)
    return np.concatenate([[0.0], np.cumsum(shells)])
