"""Euclidean rearrangement of radial profiles and the Polya-Szego check.

A RadialProfile is a piecewise-linear function of the geodesic radius on a
ball in a model space; it is the common currency of the rearrangement,
Sobolev-norm and PDE modules.  The rearrangement of a profile u on a ball
Omega is the radially non-increasing function u* on the Euclidean ball of
the same volume whose super-level sets match those of u:

    Vol_e({u* > t}) = Vol_g({u > t}),    omega_d R_Omega^d = Vol_g(Omega).

Rearrangement is computed by inverting the cumulative volume function with
monotone linear interpolation, which preserves the equimeasurability
structure by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modelspace import (
    SpaceForm,
    area_factor,
    cumulative_ball_volumes,
    croke_constant,
    unit_ball_volume,
)
from .numerics import cell_nodes

__all__ = [
    "RadialProfile",
    "LevelSetTable",
    "level_volumes",
    "euclidean_rearrangement",
    "norm_preservation_check",
    "polya_szego_check",
    "lq_norm",
    "gradient_lp_norm",
    "tent_profile",
    "plateau_profile",
]


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial function r -> u(r) on a grid 0 = r_0 < ... < r_N."""

    grid: np.ndarray
    values: np.ndarray
    ambient: object  # SpaceForm or a structure exposing .base

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-d with at least two nodes")
        if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must start at 0 and be strictly increasing")
        if values.shape != grid.shape:
            raise ValueError("values must match the grid in shape")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def space(self) -> SpaceForm:
        amb = self.ambient
        return amb if isinstance(amb, SpaceForm) else amb.base

    @property
    def radius(self) -> float:
        return float(self.grid[-1])

    def __eq__(self, other):
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return (
            np.array_equal(self.grid, other.grid)
            and np.array_equal(self.values, other.values)
            and self.ambient == other.ambient
        )

    def interp(self, r):
        return np.interp(r, self.grid, self.values)

    def cell_values(self, rs):
        """The linear interpolant at the points rs[i, :] of each cell i."""
        frac = (rs - self.grid[:-1, None]) / np.diff(self.grid)[:, None]
        return self.values[:-1, None] + frac * np.diff(self.values)[:, None]


@dataclass(frozen=True)
class LevelSetTable:
    """Super-level-set volumes at a decreasing sequence of levels."""

    levels: np.ndarray
    volumes: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        volumes = np.asarray(self.volumes, dtype=float)
        if np.any(np.diff(levels) >= 0):
            raise ValueError("levels must be strictly decreasing")
        if np.any(np.diff(volumes) < -1e-12 * max(1.0, volumes.max(initial=0.0))):
            raise ValueError("volumes must be non-decreasing as levels decrease")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "volumes", volumes)


def _super_level_volume(grid, values, cumvol, t: float) -> float:
    """Vol({u > t}) for the piecewise-linear profile, by cell."""
    lo, hi = values[:-1], values[1:]
    r_lo, r_hi = grid[:-1], grid[1:]
    w_lo, w_hi = cumvol[:-1], cumvol[1:]
    total = 0.0
    above_lo = lo > t
    above_hi = hi > t
    # full cells
    full = above_lo & above_hi
    total += float(np.sum((w_hi - w_lo)[full]))
    # crossing cells: linear interpolation of the crossing radius and of the
    # cumulative volume within the cell
    cross = above_lo ^ above_hi
    if np.any(cross):
        frac = (t - lo[cross]) / (hi[cross] - lo[cross])
        w_cross = w_lo[cross] + frac * (w_hi - w_lo)[cross]
        enters = above_lo[cross]  # u drops below t inside the cell
        total += float(np.sum(np.where(enters, w_cross - w_lo[cross], w_hi[cross] - w_cross)))
    return total


def level_volumes(u: RadialProfile, space: SpaceForm, levels: Sequence[float]) -> LevelSetTable:
    """Vol_g({u > t}) for each level t, by radial integration."""
    levels = np.asarray(levels, dtype=float)
    order = np.argsort(levels)[::-1]
    sorted_levels = levels[order]
    cumvol = cumulative_ball_volumes(space, u.grid)
    vols = np.array(
        [_super_level_volume(u.grid, u.values, cumvol, t) for t in sorted_levels]
    )
    return LevelSetTable(levels=sorted_levels, volumes=vols)


def euclidean_rearrangement(u: RadialProfile) -> RadialProfile:
    """Radially non-increasing Euclidean profile equimeasurable with u."""
    if np.any(u.values < 0):
        raise ValueError("rearrangement requires a non-negative profile")
    space = u.ambient
    if not isinstance(space, SpaceForm):
        raise TypeError("rearrangement works on SpaceForm profiles")
    d = space.dim
    omega = unit_ball_volume(d)
    cumvol = cumulative_ball_volumes(space, u.grid)
    vol_omega = float(cumvol[-1])
    r_ball = (vol_omega / omega) ** (1.0 / d)
    target_grid = np.linspace(0.0, r_ball, u.grid.size)
    target_vols = omega * target_grid**d

    values = u.values
    if np.all(np.diff(values) <= 0):
        # Monotone fast path: u is its own rearrangement in volume
        # coordinates, so invert the cumulative volume directly.
        radii = np.interp(target_vols, cumvol, u.grid)
        new_vals = np.interp(radii, u.grid, values)
    else:
        # Distribution-function route: tabulate mu(t) = Vol({u > t}) on the
        # value set and invert by monotone interpolation.
        uniq = np.unique(values)
        mids = 0.5 * (uniq[:-1] + uniq[1:])
        levels = np.unique(np.concatenate([uniq, mids]))
        mu = np.array([_super_level_volume(u.grid, values, cumvol, t) for t in levels])
        # mu is non-increasing in t; build an increasing (volume -> level) map
        vol_asc = mu[::-1]
        lev_asc = levels[::-1]
        vol_asc, idx = np.unique(vol_asc, return_index=True)
        new_vals = np.interp(target_vols, vol_asc, lev_asc[idx])
        new_vals[0] = float(values.max())
        new_vals = np.minimum.accumulate(new_vals)
    return RadialProfile(grid=target_grid, values=new_vals, ambient=SpaceForm(d, 0.0))


def lq_norm(u: RadialProfile, q: float) -> float:
    """L^q norm of the profile against the Riemannian volume element dv_g."""
    if q == math.inf:
        return float(np.max(np.abs(u.values)))
    if not q > 0:
        raise ValueError(f"q must be positive or inf, got {q}")
    rs, half, w = cell_nodes(u.grid, 4)
    area = area_factor(u.space, rs)
    return float(np.sum(half * w * np.abs(u.cell_values(rs)) ** q * area)) ** (1.0 / q)


def gradient_lp_norm(u: RadialProfile, p: float) -> float:
    """L^p norm of |grad u| = |du/dr| for the piecewise-linear profile."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    slopes = np.diff(u.values) / np.diff(u.grid)
    rs, half, w = cell_nodes(u.grid, 4)
    shell = (half * w * area_factor(u.space, rs)).sum(axis=1)
    return float(np.sum(np.abs(slopes) ** p * shell)) ** (1.0 / p)


def norm_preservation_check(u: RadialProfile, u_star: RadialProfile, q: float) -> float:
    """Relative L^q discrepancy between u and its rearrangement."""
    norm_u = lq_norm(u, q)
    norm_star = lq_norm(u_star, q)
    if norm_u == 0:
        return abs(norm_star)
    return abs(norm_u - norm_star) / norm_u


def polya_szego_check(u: RadialProfile, u_star: RadialProfile, p: float):
    """Returns (lhs, rhs, holds) for the rearrangement gradient inequality

        ||grad u||_p >= (C(d) / (d omega_d^(1/d))) ||grad u*||_p.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    d = u.space.dim
    lhs = gradient_lp_norm(u, p)
    constant = croke_constant(d) / (d * unit_ball_volume(d) ** (1.0 / d))
    rhs = constant * gradient_lp_norm(u_star, p)
    holds = lhs >= rhs - 1e-10 * max(1.0, lhs)
    return lhs, rhs, holds


def _check_shape(radius: float, height: float) -> None:
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not math.isfinite(height):
        raise ValueError(f"height must be finite, got {height}")


def tent_profile(space_or_structure, radius: float, height: float = 1.0, n: int = 2048) -> RadialProfile:
    """Cone profile height*(1 - r/radius)_+ on [0, radius]."""
    _check_shape(radius, height)
    grid = np.linspace(0.0, radius, n + 1)
    vals = height * (1.0 - grid / radius)
    vals[-1] = 0.0
    return RadialProfile(grid=grid, values=vals, ambient=space_or_structure)


def plateau_profile(space_or_structure, radius: float, height: float = 1.0, n: int = 2048) -> RadialProfile:
    """Indicator-like profile: height inside, sharp linear drop at the rim."""
    _check_shape(radius, height)
    grid = np.linspace(0.0, radius, n + 1)
    vals = np.full(grid.shape, height)
    vals[-1] = 0.0
    return RadialProfile(grid=grid, values=vals, ambient=space_or_structure)
