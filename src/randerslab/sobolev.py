"""Sobolev norms over model and Randers spaces, admissible exponent pairs,
embedding-constant estimates, and the Funk-model embedding failure.

The admissible (p, q) regimes for the embedding W^{1,p} -> L^q in dimension
d are the Sobolev range (1 < p < d, p < q < pd/(d-p)), the Moser-Trudinger
line (p = d, q in (p, inf)), and the Morrey range (p > d, q = inf).

funk_counterexample evaluates, in closed Beta-function form, the norms of
the witness profile |x| (1-|x|)^(-1/t) on the Funk ball: its gradient-side
norm is bounded by omega_{d-1} [B(d, 1-p/t) + B(p+d, 1-p/t)] while its
L^q integral is omega_{d-1} B(q+d, 1-q/t), so picking t between the
exponent thresholds makes the first finite and the second divergent for
every admissible pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .modelspace import SpaceForm, area_factor, sphere_area
from .numerics import DIVERGENT, Divergent, beta_fn, cell_nodes, is_divergent, seeded_line_search
from .randers import RandersStructure, radial_conorm, radial_density
from .rearrange import RadialProfile, lq_norm

__all__ = [
    "AdmissiblePair",
    "classify_pair",
    "SobolevNorms",
    "sobolev_norms",
    "embedding_constant",
    "FunkVerdict",
    "funk_counterexample",
]


@dataclass(frozen=True)
class AdmissiblePair:
    """Exponent pair with its embedding regime: S, MT or M."""

    p: float
    q: float
    d: int
    regime: str

    @property
    def p_star(self) -> float:
        return self.p * self.d / (self.d - self.p) if self.p < self.d else math.inf


def classify_pair(p: float, q: float, d: int) -> Optional[AdmissiblePair]:
    """Assign (p, q) to its d-admissible regime, or None if inadmissible."""
    if not p > 1 or d < 2:
        return None
    if p < d:
        p_star = p * d / (d - p)
        if p < q < p_star:
            return AdmissiblePair(p, q, d, "S")
        return None
    if p == d:
        if p < q < math.inf:
            return AdmissiblePair(p, q, d, "MT")
        return None
    return AdmissiblePair(p, q, d, "M") if q == math.inf else None


@dataclass(frozen=True)
class SobolevNorms:
    """p-th powers of the gradient+function norms, plus Lebesgue norms."""

    w1p_finsler: float
    w1p_riemann: float
    lq: dict
    linf: float


def sobolev_norms(
    u: RadialProfile, structure, p: float, qs: Sequence[float] = ()
) -> SobolevNorms:
    """Finsler and Riemannian W^{1,p} energy of a radial profile.

    w1p_finsler is int F*(x, Du)^p dV_F + int |u|^p dV_F; w1p_riemann the
    analogue with |grad u| and dv_g.  Both are reported as p-th powers so
    that the equivalence sandwich between them is a direct comparison.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    slopes = np.diff(u.values) / np.diff(u.grid)
    rs, half, w = cell_nodes(u.grid, 4)
    uu = u.cell_values(rs)
    area = area_factor(u.space, rs)

    def pieces(b_mid, dens):
        weighted = area * dens
        shell = (half * w * weighted).sum(axis=1)
        conorms = radial_conorm(b_mid, slopes)
        grad_pow = float(np.sum(np.abs(conorms) ** p * shell))
        func_pow = float(np.sum(half * w * np.abs(uu) ** p * weighted))
        return grad_pow + func_pow

    riemann = pieces(np.zeros(slopes.size), 1.0)
    if isinstance(structure, RandersStructure) and structure.beta_sup > 0:
        b_mid = structure.beta(0.5 * (u.grid[:-1] + u.grid[1:]))
        finsler = pieces(b_mid, radial_density(structure, rs))
    else:
        finsler = riemann
    lq_values = {q: lq_norm(u, q) for q in qs}
    return SobolevNorms(
        w1p_finsler=finsler,
        w1p_riemann=riemann,
        lq=lq_values,
        linf=float(np.max(np.abs(u.values))),
    )


def _seed_profiles(grid: np.ndarray) -> list:
    """Deterministic positive seed shapes on [0, rho] vanishing at the rim."""
    rho = grid[-1]
    x = grid / rho
    seeds = []
    for k in [0.5, 1.0, 2.0, 4.0]:
        seeds.append((1.0 - x) ** k)
    for core in [0.2, 0.5, 0.8]:
        ramp = np.clip((1.0 - x) / (1.0 - core), 0.0, 1.0)
        seeds.append(np.minimum(1.0, ramp))
    for sigma in [0.3, 0.6, 1.2, 2.4]:
        seeds.append(np.exp(-((x / sigma) ** 2)) - math.exp(-((1.0 / sigma) ** 2)))
    for k in [1.0, 2.0, 3.0]:
        seeds.append((1.0 - x**2) ** k)
    for k in [2.0, 5.0]:
        seeds.append(1.0 - x**k)
    seeds.append(np.cos(0.5 * math.pi * x))
    for k in [0.25, 8.0]:
        seeds.append((1.0 - x) ** k)
    out = []
    for s in seeds:
        s = np.maximum(s, 0.0)
        s[-1] = 0.0
        if s.max() > 0:
            out.append(s / s.max())
    return out


def w1p_power(u: np.ndarray, dr, shell, node_w, p: float) -> np.ndarray:
    """Discrete W^{1,p} power of each row of u: slopes against the cell
    weights `shell`, values against the nodal weights `node_w`."""
    slopes = np.diff(u, axis=1) / dr
    return np.sum(np.abs(slopes) ** p * shell, axis=1) + np.sum(node_w * np.abs(u) ** p, axis=1)


def w1p_log_gradient(u: np.ndarray, dr, shell, node_w, p: float, power) -> np.ndarray:
    """Gradient of log(w1p_power) / p, row by row, given the rows' power."""
    slopes = np.diff(u, axis=1) / dr
    gw = np.zeros_like(u)
    flux = p * np.abs(slopes) ** (p - 1) * np.sign(slopes) * shell / dr
    gw[:, :-1] -= flux
    gw[:, 1:] += flux
    gw += p * node_w * np.abs(u) ** (p - 1) * np.sign(u)
    return gw / (p * np.asarray(power))[:, None]


class BatchPowers:
    """w1p_power of the rows of the latest batch, kept by row content.

    A line search evaluates its objective on a batch of trial rows and then
    asks for directions only at the rows it accepted from that batch;
    `log_gradient` reads their powers back instead of recomputing them.  A
    row outside the latest batch raises KeyError; one that is inside gets
    the power of its own bytes, so a hit is always exact.
    """

    def __init__(self, dr, shell, node_w, p: float):
        self.weights = (dr, shell, node_w, p)
        self._by_row = {}

    def __call__(self, u: np.ndarray) -> np.ndarray:
        power = w1p_power(u, *self.weights)
        self._by_row = {row.tobytes(): w for row, w in zip(u, power)}
        return power

    def log_gradient(self, u: np.ndarray) -> np.ndarray:
        power = [self._by_row[row.tobytes()] for row in u]
        return w1p_log_gradient(u, *self.weights, power)


def sup_log_gradient(u: np.ndarray) -> np.ndarray:
    """A gradient of log max(u), row by row: 1/max at the first maximiser."""
    g = np.zeros_like(u)
    g[np.arange(len(u)), np.argmax(u, axis=1)] = 1.0
    return g / u.max(axis=1)[:, None]


def embedding_constant(
    space: SpaceForm,
    y,
    rho: float,
    pair: AdmissiblePair,
    n_grid: int = 192,
) -> float:
    """Upper bound on the Rayleigh quotient infimum

        inf_u ||u||_{W^{1,p}(B(y, rho))} / ||u||_{L^q (or sup)}

    over the discretized radial cone on the ball around y, by projected
    descent from a deterministic family of seed profiles.  The value is a
    certified upper bound on the infimum and a heuristic estimate of it.
    Both model geometries are homogeneous, so the radial reduction around
    y uses the same area factor as around the origin: the estimate does not
    depend on y, which is only validated.  Each seed takes at most 300
    descent steps.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if n_grid < 1:
        raise ValueError(f"n_grid must be at least 1, got {n_grid}")
    space.point(y)
    p, q = pair.p, pair.q
    grid = np.linspace(0.0, rho, n_grid + 1)
    dr = np.diff(grid)
    rs, half, w = cell_nodes(grid, 4)
    shell = (half * w * area_factor(space, rs)).sum(axis=1)
    # trapezoid-style nodal weights for the zeroth-order terms
    node_w = np.append(0.5 * shell, 0.0) + np.insert(0.5 * shell, 0, 0.0)
    powers = BatchPowers(dr, shell, node_w, p)

    def l_norm(u):
        if q == math.inf:
            return u.max(axis=1)
        return np.array([float(s) ** (1.0 / q) for s in np.sum(node_w * np.abs(u) ** q, axis=1)])

    def quotient(u):
        return [float(w) ** (1.0 / p) / float(l) for w, l in zip(powers(u), l_norm(u))]

    def descent(u):
        # minus the gradient of log quotient
        if q == math.inf:
            gl = sup_log_gradient(u)
        else:
            lq_pow = np.sum(node_w * np.abs(u) ** q, axis=1)
            gl = q * node_w * np.abs(u) ** (q - 1) * np.sign(u) / (q * lq_pow)[:, None]
        return gl - powers.log_gradient(u)

    _, values = seeded_line_search(
        np.array(_seed_profiles(grid)), quotient, descent, retract=lambda u: u / l_norm(u)[:, None],
        improves=lambda new, old: math.log(new) < math.log(old) - 1e-14,
        grow=1.3, max_iter=300, g_tol=1e-10,
    )
    return min([math.inf] + values)


@dataclass(frozen=True)
class FunkVerdict:
    """Closed-form norms of the Funk witness profile for one (p, q) pair."""

    d: int
    p: float
    q: float
    regime: str
    t: float
    w_norm_bound: Union[float, Divergent]
    lq_norm: Union[float, Divergent]
    embedding_fails: bool


def funk_counterexample(d: int, pair: AdmissiblePair) -> FunkVerdict:
    """Evaluate the Funk-ball witness profile for an admissible pair.

    The parameter t is (p+q)/2 in the S and MT regimes and p^2/d in the
    Morrey regime; with that choice the gradient-side Beta bound is finite
    while the L^q (resp. sup) norm diverges, so the embedding fails.
    """
    if pair is None:
        raise ValueError("pair must be admissible")
    p, q = pair.p, pair.q
    if pair.regime in ("S", "MT"):
        t = 0.5 * (p + q)
    else:
        t = p * p / d
    omega = sphere_area(d)
    b1 = beta_fn(d, 1.0 - p / t)
    b2 = beta_fn(p + d, 1.0 - p / t)
    if is_divergent(b1) or is_divergent(b2):
        w_bound: Union[float, Divergent] = DIVERGENT
    else:
        w_bound = omega * (b1 + b2)
    if q == math.inf:
        # sup norm of |x|(1-|x|)^(-1/t) blows up at the rim whenever t > 0
        lq: Union[float, Divergent] = DIVERGENT
    else:
        bq = beta_fn(q + d, 1.0 - q / t)
        lq = DIVERGENT if is_divergent(bq) else omega * bq
    fails = (not is_divergent(w_bound)) and is_divergent(lq)
    return FunkVerdict(
        d=d,
        p=p,
        q=q,
        regime=pair.regime,
        t=t,
        w_norm_bound=w_bound,
        lq_norm=lq,
        embedding_fails=fails,
    )
