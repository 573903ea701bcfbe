"""Variational treatment of the quasilinear problem

    -div_F(F*^(p-2)(Du) grad_F u) = lambda alpha(x) h(u)

on a rotation-invariant Randers perturbation of a hyperbolic space form
with curvature <= -kappa^2 and p > d.  Everything is attacked through the
energy

    E_lambda(u) = (1/p) int F*(x, Du)^p dV_F - lambda int alpha H(u) dV_F

restricted to radial profiles: a spectral-gap (McKean-type) bound makes
E_lambda coercive for every lambda >= 0, a sweep of levels against a
closed-form bound on the sub-level suprema produces the parameter
interval [0, a_bar] of the three-critical-points setup, and a deterministic multi-start projected descent hunts for
critical points of the discretized energy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .modelspace import SpaceForm, area_factor, cumulative_ball_volumes
from .randers import BetaProfile, RandersStructure, radial_density
from .rearrange import RadialProfile
from .sobolev import W1pRows
from .numerics import cell_nodes, seeded_line_search

__all__ = [
    "AlphaProfile",
    "Nonlinearity",
    "reference_nonlinearity",
    "PDEProblem",
    "SweepFailure",
    "energy",
    "energy_gradient",
    "test_function",
    "mckean_bound",
    "coercivity_constant",
    "c_infinity",
    "BonannoParameters",
    "bonanno_parameters",
    "CriticalPointReport",
    "multi_start_solve",
    "replace_lambda",
    "find_transition_lambda",
    "energy_along_ray",
    "best_ray_witness",
    "GridDoublingCheck",
    "grid_doubling_check",
    "example_problem",
    "finsler_ball_volume",
]


class SweepFailure(RuntimeError):
    """No sweep value satisfied the required strict inequalities."""


@dataclass(frozen=True)
class AlphaProfile:
    """Radial weight: "exp" is e^(-rate r), "gaussian" is e^(-rate r^2).

    Both are positive, bounded, and radially non-increasing; the decay rate
    of the "exp" kind must beat the volume growth (d-1) kappa for the
    weight to be integrable on the hyperbolic base.
    """

    kind: str = "exp"
    rate: float = 3.0

    def __post_init__(self):
        if self.kind not in ("exp", "gaussian"):
            raise ValueError(f"unknown alpha profile kind {self.kind!r}")
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def __call__(self, r):
        r_arr = np.asarray(r, dtype=float)
        if self.kind == "exp":
            out = np.exp(-self.rate * r_arr)
        else:
            out = np.exp(-self.rate * r_arr**2)
        return float(out) if r_arr.ndim == 0 else out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": {"rate": self.rate}}

    @classmethod
    def from_dict(cls, data: dict) -> "AlphaProfile":
        return cls(kind=data["kind"], rate=float(data.get("params", {}).get("rate", 3.0)))


@dataclass(frozen=True)
class Nonlinearity:
    """The driving term h(s) = s_+^(q-1) for small s crossing over to
    s_+^(w-1) for large s, with a C^1 cubic Hermite blend on [s1, 1.05];
    its derivative dh and primitive H, and the certified growth parameters.

    The smooth crossover keeps the energy twice differentiable, which the
    Newton solver needs.  The constructor checks on grids that H is
    positive on (0, s0], that |h(s)| <= C (1 + |s|^(w-1)) with 1 < w, and
    that H(s)/|s|^q stays bounded (by c1 = 1/q for |s| <= s1) as s -> 0
    with q > w.
    """

    w: float
    q: float
    s0 = 1.0
    C = 1.2
    s1 = 1.0 - 0.05

    @property
    def c1(self) -> float:
        return 1.0 / self.q

    def __post_init__(self):
        if not 1.0 < self.w:
            raise ValueError(f"need w > 1, got {self.w}")
        if not self.q > self.w:
            raise ValueError(f"need q > w, got q={self.q}, w={self.w}")
        # Hermite cubic h(s1 + t span) = c0 + c1 t + c2 t^2 + c3 t^3, t in [0, 1],
        # and H at both ends of the blend, shared by every kernel call
        q, w, a, b = self.q, self.w, self.s1, 1.0 + 0.05
        span = b - a
        fa, fb = a ** (q - 1.0), b ** (w - 1.0)
        ma, mb = (q - 1.0) * a ** (q - 2.0), (w - 1.0) * b ** (w - 2.0)
        k = SimpleNamespace(b=b, span=span, c0=fa, c1=ma * span, H_a=a**q / q)
        k.c2 = 3.0 * (fb - fa) - (2.0 * ma + mb) * span
        k.c3 = 2.0 * (fa - fb) + (ma + mb) * span
        object.__setattr__(self, "_k", k)
        k.H_b = k.H_a + self._cubic_primitive(1.0)
        # (A1): H positive up to s0
        ss = np.geomspace(1e-6 * self.s0, self.s0, 64)
        if np.any(np.asarray(self.H(ss)) <= 0):
            raise ValueError("H must be positive on (0, s0]")
        # (A2): subcritical growth of h
        ss = np.linspace(-100.0, 100.0, 2001)
        bound = self.C * (1.0 + np.abs(ss) ** (self.w - 1.0))
        if np.any(np.abs(np.asarray(self.h(ss))) > bound * (1.0 + 1e-9) + 1e-12):
            raise ValueError("|h| exceeds C (1 + |s|^(w-1)) on the check grid")
        # (A3): H(s)/|s|^q bounded near zero, compared without dividing:
        # s^q underflows to 0 on the grid once q exceeds about 40
        ss = np.geomspace(1e-8, self.s1, 64)
        if np.any(np.asarray(self.H(ss)) > self.c1 * (1.0 + 1e-9) * ss**self.q):
            raise ValueError("H(s)/|s|^q exceeds c1 below s1")

    def _cubic_primitive(self, t):
        k = self._k
        return k.span * t * (k.c0 + t * (k.c1 / 2.0 + t * (k.c2 / 3.0 + t * k.c3 / 4.0)))

    def _piecewise(self, s, low_fn, cubic_fn, high_fn):
        """Evaluate each branch only on the nodes where it is active:
        s <= 0 gives 0, (0, s1] low_fn(s), [1.05, inf) high_fn(s), and
        everything else (the open blend interval, and NaN) cubic_fn(t) at
        t = (s - s1) / span."""
        s_arr = np.asarray(s, dtype=float)
        low = (s_arr > 0.0) & (s_arr <= self.s1)
        high = s_arr >= self._k.b
        mid = ~((s_arr <= 0.0) | low | high)
        out = np.zeros_like(s_arr)
        out[low] = low_fn(s_arr[low])
        out[mid] = cubic_fn((s_arr[mid] - self.s1) / self._k.span)
        out[high] = high_fn(s_arr[high])
        return float(out) if s_arr.ndim == 0 else out

    def h(self, s):
        q, w, k = self.q, self.w, self._k
        return self._piecewise(
            s,
            lambda s: s ** (q - 1.0),
            lambda t: k.c0 + t * (k.c1 + t * (k.c2 + t * k.c3)),
            lambda s: s ** (w - 1.0),
        )

    def dh(self, s):
        q, w, k = self.q, self.w, self._k
        return self._piecewise(
            s,
            lambda s: (q - 1.0) * np.maximum(s, 1e-300) ** (q - 2.0),
            lambda t: (k.c1 + t * (2.0 * k.c2 + 3.0 * t * k.c3)) / k.span,
            lambda s: (w - 1.0) * s ** (w - 2.0),
        )

    def H(self, s):
        q, w, k = self.q, self.w, self._k
        return self._piecewise(
            s,
            lambda s: s**q / q,
            lambda t: k.H_a + self._cubic_primitive(t),
            lambda s: k.H_b + (s**w - k.b**w) / w,
        )


def reference_nonlinearity(p: float, w: float = 1.5, q: Optional[float] = None) -> Nonlinearity:
    """The driving term for the exponent p: w < p < q = p + 1 by default."""
    if q is None:
        q = p + 1.0
    if not (1.0 < w < p < q):
        raise ValueError(f"need 1 < w < p < q, got w={w}, p={p}, q={q}")
    return Nonlinearity(w=w, q=q)


@dataclass
class PDEProblem:
    """Data of the radial variational problem on [0, r_max]."""

    randers: RandersStructure
    p: float
    lam: float
    alpha: AlphaProfile
    nonlinearity: Nonlinearity
    n_cells: int = 2048
    r_max: Optional[float] = None

    def __post_init__(self):
        base = self.randers.base
        if base.curvature >= 0:
            raise ValueError("the PDE problem needs a hyperbolic base (curvature < 0)")
        if not self.p > base.dim:
            raise ValueError(f"need p > dim = {base.dim}, got p = {self.p}")
        if self.randers.beta_sup >= 1.0:
            raise ValueError("beta_sup must stay below 1")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.r_max is None:
            self.r_max = 12.0 / self.kappa
        if self.alpha.kind == "exp" and self.alpha.rate <= (base.dim - 1) * self.kappa:
            raise ValueError(
                "alpha decay rate must exceed (d-1) kappa for integrability"
            )
        # the lambda-free discretisation and ray table, built on first use
        # and shared with every replace_lambda clone
        self._cache = SimpleNamespace(disc=None, rays=None)

    @property
    def kappa(self) -> float:
        return math.sqrt(-self.randers.base.curvature)

    @property
    def dim(self) -> int:
        return self.randers.base.dim

    @property
    def grid(self) -> np.ndarray:
        return self.disc["r"]

    @property
    def disc(self) -> dict:
        if self._cache.disc is None:
            self._cache.disc = self._build()
        return self._cache.disc

    @property
    def rays(self) -> "_RayTable":
        """The lambda-free ray table, built once per discretisation."""
        if self._cache.rays is None:
            self._cache.rays = _RayTable(self)
        return self._cache.rays

    def _build(self) -> dict:
        """Every lambda-free array of the discretisation, built once."""
        base = self.randers.base
        # exponentially graded grid, dr proportional to e^((d-1) kappa r / 2):
        # equalizes the cell-volume spread that otherwise makes the discrete
        # Hessian stiffness grow like the full volume factor, while placing
        # the finest cells where the weight alpha dV_F concentrates
        # (the rim is set, not computed: at xi = 1 log1p meets -1 from dim 8)
        c = (self.dim - 1) * self.kappa / 2.0
        xi = np.linspace(0.0, 1.0, self.n_cells + 1)[:-1]
        r = np.append(-np.log1p(xi * (math.exp(-c * self.r_max) - 1.0)) / c, self.r_max)
        r[0] = 0.0
        dr = np.diff(r)
        mid = 0.5 * (r[:-1] + r[1:])
        b_mid = np.asarray(self.randers.beta(mid), dtype=float)
        rise, fall = 1.0 + b_mid, 1.0 - b_mid
        d_rise, d_fall = 1.0 / rise, -1.0 / fall
        shell_g = np.diff(cumulative_ball_volumes(base, r))
        area_node = np.asarray(area_factor(base, r), dtype=float)
        trap = np.append(0.5 * dr, 0.0) + np.insert(0.5 * dr, 0, 0.0)
        trap_area_g = trap * area_node
        alpha_node = np.asarray(self.alpha(r), dtype=float)
        jw = trap * alpha_node * (radial_density(self.randers, r) * area_node)
        rs, half, w = cell_nodes(r, 8)
        one_plus_b = 1.0 + np.asarray(self.randers.beta(rs), dtype=float)
        return {
            "r": r, "dr": dr, "dr2": dr**2, "b_mid": b_mid,
            # co-norm denominators 1 +- b, and dF*/dslope on rising and
            # falling cells with their squares
            "rise": rise, "fall": fall, "d_rise": d_rise, "d_fall": d_fall,
            "d_rise2": d_rise**2, "d_fall2": d_fall**2,
            "vol_f": radial_density(self.randers, mid) * shell_g,
            "shell_g": shell_g,
            "trap_area_g": trap_area_g,
            # lumped L^2 mass of the damped descent and the root polish
            "mass": trap_area_g + 1e-300,
            "jw": jw,
            "alpha_l1": float(jw.sum()),
            # forward Finsler distance int_0^r (1 + b(s)) ds along the outward ray
            "tau": np.concatenate([[0.0], np.cumsum((half * w * one_plus_b).sum(axis=1))]),
        }

    def profile(self, values: np.ndarray) -> RadialProfile:
        return RadialProfile(grid=self.grid, values=np.asarray(values, float), ambient=self.randers)

    def to_dict(self) -> dict:
        nl = self.nonlinearity
        return {
            "randers": self.randers.to_dict(),
            "p": self.p,
            "lambda": self.lam,
            "alpha": self.alpha.to_dict(),
            "nonlinearity": {"name": "reference", "params": {"w": nl.w, "q": nl.q}},
            "grid": {"n_cells": self.n_cells, "r_max": self.r_max},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PDEProblem":
        nl_data = data["nonlinearity"]
        if nl_data.get("name") != "reference":
            raise ValueError("only the reference nonlinearity can be loaded")
        p = float(data["p"])
        params = nl_data.get("params", {})
        nl = reference_nonlinearity(p, w=float(params.get("w", 1.5)), q=params.get("q"))
        grid = data.get("grid", {})
        problem = cls(
            randers=RandersStructure.from_dict(data["randers"]),
            p=p,
            lam=float(data.get("lambda", 0.0)),
            alpha=AlphaProfile.from_dict(data["alpha"]),
            nonlinearity=nl,
            n_cells=int(grid.get("n_cells", 2048)),
            r_max=float(grid["r_max"]) if "r_max" in grid else None,
        )
        _refuse_unknown_keys(data, problem.to_dict())
        return problem


def _refuse_unknown_keys(data: dict, written: dict, where: str = "") -> None:
    """Raise ValueError at a key of data, at any level, that written lacks."""
    for key, value in data.items():
        if key not in written:
            raise ValueError(f"unknown key {where + key!r}")
        if isinstance(value, dict) and isinstance(written[key], dict):
            _refuse_unknown_keys(value, written[key], f"{where}{key}.")


def _rows(problem: PDEProblem, u) -> np.ndarray:
    """u as a C-contiguous (rows x nodes) stack of profiles on the problem
    grid; every kernel takes its profiles through here."""
    u = np.ascontiguousarray(u, dtype=float)
    n = problem.disc["r"].size
    if u.ndim != 2 or u.shape[1] != n:
        raise ValueError(f"profile must live on the {n}-node grid")
    return u


def _phi_terms(problem: PDEProblem, u: np.ndarray):
    """Per-cell slopes, their signs (slope >= 0) and co-norms F*(Du) of
    each row of a stack of profiles: randers.radial_conorm with the
    denominators of PDEProblem.disc."""
    disc = problem.disc
    slopes = np.diff(u) / disc["dr"]
    rising = slopes >= 0
    return slopes, rising, np.where(rising, slopes / disc["rise"], -slopes / disc["fall"])


def _energies(problem: PDEProblem, u) -> list:
    """(Phi, J, E_lambda) of each row of a stack of profiles."""
    u = _rows(problem, u)
    disc = problem.disc
    p = problem.p
    _, _, conorms = _phi_terms(problem, u)
    phis = np.sum(conorms**p * disc["vol_f"], axis=1)
    js = np.sum(disc["jw"] * problem.nonlinearity.H(u), axis=1)
    out = []
    for phi, j in zip(phis.tolist(), js.tolist()):
        phi /= p
        out.append((phi, j, phi - problem.lam * j))
    return out


def _gradients(problem: PDEProblem, u):
    """Exact gradients of the discretized energy at each row of a stack,
    with the rows' cell signs and co-norms for the Hessian bands."""
    u = _rows(problem, u)
    disc = problem.disc
    _, rising, conorms = _phi_terms(problem, u)
    # a flat cell has a zero co-norm, so its flux is zero whatever the sign
    dphi = np.where(rising, disc["d_rise"], disc["d_fall"])
    flux = conorms ** (problem.p - 1.0) * dphi * disc["vol_f"] / disc["dr"]
    grad = np.zeros_like(u)
    grad[:, :-1] -= flux
    grad[:, 1:] += flux
    grad -= problem.lam * disc["jw"] * problem.nonlinearity.h(u)
    return grad, rising, conorms


def _gradients_and_bands(problem: PDEProblem, u, flat_floors):
    """Gradients and pieces of the tridiagonal energy Hessian of each row
    of a stack, from one evaluation of the cell terms: (grad, diag_phi,
    off, diag_react).

    The gradient-energy part contributes, per cell, the positive weight
    (p-1) conorm^(p-2) (dphi/ds)^2 vol_f / dr^2 on the 2x2 block of its two
    nodes (positive semidefinite by construction), summed into diag_phi
    with off = -weight; the reaction part is the diagonal diag_react =
    -lambda jw h'(u), of either sign.  A row's entry of flat_floors keeps
    the p > 2 degenerate weights at its flat cells bounded away from zero,
    which the globalized descent wants; the root polish passes False to
    get the honest Jacobian of the gradient.
    """
    u = _rows(problem, u)
    grad, rising, conorms = _gradients(problem, u)
    disc = problem.disc
    p = problem.p
    floors = [
        1e-6 * max(top, 1e-30) if floored else -math.inf
        for top, floored in zip(np.max(conorms, axis=1).tolist(), flat_floors)
    ]
    conorms = np.maximum(conorms, np.array(floors)[:, None])
    w = (
        (p - 1.0)
        * conorms ** (p - 2.0)
        * np.where(rising, disc["d_rise2"], disc["d_fall2"])
        * disc["vol_f"]
        / disc["dr2"]
    )
    diag_phi = np.zeros_like(u)
    diag_phi[:, :-1] += w
    diag_phi[:, 1:] += w
    diag_react = -problem.lam * disc["jw"] * np.asarray(problem.nonlinearity.dh(u), dtype=float)
    return grad, diag_phi, -w, diag_react


def energy(problem: PDEProblem, u) -> tuple:
    """(Phi, J, E_lambda) of a nodal profile on the problem grid."""
    return _energies(problem, np.asarray(u, dtype=float)[None])[0]


def energy_gradient(problem: PDEProblem, u) -> np.ndarray:
    """Exact gradient of the discretized energy; matches finite differences."""
    return _gradients(problem, np.asarray(u, dtype=float)[None])[0][0]


def finsler_ball_volume(problem: PDEProblem, radius_f: float) -> float:
    """Volume (dV_F) of the forward metric ball d_F(0, .) < radius_f."""
    disc = problem.disc
    r_geo = float(np.interp(radius_f, disc["tau"], disc["r"]))
    cum = np.concatenate([[0.0], np.cumsum(disc["vol_f"])])
    return float(np.interp(r_geo, disc["r"], cum))


def test_function(problem: PDEProblem, s0: float, big_r: float, small_r: float) -> np.ndarray:
    """Plateau profile: s0 inside the forward ball of radius small_r, a
    linear ramp in forward distance out to big_r, zero beyond.

    Requires small_r < big_r (1-a)/(1+a) with a = sup ||beta||, and the
    support to fit inside the grid.
    """
    a = problem.randers.beta_sup
    if not s0 > 0:
        raise ValueError("s0 must be positive")
    if not 0 < small_r < big_r * (1.0 - a) / (1.0 + a):
        raise ValueError(
            f"need 0 < r < R (1-a)/(1+a) = {big_r * (1 - a) / (1 + a):.6g}, got r = {small_r}"
        )
    tau = problem.disc["tau"]
    if tau[-1] <= big_r:
        raise ValueError("support of the ramp exceeds the grid; raise r_max")
    ramp = (big_r - tau) / (big_r - small_r)
    return s0 * np.clip(ramp, 0.0, 1.0)


def mckean_bound(d: int, kappa: float, p: float) -> float:
    """Spectral-gap lower bound ((d-1) kappa / p)^p for the p-Laplacian on
    a manifold with curvature <= -kappa^2."""
    if d < 2 or not kappa > 0 or not p > 1:
        raise ValueError("need d >= 2, kappa > 0, p > 1")
    return ((d - 1) * kappa / p) ** p


def coercivity_constant(d: int, a: float, p: float, kappa: float) -> float:
    """Constant c(d, a, p, kappa) relating the Finsler gradient energy to
    the full Riemannian W^{1,p} norm:

        int F*(x, Du)^p dV_F >= c ||u||^p_{W^{1,p}_g}.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a must lie in [0, 1), got {a}")
    gap = (d - 1.0) ** p * kappa**p
    return (1.0 - a * a) ** ((d + 1) / 2.0) / (1.0 + a) ** p * gap / (p**p + gap)


def c_infinity(problem: PDEProblem, max_iter: int = 200) -> float:
    """Estimate of sup ||u||_inf / ||u||_{W^{1,p}_g} over the discrete
    radial cone: the best quotient of a seeded ascent, read at the start of
    each seed's last of max_iter iterations, times 1.1.  Not a bound: at
    1024 cells profiles reach 0.97 against the 0.815 returned (ROADMAP.md,
    item 1, "Certified c_inf")."""
    p = problem.p
    disc = problem.disc
    x = disc["r"] / disc["r"][-1]
    seeds = [
        (1.0 - x) ** k for k in (0.5, 1.0, 2.0, 4.0)
    ] + [np.exp(-((x / s) ** 2)) - math.exp(-1.0 / s**2) for s in (0.1, 0.3, 0.6)]
    seeds += [np.clip(1.0 - x / f, 0.0, 1.0) for f in (0.05, 0.15, 0.4)]

    w1p = W1pRows(disc["dr"], disc["shell_g"], disc["trap_area_g"], p)

    def quotient(u):
        # each row's state is its W^{1,p} power
        power = w1p.power(u)
        return [float(sup) / float(w) ** (1.0 / p) for sup, w in zip(u.max(axis=1), power)], power

    _, values = seeded_line_search(
        np.array(seeds), quotient, w1p.sup_ratio_gradient, retract=lambda u: u, grow=1.5,
        max_iter=max_iter - 1,
        improves=lambda new, old: new > old * (1.0 + 1e-12),
    )
    return 1.1 * max([0.0] + values)


@dataclass(frozen=True)
class BonannoParameters:
    """Sub-level threshold and interval endpoint of the three-solution setup."""

    rho0: float
    a_bar: float
    phi_u1: float
    j_u1: float
    sup_bound_at_rho0: float
    c_inf: float
    c2: float
    coercivity: float

    @property
    def hypotheses_hold(self) -> bool:
        return (
            self.rho0 < self.phi_u1
            and self.sup_bound_at_rho0 < self.rho0 * self.j_u1 / self.phi_u1
        )


def example_problem(
    dim: int = 2,
    kappa: float = 1.5,
    beta_sup: float = 0.2,
    p: float = 3.5,
    alpha_rate: float = 0.75,
    n_cells: int = 2048,
) -> PDEProblem:
    """Reference desk-scale instance: Randers-perturbed hyperbolic plane,
    p = 3.5 > d = 2, gaussian weight, tanh drift profile."""
    if not math.isfinite(kappa * kappa):
        raise ValueError(f"kappa = {kappa} is out of range: kappa^2 must be finite")
    structure = RandersStructure(
        SpaceForm(dim, -(kappa**2)), BetaProfile("tanh", beta_sup)
    )
    return PDEProblem(
        randers=structure,
        p=p,
        lam=0.0,
        alpha=AlphaProfile("gaussian", alpha_rate),
        nonlinearity=reference_nonlinearity(p),
        n_cells=n_cells,
    )


def bonanno_parameters(
    problem: PDEProblem, s0: float, big_r: float, small_r: float
) -> BonannoParameters:
    """Sweep rho and pick rho0 so that the two strict inequalities

        rho0 < Phi(u1),    sup {J : Phi <= rho0} < rho0 J(u1)/Phi(u1)

    hold with the supremum replaced by the estimate

        sup {J : Phi <= rho} <= C2 ||alpha||_L1 c_inf^q (p rho / c)^(q/p),

    which over-estimates it only if c_inf bounds ||u||_inf / ||u||_{W^{1,p}_g};
    c_infinity is an ascent estimate, not such a bound (see there).  Returns
    the interval endpoint a_bar = (1 + rho0) / (J(u1)/Phi(u1) - sup/rho0).
    Raises SweepFailure if q <= p, E(u1) leaves the float range, J(u1) <= 0 or no rho fits.
    """
    nl = problem.nonlinearity
    if not nl.q > problem.p:
        raise SweepFailure(f"q = {nl.q} <= p = {problem.p}: the sub-level estimate needs q > p")
    u1 = test_function(problem, s0, big_r, small_r)
    try:
        with np.errstate(over="raise", invalid="raise"):
            phi1, j1, _ = energy(problem, u1)
    except FloatingPointError as exc:
        raise SweepFailure(f"s0 = {s0}: the ramp profile's energy leaves the float range ({exc})") from None
    if not j1 > 0:
        raise SweepFailure("the ramp profile has non-positive J; enlarge alpha or s0")
    c2 = max(nl.c1, nl.C * (1.0 + nl.s1 ** (nl.w - 1.0)) / nl.s1 ** (nl.q - 1.0))
    c_inf = c_infinity(problem)
    c_coerc = coercivity_constant(problem.dim, problem.randers.beta_sup, problem.p, problem.kappa)
    alpha_l1 = problem.disc["alpha_l1"]

    big_k = c2 * alpha_l1 * c_inf**nl.q * (problem.p / c_coerc) ** (nl.q / problem.p)

    def sup_bound(rho):
        return big_k * rho ** (nl.q / problem.p)

    ratio = j1 / phi1
    # sup_bound(rho)/rho = K rho^(q/p - 1) crosses ratio at rho_crit;
    # sweep below it so the inequality holds with a clean margin
    rho_crit = (ratio / big_k) ** (problem.p / (nl.q - problem.p))
    best = None
    for rho in min(rho_crit, 0.999 * phi1) * np.geomspace(1e-8, 0.999, 60):
        if not 0 < rho < phi1:
            continue
        sb = sup_bound(rho)
        # factor-2 margin keeps a_bar well conditioned while both strict
        # inequalities hold with room to spare
        if sb <= 0.5 * rho * ratio and (best is None or rho > best):
            best = rho
    if best is None:
        raise SweepFailure("no rho satisfied the strict inequalities")
    rho0 = best
    a_bar = (1.0 + rho0) / (ratio - sup_bound(rho0) / rho0)
    return BonannoParameters(
        rho0=rho0,
        a_bar=a_bar,
        phi_u1=phi1,
        j_u1=j1,
        sup_bound_at_rho0=sup_bound(rho0),
        c_inf=c_inf,
        c2=c2,
        coercivity=c_coerc,
    )


@dataclass(frozen=True)
class CriticalPointReport:
    """Clustered critical points of the discrete energy at one lambda."""

    lam: float
    profiles: list
    energies: list
    gradient_norms: list
    n_converged: int
    n_starts: int

    @property
    def n_distinct(self) -> int:
        return len(self.profiles)


def _default_seeds(problem: PDEProblem, s0: float) -> list:
    r = problem.grid
    kappa = problem.kappa
    seeds = [np.zeros_like(r)]
    for radius in (1.0 / kappa, 2.0 / kappa, 3.5 / kappa, 5.0 / kappa):
        tent = np.clip(1.0 - r / radius, 0.0, 1.0)
        for amp in (0.5 * s0, s0, 2.0 * s0):
            seeds.append(amp * tent)
    return seeds


def _solve_tridiag(diag, off, rhs):
    """Solve the tridiagonal system on the free nodes 0 .. n-2 and return
    it with a zero rim entry: the Dirichlet node n-1 is not an unknown, so
    its row and column (and the coupling off[-1] into row n-2) drop out.

    Calls LAPACK's dgtsv, which solve_banded wraps for one band either
    side, directly.  Returns None when an entry of the system or of the
    solution is not finite or dgtsv finds it singular (info > 0), so the
    caller moves on to its next tier; any other error propagates."""
    from scipy.linalg.lapack import dgtsv

    m = diag.size - 1
    d, e, b = diag[:m], off[: m - 1], rhs[:m]
    if not all(np.isfinite(a).all() for a in (d, e, b)):
        return None
    # dgtsv rejects the empty off-diagonals of a 1x1 system: divide instead
    with np.errstate(all="ignore"):
        x, info = (b / d, 0) if m == 1 else dgtsv(e, d, e, b)[3:]
    if info > 0:
        return None
    out = np.zeros(m + 1)
    out[:m] = x
    return out if np.isfinite(out).all() else None


GRADIENT_TOL = 1e-8  # a start has converged once ||grad E|| <= GRADIENT_TOL (1 + |E|)
_MAX_DESCENT_STEPS = 4000  # step cap of each multi-start descent
# stagnation hand-off of _descend (see its docstring)
_STALL_WINDOW = 32
_STALL_RTOL = 4.0 * np.finfo(float).eps


def _descend(problem, u0, max_iter, tol, on_step=None):
    """The descent of _descent_steps from one start: (u, E, ||grad E||,
    converged)."""
    return _run_starts(problem, [_descent_steps(problem, u0, max_iter, tol, on_step)])[0]


def _descent_steps(problem, u0, max_iter, tol, on_step=None):
    """Projected Newton-type descent on the discrete energy, as a step
    sequence for _run_starts.

    Each iteration tries two directions, the first whose Armijo
    backtracking succeeds winning: the full tridiagonal Newton step, then
    the positive-curvature step damped by mu times the lumped mass (concave
    reaction curvature dropped, so always positive definite; mu adapts to
    the accepted step).  Near a nondegenerate minimum the full step is
    accepted with alpha = 1 and convergence is quadratic; in the nonconvex
    transit the damped step keeps the energy strictly monotone.  When
    neither step succeeds, or the energy has fallen by no more than
    _STALL_RTOL |E| over the last _STALL_WINDOW accepted steps, the
    iterate is handed straight to the root polish.  Every linear solve
    leaves the Dirichlet rim out of the system.  A converged iterate below
    the zero-only level (see _zero_only_level) is reported as exactly
    u = 0, with E = 0 and ||grad E|| = 0.  Returns (u, E, ||grad E||,
    converged).
    """
    u = np.maximum(np.asarray(u0, dtype=float).copy(), 0.0)
    u[-1] = 0.0
    _, _, e_val = yield "energy", u
    # an accepted iterate's free gradient and flat-floored Hessian bands
    g, bands = yield "bands", u, True
    converged = False
    recent = deque([e_val], maxlen=_STALL_WINDOW + 1)

    def try_direction(direction, halvings):
        """Backtracking Armijo step along direction; returns the accepted
        alpha or None, updating the iterate on success."""
        nonlocal u, e_val, g, bands
        alpha = 1.0
        for _ in range(halvings):
            trial = np.maximum(u + alpha * direction, 0.0)
            _, _, e_trial = yield "energy", trial
            decrease = float(g @ (u - trial))
            if e_trial <= e_val - 1e-4 * decrease + 1e-300 and e_trial <= e_val:
                u, e_val = trial, e_trial
                g, bands = yield "bands", u, True
                if on_step is not None:
                    on_step(e_val)
                return alpha
            alpha *= 0.5
        return None

    # lumped L^2 mass: damping by mu * M acts like a semi-implicit gradient
    # flow step of size 1/mu, uniformly across the stiff volume spectrum
    mass = problem.disc["mass"]
    mu = 1.0
    for _ in range(max_iter):
        g_norm = float(np.linalg.norm(g))
        if g_norm <= tol * (1.0 + abs(e_val)):
            converged = True
            break
        diag_phi, off, diag_react = bands
        moved = False
        # 1) full Newton, but only when it earns a confident step: timid
        # fractional steps are the damped tier's job
        cand = _solve_tridiag(diag_phi + diag_react, off, -g)
        if cand is not None and float(g @ cand) < 0:
            moved = (yield from try_direction(cand, 2)) is not None
        # 2) mass-damped semi-implicit step with adaptive damping
        if not moved:
            diag_pos = diag_phi + np.maximum(diag_react, 0.0)
            for _ in range(80):
                cand = _solve_tridiag(diag_pos + mu * mass, off, -g)
                if cand is not None and float(g @ cand) < 0:
                    alpha = yield from try_direction(cand, 10)
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
        u, g_norm = yield from _polish_root(problem, u, tol)
    phi, _, e_val = yield "energy", u
    converged = converged or g_norm <= tol * (1.0 + abs(e_val))
    if converged and problem.p * phi < _zero_only_level(problem):
        return np.zeros_like(u), 0.0, 0.0, True
    return u, e_val, g_norm, converged


def _zero_only_level(problem) -> float:
    """Level R such that no critical point v >= 0, v != 0, of E_lambda
    (with v = 0 at the rim) has p Phi(v) < R; 0 when no level holds.

    With p' = p/(p-1), |slope| <= (1 + |b|) F* and v = 0 at the rim,
    Hoelder gives ||v||_inf <= A (p Phi(v))^(1/p) with
    A = (sum ((1 + |b|) dr)^p' vol_f^(1-p'))^(1/p'), finite since p > d.
    A critical point satisfies Euler's identity
    p Phi(v) = lambda sum jw h(v) v <= lambda c_h ||alpha||_1 ||v||_inf^q
    while ||v||_inf <= s1, where c_h is the largest h(s) s / s^q on a check
    grid of (0, s1]; h(s) s = s^q there, so c_h is 1 up to rounding and
    the level is certified.  For q > p these bound p Phi(v) from below;
    for q <= p (a term built for a smaller p) they bound it from above, so
    no level is returned when lambda c_h > 0.
    """
    disc = problem.disc
    p = problem.p
    nl = problem.nonlinearity
    pc = p / (p - 1.0)
    cells = ((1.0 + np.abs(disc["b_mid"])) * disc["dr"]) ** pc * disc["vol_f"] ** (1.0 - pc)
    a = float(np.sum(cells)) ** (1.0 / pc)
    level = (nl.s1 / a) ** p
    ss = np.geomspace(1e-8, nl.s1, 64)
    c_h = float(np.max(np.asarray(nl.h(ss)) * ss / ss**nl.q))
    if problem.lam > 0 and c_h > 0:
        if nl.q <= p:
            return 0.0
        k = problem.lam * c_h * disc["alpha_l1"] * a**nl.q
        level = min(level, k ** (-p / (nl.q - p)))
    return level


def _polish_root(problem, u, tol):
    """Damped Newton iteration on grad E = 0 with the exact Jacobian, at
    most 120 steps, as a step sequence for _run_starts; returns
    (u, ||grad E||).

    Steps are accepted on gradient-norm decrease, which is immune to the
    floating resolution of the energy, so this phase finishes critical
    points (minima or mountain-pass saddles alike) that the monotone
    energy descent can only approach.  Every trial gets its gradient with
    its exact Hessian bands, so an accepted trial brings the next Jacobian.
    """
    g, (diag_phi, off, diag_react) = yield "bands", u, False
    g_norm = float(np.linalg.norm(g))
    mass = problem.disc["mass"]
    tau = 0.0
    for _ in range(120):
        _, _, e_val = yield "energy", u
        if g_norm <= tol * (1.0 + abs(e_val)):
            break
        diag = diag_phi + diag_react
        stepped = False
        for _ in range(40):
            cand = _solve_tridiag(diag + tau * mass, off, -g)
            if cand is not None:
                alpha = 1.0
                for _ in range(25):
                    trial = np.maximum(u + alpha * cand, 0.0)
                    g_trial, bands = yield "bands", trial, False
                    n_trial = float(np.linalg.norm(g_trial))
                    if n_trial < g_norm * (1.0 - 1e-4 * alpha):
                        u, g, g_norm = trial, g_trial, n_trial
                        diag_phi, off, diag_react = bands
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


def _answer(problem, kind, requests) -> list:
    """Answers to requests of one kind, from one (rows x nodes) stack of
    their profiles: (Phi, J, E) for "energy"; for "bands", the free gradient
    (rim entry 0, the rim is not an unknown) and the Hessian bands,
    flat-floored as the request asks."""
    u = np.stack([req[1] for req in requests])
    if kind == "energy":
        return _energies(problem, u)
    # each start gets copies of its rows, so no start keeps a whole stack alive
    grad, diag_phi, off, diag_react = _gradients_and_bands(problem, u, [req[2] for req in requests])
    grad[:, -1] = 0.0
    return [
        (grad[i].copy(), (diag_phi[i].copy(), off[i].copy(), diag_react[i].copy()))
        for i in range(len(requests))
    ]


def _run_starts(problem, starts) -> list:
    """Run step sequences (generators of _descent_steps or _polish_root) on
    one problem to their ends, all together, and return their results in
    order.

    A sequence yields a request ("energy", profile) or ("bands", profile,
    flat_floor) and receives its answer (see _answer).  Each round answers
    every waiting request of one kind as one stack, energies first, so the
    kernels run once per round instead of once per start; the rows of a
    stack do not mix, so each sequence gets exactly the numbers it would
    get alone."""
    results = [None] * len(starts)
    waiting = {}

    def advance(i, answer):
        try:
            waiting[i] = starts[i].send(answer)
        except StopIteration as stop:
            waiting.pop(i, None)
            results[i] = stop.value

    for i in range(len(starts)):
        advance(i, None)
    while waiting:
        kind = "energy" if any(req[0] == "energy" for req in waiting.values()) else "bands"
        rows = [i for i, req in waiting.items() if req[0] == kind]
        for i, answer in zip(rows, _answer(problem, kind, [waiting[i] for i in rows])):
            advance(i, answer)
    return results


def multi_start_solve(problem: PDEProblem, lambda_grid: Sequence[float]) -> list:
    """Deterministic multi-start descent on E_lambda for each lambda.

    Converged profiles are clustered by L^inf distance (threshold
    1e-4 s0) with the lowest-energy representative kept; the zero profile
    is always included since h(0) = 0 makes it critical.  A cluster opens
    only beyond the threshold of every earlier one, so all representatives
    are pairwise distinct.  Non-convergence of an individual start is
    recorded, not fatal.  Each lambda > 0 adds the ray witness of the
    problem's one ray table (PDEProblem.rays) as a start.
    """
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
        # every start of this lambda steps as one row of the kernels' stacks
        outcomes = _run_starts(
            prob, [_descent_steps(prob, seed, _MAX_DESCENT_STEPS, GRADIENT_TOL) for seed in lam_seeds]
        )
        results = [(u, e_val, g_norm) for u, e_val, g_norm, converged in outcomes if converged]
        n_conv = len(results)
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


def _ray_terms(problem: PDEProblem, shapes: np.ndarray, ts: Sequence[float]):
    """The lambda-free terms of E_lambda(t * shape) = Phi(t * shape) -
    lambda J(t * shape) for each row of a (shapes x nodes) stack: the
    (shapes x ts) arrays of Phi(t * shape) = t^p Phi(shape) and of
    J(t * shape), with one H call over the whole stack per t."""
    phi0 = np.array([e[0] for e in _energies(problem, shapes)])
    jw = problem.disc["jw"]
    js = [np.sum(jw * problem.nonlinearity.H(t * shapes), axis=1) for t in ts]
    return np.outer(phi0, [t**problem.p for t in ts]), np.stack(js, axis=1)


def energy_along_ray(problem: PDEProblem, shape: np.ndarray, ts: Sequence[float]):
    """E_lambda(t * shape) for t in ts, using Phi(t u) = t^p Phi(u)."""
    phis, js = _ray_terms(problem, np.asarray(shape, dtype=float)[None], ts)
    return phis[0] - problem.lam * js[0]


def _ray_shapes(problem: PDEProblem) -> list:
    """Scan shapes: tents and plateaus sized around the peak of the
    reaction weight alpha dV_F, where negative-energy profiles live."""
    r = problem.grid
    kappa = problem.kappa
    jw = problem.disc["jw"]
    r_peak = max(float(r[int(np.argmax(jw))]), 0.5 / kappa)
    shapes = []
    for radius in (0.75 / kappa, 1.5 / kappa, r_peak, 1.5 * r_peak, 2.2 * r_peak):
        shapes.append(np.clip(1.0 - r / radius, 0.0, 1.0))
    for outer_frac in (1.3, 1.8, 2.5):
        for core_frac in (0.5, 0.8):
            outer = outer_frac * r_peak
            core = core_frac * outer
            shapes.append(np.clip((outer - r) / (outer - core), 0.0, 1.0))
    # exponentially tapered plateaus: a linear ramp cannot win against the
    # e^((d-1) kappa r) volume growth, but a decay rate gamma with
    # p gamma > (d-1) kappa keeps the gradient cost finite
    base_rate = (problem.dim - 1) * kappa / problem.p
    for r0 in (0.0, 0.75 * r_peak, 1.25 * r_peak):
        for factor in (1.4, 2.0, 3.0):
            gamma = factor * base_rate
            tail = np.exp(-gamma * np.maximum(r - r0, 0.0))
            tail = tail - tail[-1]
            shapes.append(np.maximum(tail, 0.0))
    out = []
    for s in shapes:
        s[-1] = 0.0
        if s.max() > 0:
            out.append(s)
    return out


class _RayTable:
    """The scanned ray family of best_ray_witness with its lambda-free
    terms, built in one pass over ts as (shapes x ts) arrays, once per
    problem (PDEProblem.rays); witness(lam) is then one array expression
    and one argmin."""

    ts = np.geomspace(1e-2, 64.0, 80)

    def __init__(self, problem: PDEProblem):
        self.shapes = np.array(_ray_shapes(problem))
        self.phis, self.js = _ray_terms(problem, self.shapes, self.ts)

    def witness(self, lam: float):
        """(E, t * shape) at the lowest energy of the table; ties go to the
        first shape, then the smallest t (row-major argmin)."""
        es = self.phis - lam * self.js
        i, k = np.unravel_index(int(np.argmin(es)), es.shape)
        return float(es[i, k]), float(self.ts[k]) * self.shapes[i]


def best_ray_witness(problem: PDEProblem):
    """Most negative-energy point on the scanned rays t * shape.

    Returns (energy, profile); the profile realizes the energy, so a value
    below zero certifies a nontrivial minimizer exists at this lambda.
    The scan reads the problem's one ray table (PDEProblem.rays).
    """
    return problem.rays.witness(problem.lam)


def find_transition_lambda(
    problem: PDEProblem,
    lam_hi: float,
) -> float:
    """Smallest lambda (up to 14 bisection steps) at which the scanned ray
    family reaches a negative energy level.

    Above the returned value the energy has a nontrivial minimizer with
    E < 0 (the ray witness realizes the negative value), and just above it
    that minimizer is shallow, which is where a multi-start run resolves
    the zero and nonzero critical points fastest.  Returns the high end of
    the final bracket, i.e. a lambda at which a witness was actually found.
    Every step reads the problem's one ray table (PDEProblem.rays).
    """

    def found(lam: float) -> bool:
        e_best, _ = problem.rays.witness(lam)
        return e_best < -1e-9

    if not found(lam_hi):
        raise SweepFailure(
            f"no negative-energy ray witness up to lambda = {lam_hi}; raise the bound"
        )
    lo, hi = 0.0, float(lam_hi)
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        if found(mid):
            hi = mid
        else:
            lo = mid
    return hi


def replace_lambda(problem: PDEProblem, lam: float) -> PDEProblem:
    """Copy of the problem at a different lambda that shares its
    discretization and ray table, whichever of the two builds them first."""
    clone = replace(problem, lam=lam)
    clone._cache = problem._cache
    return clone


@dataclass(frozen=True)
class GridDoublingCheck:
    """Persistence of a critical point under doubled grid resolution."""

    gradient_norm: float
    drift: float  # sup distance between the refined point and the prolongation

    def stable(self) -> bool:
        """Gradient norm below 1e-6 and drift below 1e-2."""
        return self.gradient_norm < 1e-6 and self.drift < 1e-2


def grid_doubling_check(problem: PDEProblem, u) -> GridDoublingCheck:
    """Re-evaluate a critical point at doubled resolution.

    The linear prolongation of u, a finite profile on the problem grid (else
    ValueError), carries an O(h^2) consistency residual amplified by the
    stiffest cells, so its raw gradient is not meaningful; instead the
    descent and root polish on the doubled grid refine it into the nearby
    fine-grid critical point, and the check reports the achieved gradient
    norm together with the sup-norm drift from the prolongation.
    """
    u = _rows(problem, [u])[0]
    if not np.isfinite(u).all():
        raise ValueError("profile must be finite")
    fine = replace(problem, n_cells=2 * problem.n_cells)
    if np.max(np.abs(u)) == 0.0:
        u_fine = np.zeros(fine.grid.size)
    else:
        u_fine = np.maximum(np.interp(fine.grid, problem.grid, u), 0.0)
        u_fine[-1] = 0.0
    # the root polish alone stalls on the prolongation residue of the
    # coarse outer cells; a short stretch of the semi-implicit flow damps
    # it, and the descent hands the iterate to the root polish once its
    # energy stalls
    u_ref, _, g_norm, _ = _descend(fine, u_fine, 200, 1e-9)
    drift = float(np.max(np.abs(u_ref - u_fine)))
    return GridDoublingCheck(gradient_norm=g_norm, drift=drift)
