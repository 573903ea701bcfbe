"""Variational treatment of the quasilinear problem

    -div_F(F*^(p-2)(Du) grad_F u) = lambda alpha(x) h(u)

on a rotation-invariant Randers perturbation of a hyperbolic space form
with curvature <= -kappa^2 and p > d.  Everything is attacked through the
energy

    E_lambda(u) = (1/p) int F*(x, Du)^p dV_F - lambda int alpha H(u) dV_F

restricted to radial profiles: a spectral-gap (McKean-type) bound makes
E_lambda coercive for every lambda >= 0, a scan of sub-level suprema
produces the parameter interval [0, a_bar] of the three-critical-points
setup, and a deterministic multi-start projected descent hunts for
critical points of the discretized energy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .modelspace import SpaceForm, area_factor, cumulative_ball_volumes
from .randers import BetaProfile, RandersStructure, radial_conorm, radial_density
from .rearrange import RadialProfile
from .sobolev import BatchPowers, sup_log_gradient
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
    "sup_j_under_phi_level",
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
    """Continuous h with primitive H and the certified growth parameters.

    The constructor checks on grids that H is positive on (0, s0], that
    |h(s)| <= C (1 + |s|^(w-1)) with 1 < w, and that H(s)/|s|^q stays
    bounded (by c1 for |s| <= s1) as s -> 0 with q > w.
    """

    h: Callable
    H: Callable
    s0: float
    C: float
    w: float
    q: float
    c1: float
    s1: float = 1.0
    name: str = "custom"
    dh: Optional[Callable] = None  # exact h', used by the Newton solver

    def __post_init__(self):
        if not (self.s0 > 0 and self.C > 0 and self.c1 > 0 and 0 < self.s1):
            raise ValueError("s0, C, c1, s1 must be positive")
        if not 1.0 < self.w:
            raise ValueError(f"need w > 1, got {self.w}")
        if not self.q > self.w:
            raise ValueError(f"need q > w, got q={self.q}, w={self.w}")
        # (A1): H positive up to s0
        ss = np.geomspace(1e-6 * self.s0, self.s0, 64)
        if np.any(np.asarray(self.H(ss)) <= 0):
            raise ValueError("H must be positive on (0, s0]")
        # (A2): subcritical growth of h
        ss = np.linspace(-100.0, 100.0, 2001)
        bound = self.C * (1.0 + np.abs(ss) ** (self.w - 1.0))
        if np.any(np.abs(np.asarray(self.h(ss))) > bound * (1.0 + 1e-9) + 1e-12):
            raise ValueError("|h| exceeds C (1 + |s|^(w-1)) on the check grid")
        # (A3): H(s)/|s|^q bounded near zero
        ss = np.geomspace(1e-8, self.s1, 64)
        ratio = np.asarray(self.H(ss)) / ss**self.q
        if np.any(ratio > self.c1 * (1.0 + 1e-9)):
            raise ValueError("H(s)/|s|^q exceeds c1 below s1")


def reference_nonlinearity(
    p: float, w: float = 1.5, q: Optional[float] = None, blend: float = 0.05
) -> Nonlinearity:
    """Default driving term: h(s) = s_+^(q-1) for small s crossing over to
    s_+^(w-1) for large s, with a C^1 cubic Hermite blend on
    [1 - blend, 1 + blend].

    The smooth crossover keeps the energy twice differentiable, which the
    Newton solver needs; the growth hypotheses hold with C = 1.2,
    c1 = 1/q, s1 = 1 - blend, and exponents w < p < q = p + 1 by default.
    """
    if q is None:
        q = p + 1.0
    if not (1.0 < w < p < q):
        raise ValueError(f"need 1 < w < p < q, got w={w}, p={p}, q={q}")
    if not 0.0 < blend < 0.5:
        raise ValueError(f"blend must lie in (0, 0.5), got {blend}")
    a = 1.0 - blend
    b = 1.0 + blend
    span = b - a
    fa, fb = a ** (q - 1.0), b ** (w - 1.0)
    ma, mb = (q - 1.0) * a ** (q - 2.0), (w - 1.0) * b ** (w - 2.0)
    # Hermite cubic h(a + t span) = c0 + c1 t + c2 t^2 + c3 t^3, t in [0, 1]
    c0 = fa
    c1_ = ma * span
    c2 = 3.0 * (fb - fa) - (2.0 * ma + mb) * span
    c3 = 2.0 * (fa - fb) + (ma + mb) * span

    def _cubic_primitive(t):
        return span * t * (c0 + t * (c1_ / 2.0 + t * (c2 / 3.0 + t * c3 / 4.0)))

    H_a = a**q / q
    H_b = H_a + _cubic_primitive(1.0)

    def piecewise(low_fn, cubic_fn, high_fn):
        """Kernel that evaluates each branch only on the nodes where it is
        active: s <= 0 gives 0, (0, a] low_fn(s), [b, inf) high_fn(s), and
        everything else (the open blend interval, and NaN) cubic_fn(t) at
        t = (s - a) / span."""

        def kernel(s):
            s_arr = np.asarray(s, dtype=float)
            low = (s_arr > 0.0) & (s_arr <= a)
            high = s_arr >= b
            mid = ~((s_arr <= 0.0) | low | high)
            out = np.zeros_like(s_arr)
            out[low] = low_fn(s_arr[low])
            out[mid] = cubic_fn((s_arr[mid] - a) / span)
            out[high] = high_fn(s_arr[high])
            return float(out) if s_arr.ndim == 0 else out

        return kernel

    h = piecewise(
        lambda s: s ** (q - 1.0),
        lambda t: c0 + t * (c1_ + t * (c2 + t * c3)),
        lambda s: s ** (w - 1.0),
    )
    dh = piecewise(
        lambda s: (q - 1.0) * np.maximum(s, 1e-300) ** (q - 2.0),
        lambda t: (c1_ + t * (2.0 * c2 + 3.0 * t * c3)) / span,
        lambda s: (w - 1.0) * s ** (w - 2.0),
    )
    H = piecewise(
        lambda s: s**q / q,
        lambda t: H_a + _cubic_primitive(t),
        lambda s: H_b + (s**w - b**w) / w,
    )

    return Nonlinearity(
        h=h,
        H=H,
        s0=1.0,
        C=1.2,
        w=w,
        q=q,
        c1=1.0 / q,
        s1=a,
        name="reference",
        dh=dh,
    )


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
        self._disc = None

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
        if self._disc is None:
            self._disc = self._build()
        return self._disc

    def _build(self) -> dict:
        base = self.randers.base
        # exponentially graded grid, dr proportional to e^((d-1) kappa r / 2):
        # equalizes the cell-volume spread that otherwise makes the discrete
        # Hessian stiffness grow like the full volume factor, while placing
        # the finest cells where the weight alpha dV_F concentrates
        c = (self.dim - 1) * self.kappa / 2.0
        xi = np.linspace(0.0, 1.0, self.n_cells + 1)
        r = -np.log1p(xi * (math.exp(-c * self.r_max) - 1.0)) / c
        r[0], r[-1] = 0.0, self.r_max
        dr = np.diff(r)
        mid = 0.5 * (r[:-1] + r[1:])
        cumvol = cumulative_ball_volumes(base, r)
        shell_g = np.diff(cumvol)
        area_node = np.asarray(area_factor(base, r), dtype=float)
        trap = np.append(0.5 * dr, 0.0) + np.insert(0.5 * dr, 0, 0.0)
        alpha_node = np.asarray(self.alpha(r), dtype=float)
        jw = trap * alpha_node * (radial_density(self.randers, r) * area_node)
        return {
            "r": r,
            "dr": dr,
            "b_mid": np.asarray(self.randers.beta(mid), dtype=float),
            "vol_f": radial_density(self.randers, mid) * shell_g,
            "shell_g": shell_g,
            "trap_area_g": trap * area_node,
            "jw": jw,
            "alpha_l1": float(jw.sum()),
            "cumvol": cumvol,
        }

    def profile(self, values: np.ndarray) -> RadialProfile:
        return RadialProfile(grid=self.grid, values=np.asarray(values, float), ambient=self.randers)

    def to_dict(self) -> dict:
        nl = self.nonlinearity
        if nl.name != "reference":
            raise ValueError("only the reference nonlinearity is serializable")
        return {
            "randers": self.randers.to_dict(),
            "p": self.p,
            "lambda": self.lam,
            "alpha": self.alpha.to_dict(),
            "nonlinearity": {"name": nl.name, "params": {"w": nl.w, "q": nl.q}},
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
        return cls(
            randers=RandersStructure.from_dict(data["randers"]),
            p=p,
            lam=float(data.get("lambda", 0.0)),
            alpha=AlphaProfile.from_dict(data["alpha"]),
            nonlinearity=nl,
            n_cells=int(grid.get("n_cells", 2048)),
            r_max=float(grid["r_max"]) if "r_max" in grid else None,
        )


def _phi_terms(problem: PDEProblem, u: np.ndarray):
    """Per-cell slopes and co-norms F*(Du) of a profile, or of each row of
    a stack of profiles."""
    disc = problem.disc
    slopes = np.diff(u) / disc["dr"]
    return slopes, radial_conorm(disc["b_mid"], slopes)


def _dconorm(problem: PDEProblem, slopes: np.ndarray) -> np.ndarray:
    """dF*/dslope per cell: 1/(1+b) for rising, -1/(1-b) for falling data."""
    b = problem.disc["b_mid"]
    return np.where(slopes >= 0, 1.0 / (1.0 + b), -1.0 / (1.0 - b))


def energy(problem: PDEProblem, u) -> tuple:
    """(Phi, J, E_lambda) of a nodal profile on the problem grid."""
    u = np.asarray(u, dtype=float)
    disc = problem.disc
    if u.shape != disc["r"].shape:
        raise ValueError(f"profile must live on the {disc['r'].size}-node grid")
    _, conorms = _phi_terms(problem, u)
    phi = float(np.sum(conorms**problem.p * disc["vol_f"])) / problem.p
    j = float(np.sum(disc["jw"] * problem.nonlinearity.H(u)))
    return phi, j, phi - problem.lam * j


def energy_gradient(problem: PDEProblem, u) -> np.ndarray:
    """Exact gradient of the discretized energy; matches finite differences."""
    u = np.asarray(u, dtype=float)
    disc = problem.disc
    slopes, conorms = _phi_terms(problem, u)
    # a flat cell has a zero co-norm, so its flux is zero whatever the sign
    flux = conorms ** (problem.p - 1.0) * _dconorm(problem, slopes) * disc["vol_f"] / disc["dr"]
    grad = np.zeros_like(u)
    grad[:-1] -= flux
    grad[1:] += flux
    grad -= problem.lam * disc["jw"] * problem.nonlinearity.h(u)
    return grad


def _free_gradient(problem: PDEProblem, u: np.ndarray) -> np.ndarray:
    """energy_gradient on the free nodes: the Dirichlet rim is not an
    unknown, so its entry is 0."""
    g = energy_gradient(problem, u)
    g[-1] = 0.0
    return g


def finsler_ball_volume(problem: PDEProblem, radius_f: float) -> float:
    """Volume (dV_F) of the forward metric ball d_F(0, .) < radius_f."""
    disc = problem.disc
    tau = _forward_distance(problem)
    r_geo = float(np.interp(radius_f, tau, disc["r"]))
    cum = np.concatenate([[0.0], np.cumsum(disc["vol_f"])])
    return float(np.interp(r_geo, disc["r"], cum))


def _forward_distance(problem: PDEProblem) -> np.ndarray:
    """tau(r) = int_0^r (1 + b(s)) ds: the forward Finsler distance along
    the outward radial ray."""
    r = problem.disc["r"]
    rs, half, w = cell_nodes(r, 8)
    vals = 1.0 + np.asarray(problem.randers.beta(rs), dtype=float)
    return np.concatenate([[0.0], np.cumsum((half * w * vals).sum(axis=1))])


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
    tau = _forward_distance(problem)
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
    "A certified c_inf")."""
    p = problem.p
    disc = problem.disc
    x = disc["r"] / disc["r"][-1]
    seeds = [
        (1.0 - x) ** k for k in (0.5, 1.0, 2.0, 4.0)
    ] + [np.exp(-((x / s) ** 2)) - math.exp(-1.0 / s**2) for s in (0.1, 0.3, 0.6)]
    seeds += [np.clip(1.0 - x / f, 0.0, 1.0) for f in (0.05, 0.15, 0.4)]

    powers = BatchPowers(disc["dr"], disc["shell_g"], disc["trap_area_g"], p)

    def quotient(u):
        return [float(sup) / float(w) ** (1.0 / p) for sup, w in zip(u.max(axis=1), powers(u))]

    def ascent(u):
        return sup_log_gradient(u) - powers.log_gradient(u)

    _, values = seeded_line_search(
        np.array(seeds), quotient, ascent, retract=lambda u: u, grow=1.5, max_iter=max_iter - 1,
        improves=lambda new, old: new > old * (1.0 + 1e-12),
    )
    return 1.1 * max([0.0] + values)


@dataclass(frozen=True)
class BonannoParameters:
    """Sub-level threshold and interval endpoint of the three-solution setup."""

    rho0: float
    a_bar: float
    interval_end: float
    phi_u1: float
    j_u1: float
    sup_bound_at_rho0: float
    sup_measured_at_rho0: float
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


def sup_j_under_phi_level(problem: PDEProblem, rho: float, max_iter: int = 120) -> float:
    """Projected ascent estimate of sup {J(u) : Phi(u) <= rho}.

    Seeds are rescaled onto the sub-level set (Phi is p-homogeneous, so the
    projection is an exact amplitude scaling) and then pushed up the J
    gradient with backtracking.
    """
    disc = problem.disc
    p = problem.p
    x = disc["r"] / disc["r"][-1]
    seeds = [
        (1.0 - x) ** k for k in (0.5, 1.0, 2.0)
    ] + [np.clip(1.0 - x / f, 0.0, 1.0) for f in (0.1, 0.3, 0.6)]
    seeds += [np.exp(-((x / s) ** 2)) - math.exp(-1.0 / s**2) for s in (0.2, 0.5)]

    # every function below acts on a stack of profiles, one per row
    def project(u):
        _, conorms = _phi_terms(problem, u)
        for i, phi_p in enumerate(np.sum(conorms**p * disc["vol_f"], axis=1)):
            phi = float(phi_p) / p
            if phi > rho:
                u[i] = u[i] * (rho / phi) ** (1.0 / p) * (1.0 - 1e-12)
        return u

    def j_values(u):
        return [float(j) for j in np.sum(disc["jw"] * problem.nonlinearity.H(u), axis=1)]

    def ascent(u):
        return disc["jw"] * problem.nonlinearity.h(u)

    _, values = seeded_line_search(
        np.array(seeds), j_values, ascent, retract=project, grow=1.5, max_iter=max_iter,
        improves=lambda new, old: new > old * (1.0 + 1e-12) + 1e-300,
    )
    return max([0.0] + values)


def bonanno_parameters(
    problem: PDEProblem,
    s0: float,
    big_r: float,
    small_r: float,
    rho_sweep: Optional[Sequence[float]] = None,
) -> BonannoParameters:
    """Sweep rho and pick rho0 so that the two strict inequalities

        rho0 < Phi(u1),    sup {J : Phi <= rho0} < rho0 J(u1)/Phi(u1)

    hold with the supremum replaced by the estimate

        sup {J : Phi <= rho} <= C2 ||alpha||_L1 c_inf^q (p rho / c)^(q/p),

    which over-estimates it only if c_inf bounds ||u||_inf / ||u||_{W^{1,p}_g};
    c_infinity is an ascent estimate, not such a bound (see there).  Returns
    the interval endpoint a_bar = (1 + rho0) / (J(u1)/Phi(u1) - sup/rho0).
    """
    u1 = test_function(problem, s0, big_r, small_r)
    phi1, j1, _ = energy(problem, u1)
    if not j1 > 0:
        raise SweepFailure("the ramp profile has non-positive J; enlarge alpha or s0")
    nl = problem.nonlinearity
    c2 = max(nl.c1, nl.C * (1.0 + nl.s1 ** (nl.w - 1.0)) / nl.s1 ** (nl.q - 1.0))
    c_inf = c_infinity(problem)
    c_coerc = coercivity_constant(problem.dim, problem.randers.beta_sup, problem.p, problem.kappa)
    alpha_l1 = problem.disc["alpha_l1"]

    big_k = c2 * alpha_l1 * c_inf**nl.q * (problem.p / c_coerc) ** (nl.q / problem.p)

    def sup_bound(rho):
        return big_k * rho ** (nl.q / problem.p)

    ratio = j1 / phi1
    if rho_sweep is None:
        # sup_bound(rho)/rho = K rho^(q/p - 1) crosses ratio at rho_crit;
        # sweep below it so the inequality holds with a clean margin
        rho_crit = (ratio / big_k) ** (problem.p / (nl.q - problem.p))
        hi = min(rho_crit, 0.999 * phi1)
        rho_sweep = hi * np.geomspace(1e-8, 0.999, 60)
    best = None
    for rho in np.asarray(rho_sweep, dtype=float):
        if not 0 < rho < phi1:
            continue
        sb = sup_bound(rho)
        # factor-2 margin keeps a_bar well conditioned while both strict
        # inequalities hold with room to spare
        if sb <= 0.5 * rho * ratio and (best is None or rho > best):
            best = rho
    if best is None:
        raise SweepFailure(
            "no rho satisfied the strict inequalities; enlarge the sweep grid"
        )
    rho0 = best
    a_bar = (1.0 + rho0) / (ratio - sup_bound(rho0) / rho0)
    return BonannoParameters(
        rho0=rho0,
        a_bar=a_bar,
        interval_end=a_bar,
        phi_u1=phi1,
        j_u1=j1,
        sup_bound_at_rho0=sup_bound(rho0),
        sup_measured_at_rho0=sup_j_under_phi_level(problem, rho0),
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
    distinct: np.ndarray
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


def _hessian_bands(problem, u, flat_floor: bool = True):
    """Pieces of the tridiagonal energy Hessian.

    Returns (diag_phi, off, diag_react): the gradient-energy part
    contributes, per cell, the positive weight
    (p-1) conorm^(p-2) (dphi/ds)^2 vol_f / dr^2 on the 2x2 block of its two
    nodes (positive semidefinite by construction); the reaction part is the
    diagonal -lambda jw h'(u), of either sign.  flat_floor keeps the p > 2
    degenerate weights at flat cells bounded away from zero, which the
    globalized descent wants; the root-polish phase passes False to get the
    honest Jacobian of the gradient.
    """
    disc = problem.disc
    p = problem.p
    slopes, conorms = _phi_terms(problem, u)
    dphi = _dconorm(problem, slopes)
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
    nl = problem.nonlinearity
    if nl.dh is not None:
        hprime = np.asarray(nl.dh(u), dtype=float)
    else:
        eps = 1e-7 * max(1.0, float(np.max(np.abs(u))))
        hprime = (np.asarray(nl.h(u + eps)) - np.asarray(nl.h(u - eps))) / (2.0 * eps)
    diag_react = -problem.lam * disc["jw"] * hprime
    return diag_phi, off, diag_react


def _solve_tridiag(diag, off, rhs):
    """Solve the tridiagonal system on the free nodes 0 .. n-2 and return
    it with a zero rim entry: the Dirichlet node n-1 is not an unknown, so
    its row and column (and the coupling off[-1] into row n-2) drop out.

    Returns None when solve_banded finds the system singular or malformed
    (LinAlgError, ValueError) or the solution is not finite, so the caller
    moves on to its next tier; any other error propagates."""
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


# stagnation hand-off of _descend (see its docstring)
_STALL_WINDOW = 32
_STALL_RTOL = 4.0 * np.finfo(float).eps


def _descend(problem, u0, max_iter, tol_factor, on_step=None):
    """Projected Newton-type descent on the discrete energy.

    Each iteration tries, in order: the full tridiagonal Newton step, the
    positive-curvature Newton step (concave reaction curvature dropped,
    always positive definite), and a diagonally preconditioned gradient
    step; the first direction whose Armijo backtracking succeeds wins.
    Near a nondegenerate minimum the full step is accepted with alpha = 1
    and convergence is quadratic; in the nonconvex transit the fallback
    directions keep the energy strictly monotone.  Once the energy has
    fallen by no more than _STALL_RTOL |E| over the last _STALL_WINDOW
    accepted steps, the energy can no longer certify progress and the
    iterate is handed straight to the root polish.  Every linear solve
    leaves the Dirichlet rim out of the system.  A converged iterate below
    the zero-only level (see _zero_only_level) is reported as exactly
    u = 0, with E = 0 and ||grad E|| = 0.
    """
    u = np.maximum(np.asarray(u0, dtype=float).copy(), 0.0)
    u[-1] = 0.0
    _, _, e_val = energy(problem, u)
    g = _free_gradient(problem, u)
    converged = False
    recent = deque([e_val], maxlen=_STALL_WINDOW + 1)

    def try_direction(direction, halvings):
        """Backtracking Armijo step along direction; returns the accepted
        alpha or None, updating the iterate on success."""
        nonlocal u, e_val, g
        alpha = 1.0
        for _ in range(halvings):
            trial = np.maximum(u + alpha * direction, 0.0)
            _, _, e_trial = energy(problem, trial)
            decrease = float(g @ (u - trial))
            if e_trial <= e_val - 1e-4 * decrease + 1e-300 and e_trial <= e_val:
                u, e_val = trial, e_trial
                g = _free_gradient(problem, u)
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
        diag_phi, off, diag_react = _hessian_bands(problem, u)
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
        u, g_norm = _polish_root(problem, u, tol_factor)
    phi, _, e_val = energy(problem, u)
    converged = converged or g_norm <= tol_factor * (1.0 + abs(e_val))
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
    grid of (0, s1], as Nonlinearity reads its bounds.  For q > p these
    bound p Phi(v) from below; for q <= p they bound it from above, so no
    level is returned when lambda c_h > 0.  The level is certified when
    h(s) s <= c_h s^q holds on all of (0, s1], as it does (with c_h = 1)
    for the reference nonlinearity.
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


def _polish_root(problem, u, tol_factor):
    """Damped Newton iteration on grad E = 0 with the exact Jacobian, at
    most 120 steps.

    Steps are accepted on gradient-norm decrease, which is immune to the
    floating resolution of the energy, so this phase finishes critical
    points (minima or mountain-pass saddles alike) that the monotone
    energy descent can only approach.
    """
    u = u.copy()
    g = _free_gradient(problem, u)
    g_norm = float(np.linalg.norm(g))
    mass = problem.disc["trap_area_g"] + 1e-300
    tau = 0.0
    for _ in range(120):
        _, _, e_val = energy(problem, u)
        if g_norm <= tol_factor * (1.0 + abs(e_val)):
            break
        diag_phi, off, diag_react = _hessian_bands(problem, u, flat_floor=False)
        diag = diag_phi + diag_react
        stepped = False
        for _ in range(40):
            cand = _solve_tridiag(diag + tau * mass, off, -g)
            if cand is not None:
                alpha = 1.0
                for _ in range(25):
                    trial = np.maximum(u + alpha * cand, 0.0)
                    g_trial = _free_gradient(problem, trial)
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


def multi_start_solve(
    problem: PDEProblem,
    lambda_grid: Sequence[float],
    seeds: Optional[Sequence[np.ndarray]] = None,
    max_iter: int = 4000,
    tol_factor: float = 1e-8,
) -> list:
    """Deterministic multi-start descent on E_lambda for each lambda.

    Converged profiles are clustered by L^inf distance (threshold
    1e-4 s0) with the lowest-energy representative kept; the zero profile
    is always included since h(0) = 0 makes it critical.  A cluster opens
    only beyond the threshold of every earlier one, so all representatives
    are pairwise distinct.  Non-convergence of an individual start is
    recorded, not fatal.
    """
    s0 = problem.nonlinearity.s0
    if seeds is None:
        seeds = _default_seeds(problem, s0)
    if len(seeds) < 8:
        raise ValueError("multi-start needs at least 8 seeds")
    threshold = 1e-4 * s0
    reports = []
    rays = None
    for lam in lambda_grid:
        prob = replace_lambda(problem, float(lam))
        lam_seeds = list(seeds)
        if lam > 0:
            # starting below the zero level makes the descent provably end
            # at a nontrivial critical point whenever one exists on a ray
            if rays is None:
                rays = _RayTable(problem)
            e_wit, witness = rays.witness(prob.lam)
            if e_wit < -1e-12:
                lam_seeds.append(witness)
        results = []
        n_conv = 0
        for seed in lam_seeds:
            u, e_val, g_norm, converged = _descend(prob, seed, max_iter, tol_factor)
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
                distinct=~np.eye(len(clusters), dtype=bool),
                n_converged=n_conv,
                n_starts=len(lam_seeds),
            )
        )
    return reports


def _ray_terms(problem: PDEProblem, shape: np.ndarray, ts: Sequence[float]):
    """The lambda-free terms of E_lambda(t * shape) = Phi(t * shape) -
    lambda J(t * shape): the arrays of Phi(t * shape) = t^p Phi(shape) and
    of J(t * shape), one 1-D sum per t."""
    phi0, _, _ = energy(problem, shape)
    jw = problem.disc["jw"]
    js = [float(np.sum(jw * problem.nonlinearity.H(t * shape))) for t in ts]
    return np.asarray([t**problem.p for t in ts]) * phi0, np.asarray(js)


def energy_along_ray(problem: PDEProblem, shape: np.ndarray, ts: Sequence[float]):
    """E_lambda(t * shape) for t in ts, using Phi(t u) = t^p Phi(u)."""
    phis, js = _ray_terms(problem, np.asarray(shape, dtype=float), ts)
    return phis - problem.lam * js


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
    terms, built once as (shapes x ts) arrays; witness(lam) is then one
    array expression and one argmin."""

    ts = np.geomspace(1e-2, 64.0, 80)

    def __init__(self, problem: PDEProblem):
        self.shapes = _ray_shapes(problem)
        self.phis, self.js = map(np.array, zip(*(_ray_terms(problem, s, self.ts) for s in self.shapes)))

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
    """
    return _RayTable(problem).witness(problem.lam)


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
    """
    rays = _RayTable(problem)

    def found(lam: float) -> bool:
        e_best, _ = rays.witness(lam)
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
    """Copy of the problem at a different lambda (discretization reused)."""
    clone = replace(problem, lam=lam)
    clone._disc = problem._disc
    return clone


@dataclass(frozen=True)
class GridDoublingCheck:
    """Persistence of a critical point under doubled grid resolution."""

    gradient_norm: float
    drift: float  # sup distance between the refined point and the interpolant

    def stable(self) -> bool:
        """Gradient norm below 1e-6 and drift below 1e-2."""
        return self.gradient_norm < 1e-6 and self.drift < 1e-2


def grid_doubling_check(problem: PDEProblem, u) -> GridDoublingCheck:
    """Re-evaluate a critical point at doubled resolution.

    The interpolant of a coarse critical point carries an O(h^2) consistency
    residual amplified by the stiffest cells, so the raw interpolated
    gradient is not meaningful; instead the interpolant is refined into
    the nearby fine-grid critical point and the check reports the achieved
    gradient norm together with the sup-norm drift from the interpolant.
    """
    from scipy.interpolate import CubicSpline

    fine = replace(problem, n_cells=2 * problem.n_cells)
    u = np.asarray(u, dtype=float)
    if np.max(np.abs(u)) == 0.0:
        u_fine = np.zeros(fine.grid.size)
    else:
        # smooth prolongation: linear interpolation leaves a node-scale
        # sawtooth in the fine-grid residual that traps the root polish
        u_fine = np.maximum(CubicSpline(problem.grid, u)(fine.grid), 0.0)
        u_fine[-1] = 0.0
    # the root polish alone stalls on the interpolation residue of the
    # coarse outer cells; a short stretch of the semi-implicit flow damps
    # it, and the descent hands the iterate to the root polish once its
    # energy stalls
    u_ref, _, g_norm, _ = _descend(fine, u_fine, 200, 1e-9)
    drift = float(np.max(np.abs(u_ref - u_fine)))
    return GridDoublingCheck(gradient_norm=g_norm, drift=drift)
