"""Quadrature, special functions and the seeded line search shared by
every other module.

Provides Gauss-Legendre rules, also laid on every cell of a radial grid, a
panel-adaptive integrator that classifies non-integrable endpoint
singularities as DIVERGENT instead of returning garbage, Gamma/Beta
evaluations accurate to better than 1e-12 relative on the argument range
the rest of the package uses, (0, 50), and one backtracking line search run
from many seeds at once.

Everything here is pure and deterministic: identical inputs give identical
outputs (including evaluation counts).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "DIVERGENT",
    "Divergent",
    "EvaluationError",
    "QuadratureRule",
    "IntegralResult",
    "gauss_legendre",
    "cell_nodes",
    "adaptive_integrate",
    "gamma_fn",
    "lgamma_fn",
    "beta_fn",
    "is_divergent",
    "seeded_line_search",
]


class Divergent:
    """Singleton token marking an integral or norm that fails to converge."""

    _instance: Optional["Divergent"] = None

    def __new__(cls) -> "Divergent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DIVERGENT"


DIVERGENT = Divergent()


def is_divergent(value) -> bool:
    return isinstance(value, Divergent)


class EvaluationError(RuntimeError):
    """The integrand returned a non-finite value at a quadrature node."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [-1, 1]; exact for polynomials of degree <= 2*order - 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def map_to(self, a: float, b: float):
        """Affinely mapped nodes and weights for integration over [a, b]."""
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * self.nodes, half * self.weights


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with `order` nodes on [-1, 1]."""
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    nodes, weights = np.polynomial.legendre.leggauss(int(order))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=int(order))


def cell_nodes(grid: np.ndarray, order: int):
    """The Gauss rule of `order` nodes on every cell of a 1-d grid.

    Returns the nodes, shape (cells, order), the half widths (cells, 1) and
    the rule weights (1, order): the integral of f over cell i is
    sum(half[i] * weights * f(nodes[i])).
    """
    rule = gauss_legendre(order)
    half = 0.5 * np.diff(grid)[:, None]
    mid = 0.5 * (grid[:-1] + grid[1:])[:, None]
    return mid + half * rule.nodes[None, :], half, rule.weights[None, :]


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of adaptive_integrate.

    value is a float when the integral is finite, the DIVERGENT token when
    the refinement detected non-integrable endpoint growth.  The error
    estimate is unset in the divergent case.  converged is False when the
    split budget ran out with the error estimate still above tol (a
    DIVERGENT verdict counts as converged).
    """

    value: Union[float, Divergent]
    abs_error_estimate: Optional[float]
    evaluations: int
    converged: bool

    @property
    def divergent(self) -> bool:
        return is_divergent(self.value)


# Panel estimates use an embedded low/high order pair; both rules have only
# interior nodes, so integrands may be singular at the panel endpoints.
_LO_ORDER = 7
_HI_ORDER = 15

# Endpoint-chain divergence rule: once a panel hugging one of the original
# endpoints has been split this many times, a contribution that has not
# shrunk by at least the ratio below over the trailing window is treated as
# evidence of a non-integrable singularity.  Integrable singularities
# (1-s)^(-a) with a <= 0.9 shrink per level by 2^(a-1) <= 0.93... but every
# exponent exercised by the package has a <= 0.75, i.e. ratio <= 0.85.
_CHAIN_MIN_SPLITS = 32
_CHAIN_WINDOW = 5
_CHAIN_SHRINK_RATIO = 0.90 ** _CHAIN_WINDOW

# split budget of adaptive_integrate; exhausting it leaves converged False
_MAX_SPLITS = 5000


def adaptive_integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    growth_cap: float = 1e12,
) -> IntegralResult:
    """Integrate f over (a, b) to absolute tolerance tol.

    Endpoint singularities are allowed: no node ever touches a or b.  When
    the running total blows past growth_cap, or the contribution of the
    panel chain hugging an endpoint stops shrinking under repeated halving,
    the integral is classified DIVERGENT.  At most 5000 panels are split.
    Endpoint singularities (distance)^(-a) reach tol = 1e-10 for
    a <= 0.35 and tol = 1e-8 for a <= 0.45, the true error included.  Beyond that the error estimate is
    not reliable: int_0^1 (1-s)^(-a) ds has true error 1.6e-10 at a = 0.4,
    tol 1e-10, and 1.3e-8 at a = 1/2, tol 1e-8, both with converged True;
    at a = 0.75 the split budget runs out (converged False, error 2e-4).

    Raises EvaluationError if f returns a non-finite value at an interior
    node, and ValueError for a malformed interval or tolerance.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"need finite a < b, got a={a}, b={b}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    lo_rule = gauss_legendre(_LO_ORDER)
    hi_rule = gauss_legendre(_HI_ORDER)
    evals = 0

    def estimate(lo: float, hi: float):
        nonlocal evals
        xs_lo, ws_lo = lo_rule.map_to(lo, hi)
        xs_hi, ws_hi = hi_rule.map_to(lo, hi)
        ys_lo = np.array([f(x) for x in xs_lo], dtype=float)
        ys_hi = np.array([f(x) for x in xs_hi], dtype=float)
        evals += xs_lo.size + xs_hi.size
        if not (np.isfinite(ys_lo).all() and np.isfinite(ys_hi).all()):
            raise EvaluationError(
                f"integrand returned a non-finite value inside ({lo}, {hi})"
            )
        i_lo = float(ws_lo @ ys_lo)
        i_hi = float(ws_hi @ ys_hi)
        return i_hi, abs(i_hi - i_lo)

    sub_rule = gauss_legendre(31)

    def freeze_endpoint(lo: float, hi: float, side: int):
        # Final estimate for an unsplittable panel glued to an original
        # endpoint: the substitution s = endpoint -/+ t^2 regularizes the
        # algebraic singularities (distance)^(-alpha), alpha <= 1/2, that the
        # package integrates.  Nodes with t^2 below a few ulp of the endpoint
        # cannot be represented as distinct abscissae; their transformed
        # integrand values are extrapolated from the nearest clean nodes
        # instead of being read off the rounding plateau.
        nonlocal evals
        endpoint = lo if side == 1 else hi
        ts, ws = sub_rule.map_to(0.0, math.sqrt(hi - lo))
        clean = ts**2 >= 4.0 * np.finfo(float).eps * max(1.0, abs(endpoint))
        if side == 1:
            xs = lo + ts[clean] ** 2
        else:
            xs = hi - ts[clean] ** 2
        ys = np.array([f(x) for x in xs], dtype=float)
        evals += xs.size
        if not np.isfinite(ys).all():
            raise EvaluationError(
                f"integrand returned a non-finite value inside ({lo}, {hi})"
            )
        g = np.empty_like(ts)
        g[clean] = 2.0 * ts[clean] * ys
        if not clean.all():
            t_fit = ts[clean][:3]
            g_fit = g[clean][:3]
            coeffs = np.polyfit(t_fit, g_fit, deg=2)
            g[~clean] = np.polyval(coeffs, ts[~clean])
        return float(ws @ g)

    # Heap entries: (-err, seq, lo, hi, value, err, touch) where touch flags
    # which original endpoints the panel is glued to (bit 1: a, bit 2: b).
    value0, err0 = estimate(a, b)
    seq = 0
    heap = [(-err0, seq, a, b, value0, err0, 3)]
    frozen_value = 0.0
    frozen_err = 0.0
    chains = {1: [], 2: []}

    splits = 0
    while heap and splits < _MAX_SPLITS:
        live_err = frozen_err + sum(item[5] for item in heap)
        if live_err <= tol:
            break
        neg_err, _, lo, hi, val, err, touch = heapq.heappop(heap)
        width = hi - lo
        scale = max(1.0, abs(lo), abs(hi))
        # Below ~128 ulp the mapped Gauss nodes of a child panel start to
        # round onto the panel endpoints, where singular integrands blow up.
        if width <= 128 * np.finfo(float).eps * scale:
            # Cannot subdivide further in double precision; freeze.
            if touch in (1, 2):
                better = freeze_endpoint(lo, hi, touch)
                frozen_value += better
                frozen_err += 0.1 * abs(better - val)
            else:
                frozen_value += val
                frozen_err += err
            continue
        mid = 0.5 * (lo + hi)
        v_l, e_l = estimate(lo, mid)
        v_r, e_r = estimate(mid, hi)
        splits += 1
        seq += 2
        heapq.heappush(heap, (-e_l, seq - 1, lo, mid, v_l, e_l, touch & 1))
        heapq.heappush(heap, (-e_r, seq, mid, hi, v_r, e_r, touch & 2))

        for side, child in ((1, v_l), (2, v_r)):
            if touch & side:
                chain = chains[side]
                chain.append(abs(child))
                if (
                    len(chain) >= _CHAIN_MIN_SPLITS
                    and chain[-1] > tol
                    and chain[-1] >= _CHAIN_SHRINK_RATIO * chain[-1 - _CHAIN_WINDOW]
                ):
                    return IntegralResult(DIVERGENT, None, evals, True)

        total = frozen_value + sum(item[4] for item in heap)
        if abs(total) > growth_cap:
            return IntegralResult(DIVERGENT, None, evals, True)

    total = frozen_value + sum(item[4] for item in heap)
    total_err = frozen_err + sum(item[5] for item in heap)
    return IntegralResult(total, total_err, evals, total_err <= tol)


# Lanczos approximation, g = 7 with 9 coefficients: relative accuracy well
# below 1e-12 over the positive real range used here.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-06,
    1.5056327351493116e-07,
)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_series(z: float) -> float:
    x = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        x += c / (z + i)
    return x


def gamma_fn(z: float) -> float:
    """Gamma function for real z > 0 (Lanczos)."""
    z = float(z)
    if not z > 0:
        raise ValueError(f"gamma_fn requires z > 0, got {z}")
    if z < 0.5:
        return gamma_fn(z + 1.0) / z
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * math.exp(-t) * _lanczos_series(zz)


def lgamma_fn(z: float) -> float:
    """log Gamma for real z > 0, from the same Lanczos series."""
    z = float(z)
    if not z > 0:
        raise ValueError(f"lgamma_fn requires z > 0, got {z}")
    if z < 0.5:
        return lgamma_fn(z + 1.0) - math.log(z)
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zz + 0.5) * math.log(t) - t + math.log(_lanczos_series(zz))


def beta_fn(x: float, y: float) -> Union[float, Divergent]:
    """Euler Beta B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x > 0.

    Returns DIVERGENT for y <= 0, where the defining integral
    int_0^1 s^(x-1) (1-s)^(y-1) ds diverges at s = 1.
    """
    x = float(x)
    y = float(y)
    if not x > 0:
        raise ValueError(f"beta_fn requires x > 0, got {x}")
    if y <= 0:
        return DIVERGENT
    return math.exp(lgamma_fn(x) + lgamma_fn(y) - lgamma_fn(x + y))


def seeded_line_search(
    seeds, objective, direction, retract, improves, grow: float, max_iter: int, g_tol: float = 0.0
):
    """Backtracking search from every seed (row of `seeds`) at once.

    Rows are clipped at zero with the last node (the Dirichlet rim) at 0;
    rows that vanish are dropped, `retract` maps the rest onto the start
    set.  Each row then searches exactly as it would alone: up to max_iter
    times, take G = direction(u) with its rim entry zeroed, since the rim
    is not an unknown (stop if ||G|| < g_tol), and halve the row's
    step until retract(clip(u + step G)) improves on u (accept, step *=
    grow) or step <= 1e-12 (stop); a trial that clips to zero is no
    improvement.  The callbacks act on stacks of rows; objective gives one
    Python float per row, so each accept test sees the scalars of a
    one-seed search.  Returns the rows and their objective values.
    """
    u = np.maximum(np.asarray(seeds, dtype=float), 0.0)
    u[:, -1] = 0.0
    u = retract(u[u.max(axis=1) > 0])
    f = list(objective(u))
    g = np.zeros_like(u)
    step = np.ones(len(f))
    left = np.full(len(f), max_iter)  # iterations each row may still start
    active = np.ones(len(f), dtype=bool)
    fresh = np.ones(len(f), dtype=bool)  # the row needs a new direction
    while True:
        active &= (step > 1e-12) & ~(fresh & (left <= 0))
        turn = np.flatnonzero(active & fresh)
        if turn.size:
            g[turn] = direction(u[turn])
            g[:, -1] = 0.0
            left[turn] -= 1
            fresh[turn] = False
            if g_tol:
                active[turn] &= [not np.linalg.norm(g[i]) < g_tol for i in turn]
        rows = np.flatnonzero(active)
        if not rows.size:
            return u, f
        trial = np.maximum(u[rows] + step[rows, None] * g[rows], 0.0)
        trial[:, -1] = 0.0
        alive = trial.max(axis=1) > 0
        trial = retract(trial[alive])
        f_trial = objective(trial)
        for i, ok, j in zip(rows, alive, np.cumsum(alive) - 1):
            if ok and improves(f_trial[j], f[i]):
                u[i], f[i], fresh[i] = trial[j], f_trial[j], True
                step[i] *= grow
            else:
                step[i] *= 0.5
