"""Quadrature, special functions and the seeded line search shared by
every other module.

Provides Gauss-Legendre rules, also laid on every cell of a radial grid, a
tanh-sinh integrator that reaches tol 1e-10 on endpoint singularities
(distance)^(-a) with a <= 0.45 (tol 1e-8 with a <= 1/2) and classifies
non-integrable ones as DIVERGENT instead of returning garbage, Gamma/Beta
evaluations accurate to better than 1e-12 relative on the argument range
the rest of the package uses, (0, 50), and one backtracking line search run
from many seeds at once.

Everything here is pure and deterministic: identical inputs give identical
outputs (including evaluation counts).
"""

from __future__ import annotations

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
    """Token marking an integral or norm that fails to converge."""

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
    an endpoint fit or the growth cap detected non-integrable growth.  The
    error estimate is unset in the divergent case; otherwise it is the
    difference of the last two tanh-sinh levels plus the spread of the
    endpoint power-law fits.  converged is False when the estimate is above
    tol (a DIVERGENT verdict counts as converged).
    """

    value: Union[float, Divergent]
    abs_error_estimate: Optional[float]
    evaluations: int
    converged: bool

    @property
    def divergent(self) -> bool:
        return is_divergent(self.value)


# tanh-sinh nodes t lie in [-_T_MAX, _T_MAX]; level 0 has step 1 and each of
# the _LEVELS further levels halves it, keeping every earlier node
_T_MAX = 4.5
_LEVELS = 8
# nearer an endpoint than this many ulp of max(|a|, |b|), a node's position
# rounds too coarsely for f to be read there
_FLOOR_ULPS = 1e3
_GROWTH_CAP = 1e12  # a larger level total is DIVERGENT


def adaptive_integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> IntegralResult:
    """Integrate f over (a, b) to absolute tolerance tol with one tanh-sinh
    rule (Takahasi & Mori, Publ. RIMS 9 (1974) 721-741).

    The nodes x = (a+b)/2 + (b-a)/2 tanh((pi/2) sinh t), t in [-4.5, 4.5],
    crowd both endpoints doubly exponentially, so endpoint singularities
    are allowed and no node touches a or b.  The step in t starts at 1 and
    is halved up to 8 times, until two successive levels agree to tol/10.
    A node nearer an endpoint than the floor, 1e3 ulp of max(|a|, |b|) or
    (b-a)/8 if less, takes the value of a power law C delta^(-alpha) in its
    distance delta, fitted from f at the floor and at twice and four times
    the floor.  A fitted alpha >= 0.999, or a total above _GROWTH_CAP, is
    DIVERGENT.

    Endpoint singularities (distance)^(-a) reach tol = 1e-10 for a <= 0.45
    and tol = 1e-8 for a <= 1/2, the true error included.  Beyond that the
    rounded positions of the nodes just above the floor leave an error the
    level difference does not see: at a = 0.7, tol 1e-8, the estimate 8e-10
    stands against a true 1.6e-8 with converged True; at a = 0.75, tol
    1e-10, the levels never agree to tol/10 (converged False, error 2e-8).

    Raises EvaluationError if f returns a non-finite value at a node, and
    ValueError for a malformed interval or tolerance.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"need finite a < b, got a={a}, b={b}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    evals = 0

    def values(xs):
        nonlocal evals
        ys = np.array([f(x) for x in xs], dtype=float)
        evals += xs.size
        if not np.isfinite(ys).all():
            raise EvaluationError(f"integrand returned a non-finite value inside ({a}, {b})")
        return ys

    # per endpoint a, b: the floor distance d0, f there, and the exponents
    # fitted on the distance pairs (d0, 2 d0) and (2 d0, 4 d0)
    floor = min(_FLOOR_ULPS * np.finfo(float).eps * max(abs(a), abs(b)), (b - a) / 8.0)
    fits = []
    spread = 0.0
    for end, inward in ((a, 1.0), (b, -1.0)):
        xs = end + inward * floor * np.array([1.0, 2.0, 4.0])
        d = np.abs(xs - end)  # exact distances of the rounded positions
        y = values(xs)
        alpha = np.zeros(2)
        if (y > 0).all() or (y < 0).all():
            alpha = np.log(y[:2] / y[1:]) / np.log(d[1:] / d[:2])
        if alpha.max() >= 0.999:  # growth at least as fast as 1/distance
            return IntegralResult(DIVERGENT, None, evals, True)
        fits.append((d[0], y[0], alpha[0]))
        # the two exponents disagree on the floor's share y0 d0 / (1 - alpha)
        spread += float(abs(y[0] * d[0] * (1.0 / (1.0 - alpha[0]) - 1.0 / (1.0 - alpha[1]))))
    d0, y0, alpha = (np.array(v) for v in zip(*fits))

    half = 0.5 * (b - a)
    weighted = 0.0  # sum of weight * f over the nodes of every level so far
    value = None
    for level in range(_LEVELS + 1):
        step = 2.0**-level
        j = np.arange(-int(_T_MAX / step), int(_T_MAX / step) + 1)
        t = step * j[j % 2 == 1] if level else step * j
        u = 0.5 * math.pi * np.sinh(np.abs(t))
        weight = half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        dist = half / (np.exp(u) * np.cosh(u))  # to a for t <= 0, to b for t > 0
        side = (t > 0).astype(int)
        ys = y0[side] * np.minimum(dist / d0[side], 1.0) ** -alpha[side]
        far = dist >= d0[side]
        ys[far] = values(np.where(side, b - dist, a + dist)[far])
        weighted += float(weight @ ys)
        value, previous = step * weighted, value
        if abs(value) > _GROWTH_CAP:
            return IntegralResult(DIVERGENT, None, evals, True)
        if previous is not None and abs(value - previous) <= 0.1 * tol:
            break
    error = abs(value - previous) + spread
    return IntegralResult(value, error, evals, error <= tol)


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


def _trial(u, g, step, rows, out=None) -> np.ndarray:
    """max(u + step G, 0) on `rows`, with the rim at 0, built in place in
    `out` (a fresh array if None) from a gathered copy of G: the same
    roundings as the plain expression."""
    trial = np.take(g, rows, axis=0, out=out, mode="clip")  # "clip": "raise" buffers out
    trial *= step[rows, None]
    trial += u if rows.size == len(u) else u[rows]
    np.maximum(trial, 0.0, out=trial)
    trial[:, -1] = 0.0
    return trial


def seeded_line_search(
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

    Every round builds its trial rows in one buffer allocated per search,
    and `retract` and `objective` get a view of it: they may write to it,
    but must not keep it past the call.
    """
    u = np.maximum(np.asarray(seeds, dtype=float), 0.0)
    u[:, -1] = 0.0
    u = retract(u[u.max(axis=1) > 0])
    f, state = objective(u)
    f, state = list(f), np.array(state)
    g = np.zeros_like(u)
    buffer = np.empty_like(u)  # the trial rows of every round
    step = np.ones(len(f))
    left = np.full(len(f), max_iter)  # iterations each row may still start
    active = np.ones(len(f), dtype=bool)
    fresh = np.ones(len(f), dtype=bool)  # the row needs a new direction
    while True:
        active &= (step > 1e-12) & ~(fresh & (left <= 0))
        turn = np.flatnonzero(active & fresh)
        if turn.size:
            g[turn] = direction(u[turn], state[turn])
            g[turn, -1] = 0.0
            left[turn] -= 1
            fresh[turn] = False
            if g_tol:
                # the row-wise norm sums in another order than the 1-d norm
                # of a one-seed search, which it meets to far better than
                # 1e-9 relative: only rows that near g_tol need the 1-d norm
                norms = np.linalg.norm(g[turn], axis=1)
                for k in np.flatnonzero(np.abs(norms - g_tol) <= 1e-9 * g_tol):
                    norms[k] = np.linalg.norm(g[turn[k]])
                active[turn] &= ~(norms < g_tol)
        rows = np.flatnonzero(active)
        if not rows.size:
            return u, f
        trial = _trial(u, g, step, rows, out=buffer[: rows.size])
        live = rows
        alive = trial.max(axis=1) > 0
        if not alive.all():  # a trial that clips to zero is no improvement
            live, trial = rows[alive], trial[alive]
        trial = retract(trial)
        f_trial, state_trial = objective(trial)
        better = np.array([improves(new, f[i]) for new, i in zip(f_trial, live.tolist())], dtype=bool)
        accepted = live[better]
        u[accepted] = trial[better]
        state[accepted] = np.asarray(state_trial)[better]
        fresh[accepted] = True
        for i, j in zip(accepted.tolist(), np.flatnonzero(better).tolist()):
            f[i] = f_trial[j]
        # every searching row had fresh False, so fresh now marks the accepted
        step[rows] *= np.where(fresh[rows], grow, 0.5)
