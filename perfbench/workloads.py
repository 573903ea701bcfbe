"""The benchmark's workloads: inputs drawn from a seed, operations run through
the public API of randerslab, and the checks that decide whether an
operation's output is correct.

Seed 0 is exactly the base configuration of each workload.  Any other seed
draws the continuous inputs from ``numpy.random.default_rng(seed)`` within
the ranges documented next to each draw (within +-2 % of the base, or
+-0.01 in geodesic distance for chart radii of the Poincare ball, so that
the amount of work stays close to the base).  The program
only ever receives the generated inputs.

``scale="small"`` gives a reduced seed-0 configuration for the harness
self-test; it is not used by timed runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from randerslab import cli, orbits, pde

WORKLOADS = ("pde-solve", "orbit-packing", "readme-tables")

# relative tolerances of the seed-0 reference check, by field name; a field
# not listed here must match exactly
TOLERANCES = {
    "distance": 1e-12,
    "normalized": 1e-12,
    "lambda": 1e-10,
    "energy": 1e-10,
    "sup_norm": 1e-6,
    "length": 1e-12,
    "y_norm": 1e-12,
    "measure": 1e-12,
    "lower_bound": 1e-12,
    "m_g": 1e-12,
    "r": 1e-12,
    "u": 1e-9,
    "u_star": 1e-9,
    "t": 1e-12,
    "w_bound": 1e-9,
    "lq_norm": 1e-9,
    "y_radius": 1e-12,
    "estimate": 1e-6,
    "a_bar": 1e-10,
    "rho0": 1e-10,
}

# rows kept for the reference check of long tables (every k-th row)
_MAX_ROWS = 32


@dataclass
class Op:
    """One user-visible operation of a workload."""

    name: str
    run: Callable[[], object]
    # problems that make the output wrong at any seed
    invariants: Callable[[object], list]
    # values compared with the seed-0 reference
    observe: Callable[[object], dict]
    # operations that depend on this one's output (run right after it)
    follow: Optional[Callable[[object], list]] = field(default=None)


def _plain(value):
    """JSON-safe form of a table cell, as the CLI would print it."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, str):
        return value
    return str(value)  # the DIVERGENT token


def compare(observed, reference, key: str = "") -> list:
    """Differences between an observation and its reference, as messages."""
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or set(observed) != set(reference):
            return [f"{key}: fields {sorted(observed) if isinstance(observed, dict) else observed} "
                    f"differ from {sorted(reference)}"]
        out = []
        for k in sorted(reference):
            out += compare(observed[k], reference[k], k)
        return out
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            return [f"{key}: length differs from reference ({len(reference)})"]
        out = []
        for o, r in zip(observed, reference):
            out += compare(o, r, key)
        return out
    tol = TOLERANCES.get(key)
    if (
        tol is not None
        and isinstance(reference, float)
        and isinstance(observed, float)
        and not isinstance(observed, bool)
    ):
        if abs(observed - reference) <= tol * abs(reference):
            return []
        return [f"{key}: {observed!r} differs from {reference!r} by more than {tol:g} relative"]
    if observed == reference and type(observed) is type(reference):
        return []
    return [f"{key}: {observed!r} != reference {reference!r}"]


# -- CLI operations -------------------------------------------------------------


def _cli_op(name: str, subcommand: str, params: dict, columns=None, follow=None) -> Op:
    """Run one CLI subcommand and render its table, as `randerslab` does."""
    config = cli.RunConfig(subcommand=subcommand, params=dict(params))

    def run():
        result = cli.run(config)
        result.render_csv()
        return result

    def invariants(result):
        return [f"check {k} is false" for k, ok in sorted(result.checks.items()) if not ok]

    def observe(result):
        cols = columns or result.columns
        rows = result.rows
        if len(rows) > _MAX_ROWS:
            rows = rows[:: math.ceil(len(rows) / _MAX_ROWS)]
        return {
            "checks": {k: bool(v) for k, v in sorted(result.checks.items())},
            "rows": [{c: _plain(row[c]) for c in cols} for row in rows],
        }

    return Op(name, run, invariants, observe, follow)


def _range(a: float, b: float, tail: str) -> str:
    return f"{a!r}:{b!r}:{tail}"


def _list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _near_rim(rng, chart_radii, width: float = 0.01) -> list:
    """Chart radii of the unit Poincare ball moved by one common geodesic
    offset drawn from [-width, width] (distance is 2 artanh r)."""
    if rng is None:
        return list(chart_radii)
    shift = rng.uniform(-width, width)
    return [math.tanh(math.atanh(r) + 0.5 * shift) for r in chart_radii]


def _scale(rng, value: float, width: float = 0.01) -> float:
    """value * (1 + e), e drawn from [-width, width]; the value itself at seed 0."""
    if rng is None:
        return value
    return value * (1.0 + rng.uniform(-width, width))


# -- pde-solve --------------------------------------------------------------------


def _pde_solve(_rng, small: bool) -> list:
    # The inputs do not depend on the seed.  The descent's work is chaotic in
    # beta_a and alpha_rate: draws within +-2 % (and within +-0.1 %) of the
    # base took 35k to 61k energy evaluations and 7.5 s to 16 s, a spread
    # across seeds wider than any bound the benchmark could keep.  Drawn PDE
    # inputs are exercised by the Bonanno sweep of readme-tables instead.
    beta_a, alpha_rate = 0.2, 0.75
    cells = 192 if small else 1024
    params = {"cells": cells, "beta_a": beta_a, "alpha_rate": alpha_rate}

    def doubling_ops(result):
        problem = pde.example_problem(beta_sup=beta_a, alpha_rate=alpha_rate, n_cells=cells)
        ops = []
        for row in result.rows:
            if row["sup_norm"] == 0.0:
                continue
            key = f"lambda{row['lambda']:.6g}_sol{row['solution']}.csv"
            body = result.extra_files[key].splitlines()[1:]
            values = np.array([float(line.split(",")[1]) for line in body])
            ops.append(_doubling_op(f"grid_doubling.{key[:-4]}", problem, row["lambda"], values))
        return ops

    op = _cli_op(
        "pde",
        "pde",
        params,
        columns=["lambda", "solution", "energy", "sup_norm", "distinct_total"],
        follow=doubling_ops,
    )
    base_invariants = op.invariants

    def invariants(result):
        out = base_invariants(result)
        for row in result.rows:
            if not row["gradient_norm"] <= 1e-8 * (1.0 + abs(row["energy"])):
                out.append(f"gradient criterion fails at lambda={row['lambda']}")
        if not any(row["sup_norm"] > 0 for row in result.rows):
            out.append("no nontrivial critical point")
        return out

    op.invariants = invariants
    return [op]


def _doubling_op(name, problem, lam, values) -> Op:
    def run():
        return pde.grid_doubling_check(pde.replace_lambda(problem, lam), values)

    def invariants(check):
        return [] if check.stable() else [f"grid doubling unstable: {check}"]

    return Op(name, run, invariants, lambda check: {"stable": bool(check.stable())})


# -- orbit-packing ------------------------------------------------------------------


def _matrix_op(name: str, lam: float, rho: float) -> Op:
    action = orbits.GroupAction(orbits.MATRIX_CONJUGATION)

    def run():
        return orbits.packing_count(action, None, orbits.MatrixPoint.diagonal(lam), rho)

    def invariants(report):
        out = []
        if report.count < 1 or report.count != len(report.centers):
            out.append(f"count {report.count} does not match {len(report.centers)} centres")
        if not report.min_pairwise_distance >= 2.0 * rho - 1e-12:
            out.append(f"certificate: min distance {report.min_pairwise_distance} < 2 rho")
        return out

    return Op(name, run, invariants, lambda r: {"count": int(r.count), "method": r.method})


def _orbit_packing(rng, small: bool) -> list:
    # chart radii: common geodesic offset in [-0.0025, 0.0025]; Euclidean
    # radii, product radii and matrix lambdas: each scaled by
    # 1 + [-0.0025, 0.0025].  The ranges are narrow because the largest
    # product packing sets the peak memory (its Gram block grows with the
    # square of the count, and the count with the cube of the radius).
    w = 0.0025
    cols = ["distance", "count", "method"]
    if small:
        return [
            _cli_op("expansion.poincare3", "expansion",
                    {"space": "poincare", "dim": 3, "radii": "0.5,0.55"}, cols),
            _cli_op("expansion.euclid3", "expansion",
                    {"space": "euclid", "dim": 3, "radii": "3"}, cols),
            _cli_op("expansion.product", "expansion",
                    {"action": "product", "blocks": "2,3", "rho": 2.0, "radii": "5:8:2:lin"}, cols),
            _matrix_op("matrix.diag10", 10.0, 0.5),
        ]
    hyp = _near_rim(rng, [0.75, 0.8, 0.85], w)
    euc = [_scale(rng, r, w) for r in (5.0, 10.0)]
    lo, hi = _scale(rng, 5.0, w), _scale(rng, 20.0, w)
    return [
        _cli_op("expansion.poincare3", "expansion",
                {"space": "poincare", "dim": 3, "radii": _list(hyp)}, cols),
        _cli_op("expansion.euclid3", "expansion",
                {"space": "euclid", "dim": 3, "radii": _list(euc)}, cols),
        _cli_op("expansion.product", "expansion",
                {"action": "product", "blocks": "2,3", "rho": 2.0,
                 "radii": _range(lo, hi, "4:lin")}, cols),
        _matrix_op("matrix.diag10", _scale(rng, 10.0, w), 0.5),
        _matrix_op("matrix.diag100", _scale(rng, 100.0, w), 0.5),
    ]


# -- readme-tables ---------------------------------------------------------------------


def _readme_tables(rng, small: bool) -> list:
    # packing radii ends, lambda-grid end, rearrange radius and the embedding
    # y-radii end: each scaled by 1 + [-0.01, 0.01]; Poincare chart radii:
    # common geodesic offset in [-0.01, 0.01]
    if small:
        pack = "10.0:100.0:3:log"
        hyp = "0.9,0.99"
        lam_grid = "1.0:1000.0:5:log"
        samples, cells, funk_dim = 10, 256, "2,3"
        y_radii, grid, n_cells = "0.0:0.4:2:lin", 64, 256
        radius = 1.0
    else:
        pack = _range(_scale(rng, 10.0), _scale(rng, 1000.0), "log")
        hyp = _list(_near_rim(rng, [0.9, 0.99, 0.999]))
        lam_grid = _range(1.0, _scale(rng, 1e6), "25:log")
        samples, cells, funk_dim = 100, 2048, "2,3,4"
        y_radii, grid, n_cells = _range(0.0, _scale(rng, 0.8), "5:lin"), 128, 2048
        radius = _scale(rng, 1.0)
    ops = [
        _cli_op("packing", "packing",
                {"space": "euclid", "dim": 2, "rho": 1.0, "radii": pack}),
        _cli_op("expansion.poincare2", "expansion",
                {"space": "poincare", "dim": 2, "rho": 1.0, "radii": hyp}),
        _cli_op("hausdorff.matrix", "hausdorff",
                {"example": "matrix", "lambda_grid": lam_grid}),
        _cli_op("hausdorff.product", "hausdorff",
                {"example": "product", "samples": samples}),
        _cli_op("rearrange", "rearrange",
                {"space": "poincare", "dim": 2, "shape": "tent", "radius": radius,
                 "cells": cells}),
        _cli_op("funk", "funk", {"dim": funk_dim, "p": "1.5,2", "q": "2.5,4"}),
        _cli_op("embedding", "embedding",
                {"space": "poincare", "dim": 3, "p": 2.0, "q": "4", "y_radii": y_radii,
                 "grid": grid}),
    ]

    # beta_a in 0.2 * [0.98, 1.02], alpha_rate in 0.75 * [0.98, 1.02]
    beta_a, alpha_rate = _scale(rng, 0.2, 0.02), _scale(rng, 0.75, 0.02)

    def run_bonanno():
        problem = pde.example_problem(beta_sup=beta_a, alpha_rate=alpha_rate, n_cells=n_cells)
        return pde.bonanno_parameters(problem, 1.0, 1.5, 0.5)

    def bonanno_invariants(bp):
        out = []
        if not bp.hypotheses_hold:
            out.append("Bonanno inequalities fail")
        if not bp.a_bar > 0:
            out.append(f"interval end {bp.a_bar} is not positive")
        return out

    def bonanno_observe(bp):
        return {"a_bar": float(bp.a_bar), "rho0": float(bp.rho0),
                "hypotheses_hold": bool(bp.hypotheses_hold)}

    ops.append(Op("bonanno", run_bonanno, bonanno_invariants, bonanno_observe))
    return ops


_BUILDERS = {
    "pde-solve": _pde_solve,
    "orbit-packing": _orbit_packing,
    "readme-tables": _readme_tables,
}


def build(workload: str, seed: int, scale: str = "full") -> list:
    """The operations of one pass over a workload, with inputs drawn from seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = None if seed == 0 else np.random.default_rng(seed)
    return _BUILDERS[workload](rng, scale == "small")
