"""Per-call costs of the seeded line searches and of the W^{1,p} row kernels.

    python3 scripts/bench_search.py

Run from anywhere; the package is imported from ``src/`` of this checkout.
Writes ``BENCH_search.json`` at the root of the checkout with the commit,
the machine, and, for each call below, the best-of-7 wall time and the
minor page faults (``ru_minflt``) of each of the 7 calls:

- ``c_infinity`` on the default ``pde`` problem at 1,025 and 2,049 nodes
  (1024 and 2048 cells);
- ``embedding_constant`` at the README ``embedding`` configuration
  (Poincare ball, d = 3, p = 2, q = 4, rho = 1, 128 cells);
- one ``W1pRows`` workspace built, then its ``power`` and
  ``log_gradient`` on the 10 seeds of ``c_infinity`` at 2,049 nodes (the
  ``w1p_rows_power_and_log_gradient`` row).

Every call is made once untimed first, so the problem's discretisation is
built before the timing starts.

The fault counts are those of calls in a fresh process, and understate
what a workload sees: a call made among other work faults more.  For
``c_infinity`` at 2,049 nodes, before the seeded search reused its
buffers, this script read 7,004 faults per call, while the same call read
31,384-31,792 inside the ``readme-tables`` sequence of perfbench.
"""

import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from benchinfo import commit, machine  # noqa: E402
from randerslab import pde, sobolev  # noqa: E402
from randerslab.modelspace import SpaceForm  # noqa: E402

REPEATS = 7


def _cost(fn):
    """Best wall time of REPEATS calls of fn, and each call's minor faults."""
    fn()
    best, faults = float("inf"), []
    for _ in range(REPEATS):
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
    return {"best_s": best, "minflt": faults}


def _c_infinity_seeds(problem):
    """The 10 seed rows of c_infinity (the stack its first objective sees)."""
    x = problem.disc["r"] / problem.disc["r"][-1]
    seeds = [(1.0 - x) ** k for k in (0.5, 1.0, 2.0, 4.0)]
    seeds += [np.exp(-((x / s) ** 2)) - math.exp(-1.0 / s**2) for s in (0.1, 0.3, 0.6)]
    seeds += [np.clip(1.0 - x / f, 0.0, 1.0) for f in (0.05, 0.15, 0.4)]
    u = np.maximum(np.array(seeds), 0.0)
    u[:, -1] = 0.0
    return u


def _pde_searches(n_cells):
    problem = pde.example_problem(n_cells=n_cells)
    return {"nodes": n_cells + 1, "c_infinity": _cost(lambda: pde.c_infinity(problem))}


def _row_kernels(n_cells):
    problem = pde.example_problem(n_cells=n_cells)
    disc = problem.disc
    weights = (disc["dr"], disc["shell_g"], disc["trap_area_g"], problem.p)
    u = _c_infinity_seeds(problem)

    def pair():
        rows = sobolev.W1pRows(*weights)
        rows.log_gradient(u, rows.power(u))

    return {"nodes": n_cells + 1, "rows": len(u), **_cost(pair)}


def _embedding():
    pair = sobolev.classify_pair(2.0, 4.0, 3)
    space = SpaceForm(3, -1.0)
    y = np.zeros(3)
    return {
        "space": "poincare", "dim": 3, "p": 2.0, "q": 4.0, "rho": 1.0, "cells": 128,
        **_cost(lambda: sobolev.embedding_constant(space, y, 1.0, pair, n_grid=128)),
    }


def main():
    result = {
        "commit": commit(),
        "machine": machine(),
        "repeats": REPEATS,
        "pde_searches": [_pde_searches(1024), _pde_searches(2048)],
        "embedding_constant": _embedding(),
        "w1p_rows_power_and_log_gradient": _row_kernels(2048),
    }
    path = ROOT / "BENCH_search.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(path)


if __name__ == "__main__":
    main()
