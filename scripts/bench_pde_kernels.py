"""Per-call costs of the PDE kernels and of one multi-start.

    python3 scripts/bench_pde_kernels.py

Run from anywhere; the package is imported from ``src/`` of this checkout.
Writes ``BENCH_pde_kernels.json`` at the root of the checkout with the
commit, the machine, and, at 1,025 and 2,049 nodes (1024 and 2048 cells,
lambda = 2.5), the best-of-7 cost per call of

- ``energy``, ``energy_gradient`` and ``gradient_and_bands`` (one
  ``_gradients_and_bands`` evaluation) on one row and on a 14-row stack
  (the 14 starts of one lambda: the default seeds and the ray witness);
- ``_solve_tridiag`` on one row, and on the 14 rows one call after
  another (it solves one row per call);
- ``first_call_us``: a fresh ``example_problem``, then one ``energy_gradient``
  and one ``test_function`` call, which build the problem's discretisation;

and the wall time of one ``multi_start_solve`` at 1024 cells over
lambda in {0, 2 lambda_t}, lambda_t the transition lambda.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from benchinfo import commit, machine  # noqa: E402
from randerslab import pde  # noqa: E402

REPEATS = 7
LAM = 2.5


def _best_per_call(fn, calls):
    """Best of REPEATS timings of `calls` calls of fn, in microseconds per call."""
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls * 1e6


def _kernels(problem):
    """name -> (one-row call, stack call) of the three kernels."""
    one_row = {
        "energy": lambda u: pde.energy(problem, u),
        "energy_gradient": lambda u: pde.energy_gradient(problem, u),
        "gradient_and_bands": lambda u: pde._gradients_and_bands(problem, u[None], [True]),
    }
    stacked = {
        "energy": lambda s: pde._energies(problem, s),
        "energy_gradient": lambda s: pde._gradients(problem, s),
        "gradient_and_bands": lambda s: pde._gradients_and_bands(problem, s, [True] * len(s)),
    }
    return {name: (one_row[name], stacked[name]) for name in one_row}


def _at(n_cells):
    problem = pde.replace_lambda(pde.example_problem(n_cells=n_cells), LAM)
    stack = np.array(pde._default_seeds(problem, 1.0) + [problem.rays.witness(LAM)[1]])
    row = stack[2]
    out = {"nodes": int(row.size), "rows": len(stack)}
    for name, (one, many) in _kernels(problem).items():
        out[name] = {
            "one_row_us": _best_per_call(lambda: one(row), 200),
            "stack_us": _best_per_call(lambda: many(stack), 20),
        }
    grads, diag_phi, off, diag_react = pde._gradients_and_bands(problem, stack, [True] * len(stack))
    systems = list(zip(diag_phi + diag_react, off, -grads))
    out["_solve_tridiag"] = {
        "one_row_us": _best_per_call(lambda: pde._solve_tridiag(*systems[2]), 200),
        "stack_us": _best_per_call(lambda: [pde._solve_tridiag(*s) for s in systems], 20),
    }
    out["first_call_us"] = _best_per_call(lambda: _first_call(n_cells), 1)
    return out


def _first_call(n_cells):
    """A fresh problem's first energy_gradient and test_function calls."""
    problem = pde.example_problem(n_cells=n_cells)
    pde.energy_gradient(problem, np.zeros(n_cells + 1))
    pde.test_function(problem, 1.0, 1.5, 0.5)


def _multi_start():
    problem = pde.example_problem(n_cells=1024)
    lams = [0.0, 2.0 * pde.find_transition_lambda(problem, 200.0)]
    t0 = time.perf_counter()
    reports = pde.multi_start_solve(problem, lams)
    return {
        "cells": 1024,
        "lambdas": lams,
        "wall_s": time.perf_counter() - t0,
        "n_starts": sum(r.n_starts for r in reports),
    }


def main():
    result = {
        "commit": commit(),
        "machine": machine(),
        "repeats": REPEATS,
        "lambda": LAM,
        "kernels": [_at(1024), _at(2048)],
        "multi_start_solve": _multi_start(),
    }
    path = ROOT / "BENCH_pde_kernels.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(path)


if __name__ == "__main__":
    main()
