"""Wall time of the greedy packing walks.

    python3 scripts/bench_walk.py

Run from anywhere; the package is imported from ``src/`` of this checkout.
Writes ``BENCH_walk.json`` at the root of the checkout with the commit, the
machine, and, for each walk, its candidates, its acceptances and the
best-of-7 wall time (with the cost per candidate it implies).  The walks:

- the nine 2-sphere walks of the ``orbit-packing`` benchmark workload at
  its seed-free radii: Poincare chart radii 0.75, 0.8 and 0.85 (rho = 1),
  Euclidean radii 5 and 10 (rho = 1), and the 3-blocks of the product
  (2, 3) at radii 5, 10, 15 and 20 (radius r / sqrt 2, rho = 2);
- the README chart radii 0.9 and 0.99 (``expansion --space poincare
  --dim 3``, rho = 1);
- the conjugation orbits of diag(lambda) at lambda = 10, 100 (the
  benchmark's ``matrix.diag10`` and ``matrix.diag100``) and 1e4, rho = 0.5.

A sphere walk is timed as ``orbits._sphere_walk``, the spiral build
included; a conjugation walk as ``orbits._greedy_walk`` over the angle grid
of ``orbits._conjugation_candidates``, which ``packing_count`` builds first.
The candidate counts come from the same builders the walks use.  No
certificate is timed.
"""

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from benchinfo import commit, machine  # noqa: E402
from randerslab import orbits  # noqa: E402
from randerslab.modelspace import SpaceForm  # noqa: E402

REPEATS = 7
CONJ = orbits.GroupAction(orbits.MATRIX_CONJUGATION)


def _best(fn):
    """Result of fn and the best of REPEATS wall times, in seconds."""
    best, out = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _sphere(name, space, radius, rho):
    y = np.array([radius, 0.0, 0.0])
    candidates = len(orbits._sphere_candidates(space, y, rho))
    centers, wall = _best(lambda: orbits._sphere_walk(space, y, rho))
    return _row(name, "sphere", candidates, len(centers), wall)


def _conjugation(name, lam, rho):
    pts = orbits._conjugation_candidates(orbits.MatrixPoint.diagonal(lam), rho)
    accepted, wall = _best(lambda: orbits._greedy_walk(CONJ, None, pts, rho))
    return _row(name, "conjugation", len(pts), len(accepted), wall)


def _row(name, kind, candidates, acceptances, wall):
    return {
        "walk": name,
        "kind": kind,
        "candidates": candidates,
        "acceptances": acceptances,
        "wall_s": wall,
        "ns_per_candidate": wall / candidates * 1e9,
    }


def _walks():
    poincare, euclid = SpaceForm(3, -1.0), SpaceForm(3, 0.0)
    rows = [_sphere(f"orbit-packing.poincare3.r{r}", poincare, r, 1.0) for r in (0.75, 0.8, 0.85)]
    rows += [_sphere(f"orbit-packing.euclid3.r{r:g}", euclid, r, 1.0) for r in (5.0, 10.0)]
    rows += [
        _sphere(f"orbit-packing.product23.r{r:g}", euclid, r / math.sqrt(2.0), 2.0)
        for r in (5.0, 10.0, 15.0, 20.0)
    ]
    rows += [_sphere(f"readme.poincare3.r{r}", poincare, r, 1.0) for r in (0.9, 0.99)]
    rows += [_conjugation(f"matrix.diag{lam:g}", lam, 0.5) for lam in (10.0, 100.0, 1e4)]
    return rows


def main():
    result = {"commit": commit(), "machine": machine(), "repeats": REPEATS, "walks": _walks()}
    path = ROOT / "BENCH_walk.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(path)


if __name__ == "__main__":
    main()
