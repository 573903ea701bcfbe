"""Wall time of the greedy packing walks and of the packing certificates.

    python3 scripts/bench_walk.py

Run from anywhere; the package is imported from ``src/`` of this checkout.
Writes ``BENCH_walk.json`` at the root of the checkout with the commit, the
machine, for each walk its candidates, its acceptances and the best-of-7
wall time (with the cost per candidate it implies), and for each
certificate its centres and the best-of-7 wall time.  Every sphere walk
and every certificate also gets ``peak_bytes``, the tracemalloc peak of
one untimed call.  A sphere walk gets, from one more untimed walk of its
spiral: ``largest_window``, the most later candidates in one acceptance's
index window; ``fetched_per_acceptance``, the mean length of the
candidate arrays its ball returns; and ``chord_per_acceptance``, the mean
number of later members of the accepted candidate's ball, the fetched
candidates within 2 rho by the walk's own key and dist (blocked or not).
That walk wraps the ball that ``orbits._lattice_balls`` builds and its
``_SpiralWindow``'s ``accept``.
The walks:

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
of ``orbits._conjugation_candidates``, which ``packing_count`` builds first,
with the metric and the angle-grid ball that ``orbits._packing_matrix``
builds for it, timed with the walk.
A sphere walk's candidate count comes from ``orbits._walk_size``, which
sizes its spiral, and a conjugation walk's from the rows it runs over.

A certificate is timed as ``PackingReport.verify`` on the report
``packing_count`` returns, which runs the same certificate once more.  The
reports:

- the ``orbit-packing`` workload's: the sphere walks above, the product
  (2, 3) grids at radii 5, 10, 15 and 20 (rho = 2) and the conjugation
  orbits of diag(10) and diag(100) (rho = 0.5);
- the README chart radius 0.99 (19,854 centres);
- the product (2, 3) grids of ``expansion --action product --blocks 2,3
  --rho 2 --radii 5:40:4:lin``;
- the conjugation orbit of diag(1e4), rho = 0.5 (41,666 centres);
- Euclidean spheres of dimension 5, 6 and 8 at radii 20, 10 and 6
  (rho = 1; 105,152, 46,681 and 45,073 centres), whose certificate
  measures its close pairs on a kd-tree of the centres;
- the ANGULAR_EXACT circles of Euclidean radius 1000 and 63,000 and of
  Poincare chart radius 0.999 (rho = 1; 3,141, 197,920 and 2,671
  centres), the largest README circles and one near the 200,000-centre
  cap, whose certificate measures its close pairs on a cell list.
"""

import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from benchinfo import commit, machine  # noqa: E402
from randerslab import orbits  # noqa: E402
from randerslab.modelspace import SpaceForm  # noqa: E402

REPEATS = 7
ROT = orbits.GroupAction(orbits.FULL_ROTATION)
PROD23 = orbits.GroupAction(orbits.PRODUCT_ROTATION, (2, 3))
CONJ = orbits.GroupAction(orbits.MATRIX_CONJUGATION)


def _best(fn):
    """Result of fn and the best of REPEATS wall times, in seconds."""
    best, out = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _peak(fn):
    """The tracemalloc peak of one call of fn, in bytes."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _sphere(name, space, radius, rho):
    y = np.array([radius, 0.0, 0.0])
    peak = _peak(lambda: orbits._sphere_walk(space, y, rho))
    largest, fetched, chord = _fetch_stats(space, y, rho)
    centers, wall = _best(lambda: orbits._sphere_walk(space, y, rho))
    row = _row(name, "sphere", orbits._walk_size(space, y, rho), len(centers), wall)
    row.update(
        peak_bytes=peak, largest_window=largest, fetched_per_acceptance=fetched, chord_per_acceptance=chord
    )
    return row


def _fetch_stats(space, y, rho):
    """Largest index window, mean fetch and mean later ball members per
    acceptance of the walk that orbits._sphere_walk makes on a 2-sphere."""
    spiral = orbits._SpiralWindow(space, orbits._walk_size(space, y, rho), float(np.linalg.norm(y)))
    later_ball, accept = orbits._lattice_balls(spiral, spiral.chord(2.0 * rho)), spiral.accept
    windows, fetched, members = [], [], []

    def counted(i):
        later = later_ball(i)
        fetched.append(len(later))
        members.append(int(np.count_nonzero(spiral.dist(spiral.key(i, later)) < 2.0 * rho)))
        return later

    def window(i, end):
        windows.append(end - i - 1)
        return accept(i, end)

    spiral.accept = window
    orbits._greedy_walk(spiral.n, rho, counted, spiral.key, spiral.dist)
    return max(windows), sum(fetched) / len(fetched), sum(members) / len(members)


def _conjugation(name, lam, rho):
    pts = orbits._conjugation_candidates(orbits.MatrixPoint.diagonal(lam), rho)

    def walk():
        emb, chord, key, dist = orbits._orbit_metric(CONJ, None, pts)
        return orbits._greedy_walk(len(pts), rho, orbits._angle_balls(emb, chord(2.0 * rho)), key, dist)

    accepted, wall = _best(walk)
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


def _certificate(name, action, space, y, rho):
    report = orbits.packing_count(action, space, y, rho)
    _, wall = _best(lambda: report.verify(action, space))
    peak = _peak(lambda: report.verify(action, space))
    return {"certificate": name, "centers": report.count, "wall_s": wall, "peak_bytes": peak}


def _certificates():
    poincare, euclid, euclid5 = SpaceForm(3, -1.0), SpaceForm(3, 0.0), SpaceForm(5, 0.0)

    def axis(r, dim=3):
        return r * np.eye(dim)[0]

    def product(r):  # the radius spread over the first coordinate of each block
        return np.array([r, 0.0, r, 0.0, 0.0]) / math.sqrt(2.0)

    def diag(lam):
        return orbits.MatrixPoint.diagonal(lam)

    rows = [_certificate(f"orbit-packing.poincare3.r{r}", ROT, poincare, axis(r), 1.0) for r in (0.75, 0.8, 0.85)]
    rows += [_certificate(f"orbit-packing.euclid3.r{r:g}", ROT, euclid, axis(r), 1.0) for r in (5.0, 10.0)]
    rows += [
        _certificate(f"orbit-packing.product23.r{r:g}", PROD23, euclid5, product(r), 2.0)
        for r in (5.0, 10.0, 15.0, 20.0)
    ]
    rows += [_certificate(f"matrix.diag{lam:g}", CONJ, None, diag(lam), 0.5) for lam in (10.0, 100.0)]
    rows.append(_certificate("readme.poincare3.r0.99", ROT, poincare, axis(0.99), 1.0))
    rows += [
        _certificate(f"product23.r{r:.4g}", PROD23, euclid5, product(r), 2.0)
        for r in np.linspace(5.0, 40.0, 4)
    ]
    rows.append(_certificate(f"matrix.diag{1e4:g}", CONJ, None, diag(1e4), 0.5))
    for d, r in ((5, 20.0), (6, 10.0), (8, 6.0)):
        rows.append(_certificate(f"euclid{d}.r{r:g}", ROT, SpaceForm(d, 0.0), axis(r, d), 1.0))
    for r in (1000.0, 63000.0):
        rows.append(_certificate(f"circle.euclid2.r{r:g}", ROT, SpaceForm(2, 0.0), axis(r, 2), 1.0))
    rows.append(_certificate("circle.poincare2.r0.999", ROT, SpaceForm(2, -1.0), axis(0.999, 2), 1.0))
    return rows


def main():
    result = {
        "commit": commit(),
        "machine": machine(),
        "repeats": REPEATS,
        "walks": _walks(),
        "certificates": _certificates(),
    }
    path = ROOT / "BENCH_walk.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(path)


if __name__ == "__main__":
    main()
