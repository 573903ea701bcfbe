"""Alternating pairs of benchmark runs of two committed revisions.

    python3 scripts/bench_pairs.py BASE HEAD [--workload NAME ...] [--pairs 10]
                                   [--seconds S] [--first-seed 1]

Each revision is exported with ``git archive`` into its own temporary
directory, and each run is a fresh process of the benchmark command of
``BENCHMARK.json`` (``perfbench/run.py``) in that directory, with
``--trace 0``.  Pair k runs both revisions at the seed first-seed + k, in
the order BASE, HEAD when k is even and HEAD, BASE when k is odd (ABBA), so
that a run's place in its pair does not read as a difference between the
revisions.  The workloads default to every workload of ``BENCHMARK.json``,
run one after the other, each for ``--pairs`` pairs of ``--seconds``
seconds per run (its ``run_seconds`` by default).

Progress goes to standard error, one line per run.  Standard output gets
one JSON object: the two commits and, per workload, every run's metrics,
``all_correct`` (every run ``correct`` with ``failed`` 0) and, per
end-to-end metric, each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and ``head_wins``, the pairs in
which HEAD is better in the metric's direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _export(rev, into):
    """The full commit of rev, with its tree written into the directory into."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=tar, check=True)
    return sha


def _run(command, checkout, workload, seed, seconds):
    """The last line of one benchmark run, parsed; None if the run failed."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _side(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _workload(spec, checkouts, workload, pairs, first_seed, seconds):
    runs = {"base": [], "head": []}
    for k in range(pairs):
        seed = first_seed + k
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            result = _run(spec["command"], checkouts[side], workload, seed, seconds)
            runs[side].append(result)
            ok = result is not None and result["correct"] is True and result["failed"] == 0
            values = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()) if result else ""
            print(f"{workload} pair {k} seed {seed} {side}: ok={ok} {values}", file=sys.stderr, flush=True)
    all_correct = all(r is not None and r["correct"] is True and r["failed"] == 0 for side in runs.values() for r in side)
    metrics = {}
    if all_correct:
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
            base = [r["metrics"][name]["value"] for r in runs["base"]]
            head = [r["metrics"][name]["value"] for r in runs["head"]]
            metrics[name] = {
                "better": metric["better"],
                "base": _side(base),
                "head": _side(head),
                "head_wins": sum(sign * (h - b) < 0 for b, h in zip(base, head)),
                "pairs": [[b, h] for b, h in zip(base, head)],
            }
    return {"pairs": pairs, "seconds": seconds, "first_seed": first_seed, "all_correct": all_correct, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", action="append", help="repeat for several; default every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    with tempfile.TemporaryDirectory() as base_dir, tempfile.TemporaryDirectory() as head_dir:
        checkouts = {"base": base_dir, "head": head_dir}
        out = {"base": _export(args.base, base_dir), "head": _export(args.head, head_dir), "workloads": {}}
        for workload in workloads:
            out["workloads"][workload] = _workload(spec, checkouts, workload, args.pairs, args.first_seed, seconds)
    print(json.dumps(out, indent=2))
    return 0 if all(w["all_correct"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
