"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Each run is a fresh process of ``perfbench/run.py`` with tracing off, made
one after the other.  For every end-to-end metric the script prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), and the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  A run whose result is not correct is
reported and makes the script exit 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in _seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for k in values:
            values[k].append(row[k])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:14s} median={med:.4g} q1={q1:.4g} q3={q3:.4g} "
              f"spread={(q3 - q1) / med:.3f} bound={bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
