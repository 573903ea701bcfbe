"""Wall time and peak memory of each README command, at two committed
revisions, in alternating pairs.

    python3 scripts/bench_cli.py BASE HEAD [--pairs 5] > BENCH_cli.json

Each revision is exported with ``git archive`` into its own temporary
directory (``bench_pairs._export``).  The commands are the README lines of
HEAD that start with ``randerslab `` (the rule of
``tests/test_golden.readme_commands``).  Each run is a fresh process,
``python -m randerslab <argv>`` with ``PYTHONPATH=<checkout>/src``, in a
fresh temporary directory, so files a command writes (``--output``) do not
carry over; its standard output goes to a file there.  Pair k runs both
revisions in the order BASE, HEAD when k is even and HEAD, BASE when k is
odd (ABBA).

A run's wall time is ``time.perf_counter`` around ``Popen`` and
``os.wait4`` of the child; its peak RSS is that child's own ``ru_maxrss``
from ``os.wait4`` (``RUSAGE_CHILDREN`` would give the largest over every
child so far).  Progress goes to standard error, one line per run.
Standard output gets one JSON object: the two commits, the machine and,
per command, its argv, ``ok`` (every run exited 0), ``same_stdout`` (every
run of both revisions printed the same bytes) and, for ``wall_s`` and
``peak_rss_mb``, each side's median and quartiles
(``statistics.quantiles(values, n=4)``), ``head_wins`` (the pairs in which
HEAD is lower) and every pair.  Exits 1 unless every command is ``ok``.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import _export, _side
from benchinfo import machine


def _readme_commands(checkout):
    """The argv of each README line of checkout that starts with `randerslab `."""
    lines = (Path(checkout) / "README.md").read_text(encoding="utf-8").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("randerslab ")]


def _run(checkout, argv):
    """(exit code, wall s, peak RSS MB, stdout bytes) of one command run."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    with tempfile.TemporaryDirectory() as workdir, open(Path(workdir) / "stdout", "w+b") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "randerslab", *argv],
            cwd=workdir, env=env, stdout=out, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read()


def _command(checkouts, argv, pairs):
    runs = {"base": [], "head": []}
    for k in range(pairs):
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            code, wall, rss, stdout = _run(checkouts[side], argv)
            runs[side].append((code, wall, rss, stdout))
            print(f"{argv[0]} pair {k} {side}: exit {code} wall_s={wall:.3f} peak_rss_mb={rss:.1f}",
                  file=sys.stderr, flush=True)
    every = runs["base"] + runs["head"]
    out = {
        "argv": argv,
        "ok": all(run[0] == 0 for run in every),
        "same_stdout": len({run[3] for run in every}) == 1,
    }
    for i, metric in ((1, "wall_s"), (2, "peak_rss_mb")):
        base = [run[i] for run in runs["base"]]
        head = [run[i] for run in runs["head"]]
        out[metric] = {
            "base": _side(base),
            "head": _side(head),
            "head_wins": sum(h < b for b, h in zip(base, head)),
            "pairs": [[b, h] for b, h in zip(base, head)],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the quartiles")
    with tempfile.TemporaryDirectory() as base_dir, tempfile.TemporaryDirectory() as head_dir:
        checkouts = {"base": base_dir, "head": head_dir}
        out = {"base": _export(args.base, base_dir), "head": _export(args.head, head_dir),
               "machine": machine(), "pairs": args.pairs, "commands": []}
        for command in _readme_commands(head_dir):
            out["commands"].append(_command(checkouts, command, args.pairs))
    print(json.dumps(out, indent=2))
    return 0 if all(c["ok"] for c in out["commands"]) else 1


if __name__ == "__main__":
    sys.exit(main())
