"""Self-test of the benchmark harness, at the small seed-0 sizes.

    python3 perfbench/selftest.py

For every workload it makes one untraced run and two traced runs in this
process and checks that

- every end-to-end and per-layer metric of BENCHMARK.json is emitted, with
  its unit, and no operation failed;
- the self times of all spans add up to no more than the traced wall time
  (spans nest inside the timed operations, so they cannot exceed it);
- the exact counters pde.energy.calls, orbits.centers and
  numerics.adaptive_integrate.evaluations repeat across the two traced runs
  (this also shows that unwrapping restores every binding: a wrapper left
  behind would count twice in the second run).

No timed workload reaches the adaptive integrator (see README.md), so its
counter is also checked directly on modelspace.croke_constant(3).
Exits 1 and lists the failures if any check does not hold.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

EXACT = ("pde.energy.calls", "orbits.centers", "numerics.adaptive_integrate.evaluations")


def _run(workload, trace):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
            "--scale", "small"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _integrator_counter(failures):
    from randerslab import modelspace
    from tracing import Recorder

    seen = []
    for _ in range(2):
        rec = Recorder("selftest")
        rec.install()
        try:
            modelspace.croke_constant(3)
        finally:
            rec.uninstall()
        seen.append((rec.calls["numerics.adaptive_integrate"],
                     rec.totals["numerics.adaptive_integrate.evaluations"]))
    if seen[0] != seen[1] or seen[0][0] != 1 or seen[0][1] <= 0:
        failures.append(f"integrator counter on croke_constant(3): {seen}")


def main():
    spec = run._benchmark()
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        counters = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            code, result = _run(workload, trace)
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {k: v["unit"] for k, v in metrics.items()}
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: {result['failed']} operations failed")
            if emitted != expected:
                failures.append(f"{workload} trace={trace}: metrics {sorted(emitted.items())} "
                                f"differ from {sorted(expected.items())}")
                continue
            if trace == 0:
                continue
            own = sum(v["value"] for k, v in metrics.items()
                      if k.endswith(".self_s") and k != "import.self_s")
            traced = metrics["trace.wall_s"]["value"] + metrics["orbits.verify.self_s"]["value"]
            if own > traced:
                failures.append(f"{workload}: self times {own} exceed the traced wall {traced}")
            counters.append(tuple(metrics[k]["value"] for k in EXACT))
        if len(set(counters)) > 1:
            failures.append(f"{workload}: counters {EXACT} differ between runs: {counters}")
        print(f"{workload}: checked", file=sys.stderr)
    _integrator_counter(failures)
    for f in failures:
        print("SELFTEST FAILED:", f, file=sys.stderr)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
