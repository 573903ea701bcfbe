"""randerslab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout and nothing is installed.  One process runs one workload
(see ``workloads.py`` and ``README.md`` next to this file).

With ``--trace 0`` the harness repeats passes over the workload, tracing
off, for about ``--seconds`` seconds (at least one pass; a pass is not
started if the median pass so far would end after the budget) and reports
the end-to-end metrics.  With ``--trace 1`` it makes two untraced passes,
then one traced pass, and reports the per-layer metrics and the tracing
overhead.  Every output is checked (at seed 0 against
``reference_seed0.json``; at every seed against the program's own
invariants); an operation that raises or fails a check counts as failed and
the run goes on.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names and units are those of ``BENCHMARK.json``.

``--record-reference`` runs one seed-0 pass and rewrites that workload's
entry of the reference file instead of checking against it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_seed0.json"
OUT = HERE / "out"
SETUP_REPEATS = 5
MICRO_CALLS = 200
MICRO_REPEATS = 7


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: reduced seed-0 sizes, for the self-test only")
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def _import_package():
    """Import randerslab from this checkout's src/; returns its import time."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import randerslab  # noqa: F401

    elapsed = time.perf_counter() - start
    where = Path(randerslab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"randerslab was imported from {where}, not from {src}")
    return start, elapsed


# -- passes ---------------------------------------------------------------------


class Tally:
    """Operations attempted and failed over a run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.observations = {}

    def run_pass(self, ops, reference):
        """One pass over the operations; returns (wall s, cpu s) spent in them."""
        wall = cpu = 0.0
        queue = list(ops)
        while queue:
            op = queue.pop(0)
            self.attempted += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = op.run()
            except Exception:  # a failing operation is counted, the run goes on
                self._fail(op.name, [traceback.format_exc(limit=3)])
                continue
            finally:
                wall += time.perf_counter() - w0
                cpu += time.process_time() - c0
            try:
                problems = self._check(op, out, reference)
                if op.follow is not None:
                    queue[0:0] = op.follow(out)
            except Exception:  # an output the checks cannot read is wrong
                problems = [traceback.format_exc(limit=3)]
            if problems:
                self._fail(op.name, problems)
        return wall, cpu

    def _check(self, op, out, reference):
        from workloads import compare

        problems = op.invariants(out)
        observed = op.observe(out)
        self.observations[op.name] = observed
        if reference is not None:
            if op.name in reference:
                problems += compare(observed, reference[op.name], op.name)
            else:
                problems.append("no reference value recorded")
        return problems

    def _fail(self, name, problems):
        self.failed += 1
        for p in problems:
            sys.stderr.write(f"FAILED {name}: {p}\n")


def _untraced_passes(tally, ops, reference, seconds):
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = tally.run_pass(ops, reference)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, cpus


# -- per-layer metrics ------------------------------------------------------------


def _micro_timings():
    """Per-call cost of the PDE energy and gradient on a fixed tent profile at
    2049 nodes, median over repeats, in microseconds."""
    import numpy as np
    from randerslab import pde

    problem = pde.replace_lambda(pde.example_problem(n_cells=2048), 2.5)
    u = np.clip(1.0 - problem.grid / 1.5, 0.0, 1.0)
    u[-1] = 0.0
    out = {}
    for name, fn in (("pde.energy", pde.energy), ("pde.energy_gradient", pde.energy_gradient)):
        fn(problem, u)
        per_call = []
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            for _ in range(MICRO_CALLS):
                fn(problem, u)
            per_call.append((time.perf_counter() - t0) / MICRO_CALLS * 1e6)
        out[f"{name}.us_per_call"] = statistics.median(per_call)
    return out


# -- run metadata ------------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "randerslab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads():
    """Threads each loaded OpenBLAS library will use, by library file name."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    except OSError:
        pass
    return found


def _metadata(args, threads_env):
    import numpy
    import scipy

    blas_env = {
        k: os.environ.get(k, "unset")
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_env,
        "blas_threads_in_effect": _blas_threads(),
        "RANDERS_LAB_THREADS": "unset" if threads_env is None else f"was {threads_env!r}, unset",
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# -- main --------------------------------------------------------------------------


def main(argv=None):
    args = _parse(argv)
    # the default traffic: the package's own thread cap at its default of 1
    threads_env = os.environ.pop("RANDERS_LAB_THREADS", None)
    import_start, import_s = _import_package()
    import_end = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import workloads

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, args.scale)
        builds.append(time.perf_counter() - t0)
    setup_s = (import_end - _T0) + statistics.median(builds)

    checked = args.seed == 0 and args.scale == "full" and not args.record_reference
    reference = None
    if checked:
        reference = json.loads(REFERENCE.read_text())[args.workload]

    meta = _metadata(args, threads_env)
    tally = Tally()
    if args.record_reference:
        if args.seed != 0 or args.scale != "full":
            raise SystemExit("--record-reference records seed 0 at full scale only")
        tally.run_pass(ops, None)
        data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        data[args.workload] = tally.observations
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(tally.observations)} operations of {args.workload}")
        return 1 if tally.failed else 0

    if args.trace == 0:
        walls, cpus = _untraced_passes(tally, ops, reference, args.seconds)
        measured = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        meta["passes"] = len(walls)
    else:
        from tracing import Recorder

        # the first pass pays the process's lazy set-up; the second is the
        # untraced twin of the traced pass
        tally.run_pass(ops, reference)
        untraced_wall, _ = tally.run_pass(ops, reference)
        rec = Recorder(f"{args.workload}-seed{args.seed}-{os.getpid()}")
        rec.add_span("import", import_start, import_start + import_s)
        rec.install()
        try:
            traced_wall, _ = tally.run_pass(ops, reference)
        finally:
            rec.uninstall()
        measured = rec.layer_metrics()
        # the harness's own certificate re-checks are not tracing overhead
        measured["trace.wall_s"] = traced_wall - measured["orbits.verify.total_s"]
        measured["trace.untraced_wall_s"] = untraced_wall
        measured["trace.overhead_ratio"] = measured["trace.wall_s"] / untraced_wall
        measured["trace.spans"] = len(rec.spans)
        measured.update(_micro_timings())
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.csv"
        rec.write(spans_path)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))

    section = _benchmark()["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in measured]
    if missing:
        raise SystemExit(f"metrics {missing} of BENCHMARK.json were not measured")
    values = {m["name"]: (measured[m["name"]], m["unit"]) for m in section}
    ratio = tally.failed / tally.attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in values.items():
        print(f"  {name:45s} {value:>16.6g} {unit}")
    print(f"  {'failed_ratio':45s} {ratio:>16.6g} ratio ({tally.failed}/{tally.attempted})")
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, meta=meta, failed_ratio=ratio)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
