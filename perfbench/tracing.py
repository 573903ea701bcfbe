"""In-memory span recorder and binding-aware wrapping of randerslab functions.

A traced pass replaces public functions of the package with thin wrappers.
Each wrapper either records a span (name, start, end, parent span, run id)
or only counts calls, for functions too small and too hot for a span.  A
function that another module imported by name (``from .modelspace import
geodesic_distance``) is reached through that module's own binding, so every
module of the package holding the same function object gets the wrapper.
Nothing is changed inside ``randerslab`` beyond those attribute bindings,
and ``Recorder.uninstall`` restores them all.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# (home module, attribute, span name): functions timed with a span
SPANS = [
    ("cli", "run", "cli.run"),
    ("pde", "energy", "pde.energy"),
    ("pde", "energy_gradient", "pde.energy_gradient"),
    ("pde", "multi_start_solve", "pde.multi_start_solve"),
    ("pde", "best_ray_witness", "pde.best_ray_witness"),
    ("pde", "find_transition_lambda", "pde.find_transition_lambda"),
    ("pde", "grid_doubling_check", "pde.grid_doubling_check"),
    ("pde", "bonanno_parameters", "pde.bonanno_parameters"),
    ("randers", "radial_conorm", "randers.radial_conorm"),
    ("orbits", "packing_count", "orbits.packing_count"),
    ("orbits", "expansion_profile", "orbits.expansion_profile"),
    ("sobolev", "embedding_constant", "sobolev.embedding_constant"),
    ("rearrange", "euclidean_rearrangement", "rearrange.euclidean_rearrangement"),
    ("rearrange", "polya_szego_check", "rearrange.polya_szego_check"),
    ("modelspace", "cumulative_ball_volumes", "modelspace.cumulative_ball_volumes"),
]

# (home module, attribute, counter name): functions whose calls are counted
COUNTS = [
    ("orbits", "matrix_distance", "orbits.matrix_distance"),
    ("modelspace", "geodesic_distance", "modelspace.geodesic_distance"),
    ("rearrange", "lq_norm", "rearrange.lq_norm"),
    ("numerics", "adaptive_integrate", "numerics.adaptive_integrate"),
    ("numerics", "beta_fn", "numerics.beta_fn"),
]

# (home module, class, method, span name): methods timed with a span
METHODS = [
    ("cli", "RunResult", "render_csv", "cli.render"),
    ("cli", "RunResult", "render_json", "cli.render"),
]


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # one list per span: [name, start, end, parent index, time covered by children]
        self.spans: list = []
        self.calls: Counter = Counter()
        self.totals: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.calls[name] += 1
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside the wrappers (the import)."""
        self.spans.append([name, start, end, -1, 0.0])
        self.calls[name] += 1

    def self_times(self) -> tuple:
        """Per name: (self seconds, inclusive seconds)."""
        own = defaultdict(float)
        incl = defaultdict(float)
        for name, start, end, _parent, child in self.spans:
            own[name] += (end - start) - child
            incl[name] += end - start
        return own, incl

    def layer_metrics(self) -> dict:
        """Calls, self seconds and inclusive seconds of every wrapped name,
        the import span, and the totals the result hooks gathered."""
        own, incl = self.self_times()
        spans = list(dict.fromkeys(
            [n for _, _, n in SPANS] + [n for *_, n in METHODS] + ["orbits.verify"]
        ))
        m = {"import.self_s": own.get("import", 0.0)}
        for name in spans:
            m[f"{name}.self_s"] = own.get(name, 0.0)
            m[f"{name}.total_s"] = incl.get(name, 0.0)
        for name in spans + [n for _, _, n in COUNTS]:
            m[f"{name}.calls"] = self.calls[name]
        for name in ("orbits.centers", "numerics.adaptive_integrate.evaluations"):
            m[name] = self.totals[name]
        starts = self.totals["pde.n_starts"]
        m["pde.converged_ratio"] = self.totals["pde.n_converged"] / starts if starts else 0.0
        packing_s = incl.get("orbits.packing_count", 0.0)
        m["orbits.centers_per_s"] = m["orbits.centers"] / packing_s if packing_s else 0.0
        return m

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,index,parent,name,start,end\n")
            for i, (name, start, end, parent, _child) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{parent},{name},{start!r},{end!r}\n")

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "randerslab") -> None:
        """Wrap every listed function in its home module and in each module
        of the package that bound the same object under the same name."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for home, attr, name in table:
                original = getattr(sys.modules[f"{package}.{home}"], attr)
                wrapped = make(original, name, HOOKS.get(name))
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapped)
        for home, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"{package}.{home}"], cls_name)
            self._patch(cls, attr, self._span_wrapper(getattr(cls, attr), name, None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- result hooks: totals measured where the work happens ---------------------


def _multi_start_hook(rec, _fn, _args, _kwargs, reports):
    rec.totals["pde.n_converged"] += sum(r.n_converged for r in reports)
    rec.totals["pde.n_starts"] += sum(r.n_starts for r in reports)


def _integrate_hook(rec, _fn, _args, _kwargs, result):
    rec.totals["numerics.adaptive_integrate.evaluations"] += result.evaluations


def _packing_hook(rec, fn, args, kwargs, report):
    """Count the centres, then re-check the certificate once more, timed."""
    rec.totals["orbits.centers"] += report.count
    bound = inspect.signature(fn).bind(*args, **kwargs)
    idx = rec.open("orbits.verify")
    try:
        report.verify(bound.arguments["action"], bound.arguments["space"])
    finally:
        rec.close(idx)


HOOKS = {
    "pde.multi_start_solve": _multi_start_hook,
    "numerics.adaptive_integrate": _integrate_hook,
    "orbits.packing_count": _packing_hook,
}
