"""Batch front-end: one subcommand per experiment family, CSV/JSON output.

Every run is deterministic: the resolved configuration is embedded in the
output header, floats are printed with 17 significant digits, and repeated
runs of the same configuration produce byte-identical bodies.  The exit
status is 0 only if every internal assertion of the run passed; validation
problems exit nonzero with a machine-readable error record on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import orbits, pde, rearrange, sobolev
from .modelspace import SpaceForm, geodesic_distance
from .numerics import is_divergent

SCHEMA_VERSION = 1

__all__ = ["RunConfig", "RunResult", "run", "main"]


def _fmt(value) -> str:
    if is_divergent(value):
        return "DIVERGENT"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


class ValidationError(ValueError):
    pass


def _parse_range(spec: str) -> np.ndarray:
    """Range syntax: 'a:b:n:lin', 'a:b:n:log', 'a:b:log' (n = 10), or a
    comma-separated list of values."""
    try:
        if "," in spec:
            return np.array([float(tok) for tok in spec.split(",")])
        parts = spec.split(":")
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) == 3 and parts[2] in ("lin", "log"):
            a, b, n, kind = float(parts[0]), float(parts[1]), 10, parts[2]
        elif len(parts) == 3:
            a, b, n, kind = float(parts[0]), float(parts[1]), int(parts[2]), "lin"
        elif len(parts) == 4:
            a, b, n, kind = float(parts[0]), float(parts[1]), int(parts[2]), parts[3]
        else:
            raise ValidationError(f"cannot parse range {spec!r}")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"cannot parse range {spec!r}") from exc
    if n < 1:
        raise ValidationError("range needs at least one point")
    if kind == "log":
        if a <= 0:
            raise ValidationError("log ranges need a positive start")
        return np.geomspace(a, b, n)
    if kind != "lin":
        raise ValidationError(f"unknown range kind {kind!r}")
    return np.linspace(a, b, n)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: dict = field(default_factory=dict)
    output: Optional[str] = None
    format: str = "csv"
    seed: int = 0
    tol: float = 1e-10

    def to_dict(self) -> dict:
        # the output path is deliberately not part of the embedded config:
        # the same run written to two places must stay byte-identical
        return {
            "subcommand": self.subcommand,
            "params": dict(sorted(self.params.items())),
            "format": self.format,
            "seed": self.seed,
            "tol": self.tol,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {"subcommand", "params", "output", "format", "seed", "tol"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            subcommand=data["subcommand"],
            params=dict(data.get("params", {})),
            output=data.get("output"),
            format=data.get("format", "csv"),
            seed=int(data.get("seed", 0)),
            tol=float(data.get("tol", 1e-10)),
        )


@dataclass
class RunResult:
    config: RunConfig
    columns: list
    rows: list
    checks: dict
    extra_files: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def render_csv(self) -> str:
        lines = [f"# schema={SCHEMA_VERSION}"]
        lines.append("# config=" + json.dumps(self.config.to_dict(), sort_keys=True))
        for name, ok in sorted(self.checks.items()):
            lines.append(f"# check_{name}={_fmt(bool(ok))}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        def enc(v):
            if is_divergent(v):
                return "DIVERGENT"
            if isinstance(v, float) and math.isinf(v):
                return "inf" if v > 0 else "-inf"
            return v

        payload = {
            "schema": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "checks": {k: bool(v) for k, v in sorted(self.checks.items())},
            "columns": self.columns,
            "rows": [{c: enc(row[c]) for c in self.columns} for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _space_from_params(params) -> SpaceForm:
    name = params.get("space", "euclid")
    dim = int(params.get("dim", 2))
    if name == "euclid":
        return SpaceForm(dim, 0.0)
    if name == "poincare":
        return SpaceForm(dim, float(params.get("curvature", -1.0)))
    raise ValidationError(f"unknown space {name!r}")


def _check_keys(params: dict, allowed: set):
    unknown = set(params) - allowed
    if unknown:
        raise ValidationError(f"unknown parameters: {sorted(unknown)}")


def _run_packing(config: RunConfig) -> RunResult:
    params = config.params
    _check_keys(params, {"space", "dim", "curvature", "rho", "radii", "method"})
    space = _space_from_params(params)
    rho = float(params.get("rho", 1.0))
    radii = _parse_range(str(params.get("radii", "")))
    if radii.size == 0:
        raise ValidationError("radii must be non-empty")
    method = str(params.get("method", "auto"))
    action = orbits.GroupAction(orbits.FULL_ROTATION)
    rows = orbits.expansion_profile(action, space, rho, radii, method=method)
    counts = [r["count"] for r in rows]
    checks = {"counts_nondecreasing": all(a <= b for a, b in zip(counts, counts[1:]))}
    return RunResult(config, ["distance", "rho", "count", "method"], rows, checks)


def _run_expansion(config: RunConfig) -> RunResult:
    params = config.params
    _check_keys(
        params, {"space", "dim", "curvature", "rho", "radii", "method", "action", "blocks"}
    )
    space = _space_from_params(params)
    rho = float(params.get("rho", 1.0))
    radii = _parse_range(str(params.get("radii", "")))
    kind = params.get("action", "full")
    if kind == "full":
        action = orbits.GroupAction(orbits.FULL_ROTATION)
    elif kind == "product":
        blocks = tuple(int(b) for b in str(params.get("blocks", "2,2")).split(","))
        action = orbits.GroupAction(orbits.PRODUCT_ROTATION, blocks)
        space = SpaceForm(sum(blocks), 0.0)
    else:
        raise ValidationError(f"unknown action {kind!r}")
    raw = orbits.expansion_profile(action, space, rho, radii, method=str(params.get("method", "auto")))
    rows = []
    for r in raw:
        normalized = r["count"] * rho / r["distance"] if r["distance"] > 0 else 0.0
        rows.append({**r, "normalized": normalized})
    counts = [r["count"] for r in rows]
    checks = {"counts_nondecreasing": all(a <= b for a, b in zip(counts, counts[1:]))}
    return RunResult(
        config, ["distance", "rho", "count", "method", "normalized"], rows, checks
    )


def _run_hausdorff(config: RunConfig) -> RunResult:
    params = config.params
    _check_keys(params, {"example", "lambda_grid", "blocks", "samples", "scale"})
    example = params.get("example", "matrix")
    if example == "matrix":
        lams = _parse_range(str(params.get("lambda_grid", "1:1e6:25:log")))
        rows = []
        for lam in lams:
            res = orbits.orbit_hausdorff_matrix(orbits.MatrixPoint.diagonal(float(lam)))
            rows.append(
                {
                    "lambda": float(lam),
                    "length": res.length,
                    "distance": res.distance_to_identity,
                    "kappa_check": res.kappa_check,
                }
            )
        checks = {"kappa_bound": all(r["kappa_check"] for r in rows)}
        return RunResult(
            config, ["lambda", "length", "distance", "kappa_check"], rows, checks
        )
    if example == "product":
        blocks = [int(b) for b in str(params.get("blocks", "2,2")).split(",")]
        n = int(params.get("samples", 100))
        scale = float(params.get("scale", 10.0))
        rng = np.random.default_rng(config.seed)
        rows = []
        for _ in range(n):
            y = rng.normal(size=sum(blocks))
            y *= rng.uniform(1.0, scale) / np.linalg.norm(y)
            res = orbits.orbit_hausdorff_product_spheres(blocks, y)
            rows.append(
                {
                    "y_norm": float(np.linalg.norm(y)),
                    "measure": res.measure,
                    "lower_bound": res.lower_bound,
                    "m_g": res.m_g,
                    "holds": res.holds,
                }
            )
        checks = {"linear_growth_bound": all(r["holds"] for r in rows)}
        return RunResult(
            config, ["y_norm", "measure", "lower_bound", "m_g", "holds"], rows, checks
        )
    raise ValidationError(f"unknown hausdorff example {example!r}")


def _run_rearrange(config: RunConfig) -> RunResult:
    params = config.params
    _check_keys(params, {"space", "dim", "curvature", "shape", "radius", "height", "cells"})
    space = _space_from_params(params)
    shape = params.get("shape", "tent")
    radius = float(params.get("radius", 1.0))
    height = float(params.get("height", 1.0))
    cells = int(params.get("cells", 2048))
    if shape == "tent":
        u = rearrange.tent_profile(space, radius, height, n=cells)
    elif shape == "plateau":
        u = rearrange.plateau_profile(space, radius, height, n=cells)
    else:
        raise ValidationError(f"unknown shape {shape!r}")
    u_star = rearrange.euclidean_rearrangement(u)
    checks = {}
    for q in (1.0, 2.0, math.inf):
        label = "inf" if q == math.inf else str(int(q))
        checks[f"norm_preserved_q{label}"] = (
            rearrange.norm_preservation_check(u, u_star, q) < 1e-3
        )
    _, _, holds = rearrange.polya_szego_check(u, u_star, p=2.0)
    checks["polya_szego"] = holds
    grid = np.linspace(0.0, max(u.radius, u_star.radius), cells + 1)
    rows = [
        {
            "r": float(r),
            "u": float(u.interp(r)) if r <= u.radius else 0.0,
            "u_star": float(u_star.interp(r)) if r <= u_star.radius else 0.0,
        }
        for r in grid
    ]
    return RunResult(config, ["r", "u", "u_star"], rows, checks)


def _run_funk(config: RunConfig) -> RunResult:
    params = config.params
    _check_keys(params, {"dim", "p", "q"})
    dims = [int(v) for v in str(params.get("dim", "3")).split(",")]
    ps = [float(v) for v in str(params.get("p", "2")).split(",")]
    qs = [math.inf if v in ("inf", "") else float(v) for v in str(params.get("q", "4")).split(",")]
    rows = []
    ok = True
    for d in dims:
        for p in ps:
            for q in qs:
                pair = sobolev.classify_pair(p, q, d)
                if pair is None:
                    continue
                verdict = sobolev.funk_counterexample(d, pair)
                rows.append(
                    {
                        "d": d,
                        "p": p,
                        "q": q,
                        "regime": verdict.regime,
                        "t": verdict.t,
                        "w_bound": verdict.w_norm_bound,
                        "lq_norm": verdict.lq_norm,
                        "fails": verdict.embedding_fails,
                    }
                )
                ok = ok and verdict.embedding_fails
    if not rows:
        raise ValidationError("no admissible (p, q, d) combination given")
    checks = {"embedding_fails_everywhere": ok}
    return RunResult(
        config, ["d", "p", "q", "regime", "t", "w_bound", "lq_norm", "fails"], rows, checks
    )


def _run_embedding(config: RunConfig) -> RunResult:
    params = config.params
    _check_keys(params, {"space", "dim", "curvature", "p", "q", "rho", "y_radii", "grid"})
    space = _space_from_params(params)
    p = float(params.get("p", 2.0))
    q_raw = str(params.get("q", "4"))
    q = math.inf if q_raw == "inf" else float(q_raw)
    pair = sobolev.classify_pair(p, q, space.dim)
    if pair is None:
        raise ValidationError(f"(p, q) = ({p}, {q}) is not admissible in dim {space.dim}")
    rho = float(params.get("rho", 1.0))
    n_grid = int(params.get("grid", 128))
    radii = _parse_range(str(params.get("y_radii", "0")))

    centres = [np.array([r] + [0.0] * (space.dim - 1)) for r in radii]
    # the estimate does not depend on the centre (both model geometries are
    # homogeneous): compute it once; geodesic_distance validates every centre
    value = sobolev.embedding_constant(space, centres[0], rho, pair, n_grid=n_grid)
    rows = [
        {
            "y_radius": float(y[0]),
            "distance": geodesic_distance(space, np.zeros(space.dim), y),
            "estimate": value,
        }
        for y in centres
    ]
    checks = {"estimates_positive": all(r["estimate"] > 0 for r in rows)}
    return RunResult(config, ["y_radius", "distance", "estimate"], rows, checks)


def _run_pde(config: RunConfig) -> RunResult:
    params = config.params
    _check_keys(
        params,
        {"problem", "dim", "kappa", "beta_a", "p", "alpha_rate", "cells", "lambda_grid", "s0", "big_r", "small_r"},
    )
    if "problem" in params:
        with open(params["problem"], "r", encoding="utf-8") as fh:
            problem = pde.PDEProblem.from_dict(json.load(fh))
    else:
        problem = pde.example_problem(
            dim=int(params.get("dim", 2)),
            kappa=float(params.get("kappa", 1.5)),
            beta_sup=float(params.get("beta_a", 0.2)),
            p=float(params.get("p", 3.5)),
            alpha_rate=float(params.get("alpha_rate", 0.75)),
            n_cells=int(params.get("cells", 2048)),
        )
    s0 = float(params.get("s0", 1.0))
    big_r = float(params.get("big_r", 1.5))
    small_r = float(params.get("small_r", 0.5))
    bp = pde.bonanno_parameters(problem, s0, big_r, small_r)
    lam_spec = params.get("lambda_grid", "auto")
    if lam_spec == "auto":
        lam_t = pde.find_transition_lambda(problem, min(200.0, bp.a_bar))
        lams = [0.0, min(2.0 * lam_t, bp.a_bar)]
    else:
        lams = [float(v) for v in _parse_range(str(lam_spec))]
    reports = pde.multi_start_solve(problem, lams)
    rows = []
    ok_gradient = True
    profiles = {}
    for rep in reports:
        for k, (prof, e_val, g_norm) in enumerate(
            zip(rep.profiles, rep.energies, rep.gradient_norms)
        ):
            ok_gradient = ok_gradient and g_norm <= 1e-8 * (1.0 + abs(e_val))
            rows.append(
                {
                    "lambda": rep.lam,
                    "solution": k,
                    "energy": e_val,
                    "gradient_norm": g_norm,
                    "sup_norm": float(np.max(np.abs(prof.values))),
                    "distinct_total": rep.n_distinct,
                    "converged_starts": rep.n_converged,
                }
            )
            profiles[f"lambda{rep.lam:.6g}_sol{k}"] = prof
    checks = {
        "bonanno_inequalities": bp.hypotheses_hold,
        "gradient_criterion": ok_gradient,
        "interval_positive": bp.a_bar > 0,
    }
    extra = {}
    for name, prof in profiles.items():
        body = ["r,u"] + [f"{_fmt(float(r))},{_fmt(float(v))}" for r, v in zip(prof.grid, prof.values)]
        extra[name + ".csv"] = "\n".join(body) + "\n"
    return RunResult(
        config,
        [
            "lambda",
            "solution",
            "energy",
            "gradient_norm",
            "sup_norm",
            "distinct_total",
            "converged_starts",
        ],
        rows,
        checks,
        extra_files=extra,
    )


_HANDLERS = {
    "packing": _run_packing,
    "expansion": _run_expansion,
    "hausdorff": _run_hausdorff,
    "rearrange": _run_rearrange,
    "funk": _run_funk,
    "embedding": _run_embedding,
    "pde": _run_pde,
}


def run(config: RunConfig) -> RunResult:
    """Execute one run; raises ValidationError for malformed configs."""
    if config.subcommand not in _HANDLERS:
        raise ValidationError(f"unknown subcommand {config.subcommand!r}")
    if config.format not in ("csv", "json"):
        raise ValidationError(f"unknown format {config.format!r}")
    return _HANDLERS[config.subcommand](config)


def _emit(result: RunResult) -> None:
    text = result.render_csv() if result.config.format == "csv" else result.render_json()
    if result.config.output:
        with open(result.config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        stem, _ = os.path.splitext(result.config.output)
        for name, body in sorted(result.extra_files.items()):
            with open(f"{stem}_{name}", "w", encoding="utf-8") as fh:
                fh.write(body)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randerslab",
        description=(
            "Geodesic-ball packings, rearrangement checks, Funk-model norms "
            "and a radial quasilinear solver on Randers model spaces."
        ),
    )
    parser.add_argument("--config", help="JSON run configuration (overrides flags)")
    sub = parser.add_subparsers(dest="subcommand")

    def common(sp):
        sp.add_argument("--output", default=None)
        sp.add_argument("--format", default="csv", choices=["csv", "json"])
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("packing", help="packing counts along a geodesic ray")
    sp.add_argument("--space", default="euclid", choices=["euclid", "poincare"])
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--curvature", type=float, default=-1.0)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--radii", required=True)
    sp.add_argument("--method", default="auto")
    common(sp)

    sp = sub.add_parser("expansion", help="expansion-condition table")
    sp.add_argument("--space", default="euclid", choices=["euclid", "poincare"])
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--curvature", type=float, default=-1.0)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--radii", required=True)
    sp.add_argument("--method", default="auto")
    sp.add_argument("--action", default="full", choices=["full", "product"])
    sp.add_argument("--blocks", default="2,2")
    common(sp)

    sp = sub.add_parser("hausdorff", help="orbit measure growth examples")
    sp.add_argument("--example", default="matrix", choices=["matrix", "product"])
    sp.add_argument("--lambda-grid", dest="lambda_grid", default="1:1e6:25:log")
    sp.add_argument("--blocks", default="2,2")
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--scale", type=float, default=10.0)
    common(sp)

    sp = sub.add_parser("rearrange", help="rearrangement of a radial profile")
    sp.add_argument("--space", default="euclid", choices=["euclid", "poincare"])
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--curvature", type=float, default=-1.0)
    sp.add_argument("--shape", default="tent", choices=["tent", "plateau"])
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--height", type=float, default=1.0)
    sp.add_argument("--cells", type=int, default=2048)
    common(sp)

    sp = sub.add_parser("funk", help="Funk-ball embedding failure table")
    sp.add_argument("--dim", default="3")
    sp.add_argument("--p", default="2")
    sp.add_argument("--q", default="4")
    common(sp)

    sp = sub.add_parser("embedding", help="radial embedding-constant estimates")
    sp.add_argument("--space", default="poincare", choices=["euclid", "poincare"])
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--curvature", type=float, default=-1.0)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", default="4")
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--y-radii", dest="y_radii", default="0")
    sp.add_argument("--grid", type=int, default=128)
    common(sp)

    sp = sub.add_parser("pde", help="quasilinear solver: interval + critical points")
    sp.add_argument("--problem", default=None, help="problem JSON file")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--kappa", type=float, default=1.5)
    sp.add_argument("--beta-a", dest="beta_a", type=float, default=0.2)
    sp.add_argument("--p", type=float, default=3.5)
    sp.add_argument("--alpha-rate", dest="alpha_rate", type=float, default=0.75)
    sp.add_argument("--cells", type=int, default=2048)
    sp.add_argument("--lambda-grid", dest="lambda_grid", default="auto")
    sp.add_argument("--s0", type=float, default=1.0)
    sp.add_argument("--big-r", dest="big_r", type=float, default=1.5)
    sp.add_argument("--small-r", dest="small_r", type=float, default=0.5)
    common(sp)

    return parser


_COMMON_KEYS = {"subcommand", "output", "format", "seed", "tol", "config"}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            return RunConfig.from_dict(json.load(fh))
    if not args.subcommand:
        raise ValidationError("a subcommand or --config is required")
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in _COMMON_KEYS and v is not None
    }
    return RunConfig(
        subcommand=args.subcommand,
        params=params,
        output=args.output,
        format=args.format,
        seed=args.seed,
        tol=args.tol,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        result = run(config)
    except (ValidationError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2
    _emit(result)
    if not result.passed:
        sys.stderr.write(
            json.dumps(
                {"error": "ChecksFailed", "failed": [k for k, v in result.checks.items() if not v]}
            )
            + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
