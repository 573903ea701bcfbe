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
from dataclasses import dataclass, field, replace
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

    def to_dict(self) -> dict:
        # the output path is deliberately not part of the embedded config:
        # the same run written to two places must stay byte-identical
        return {
            "subcommand": self.subcommand,
            "params": dict(sorted(self.params.items())),
            "format": self.format,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {"subcommand", "params", "output", "format", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            subcommand=data["subcommand"],
            params=dict(data.get("params", {})),
            output=data.get("output"),
            format=data.get("format", "csv"),
            seed=int(data.get("seed", 0)),
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
    if params["space"] == "euclid":
        return SpaceForm(params["dim"], 0.0)
    if params["space"] == "poincare":
        return SpaceForm(params["dim"], params["curvature"])
    raise ValidationError(f"unknown space {params['space']!r}")


def _nondecreasing(rows) -> dict:
    counts = [r["count"] for r in rows]
    return {"counts_nondecreasing": all(a <= b for a, b in zip(counts, counts[1:]))}


def _run_packing(config: RunConfig, params: dict) -> RunResult:
    space = _space_from_params(params)
    action = orbits.GroupAction(orbits.FULL_ROTATION)
    rows = orbits.expansion_profile(action, space, params["rho"], _parse_range(params["radii"]))
    return RunResult(config, ["distance", "rho", "count", "method"], rows, _nondecreasing(rows))


def _run_expansion(config: RunConfig, params: dict) -> RunResult:
    space = _space_from_params(params)
    rho = params["rho"]
    kind = params["action"]
    if kind == "full":
        action = orbits.GroupAction(orbits.FULL_ROTATION)
    elif kind == "product":
        blocks = tuple(int(b) for b in params["blocks"].split(","))
        action = orbits.GroupAction(orbits.PRODUCT_ROTATION, blocks)
        space = SpaceForm(sum(blocks), 0.0)
    else:
        raise ValidationError(f"unknown action {kind!r}")
    raw = orbits.expansion_profile(action, space, rho, _parse_range(params["radii"]))
    rows = [
        {**r, "normalized": r["count"] * rho / r["distance"] if r["distance"] > 0 else 0.0}
        for r in raw
    ]
    return RunResult(
        config, ["distance", "rho", "count", "method", "normalized"], rows, _nondecreasing(rows)
    )


def _run_hausdorff(config: RunConfig, params: dict) -> RunResult:
    example = params["example"]
    if example == "matrix":
        rows = []
        for lam in _parse_range(params["lambda_grid"]):
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
        blocks = [int(b) for b in params["blocks"].split(",")]
        rng = np.random.default_rng(config.seed)
        rows = []
        for _ in range(params["samples"]):
            y = rng.normal(size=sum(blocks))
            y *= rng.uniform(1.0, params["scale"]) / np.linalg.norm(y)
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


def _run_rearrange(config: RunConfig, params: dict) -> RunResult:
    space = _space_from_params(params)
    shape, cells = params["shape"], params["cells"]
    if shape == "tent":
        u = rearrange.tent_profile(space, params["radius"], params["height"], n=cells)
    elif shape == "plateau":
        u = rearrange.plateau_profile(space, params["radius"], params["height"], n=cells)
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


def _run_funk(config: RunConfig, params: dict) -> RunResult:
    dims = [int(v) for v in params["dim"].split(",")]
    ps = [float(v) for v in params["p"].split(",")]
    qs = [math.inf if v in ("inf", "") else float(v) for v in params["q"].split(",")]
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


def _run_embedding(config: RunConfig, params: dict) -> RunResult:
    space = _space_from_params(params)
    p = params["p"]
    q = math.inf if params["q"] == "inf" else float(params["q"])
    pair = sobolev.classify_pair(p, q, space.dim)
    if pair is None:
        raise ValidationError(f"(p, q) = ({p}, {q}) is not admissible in dim {space.dim}")
    centres = [np.array([r] + [0.0] * (space.dim - 1)) for r in _parse_range(params["y_radii"])]
    # the estimate does not depend on the centre (both model geometries are
    # homogeneous): compute it once; geodesic_distance validates every centre
    value = sobolev.embedding_constant(
        space, centres[0], params["rho"], pair, n_grid=params["grid"]
    )
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


def _run_pde(config: RunConfig, params: dict) -> RunResult:
    if params["problem"] is not None:
        with open(params["problem"], "r", encoding="utf-8") as fh:
            problem = pde.PDEProblem.from_dict(json.load(fh))
    else:
        problem = pde.example_problem(
            dim=params["dim"],
            kappa=params["kappa"],
            beta_sup=params["beta_a"],
            p=params["p"],
            alpha_rate=params["alpha_rate"],
            n_cells=params["cells"],
        )
    bp = pde.bonanno_parameters(problem, params["s0"], params["big_r"], params["small_r"])
    if params["lambda_grid"] == "auto":
        lam_t = pde.find_transition_lambda(problem, min(200.0, bp.a_bar))
        lams = [0.0, min(2.0 * lam_t, bp.a_bar)]
    else:
        lams = [float(v) for v in _parse_range(params["lambda_grid"])]
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
    columns = ["lambda", "solution", "energy", "gradient_norm", "sup_norm", "distinct_total",
               "converged_starts"]
    return RunResult(config, columns, rows, checks, extra_files=extra)


# Every parameter once: subcommand -> (handler, help line, {name: (type,
# default)}).  The flag is "--" + name with dashes; a None default leaves the
# key out of the config unless it is given.
_SPACE = {"space": (str, "euclid"), "dim": (int, 2), "curvature": (float, -1.0)}
_RAY = {"rho": (float, 1.0), "radii": (str, "")}
_SUBCOMMANDS = {
    "packing": (_run_packing, "packing counts along a geodesic ray", {**_SPACE, **_RAY}),
    "expansion": (
        _run_expansion,
        "expansion-condition table",
        {**_SPACE, **_RAY, "action": (str, "full"), "blocks": (str, "2,2")},
    ),
    "hausdorff": (
        _run_hausdorff,
        "orbit measure growth examples",
        {"example": (str, "matrix"), "lambda_grid": (str, "1:1e6:25:log"),
         "blocks": (str, "2,2"), "samples": (int, 100), "scale": (float, 10.0)},
    ),
    "rearrange": (
        _run_rearrange,
        "rearrangement of a radial profile",
        {**_SPACE, "shape": (str, "tent"), "radius": (float, 1.0), "height": (float, 1.0),
         "cells": (int, 2048)},
    ),
    "funk": (
        _run_funk,
        "Funk-ball embedding failure table",
        {"dim": (str, "3"), "p": (str, "2"), "q": (str, "4")},
    ),
    "embedding": (
        _run_embedding,
        "radial embedding-constant estimates",
        {**_SPACE, "space": (str, "poincare"), "dim": (int, 3), "p": (float, 2.0),
         "q": (str, "4"), "rho": (float, 1.0), "y_radii": (str, "0"), "grid": (int, 128)},
    ),
    "pde": (
        _run_pde,
        "quasilinear solver: interval + critical points",
        {"problem": (str, None), "dim": (int, 2), "kappa": (float, 1.5), "beta_a": (float, 0.2),
         "p": (float, 3.5), "alpha_rate": (float, 0.75), "cells": (int, 2048),
         "lambda_grid": (str, "auto"), "s0": (float, 1.0), "big_r": (float, 1.5),
         "small_r": (float, 0.5)},
    ),
}


def run(config: RunConfig) -> RunResult:
    """Execute one run; raises ValidationError for malformed configs.

    Parameters absent from config.params take their table defaults, and
    given ones are converted to their table types, as the flags are.  The
    result's config records every resolved parameter except those left at
    a None default, so a replayed config prints the header of the
    equivalent command line.
    """
    if config.subcommand not in _SUBCOMMANDS:
        raise ValidationError(f"unknown subcommand {config.subcommand!r}")
    if config.format not in ("csv", "json"):
        raise ValidationError(f"unknown format {config.format!r}")
    handler, _, spec = _SUBCOMMANDS[config.subcommand]
    unknown = set(config.params) - set(spec)
    if unknown:
        raise ValidationError(f"unknown parameters: {sorted(unknown)}")
    params = {
        name: kind(config.params[name]) if name in config.params else default
        for name, (kind, default) in spec.items()
    }
    resolved = {name: value for name, value in params.items() if value is not None}
    return handler(replace(config, params=resolved), params)


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


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ValidationError, so it gets the
    same JSON error record as every other validation error."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="randerslab",
        description=(
            "Geodesic-ball packings, rearrangement checks, Funk-model norms "
            "and a radial quasilinear solver on Randers model spaces."
        ),
    )
    parser.add_argument("--config", help="JSON run configuration (overrides flags)")
    sub = parser.add_subparsers(dest="subcommand")
    for name, (_, help_line, spec) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        for param, (kind, default) in spec.items():
            sp.add_argument("--" + param.replace("_", "-"), type=kind, default=default)
        sp.add_argument("--output", default=None)
        sp.add_argument("--format", default="csv")
        sp.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            return RunConfig.from_dict(json.load(fh))
    if not args.subcommand:
        raise ValidationError("a subcommand or --config is required")
    spec = _SUBCOMMANDS[args.subcommand][2]
    params = {k: getattr(args, k) for k in spec if getattr(args, k) is not None}
    return RunConfig(
        subcommand=args.subcommand,
        params=params,
        output=args.output,
        format=args.format,
        seed=args.seed,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = _config_from_args(_build_parser().parse_args(argv))
        result = run(config)
    except (
        ValidationError, ValueError, FileNotFoundError, json.JSONDecodeError, pde.SweepFailure
    ) as exc:
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
