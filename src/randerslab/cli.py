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
from .modelspace import SpaceForm, geodesic_distance, unit_ball_volume
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


def _convert(kind, value, name: str):
    """A flag or config value read as its text, kind(str(value)): the one
    converter of both, so a config accepts exactly what the command line
    accepts.  A float parameter must be finite."""
    try:
        converted = kind(str(value))
    except ValueError as exc:
        raise ValidationError(f"{name}: cannot read {value!r} as {kind.__name__}") from exc
    if kind is float and not math.isfinite(converted):
        raise ValidationError(f"{name}: must be finite, got {value!r}")
    return converted


# log 1e300: a magnitude that a run derives from its flags must stay below
# 1e300, which leaves headroom for the sums and products it makes of it
_LOG_RANGE = 300.0 * math.log(10.0)


def _check_range(name: str, value, log_magnitude: float, what: str) -> None:
    """Refuse a flag value from which the run would derive a magnitude
    e^log_magnitude above 1e300, before it builds any array from it."""
    if log_magnitude > _LOG_RANGE:
        raise ValidationError(f"{name} = {value!r} is out of range: {what} must stay below 1e300")


def _log_ball_volume(space: SpaceForm, radius: float) -> float:
    """log(radius * area_factor(space, radius)), within log(dim) of the log
    ball volume, computed without overflow for radius > 0."""
    x = math.sqrt(-space.curvature) * radius
    if x < 1e-8:  # Euclidean, or sinh(x) = x to double precision
        log_s = math.log(radius)
    else:  # s_c(radius) = sinh(x) / k
        log_s = (x - math.log(2.0) if x > 20.0 else math.log(math.sinh(x))) - math.log(x / radius)
    return math.log(space.dim * unit_ball_volume(space.dim)) + (space.dim - 1) * log_s + math.log(radius)


def _parse_range(spec: str) -> np.ndarray:
    """Range syntax: 'a:b:n:lin', 'a:b:n:log', 'a:b:log' (n = 10), or a
    comma-separated list of values.  A range needs finite ends and a
    finite span b - a; a listed value is passed on as read, inf and nan
    included, for the subcommand to check against its own domain."""
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
    if not math.isfinite(b - a):  # also refuses an inf or nan end
        raise ValidationError(f"range {spec!r} needs finite ends and a finite span")
    if kind == "log":
        if not (a > 0 and b > 0):
            raise ValidationError("log ranges need positive ends")
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
        if not isinstance(data, dict):
            raise ValidationError("a config must be a JSON object")
        known = {"subcommand", "params", "output", "format", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        subcommand, params, output = data.get("subcommand"), data.get("params", {}), data.get("output")
        if not isinstance(subcommand, str):
            raise ValidationError(f"config subcommand must be a name, got {subcommand!r}")
        if not isinstance(params, dict):
            raise ValidationError(f"config params must be an object, got {params!r}")
        if output is not None and not isinstance(output, str):
            raise ValidationError(f"config output must be a path, got {output!r}")
        return cls(
            subcommand=subcommand,
            params=dict(params),
            output=output,
            format=data.get("format", "csv"),
            seed=_convert(int, data.get("seed", 0), "seed"),
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
        if not params["curvature"] < 0:
            raise ValidationError(f"poincare needs a negative curvature, got {params['curvature']}")
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
        lams = _parse_range(params["lambda_grid"])
        for lam in lams[(lams > 0) & np.isfinite(lams)]:  # MatrixPoint refuses the rest
            _check_range("lambda_grid", float(lam), 2.0 * abs(math.log(lam)), "lambda^2 and lambda^-2")
            if not orbits.MatrixPoint.diagonal(float(lam)).eigenvalues[1] > 0.0:
                raise ValidationError(
                    f"lambda_grid = {float(lam)!r} is out of range: the smaller eigenvalue of "
                    "diag(lambda, 1/lambda) rounds to 0 from about lambda = 2^27 (or 2^-27)"
                )
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
        blocks = [int(b) for b in params["blocks"].split(",")]
        if params["samples"] < 1:
            raise ValidationError(f"samples must be at least 1, got {params['samples']}")
        if not params["scale"] >= 1.0:  # |y| is drawn from [1, scale]
            raise ValidationError(f"scale must be at least 1, got {params['scale']}")
        # |y|^2 in its norm and |y_i|^(block - 1) in the orbit measure
        log_power = max(2, max(blocks) - 1) * math.log(params["scale"])
        _check_range("scale", params["scale"], log_power, "scale^2 and scale^(block - 1)")
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
    radius, height = params["radius"], params["height"]
    if radius > 0 and cells > 0:  # the profile refuses the rest
        log_vol = _log_ball_volume(space, radius)
        _check_range("radius", radius, abs(log_vol), "the ball volume and its reciprocal")
        # the q = 2 norms, and the p = 2 gradient norms of slopes up to
        # height * cells / radius (the plateau's rim cell)
        if height != 0:
            log_h = math.log(abs(height)) + max(0.0, math.log(cells / radius))
            _check_range("height", height, 2.0 * log_h + max(0.0, log_vol),
                         "max(height, height * cells / radius)^2 times the ball volume")
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
    columns = [np.where(grid <= v.radius, v.interp(grid), 0.0).tolist() for v in (u, u_star)]
    rows = [{"r": r, "u": a, "u_star": b} for r, a, b in zip(grid.tolist(), *columns)]
    return RunResult(config, ["r", "u", "u_star"], rows, checks)


def _run_funk(config: RunConfig, params: dict) -> RunResult:
    dims = [int(v) for v in params["dim"].split(",")]
    ps = [float(v) for v in params["p"].split(",")]
    if not all(map(math.isfinite, ps)):
        raise ValidationError(f"p: every p must be finite in {params['p']!r}")
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
    if params["rho"] > 0:  # embedding_constant refuses the rest
        log_vol = abs(_log_ball_volume(space, params["rho"]))
        _check_range("rho", params["rho"], log_vol, "the ball volume and its reciprocal")
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
        # the file replaces the built-in problem's parameters: one away from
        # its default is an error, and the record leaves them all out
        built_in, spec = ("dim", "kappa", "beta_a", "p", "alpha_rate", "cells"), _SUBCOMMANDS["pde"][2]
        clash = ["--" + k.replace("_", "-") for k in built_in if params[k] != spec[k][1]]
        if clash:
            raise ValidationError(f"a --problem file replaces {', '.join(clash)}; leave them out")
        config = replace(config, params={k: v for k, v in config.params.items() if k not in built_in})
        problem = _read_json(params["problem"], "problem", pde.PDEProblem.from_dict)
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
        if not all(map(math.isfinite, lams)):
            raise ValidationError(f"lambda_grid: every lambda must be finite in {params['lambda_grid']!r}")
    reports = pde.multi_start_solve(problem, lams)
    rows = []
    ok_gradient = True
    profiles = {}
    for rep in reports:
        for k, (prof, e_val, g_norm) in enumerate(
            zip(rep.profiles, rep.energies, rep.gradient_norms)
        ):
            ok_gradient = ok_gradient and g_norm <= pde.GRADIENT_TOL * (1.0 + abs(e_val))
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

    Parameters absent from config.params or null there take their table
    defaults; given ones are read from their text, a flag's as a config's.
    The result's config records every resolved parameter except those left
    at a None default or replaced by a `pde` problem file, so a replayed
    config prints the header of the equivalent command line.
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
        name: default if config.params.get(name) is None else _convert(kind, config.params[name], name)
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
        # a flag not given leaves no attribute: its default is run()'s
        sp = sub.add_parser(name, help=help_line, argument_default=argparse.SUPPRESS)
        for param in spec:
            sp.add_argument("--" + param.replace("_", "-"))
        sp.add_argument("--output")
        sp.add_argument("--format")
        sp.add_argument("--seed")
    return parser


def _read_json(path: str, what: str, build):
    """build(data) of the JSON file at path.  A file that is not JSON, or
    whose data build refuses, is a ValidationError that names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{what}: {path} is not JSON ({exc})") from None
    try:
        return build(data)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValidationError(f"{what}: {path} is malformed ({type(exc).__name__}: {exc})") from None


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The flags given, as the dict a --config file holds: both are read by
    RunConfig.from_dict and their values by run()."""
    if args.config:
        return _read_json(args.config, "config", RunConfig.from_dict)
    if not args.subcommand:
        raise ValidationError("a subcommand or --config is required")
    flags = {k: v for k, v in vars(args).items() if k != "config"}
    params = {k: flags.pop(k) for k in _SUBCOMMANDS[args.subcommand][2] if k in flags}
    return RunConfig.from_dict({**flags, "params": params})


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = _config_from_args(_build_parser().parse_args(argv))
        result = run(config)
        _emit(result)
    except (ValidationError, ValueError, OSError, pde.SweepFailure) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2
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
