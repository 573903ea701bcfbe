import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from randerslab import sobolev
from randerslab.cli import _SUBCOMMANDS, RunConfig, ValidationError, _build_parser, main, run
from randerslab.modelspace import SpaceForm
from randerslab.orbits import FULL_ROTATION, PRODUCT_ROTATION, GroupAction, expansion_profile
from randerslab.pde import PDEProblem, example_problem


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_text() if out.exists() else None


class TestDeterminism:
    CASES = {
        "packing": ["packing", "--space", "euclid", "--dim", "2", "--rho", "1", "--radii", "10:200:4:log"],
        "expansion": ["expansion", "--space", "poincare", "--dim", "2", "--rho", "1", "--radii", "0.9,0.95,0.99"],
        "hausdorff": ["hausdorff", "--example", "product", "--samples", "20", "--seed", "7"],
        "rearrange": ["rearrange", "--space", "poincare", "--dim", "2", "--shape", "tent", "--cells", "300"],
        "funk": ["funk", "--dim", "2,3", "--p", "1.5,2", "--q", "2.5,4"],
        "embedding": ["embedding", "--space", "euclid", "--dim", "3", "--p", "2", "--q", "4", "--y-radii", "0,1", "--grid", "64"],
        "pde": ["pde", "--cells", "128", "--lambda-grid", "0,1"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_identical_across_runs(self, tmp_path, name):
        code1, text1 = run_to_file(tmp_path, f"{name}_1.csv", self.CASES[name])
        code2, text2 = run_to_file(tmp_path, f"{name}_2.csv", self.CASES[name])
        assert code1 == code2 == 0
        assert text1 == text2
        assert text1.startswith("# schema=1\n")
        # the files written beside the output (pde: one profile CSV per solution)
        extras = [
            {p.name[len(stem):]: p.read_bytes() for p in tmp_path.glob(f"{stem}_*")}
            for stem in (f"{name}_1", f"{name}_2")
        ]
        assert extras[0] == extras[1]
        assert bool(extras[0]) == (name == "pde")

    def test_json_format_deterministic(self, tmp_path):
        argv = self.CASES["funk"] + ["--format", "json"]
        _, a = run_to_file(tmp_path, "f1.json", argv)
        _, b = run_to_file(tmp_path, "f2.json", argv)
        assert a == b
        payload = json.loads(a)
        assert payload["schema"] == 1
        assert payload["checks"]["embedding_fails_everywhere"] is True


class TestGoldenAgainstModules:
    def test_packing_matches_expansion_profile(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            "p.csv",
            ["packing", "--space", "euclid", "--dim", "2", "--rho", "1", "--radii", "10:1000:5:log"],
        )
        assert code == 0
        body = [l for l in text.splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in body[1:]]
        expected = expansion_profile(
            GroupAction(FULL_ROTATION), SpaceForm(2, 0.0), 1.0, np.geomspace(10, 1000, 5)
        )
        assert len(rows) == len(expected)
        for got, exp in zip(rows, expected):
            assert float(got[0]) == pytest.approx(exp["distance"], rel=1e-15)
            assert int(got[2]) == exp["count"]

    def test_product_expansion_matches_expansion_profile(self, tmp_path):
        argv = ["expansion", "--action", "product", "--blocks", "2,3", "--rho", "2", "--radii", "5,20",
                "--format", "json"]
        code, text = run_to_file(tmp_path, "e.json", argv)
        assert code == 0
        rows = json.loads(text)["rows"]
        action = GroupAction(PRODUCT_ROTATION, (2, 3))
        expected = expansion_profile(action, SpaceForm(5, 0.0), 2.0, np.array([5.0, 20.0]))
        assert [{k: r[k] for k in ("distance", "rho", "count", "method")} for r in rows] == expected
        assert [r["normalized"] for r in rows] == [r["count"] * 2.0 / r["distance"] for r in expected]

    def test_failed_check_exits_1_and_writes_the_body(self, tmp_path, capsys, monkeypatch):
        # a run whose check fails still writes its body, which shows the
        # check as false, and exits 1 with the ChecksFailed record
        real = sobolev.funk_counterexample
        monkeypatch.setattr(
            sobolev, "funk_counterexample",
            lambda d, pair: dataclasses.replace(real(d, pair), embedding_fails=False),
        )
        code, text = run_to_file(tmp_path, "f.csv", ["funk", "--dim", "2"])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ChecksFailed", "failed": ["embedding_fails_everywhere"],
        }
        assert "# check_embedding_fails_everywhere=false" in text.splitlines()

    def test_funk_row_content(self, tmp_path):
        code, text = run_to_file(tmp_path, "f.csv", ["funk", "--dim", "3", "--p", "2", "--q", "4"])
        assert code == 0
        body = [l for l in text.splitlines() if not l.startswith("#")]
        header = body[0].split(",")
        row = dict(zip(header, body[1].split(",")))
        assert row["regime"] == "S"
        assert float(row["t"]) == 3.0
        assert row["lq_norm"] == "DIVERGENT"
        assert row["fails"] == "true"
        assert float(row["w_bound"]) > 0


class TestRangeParsing:
    def test_three_part_log_form(self):
        from randerslab.cli import _parse_range

        values = _parse_range("10:1000:log")
        assert values.size == 10
        assert values[0] == pytest.approx(10.0)
        assert values[-1] == pytest.approx(1000.0)

    def test_comma_list_and_single_value(self):
        from randerslab.cli import _parse_range

        assert _parse_range("1,2,5").tolist() == [1.0, 2.0, 5.0]
        assert _parse_range("3.5").tolist() == [3.5]

    def test_malformed_forms_rejected(self):
        from randerslab.cli import _parse_range

        for bad in ["", "1:2:3:4:5", "a:b", "1:10:0:lin", "0:10:3:log", "10:-5:log", "1:0:3:log"]:
            with pytest.raises(ValidationError):
                _parse_range(bad)


# finite flags whose derived magnitudes leave the float range: each is
# refused by value, before any array is built, with a record that names the
# parameter
_OUT_OF_RANGE = [
    (["pde", "--kappa", "1e300", "--cells", "16"], "ValueError", "kappa"),
    (["rearrange", "--radius", "1e308"], "ValidationError", "radius"),
    (["rearrange", "--height", "1e308"], "ValidationError", "height"),
    (["embedding", "--rho", "1e300"], "ValidationError", "rho"),
    (["embedding", "--space", "euclid", "--rho", "1e-300"], "ValidationError", "rho"),
    (["hausdorff", "--example", "product", "--blocks", "2,2", "--samples", "1", "--scale", "1e200"],
     "ValidationError", "scale"),
    (["hausdorff", "--example", "matrix", "--lambda-grid", "1e-300:1e300:5:log"], "ValidationError",
     "lambda_grid"),
    (["funk", "--dim", "2", "--p", "inf", "--q", "inf"], "ValidationError", "p"),
]

# dimensions from 283, whose ball volume's Gamma(dim/2 + 1) overflows in
# its Lanczos power, are refused by value too
_BALL_VOLUME_OVERFLOW = [
    (["packing", "--dim", "283", "--radii", "1"], "ValueError", "dim"),
    (["expansion", "--dim", "283", "--radii", "1"], "ValueError", "dim"),
    (["rearrange", "--dim", "283", "--cells", "16"], "ValueError", "dim"),
    (["funk", "--dim", "283", "--p", "300", "--q", "inf"], "ValueError", "dim"),
    (["embedding", "--space", "euclid", "--dim", "283", "--p", "290", "--q", "inf", "--grid", "8"],
     "ValueError", "dim"),
]


class TestValidation:
    def test_empty_radii_rejected(self, capsys):
        code = main(["packing", "--radii", ""])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err

    def test_unknown_subcommand_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"subcommand": "nope", "params": {}}))
        assert main(["--config", str(cfg)]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad2.json"
        cfg.write_text(json.dumps({"subcommand": "funk", "params": {}, "bogus": 1}))
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "config",
        [
            {"subcommand": "funk", "params": {}, "tol": 1e-10},
            {"subcommand": "packing", "params": {"radii": "10", "method": "auto"}},
        ],
    )
    def test_retired_tol_and_method_rejected(self, tmp_path, capsys, config):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    def test_unknown_param_rejected(self):
        with pytest.raises(ValidationError):
            run(RunConfig(subcommand="funk", params={"nonsense": 1}))

    def test_inadmissible_embedding_pair(self, capsys):
        code = main(["embedding", "--space", "euclid", "--dim", "3", "--p", "2", "--q", "8"])
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["rearrange", "--shape", "foo"],
            ["packing", "--space", "foo", "--radii", "1"],
            ["funk", "--format", "xml"],
            ["packing", "--dim", "abc", "--radii", "1"],
            ["pde", "--rho", "1"],
            ["packing", "--radii", "10:100:3:log", "--method", "greedy"],
            ["funk", "--tol", "1e-9"],
            ["hausdorff", "--example", "product", "--samples", "0"],
            ["expansion", "--space", "poincare", "--curvature", "0", "--radii", "1"],
            ["rearrange", "--radius", "inf"],
            ["rearrange", "--height", "inf"],
            ["rearrange", "--shape", "plateau", "--radius", "inf"],
            ["embedding", "--rho", "inf"],
            ["pde", "--s0", "inf"],
            ["pde", "--kappa", "inf"],
            ["hausdorff", "--example", "product", "--scale", "inf"],
            ["hausdorff", "--example", "product", "--scale", "0"],
            ["hausdorff", "--example", "product", "--scale", "0.5"],
            ["pde", "--cells", "64", "--lambda-grid", "inf"],
            ["pde", "--cells", "64", "--lambda-grid", "1,nan"],
            ["packing", "--radii", "1:inf:3"],
            ["packing", "--radii", "nan:10:3"],
            ["packing", "--radii=-1e308:1e308:3"],
        ],
    )
    def test_command_line_error_gives_error_record(self, capsys, argv):
        # a bad choice, a bad type, a non-finite float or an unknown flag
        # gets the same one-line JSON record as every other validation error
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "usage" not in captured.err
        assert json.loads(lines[0])["error"] == "ValidationError"


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["expansion", "--action", "foo", "--radii", "1"], "unknown action 'foo'"),
            (["hausdorff", "--example", "foo"], "unknown hausdorff example 'foo'"),
            (["packing", "--radii", "1:2:3:foo"], "radii: unknown range kind 'foo'"),
            (["funk", "--dim", "2", "--p", "2", "--q", "1"], "no admissible (p, q, d) combination given"),
            (["funk", "--dim", "abc"], "dim: cannot read 'abc' as int"),
            (["funk", "--p", "2,x"], "p: cannot read 'x' as float"),
            (["expansion", "--action", "product", "--blocks", "x"], "blocks: cannot read 'x' as int"),
            (["embedding", "--q", "abc"], "q: cannot read 'abc' as exponent"),
            (["funk", "--q", "4,,5"], "q: cannot read '' as exponent"),
            (["funk", "--q", "Infinity"], "q: cannot read 'Infinity' as exponent"),
            (["packing", "--radii", "1,x"], "radii: cannot parse range '1,x'"),
        ],
        ids=["expansion-action", "hausdorff-example", "range-kind", "funk-no-pair", "int-list",
             "float-list", "product-blocks", "exponent", "empty-exponent-token", "inf-spelling",
             "range-list"],
    )
    def test_refusal_names_what_it_refuses(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValidationError", "message": message}

    @pytest.mark.parametrize(
        "subcommand, name",
        [(subcommand, name) for subcommand, (_, _, spec) in _SUBCOMMANDS.items() for name in spec
         if name != "problem"],
    )
    def test_every_malformed_parameter_is_named(self, capsys, subcommand, name):
        # 'x' reads as no kind of the table; a str parameter is a choice
        # that its handler refuses as unknown, every other is refused by
        # run()'s reader before any work, with its name in front
        ray = ["--radii", "1"] if name != "radii" and subcommand in ("packing", "expansion") else []
        assert main([subcommand, "--" + name.replace("_", "-"), "x"] + ray) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValidationError"
        if _SUBCOMMANDS[subcommand][2][name][0] is str:
            assert record["message"].startswith("unknown ") and record["message"].endswith(f"{name} 'x'")
        else:
            assert record["message"].startswith(name + ": ")

    def test_largest_dimension_runs(self, tmp_path):
        # dim = 282 is the last whose ball volume gamma_fn computes
        assert run_to_file(tmp_path, "funk.csv", ["funk", "--dim", "282", "--p", "300", "--q", "inf"])[0] == 0

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["embedding", "--grid", "0"], "ValueError"),
            (["hausdorff", "--example", "matrix", "--lambda-grid", "0"], "ValueError"),
            (["hausdorff", "--example", "matrix", "--lambda-grid", "1,inf"], "ValueError"),
            (["pde", "--cells", "1", "--lambda-grid", "0"], "SweepFailure"),
            (["rearrange", "--radius", "0"], "ValueError"),
            (["rearrange", "--shape", "plateau", "--radius", "0"], "ValueError"),
            (["packing", "--radii", "1e308"], "ValueError"),
            (["expansion", "--space", "euclid", "--dim", "3", "--radii", "1e308"], "ValueError"),
            (["expansion", "--space", "euclid", "--dim", "3", "--radii", "1e200"], "ValueError"),
            (["packing", "--dim", "4", "--radii", "1e110"], "ValueError"),
            *[(argv, error) for argv, error, _ in _OUT_OF_RANGE],
            # s^q underflows in the (A3) check, then no interval is found
            (["pde", "--dim", "40", "--p", "41", "--cells", "16"], "SweepFailure"),
            # the discrete quotient of the embedding search overflows: |slope|^p
            # at the seeds, |u|^q in a trial's retraction, or the ball's weights
            (["embedding", "--space", "euclid", "--dim", "2", "--p", "150", "--q", "inf"], "ValueError"),
            (["embedding", "--space", "poincare", "--dim", "2", "--p", "2", "--q", "400"], "ValueError"),
            (["embedding", "--space", "euclid", "--rho", "1e99"], "ValueError"),
            (["embedding", "--space", "euclid", "--rho", "1e-99"], "ValueError"),
            (["embedding", "--space", "euclid", "--dim", "3", "--rho", "1e55", "--grid", "32"], "ValueError"),
            *[(argv, error) for argv, error, _ in _BALL_VOLUME_OVERFLOW],
        ],
    )
    def test_out_of_domain_value_gives_error_record(self, capsys, argv, error):
        # an empty embedding grid, a matrix orbit at lambda <= 0 or lambda =
        # inf, a pde sweep that finds no interval, a profile of radius 0,
        # an orbit radius whose (2 r)^2 or r^(dim - 1) overflows, an
        # embedding search that overflows and the flags of _OUT_OF_RANGE all
        # exit 2 with the one-line JSON record, not a traceback
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == error

    @pytest.mark.parametrize("argv, error, name", _OUT_OF_RANGE + _BALL_VOLUME_OVERFLOW)
    def test_out_of_range_record_names_the_parameter(self, capsys, argv, error, name):
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == error and record["message"].split()[0] in (name, name + ":")

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["packing", "--radii", "1:2:100000000000000000"], "radii"),
            (["hausdorff", "--lambda-grid", "1:2:100000000000000000:log"], "lambda_grid"),
            (["pde", "--lambda-grid", "0:1:100000000000000000"], "lambda_grid"),
        ],
    )
    def test_range_whose_points_cannot_be_allocated(self, capsys, argv, name):
        # 10^17 points are 800 PB, past the address space, so numpy's
        # allocation fails at once: a record, not a MemoryError traceback
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValidationError" and record["message"].startswith(name + ": ")

    @pytest.mark.parametrize("s0", ["1e100", "1e300"])
    def test_pde_s0_whose_ramp_energy_overflows(self, capsys, s0):
        # the ramp's co-norm^p overflows, and at 1e300 J is inf - inf: the
        # record names s0, not a RuntimeWarning or a non-positive J
        assert main(["pde", "--cells", "16", "--lambda-grid", "0", "--s0", s0]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "SweepFailure" and record["message"].startswith(f"s0 = {float(s0)}:")

    @pytest.mark.parametrize("lam", ["1e9", "1e-9", "1:1e9:3:log"])
    def test_matrix_lambda_whose_smaller_eigenvalue_rounds_to_zero(self, capsys, lam):
        # from lambda = 2^27 (and below 2^-27) the smaller eigenvalue of
        # diag(lambda, 1/lambda) rounds to 0 and its log has no value
        assert main(["hausdorff", "--example", "matrix", "--lambda-grid", lam]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValidationError" and record["message"].split()[0] == "lambda_grid"


class TestParameterDefaults:
    def test_run_and_flags_share_defaults(self, tmp_path):
        # a config that names only the grid gets the same defaults as the flags
        argv = ["embedding", "--grid", "16", "--format", "json"]
        code, text = run_to_file(tmp_path, "emb.json", argv)
        assert code == 0
        assert run(RunConfig("embedding", {"grid": 16})).rows == json.loads(text)["rows"]

    def test_config_run_records_resolved_parameters(self, tmp_path):
        # a config that names only the grid prints the header of the flags
        code, text = run_to_file(tmp_path, "emb.csv", ["embedding", "--grid", "16"])
        assert code == 0
        assert run(RunConfig("embedding", {"grid": 16})).render_csv() == text
        config = run(RunConfig("funk", {"dim": "2"})).config
        assert config.params == {"dim": "2", "p": "2", "q": "4"}
        # a None default (no --problem file) stays out of the record
        assert "problem" not in run(
            RunConfig("pde", {"cells": 64, "lambda_grid": "0"})
        ).config.params

    @pytest.mark.parametrize(
        "argv",
        [
            ["packing", "--rho", "1", "--radii", "10:200:4:log"],
            ["embedding", "--grid", "16", "--dim", "2", "--p", "3", "--q", "inf"],
        ],
    )
    def test_config_replay_is_byte_identical(self, tmp_path, argv):
        code, text = run_to_file(tmp_path, "direct.csv", argv)
        assert code == 0
        config = json.loads(text.splitlines()[1][len("# config=") :])
        config["output"] = str(tmp_path / "replay.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["--config", str(cfg_path)]) == 0
        assert (tmp_path / "replay.csv").read_text() == text


class TestConfigValues:
    @pytest.mark.parametrize(
        "config",
        [
            {"subcommand": "funk", "seed": None},
            {"subcommand": "funk", "seed": 2.5},
            {"subcommand": "funk", "params": None},
            {"subcommand": "funk", "params": ["dim", "3"]},
            {"params": {}},
            {"subcommand": ["pde"]},
            {"subcommand": "funk", "output": 3},
            ["funk"],
            {"subcommand": "embedding", "params": {"dim": 2.7}},
            {"subcommand": "embedding", "params": {"grid": True}},
        ],
    )
    def test_rejected_with_error_record(self, tmp_path, capsys, config):
        # each one is read as its flag text is: --dim 2.7 and --grid True
        # are not integers
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "params",
        [
            {"grid": None},
            {"grid": None, "dim": None, "q": None},
        ],
    )
    def test_null_parameter_takes_its_default(self, params):
        assert run(RunConfig("embedding", params)).render_csv() == run(RunConfig("embedding")).render_csv()

    @pytest.mark.parametrize(
        "param, value", [("dim", "abc"), ("dim", "2.5"), ("rho", "inf"), ("curvature", "x")]
    )
    def test_flag_and_config_value_get_one_record(self, tmp_path, capsys, param, value):
        # both reach run() as text, so one converter refuses both alike
        assert main(["packing", "--radii", "1", "--" + param, value]) == 2
        from_flag = capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "packing", "params": {"radii": "1", param: value}}))
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == from_flag
        assert json.loads(from_flag)["message"].startswith(param + ": ")

    def test_parser_leaves_every_value_as_text(self):
        # a flag not given leaves no attribute, and a given one stays text
        args = _build_parser().parse_args(["funk", "--dim", "2", "--seed", "3"])
        assert vars(args) == {"config": None, "subcommand": "funk", "dim": "2", "seed": "3"}

    def test_null_problem_solves_the_built_in_problem(self):
        base = {"cells": 32, "lambda_grid": "0"}
        with_null = run(RunConfig("pde", {**base, "problem": None}))
        assert with_null.render_csv() == run(RunConfig("pde", base)).render_csv()


class TestProductAction:
    """--action product packs in R^sum(blocks), so it replaces --space,
    --curvature and --dim, as a pde --problem file replaces its flags."""

    ARGV = ["expansion", "--action", "product", "--blocks", "2,3", "--rho", "2", "--radii", "5"]

    def test_config_records_only_what_the_run_uses(self):
        result = run(RunConfig("expansion", {"action": "product", "blocks": "2,3", "rho": 2,
                                             "radii": "5", "dim": 2}))
        assert result.config.params == {"action": "product", "blocks": "2,3", "radii": "5", "rho": 2.0}

    @pytest.mark.parametrize(
        "flags",
        [["--space", "poincare"], ["--curvature", "-4"], ["--dim", "7"],
         ["--space", "poincare", "--curvature", "-4", "--dim", "7"]],
    )
    def test_replaced_parameters_are_rejected(self, capsys, flags):
        assert main(self.ARGV + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("--action product replaces")
        assert all(flag in record["message"] for flag in flags[::2])


class TestPdeProblemFile:
    @pytest.fixture
    def problem_file(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(example_problem(n_cells=64).to_dict()))
        return str(path)

    def test_config_records_only_what_the_run_uses(self, problem_file):
        # the file replaces the built-in problem's parameters, so they stay
        # out of the record; a flag at its default is accepted
        result = run(RunConfig("pde", {"problem": problem_file, "lambda_grid": "0", "dim": 2}))
        assert result.config.params == {
            "big_r": 1.5, "lambda_grid": "0", "problem": problem_file, "s0": 1.0, "small_r": 0.5,
        }
        grid = next(iter(result.extra_files.values())).splitlines()
        assert len(grid) == 1 + 65

    def test_readme_problem_is_the_built_in_problem(self):
        # the README's problem file round-trips and is the pde default at 2048 cells
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        assert PDEProblem.from_dict(block).to_dict() == block == example_problem(n_cells=2048).to_dict()

    @pytest.mark.parametrize(
        "flags", [["--cells", "999"], ["--dim", "3"], ["--kappa", "2", "--p", "4"]]
    )
    def test_replaced_parameters_are_rejected(self, problem_file, capsys, flags):
        assert main(["pde", "--problem", problem_file, "--lambda-grid", "0"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValidationError"
        assert all(flag in record["message"] for flag in flags[::2])


def _without_alpha(data):
    del data["alpha"]
    return data


def _with(key, value):
    def edit(data):
        data[key] = value
        return data

    return edit


def _with_grid(key, value):
    def edit(data):
        data["grid"][key] = value
        return data

    return edit


def _with_q(q):
    def edit(data):
        data["nonlinearity"]["params"]["q"] = q
        return data

    return edit


class TestFileErrors:
    """A malformed problem or config file, a directory in place of a file
    and an output path in a missing directory each exit 2 with the one-line
    JSON record naming the file, not a traceback."""

    @pytest.mark.parametrize(
        "edit",
        [_without_alpha, _with_q("4.5"), _with("p", None), _with("nonlinearity", "reference"), lambda data: [data]],
        ids=["no-alpha", "string-q", "null-p", "nonlinearity-name-only", "top-level-list"],
    )
    def test_malformed_problem_file(self, tmp_path, capsys, edit):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(edit(example_problem(n_cells=64).to_dict())))
        self._assert_record(capsys, ["pde", "--problem", str(path), "--lambda-grid", "0"], str(path))

    @pytest.mark.parametrize(
        "argv",
        [["pde", "--problem", "{dir}", "--lambda-grid", "0"], ["--config", "{dir}"]],
        ids=["problem", "config"],
    )
    def test_directory_in_place_of_a_file(self, tmp_path, capsys, argv):
        self._assert_record(capsys, [a.format(dir=tmp_path) for a in argv], str(tmp_path))

    def test_output_into_a_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "table.csv")
        self._assert_record(capsys, ["funk", "--dim", "2", "--output", out], out)

    @pytest.mark.parametrize(
        "argv",
        [["pde", "--problem", "{path}", "--lambda-grid", "0"], ["--config", "{path}"]],
        ids=["problem", "config"],
    )
    def test_file_that_is_not_json(self, tmp_path, capsys, argv):
        path = tmp_path / "truncated.json"
        path.write_text('{"subcommand": "pde", ')
        self._assert_record(capsys, [a.format(path=path) for a in argv], str(path), "Expecting")

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"subcommand": "funk", "params": {"dim": "2"}, "foo": 1}, "unknown config keys: ['foo']"),
            ([1], "a config must be a JSON object"),
            ({"subcommand": "funk", "seed": "x"}, "seed: cannot read 'x' as int"),
        ],
        ids=["unknown-key", "not-an-object", "seed"],
    )
    def test_malformed_config_file(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        self._assert_record(capsys, ["--config", str(path)], f"config: {path} is malformed", message)

    def test_beta_sup_that_does_not_match_the_profile(self, tmp_path, capsys):
        data = example_problem(n_cells=64).to_dict()
        data["randers"]["beta_sup"] = 0.3
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        argv = ["pde", "--problem", str(path), "--lambda-grid", "0"]
        self._assert_record(capsys, argv, f"problem: {path} is malformed", "beta_sup does not match")

    @pytest.mark.parametrize(
        "edit, key",
        [(_with("lamda", 5.0), "lamda"), (_with_grid("ncells", 8), "grid.ncells")],
        ids=["top-level", "grid"],
    )
    def test_unknown_key_in_problem_file(self, tmp_path, capsys, edit, key):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(edit(example_problem(n_cells=64).to_dict())))
        self._assert_record(capsys, ["pde", "--problem", str(path), "--lambda-grid", "0"], str(path), key)

    @staticmethod
    def _assert_record(capsys, argv, *words):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["message"]
        assert all(word in message for word in words), message


class TestConfigRoundTrip:
    def test_emitted_config_reingests_identically(self, tmp_path):
        argv = ["funk", "--dim", "2,3", "--p", "1.5,2", "--q", "2.5,4"]
        code, text = run_to_file(tmp_path, "direct.csv", argv)
        assert code == 0
        config_line = next(l for l in text.splitlines() if l.startswith("# config="))
        config = json.loads(config_line[len("# config=") :])
        config["output"] = str(tmp_path / "via_config.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["--config", str(cfg_path)]) == 0
        via = (tmp_path / "via_config.csv").read_text()
        # bodies identical apart from the output path recorded in the header
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("# config=")]
        assert strip(via) == strip(text)


class TestThreadCap:
    def test_parallel_runs_stay_deterministic(self, tmp_path, monkeypatch):
        argv = [
            "embedding", "--space", "euclid", "--dim", "3", "--p", "2", "--q", "4",
            "--y-radii", "0,1,2,3", "--grid", "48",
        ]
        monkeypatch.delenv("RANDERS_LAB_THREADS", raising=False)
        _, serial = run_to_file(tmp_path, "serial.csv", argv)
        monkeypatch.setenv("RANDERS_LAB_THREADS", "4")
        _, parallel = run_to_file(tmp_path, "parallel.csv", argv)
        assert serial == parallel


class TestEmbeddingTable:
    """The estimate does not depend on the centre, so a table computes it
    once and reports it on every row."""

    @pytest.mark.parametrize("radii, n_rows", [("0", 1), ("0,0.5", 2), ("0:0.8:5:lin", 5)])
    def test_one_estimate_per_table(self, tmp_path, monkeypatch, radii, n_rows):
        calls = []
        original = sobolev.embedding_constant

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sobolev, "embedding_constant", counting)
        argv = [
            "embedding", "--space", "poincare", "--dim", "3", "--p", "2", "--q", "4",
            "--y-radii", radii, "--grid", "32", "--format", "json",
        ]
        code, text = run_to_file(tmp_path, "emb.json", argv)
        assert code == 0
        assert len(calls) == 1
        rows = json.loads(text)["rows"]
        assert len(rows) == n_rows
        expected = original(
            SpaceForm(3, -1.0), np.zeros(3), 1.0, sobolev.classify_pair(2.0, 4.0, 3), n_grid=32
        )
        assert all(row["estimate"] == expected for row in rows)

    def test_invalid_centre_keeps_error_record(self, capsys):
        code = main(["embedding", "--space", "poincare", "--dim", "3", "--p", "2", "--q", "4",
                     "--y-radii", "0,1.0", "--grid", "16"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": "Poincare-ball points need Euclidean norm < 1, got 1",
        }


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "randerslab", "funk", "--dim", "3", "--p", "2", "--q", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "embedding_fails_everywhere=true" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, randerslab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_circle_tables_load_no_scipy(self):
        # the README packing and 2-D expansion tables certify exact circle
        # counts by adjacent angles; the 3-D and product expansions and the
        # conjugation packings walk without a tree and are certified by
        # blocks and cell lists: none loads scipy
        code = (
            "import sys\n"
            "from randerslab import orbits\n"
            "from randerslab.cli import RunConfig, run\n"
            "for name, params, method in [\n"
            "    ('packing', {'space': 'euclid', 'dim': 2, 'rho': 1, 'radii': '10:1000:log'}, 'ANGULAR_EXACT'),\n"
            "    ('expansion', {'space': 'poincare', 'dim': 2, 'rho': 1, 'radii': '0.9,0.99,0.999'}, 'ANGULAR_EXACT'),\n"
            "    ('expansion', {'space': 'poincare', 'dim': 3, 'radii': '0.9,0.99'}, 'GREEDY'),\n"
            "    ('expansion', {'action': 'product', 'blocks': '2,3', 'rho': 2, 'radii': '5:40:4:lin'}, 'GREEDY'),\n"
            "]:\n"
            "    result = run(RunConfig(subcommand=name, params=params))\n"
            "    assert result.passed and method in result.render_csv()\n"
            "for lam in (10.0, 100.0):\n"
            "    y = orbits.MatrixPoint.diagonal(lam)\n"
            "    orbits.packing_count(orbits.GroupAction(orbits.MATRIX_CONJUGATION), None, y, 0.5)\n"
            "print([m for m in sys.modules if m.startswith('scipy')])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_pde_and_grid_doubling_load_only_lapack(self):
        # every nontrivial point of the 256-cell run, the minimum and the
        # mountain-pass point, survives the doubled grid, and the run and
        # the checks load scipy's LAPACK extension alone, not the
        # scipy.linalg package
        code = (
            "import sys\n"
            "from randerslab import pde\n"
            "from randerslab.cli import RunConfig, run\n"
            "result = run(RunConfig(subcommand='pde', params={'cells': 256}))\n"
            "problem = pde.example_problem(beta_sup=0.2, alpha_rate=0.75, n_cells=256)\n"
            "mountain_pass = []\n"
            "for row in result.rows:\n"
            "    if row['sup_norm'] > 0:\n"
            "        name = f\"lambda{row['lambda']:.6g}_sol{row['solution']}.csv\"\n"
            "        body = result.extra_files[name].splitlines()[1:]\n"
            "        values = [float(line.split(',')[1]) for line in body]\n"
            "        at = pde.replace_lambda(problem, row['lambda'])\n"
            "        assert pde.grid_doubling_check(at, values).stable(), name\n"
            "        mountain_pass.append(row['energy'] > 0)\n"
            "print(sorted(mountain_pass))\n"
            "print(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}))\n"
            "print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        mountain_pass, loaded, linalg = proc.stdout.splitlines()
        # one minimum below zero energy and one mountain pass above it
        assert mountain_pass == "[False, True]"
        for family in ("interpolate", "sparse", "spatial", "optimize", "special"):
            assert f"'{family}'" not in loaded
        assert linalg == "False True"

    def test_scipy_linalg_reuses_the_lapack_that_pde_loaded(self):
        # the extension pde loads alone is the one a later import of
        # scipy.linalg finds, so both call the same dgtsv
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from randerslab.cli import RunConfig, run\n"
            "assert run(RunConfig(subcommand='pde', params={'cells': 64})).passed\n"
            "import scipy.linalg.lapack\n"
            "from scipy.linalg import solve_banded\n"
            "assert scipy.linalg.lapack.dgtsv is sys.modules['scipy.linalg._flapack'].dgtsv\n"
            "print(solve_banded((1, 1), np.array([[0, 1.0], [2.0, 2.0], [1.0, 0]]), np.array([3.0, 3.0])))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[1. 1.]"

    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "randerslab", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for name in ["packing", "expansion", "hausdorff", "rearrange", "funk", "embedding", "pde"]:
            assert name in proc.stdout


class TestPdeSubcommand:
    def test_infinite_energy_is_not_converged(self):
        # at lambda = 1e308 starts overflow to E = -inf, where tol (1 + |E|)
        # is inf and would pass any gradient norm; run in a subprocess, as
        # the overflow warns and the suite turns warnings into errors
        proc = subprocess.run(
            [sys.executable, "-m", "randerslab", "pde", "--cells", "8", "--lambda-grid", "0,1e308"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        header = lines.index("lambda,solution,energy,gradient_norm,sup_norm,distinct_total,converged_starts")
        rows = [[float(v) for v in line.split(",")] for line in lines[header + 1 :]]
        assert {row[0] for row in rows} == {0.0, 1e308}
        assert all(math.isfinite(row[2]) and math.isfinite(row[3]) for row in rows)
        assert "# check_gradient_criterion=true" in lines

    def test_small_instance_runs_and_reports(self, tmp_path):
        argv = [
            "pde",
            "--cells",
            "256",
            "--lambda-grid",
            "0,1",
            "--format",
            "json",
        ]
        code, text = run_to_file(tmp_path, "pde.json", argv)
        assert code == 0
        payload = json.loads(text)
        assert payload["checks"]["bonanno_inequalities"] is True
        assert payload["checks"]["gradient_criterion"] is True
        lams = {row["lambda"] for row in payload["rows"]}
        assert lams == {0.0, 1.0}
        # per-solution profile CSVs are written alongside
        side_files = sorted(tmp_path.glob("pde_lambda*_sol*.csv"))
        assert side_files
        first = side_files[0].read_text().splitlines()
        assert first[0] == "r,u"
