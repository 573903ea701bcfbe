import json
import subprocess
import sys

import numpy as np
import pytest

from randerslab import sobolev
from randerslab.cli import RunConfig, ValidationError, main, run
from randerslab.modelspace import SpaceForm
from randerslab.orbits import FULL_ROTATION, GroupAction, expansion_profile


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

        for bad in ["", "1:2:3:4:5", "a:b", "1:10:0:lin", "0:10:3:log"]:
            with pytest.raises(ValidationError):
                _parse_range(bad)


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
        ],
    )
    def test_command_line_error_gives_error_record(self, capsys, argv):
        # a bad choice, a bad type or an unknown flag gets the same one-line
        # JSON record as every other validation error
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "usage" not in captured.err
        assert json.loads(lines[0])["error"] == "ValidationError"


    @pytest.mark.parametrize(
        "argv, error",
        [
            (["embedding", "--grid", "0"], "ValueError"),
            (["hausdorff", "--example", "matrix", "--lambda-grid", "0"], "ValueError"),
            (["hausdorff", "--example", "matrix", "--lambda-grid", "1,inf"], "ValueError"),
            (["pde", "--cells", "1", "--lambda-grid", "0"], "SweepFailure"),
        ],
    )
    def test_out_of_domain_value_gives_error_record(self, capsys, argv, error):
        # an empty embedding grid, a matrix orbit at lambda <= 0 or lambda =
        # inf, and a pde sweep that finds no interval all exit 2 with the
        # one-line JSON record, not a traceback
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == error


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

    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "randerslab", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for name in ["packing", "expansion", "hausdorff", "rearrange", "funk", "embedding", "pde"]:
            assert name in proc.stdout


class TestPdeSubcommand:
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
