"""Golden bodies: every README command, rerun through `cli.main`, must write
the bytes committed under tests/golden/.

Each README line that starts with `randerslab ` has a directory
`tests/golden/<n>_<subcommand>/` (n counts from 1 in README order) holding
what the command writes when run from an empty working directory: its
stdout as `stdout.txt` when it prints a body, and every file it writes
(`pde --output run.json` writes `run.json` and its profile CSVs).

The bodies depend on the Python, numpy and scipy versions that made them.
`tests/golden/constraints.txt` records them, as a pip constraints file that
CI installs against.  A mismatch fails the test like any other byte
difference, and the failure names both sets of versions.

A change that moves a body on purpose rewrites the directory with

    PYTHONPATH=src python tests/test_golden.py

and shows its moved digits as the diff of tests/golden/.
"""

import contextlib
import io
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from randerslab.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
CONSTRAINTS = GOLDEN / "constraints.txt"


def readme_commands():
    """The argv of each README line that starts with `randerslab `."""
    lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("randerslab ")]


def golden_name(index, argv):
    return f"{index}_{argv[0]}"


def running_versions():
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def recorded_versions():
    """The versions in constraints.txt: `name==version` lines, Python's in a
    comment (pip cannot constrain the interpreter)."""
    text = CONSTRAINTS.read_text(encoding="utf-8")
    return dict(re.findall(r"^#?\s*(python|numpy|scipy)==(\S+)$", text, flags=re.M))


def bodies(argv, workdir):
    """{file name: bytes} of what one command writes when run in workdir."""
    workdir.mkdir(parents=True)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"randerslab {' '.join(argv)} exited {code}"
    out = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    if stdout.getvalue():
        out["stdout.txt"] = stdout.getvalue().encode("utf-8")
    return out


def test_readme_commands_are_golden(tmp_path):
    commands = readme_commands()
    assert len(commands) == 8
    expected_dirs = sorted(golden_name(i, argv) for i, argv in enumerate(commands, 1))
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == expected_dirs
    differing = []
    for index, argv in enumerate(commands, 1):
        name = golden_name(index, argv)
        got = bodies(argv, tmp_path / name)
        want = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
        if got != want:
            changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            differing.append(f"{name}: {', '.join(changed)}")
    assert not differing, (
        "README bodies differ from tests/golden/ in "
        + "; ".join(differing)
        + f"\n  recorded with {recorded_versions()}\n  running    {running_versions()}"
    )


def test_constraints_record_every_version():
    assert set(recorded_versions()) == {"python", "numpy", "scipy"}


def _write_golden():
    with tempfile.TemporaryDirectory() as scratch:
        for index, argv in enumerate(readme_commands(), 1):
            target = GOLDEN / golden_name(index, argv)
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name, data in bodies(argv, Path(scratch) / target.name).items():
                (target / name).write_bytes(data)
    versions = running_versions()
    CONSTRAINTS.write_text(
        "# The versions that made the golden bodies in this directory\n"
        "# (tests/test_golden.py); CI installs with `pip install -c` this file.\n"
        f"# python=={versions['python']}\n"
        f"numpy=={versions['numpy']}\n"
        f"scipy=={versions['scipy']}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    _write_golden()
