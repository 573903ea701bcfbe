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

`tests/golden/packings.json` fingerprints orbit packings the same way:
for each configuration of GOLDEN_PACKINGS, the count, the method, the
`min_pairwise_distance` as `float.hex` and a SHA-256 of the centre bytes
of the report `packing_count` returns, so a refactor of the walks or of
their certificates shows any moved packing bit by name.

A change that moves a body or a packing on purpose rewrites both with

    PYTHONPATH=src python tests/test_golden.py

and shows its moved digits as the diff of tests/golden/.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from randerslab import orbits
from randerslab.cli import main
from randerslab.modelspace import SpaceForm

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
CONSTRAINTS = GOLDEN / "constraints.txt"
PACKINGS = GOLDEN / "packings.json"

ROT = orbits.GroupAction(orbits.FULL_ROTATION)
CONJ = orbits.GroupAction(orbits.MATRIX_CONJUGATION)


def _product(blocks, r):
    """The product action and the point an `expansion --action product` row
    packs at radius r: r / sqrt(k) on the first coordinate of each block."""
    y = np.zeros(sum(blocks))
    y[np.cumsum((0,) + tuple(blocks[:-1]))] = r / math.sqrt(len(blocks))
    return orbits.GroupAction(orbits.PRODUCT_ROTATION, tuple(blocks)), SpaceForm(len(y), 0.0), y


def _axis(dim, curvature, r):
    """The full rotation, its space and the point r on the first axis."""
    return ROT, SpaceForm(dim, curvature), r * np.eye(dim)[0]


def _conjugation(lam, phase=0.0):
    """The conjugation action and diag(lam, 1 / lam) turned by phase."""
    x = orbits.MatrixPoint.diagonal(lam)
    if phase:
        x = orbits.MatrixPoint(*orbits._conjugates(x, [phase])[0].tolist())
    return CONJ, None, x


def golden_packings():
    """{name: (action, space, y, rho)} of every fingerprinted packing."""
    out = {}
    # the orbit-packing benchmark workload at seed 0
    for r in (0.75, 0.8, 0.85):
        out[f"orbit-packing.poincare3.r{r:g}"] = (*_axis(3, -1.0, r), 1.0)
    for r in (5.0, 10.0):
        out[f"orbit-packing.euclid3.r{r:g}"] = (*_axis(3, 0.0, r), 1.0)
    for r in (5.0, 10.0, 15.0, 20.0):
        out[f"orbit-packing.product23.r{r:g}"] = (*_product((2, 3), r), 2.0)
    for lam in (10.0, 100.0):
        out[f"orbit-packing.diag{lam:g}"] = (*_conjugation(lam), 0.5)
    # README: 3-D expansion, the product expansion's radii and the 2-D circles
    for r in (0.9, 0.99):
        out[f"readme.poincare3.r{r:g}"] = (*_axis(3, -1.0, r), 1.0)
    for r in np.linspace(5.0, 40.0, 4)[1:]:
        out[f"readme.product23.r{r:.6g}"] = (*_product((2, 3), r), 2.0)
    for r in np.geomspace(10.0, 1000.0, 10):
        out[f"readme.euclid2.r{r:.6g}"] = (*_axis(2, 0.0, r), 1.0)
    for r in (0.9, 0.99, 0.999):
        out[f"readme.poincare2.r{r:g}"] = (*_axis(2, -1.0, r), 1.0)
    # conjugation orbits, one of them turned off the diagonal
    for lam in (1.5, 3.0, 1e3, 1e4):
        out[f"conjugation.diag{lam:g}"] = (*_conjugation(lam), 0.5)
    out["conjugation.diag10.phase1"] = (*_conjugation(10.0, 1.0), 0.5)
    # spheres of dimension >= 4, on a kd-tree
    out["euclid4.r3"] = (*_axis(4, 0.0, 3.0), 1.0)
    out["euclid5.r4"] = (*_axis(5, 0.0, 4.0), 1.0)
    out["poincare4.r0.6"] = (*_axis(4, -1.0, 0.6), 0.5)
    # curvature -2.25, a sphere near the whole orbit in one ball and a circle
    out["curvature-2.25.sphere.r0.6"] = (*_axis(3, -2.25, 0.6), 0.7)
    out["curvature-2.25.circle.r0.6"] = (*_axis(2, -2.25, 0.6), 0.3)
    # more 2-spheres, circles and products
    for r in (0.3, 0.5):
        out[f"poincare3.r{r:g}"] = (*_axis(3, -1.0, r), 1.0)
    for r in (2.0, 3.0):
        out[f"euclid3.r{r:g}"] = (*_axis(3, 0.0, r), 1.0)
    out["euclid2.r0.5.one-centre"] = (*_axis(2, 0.0, 0.5), 1.0)
    out["euclid2.r10000"] = (*_axis(2, 0.0, 1e4), 1.0)
    out["euclid2.r63000.near-the-cap"] = (*_axis(2, 0.0, 63000.0), 1.0)
    out["poincare2.r0.99999.curvature-4"] = (*_axis(2, -4.0, 0.99999), 1.0)
    out["euclid3.origin"] = (*_axis(3, 0.0, 0.0), 1.0)
    out["product22.r10"] = (*_product((2, 2), 10.0), 1.0)
    out["product322.r6"] = (*_product((3, 2, 2), 6.0), 1.0)
    out["product24.r8"] = (*_product((2, 4), 8.0), 1.0)
    return out


def packing_fingerprint(action, space, y, rho):
    """count, method, min_pairwise_distance (float.hex) and the SHA-256 of
    the centre bytes of one packing_count report."""
    report = orbits.packing_count(action, space, y, rho)
    centers = np.ascontiguousarray(report.centers, dtype=float)
    return {
        "count": int(report.count),
        "method": report.method,
        "min_pairwise_distance": float(report.min_pairwise_distance).hex(),
        "centers_sha256": hashlib.sha256(centers.tobytes()).hexdigest(),
    }


def packing_fingerprints():
    return {name: packing_fingerprint(*config) for name, config in golden_packings().items()}


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


def test_readme_configs_replay_byte_for_byte(tmp_path):
    # the config each README body records (its `# config=` line, or `config`
    # in an --output JSON), run through --config, prints that body again:
    # flags and a config file take one path into the CLI
    differing = []
    for index, argv in enumerate(readme_commands(), 1):
        name = golden_name(index, argv)
        body = argv[argv.index("--output") + 1] if "--output" in argv else "stdout.txt"
        want = (GOLDEN / name / body).read_bytes()
        text = want.decode("utf-8")
        if text.startswith("{"):
            config = json.loads(text)["config"]
        else:
            line = next(l for l in text.splitlines() if l.startswith("# config="))
            config = json.loads(line[len("# config=") :])
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        if bodies(["--config", str(cfg)], tmp_path / name) != {"stdout.txt": want}:
            differing.append(name)
    assert not differing, f"replayed configs differ from tests/golden/ in {', '.join(differing)}"


def test_packings_are_golden():
    want = json.loads(PACKINGS.read_text(encoding="utf-8"))
    got = packing_fingerprints()
    assert sorted(got) == sorted(want)
    differing = [
        f"{name}: {', '.join(k for k in want[name] if got[name][k] != want[name][k])}"
        for name in want
        if got[name] != want[name]
    ]
    assert not differing, (
        "packings differ from tests/golden/packings.json in "
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
    PACKINGS.write_text(json.dumps(packing_fingerprints(), indent=1) + "\n", encoding="utf-8")
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
