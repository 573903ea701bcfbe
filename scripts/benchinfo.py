"""The commit and machine metadata that every ``scripts/bench_*.py`` writes
into its ``BENCH_*.json``.  Imported by those scripts; not run on its own.
"""

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def commit():
    """HEAD of the checkout, with "+dirty" if ``src/`` has changes; None
    outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def machine():
    """CPU model, core count, platform and the numeric library versions."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
