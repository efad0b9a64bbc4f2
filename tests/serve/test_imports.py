"""Serving loads no chaos code.

The serving pipeline's one crash rule (kill one replica per shard at the
traffic peak, restart it later) is scheduled by the fleet runner itself,
so nothing under :mod:`repro.faults` -- the chaos and adversary layer --
may be imported by serving.  The check runs in a fresh interpreter,
where ``sys.modules`` holds exactly what the serving imports pulled in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys

import repro.serve  # noqa: F401
import repro.serve.fleet.runner  # noqa: F401
import repro.serve.runner  # noqa: F401

print(sorted(name for name in sys.modules if name.split(".")[:2] == ["repro", "faults"]))
"""


def test_serving_imports_no_faults_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]", proc.stdout
