"""Smoke test of the demos: each script runs to completion in a fresh
interpreter against the source tree, exits 0 and writes nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
