"""Every demo in demos/ runs to completion against the chrcp package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chrcp

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos/*.py"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    src = str(Path(chrcp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
