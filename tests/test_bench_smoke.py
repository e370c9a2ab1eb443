"""The benchmark runs end to end at tiny sizes and every output passes its
reference check. No timing assertions; `python3 -m pytest -q bench` holds
the benchmark's own, fuller self-test."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_workload_runs_without_errors():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--tiny", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    workloads = re.findall(r"^workload (\S+),", out.stdout, re.MULTILINE)
    error_rates = re.findall(r"^\s+error_rate\s+(\S+)", out.stdout, re.MULTILINE)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workloads == [w["name"] for w in spec["workloads"]]
    assert error_rates == ["0"] * len(workloads)
