"""Self-test of the benchmark at tiny sizes; no timing assertions.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must be non-zero on each workload that exercises them.
EVERYWHERE = [
    "match.enumerate.calls",
    "match.enumerate.self_s",
    "match.items_scanned",
    "rules.normalize_rule.calls",
    "rewrite.unfold_body.calls",
    "monotone.lookups",
    "monotone.is_monotone.calls",
    "machine.steps",
    "machine.steps.init",
    "machine.steps.act-drop",
    "machine.step.self_s",
    "machine.validate_state.calls",
    "machine.state_digest.self_s",
    "machine.store_peak",
    "machine.goal_stack_peak",
    "trace.spans",
]
RUN_COMMANDS = ["cli.self_s", "parse.self_s", "parse.atoms_per_s", "soundness.correspondence.calls"]
EXERCISED = {
    "pivot-large": EVERYWHERE + RUN_COMMANDS + [
        "rewrite.run_abstract.self_s",
        "rewrite.abstract_steps.calls",
        "match.matches_exactly.calls",
        "machine.steps.eager-act",
        "machine.steps.act-simpa-1",
    ],
    "atom-chains": EVERYWHERE + RUN_COMMANDS + [
        "machine.steps.lazy-act",
        "machine.steps.act-next",
        "machine.steps.act-prop",
        "machine.steps.prop-prop",
        "machine.steps.prop-sat",
        "machine.prop_history_peak",
    ],
    # match.residual_non_match is called only for items the search leaves out
    # of a comprehension on purpose, which no workload does today.
    "many-matches": EVERYWHERE + RUN_COMMANDS + [
        "match.matches_exactly.calls",
        "machine.steps.prop-prop",
        "machine.prop_history_peak",
    ],
    "soundness-sweep": EVERYWHERE + [
        "fuzz.generate_random.self_s",
        "rewrite.abstract_steps.calls",
        "rewrite.abstract_steps.yielded",
        "soundness.check_soundness.self_s",
        "soundness.classify_step.calls",
        "soundness.correspondence.calls",
        "soundness.silent",
        "soundness.abstract",
        "soundness.violation",
        "soundness.candidates_examined",
        "soundness.hit_share",
    ],
}
# Counts that must repeat exactly for one workload seed.
REPEATING = [
    name
    for name, unit, _ in layers.PER_LAYER
    if unit == "count" and not name.startswith("trace.")
]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out.returncode, out.stdout.splitlines()


def result(workload: str, trace: int, seed: int = 3) -> dict:
    code, lines = bench(workload, trace, seed)
    assert code == 0, lines
    return json.loads(lines[-1])


def check_schema(res: dict, spec: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(workload):
    res = result(workload, 0)
    check_schema(res, SPEC["end_to_end"])
    for name in ("setup_s", "wall_s", "steps_per_s", "cases_per_s", "case_p50_ms", "case_tail_ms", "peak_rss_mb"):
        assert res["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_report_and_counts_repeat(workload):
    first = result(workload, 1)
    check_schema(first, SPEC["per_layer"])
    values = {k: v["value"] for k, v in first["metrics"].items()}
    silent = [name for name in EXERCISED[workload] if not values[name] > 0]
    assert not silent, f"layers reporting nothing on {workload}: {silent}"
    if workload != "soundness-sweep":
        assert values["soundness.classify_step.calls"] == 0
    second = result(workload, 1)
    for name in REPEATING:
        assert second["metrics"][name]["value"] == values[name], name


def test_per_layer_list_matches_spec():
    from chrcp.machine import STEP_KINDS

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert layers.STEP_KINDS == STEP_KINDS


def test_spans_nest():
    result("many-matches", 1)
    names, spans = layers.read_spans(BENCH / "_out" / "spans-many-matches-3.bin")
    assert len(spans["start"]) > 0
    for i, parent in enumerate(spans["parent"]):
        assert spans["start"][i] <= spans["end"][i]
        if parent >= 0:
            assert parent < i
            assert spans["start"][parent] <= spans["start"][i] <= spans["end"][i] <= spans["end"][parent]
            assert spans["case"][parent] == spans["case"][i]
        elif spans["case"][i] >= 0:
            assert names[spans["name"][i]] == "case"


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    code, lines = bench("pivot-large", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_reference_checks_reject_wrong_output(tmp_path):
    cases = {c.name: c for c in workloads.many_matches(0, workloads.TINY, tmp_path)}
    cases.update((c.name, c) for c in workloads.pivot_large(0, workloads.TINY, tmp_path))
    pair = cases["pair_prop p=4"]
    code, text = pair.run()
    assert pair.check((code, text)) is None
    assert pair.check((2, text)) == "exit code 2"
    assert pair.check((0, text.replace("q(", "r(", 1))) is not None
    assert pair.check((0, "p(1) q(2).")) is not None

    split = cases["split k=3"]
    code, text = split.run()
    assert split.check((code, text)) is None
    swapped = text.replace("l(", "x(").replace("r(", "l(").replace("x(", "r(")
    assert split.check((0, swapped)) is None  # any partition passes
    assert split.check((0, text.replace(".", ", go."))) is not None
    assert split.check((0, text.replace("l([", "l([7, ", 1))) is not None

    pivot = cases["pivot_swap n=10"]
    code, text = pivot.run()
    assert pivot.check((code, text)) is None
    assert pivot.check((0, text.replace("data(a,", "data(c,", 1))) is not None


def test_printed_store_reader():
    assert workloads.parse_printed_store("") == Counter()
    assert workloads.parse_printed_store("go, l([3, 1]), l([1, 3]), d(a, 7).") == Counter(
        {("go",): 1, ("l", (1, 3)): 2, ("d", "a", 7): 1}
    )
    for bad in ("p(1)", "p(1),.", "p(1). q", "P(1)."):
        with pytest.raises(ValueError):
            workloads.parse_printed_store(bad)
