import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chrcp
from chrcp import cli
from chrcp.bundled import PROGRAMS, STORES, corpus_path
from chrcp.cli import main
from chrcp.errors import ChrcpError, NonGroundError, TermTypeError
from chrcp.machine import annotate, run_operational
from chrcp.match import maximality_disabled
from chrcp.parse import load_program, load_store, parse_program, parse_store, pretty_store
from chrcp.rewrite import run_abstract, store_of
from chrcp.soundness import check_soundness, trace_records


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prog(name):
    return str(corpus_path(name, "program"))


def store(name):
    return str(corpus_path(name, "store"))


class TestRun:
    def test_op_engine(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", prog("pivot_swap"), "--store", store("pivot_swap")
        )
        assert code == 0
        assert out.strip() == "data(a, 2), data(a, 3), data(b, 7), data(b, 8)."

    def test_abs_engine(self, capsys):
        code, out, err = run_cli(
            capsys,
            "run", prog("pivot_swap"), "--store", store("pivot_swap"), "--engine", "abs",
        )
        assert code == 0
        assert out.strip() == "data(a, 2), data(a, 3), data(b, 7), data(b, 8)."
        assert "warning" not in err

    def test_abs_engine_warns_on_propagation_rules(self, capsys, tmp_path):
        f = tmp_path / "copy.chrcp"
        f.write_text("copy @ p(X) ==> q(X).\n")
        s = tmp_path / "s.store"
        s.write_text("p(1).\n")
        code, out, err = run_cli(
            capsys, "run", str(f), "--store", str(s), "--engine", "abs", "--max-steps", "3"
        )
        assert code == 2
        assert out.strip() == "p(1), q(1), q(1), q(1)."
        warnings = [line for line in err.splitlines() if line.startswith("warning")]
        assert len(warnings) == 1 and "copy" in warnings[0]

    def test_abs_engine_warns_on_rules_that_remove_only_comprehensions(self, capsys, tmp_path):
        """With an empty block the rule removes nothing and still adds q([]),
        so the abstract relation fires it until the step budget."""
        f = tmp_path / "r.chrcp"
        f.write_text("r @ t(W) \\ {p(D) | D >= W + 1}#{D in Ds} <=> q(Ds).\n")
        s = tmp_path / "s.store"
        s.write_text("t(0), p(1), p(5).\n")
        code, out, err = run_cli(
            capsys, "run", str(f), "--store", str(s), "--engine", "abs", "--max-steps", "6"
        )
        assert code == 2
        assert out.strip() == "q([]), q([]), q([]), q([]), q([]), q([1, 5]), t(0)."
        warnings = [line for line in err.splitlines() if line.startswith("warning")]
        assert len(warnings) == 1 and "(r)" in warnings[0]

    def test_step_limit_exit_code(self, capsys, tmp_path):
        f = tmp_path / "loop.chrcp"
        f.write_text("loop @ p(X) ==> p(X).\n")
        s = tmp_path / "s.store"
        s.write_text("p(1).\n")
        code, _, err = run_cli(
            capsys, "run", str(f), "--store", str(s), "--max-steps", "30"
        )
        assert code == 2
        assert "step budget 30" in err

    def test_trace_output(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        code, _, _ = run_cli(
            capsys,
            "run", prog("relabel"), "--store", store("relabel2"), "--trace", str(out_file),
        )
        assert code == 0
        records = json.loads(out_file.read_text())
        assert records and {"index", "kind", "classification"} <= set(records[0])

    @pytest.mark.parametrize("engine", ["op", "abs"])
    def test_trace_records_built_only_for_trace(self, capsys, tmp_path, engine, monkeypatch):
        built = []
        real = cli.trace_record
        monkeypatch.setattr(cli, "trace_record", lambda *a, **kw: built.append(1) or real(*a, **kw))
        args = ["run", prog("relabel"), "--store", store("relabel2"), "--engine", engine]
        assert run_cli(capsys, *args)[0] == 0
        assert built == []
        out_file = tmp_path / "trace.json"
        assert run_cli(capsys, *args, "--trace", str(out_file))[0] == 0
        assert len(built) == len(json.loads(out_file.read_text())) > 0

    def test_deep_nesting_exit_one(self, tmp_path):
        f = tmp_path / "p.chrcp"
        f.write_text("r @ p(X) <=> q(X).\n")
        s = tmp_path / "deep.store"
        s.write_text("p(" + "(" * 3000 + "1" + ")" * 3000 + ").\n")
        src = str(Path(chrcp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-m", "chrcp.cli", "run", str(f), "--store", str(s)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 1
        assert "nesting deeper than" in out.stderr and "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", [["run"], ["check", "--max-steps", "5000"]])
    def test_term_nesting_per_step_exit_one(self, capsys, tmp_path, command):
        # Each firing nests the term one level deeper, until comparing two
        # terms recurses past the interpreter's limit.
        f = tmp_path / "nest.chrcp"
        f.write_text("r @ p(X) <=> p((X, 0)).\n")
        s = tmp_path / "s.store"
        s.write_text("p(0).\n")
        code, _, err = run_cli(capsys, *command, str(f), "--store", str(s))
        assert code == 1
        assert "recursion limit" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("engine", ["op", "abs", "check"])
    def test_term_nesting_per_step_library_error(self, engine):
        # The same runs through the library end in a ChrcpError, not in a
        # bare RecursionError.
        program = parse_program("r @ p(X) <=> p((X, 0)).")
        init = parse_store("p(0).")
        runs = {
            "op": lambda: run_operational(annotate(program), init),
            "abs": lambda: run_abstract(program, store_of(init)),
            "check": lambda: check_soundness(program, init),
        }
        with pytest.raises(ChrcpError, match=r"recursion limit \(\d+\)"):
            runs[engine]()

    def test_deep_match_search_completes(self, capsys, tmp_path):
        # Every a is contested by the two comprehensions; the search keeps
        # its 1,200 choices on an explicit stack, not the interpreter's.
        f = tmp_path / "split.chrcp"
        f.write_text("split @ go, {a(X)}#{X in Xs}, {a(Y)}#{Y in Ys} <=> l(Xs), r(Ys).\n")
        s = tmp_path / "s.store"
        s.write_text("go, " + ", ".join(f"a({i})" for i in range(1200)) + ".\n")
        code, out, _ = run_cli(capsys, "run", str(f), "--store", str(s))
        assert code == 0
        assert out.strip() == "l([]), r([" + ", ".join(map(str, range(1200))) + "])."

    @pytest.mark.parametrize("engine", ["op", "abs"])
    def test_ill_typed_guard_fails_its_match(self, capsys, tmp_path, engine, monkeypatch):
        # `a + 1` is ill-typed: p(a) fails the guard, p(5) still fires.
        monkeypatch.setenv("CHRCP_COLOR", "0")
        f = tmp_path / "typed.chrcp"
        f.write_text("r @ p(X) <=> X + 1 > 2 | q(X).\n")
        s = tmp_path / "s.store"
        s.write_text("p(a), p(5).\n")
        code, out, _ = run_cli(capsys, "run", str(f), "--store", str(s), "--engine", engine)
        assert code == 0
        assert out.strip() == "p(a), q(5)."
        code, out, _ = run_cli(capsys, "check", str(f), "--store", str(s))
        assert code == 0
        assert out.strip().endswith("OK")

    @pytest.mark.parametrize("engine", ["op", "abs"])
    def test_ill_typed_comprehension_guard_fails_its_elements(self, capsys, tmp_path, engine, monkeypatch):
        # With W = a, `W + 1` is ill-typed: the head comprehension absorbs
        # neither p, and the body comprehension unfolds no q.
        monkeypatch.setenv("CHRCP_COLOR", "0")
        s = tmp_path / "s.store"
        s.write_text("t(a), p(1), p(5).\n")
        for program, final in (
            ("r @ t(W), {p(D) | D >= W + 1}#{D in Ds} <=> q(Ds).", "p(1), p(5), q([])."),
            ("r @ t(W) ==> {q(D) | D >= W + 1}#{D in [1, 5]}.", "p(1), p(5), t(a)."),
        ):
            f = tmp_path / "typed.chrcp"
            f.write_text(program + "\n")
            code, out, _ = run_cli(capsys, "run", str(f), "--store", str(s), "--engine", engine)
            assert (code, out.strip()) == (0, final), program
            code, out, _ = run_cli(capsys, "check", str(f), "--store", str(s))
            assert code == 0 and out.strip().endswith("OK"), program

    @pytest.mark.parametrize("engine", ["op", "abs"])
    @pytest.mark.parametrize(
        "program, store_text, final",
        [
            # an equation on a binder or a rule variable is a test: b(1)
            # is absorbed, b(2) stays
            (f"r @ a(Y), {{b(X) | {guard}}}#{{X in Xs}} <=> c(Xs).", "a(1), b(1), b(2).", "b(2), c([1]).")
            for guard in ("X = 1", "Y = X", "X = Y")
        ]
        + [
            # one that binds a fresh Z binds it anew for each element
            ("r @ go, {b(X) | Z = X + 1, Z > 2}#{X in Xs} <=> c(Xs).", "go, b(1), b(2), b(3).", "b(1), c([2, 3]).")
        ],
    )
    def test_comprehension_guard_equation(self, capsys, tmp_path, engine, program, store_text, final, monkeypatch):
        monkeypatch.setenv("CHRCP_COLOR", "0")
        f = tmp_path / "eq.chrcp"
        f.write_text(program + "\n")
        s = tmp_path / "s.store"
        s.write_text(store_text + "\n")
        code, out, _ = run_cli(capsys, "run", str(f), "--store", str(s), "--engine", engine)
        assert (code, out.strip()) == (0, final)
        code, out, _ = run_cli(capsys, "check", str(f), "--store", str(s))
        assert code == 0 and out.strip().endswith("OK")

    @pytest.mark.parametrize("engine", ["op", "abs"])
    def test_binder_named_like_a_rule_variable_is_its_own(self, capsys, tmp_path, engine, monkeypatch):
        # The binder X of `{q(X)}#{X in Xs}` is not p's X: the block takes
        # both q's, and the body's X is p's.
        monkeypatch.setenv("CHRCP_COLOR", "0")
        f = tmp_path / "shadow.chrcp"
        s = tmp_path / "s.store"
        s.write_text("p(1), q(1), q(2).\n")
        for body, final in (("s(X, Xs)", "s(1, [1, 2])."), ("s(Xs)", "s([1, 2]).")):
            f.write_text(f"r @ p(X), {{q(X)}}#{{X in Xs}} <=> {body}.\n")
            code, out, _ = run_cli(capsys, "run", str(f), "--store", str(s), "--engine", engine)
            assert (code, out.strip()) == (0, final), body
            code, out, _ = run_cli(capsys, "check", str(f), "--store", str(s))
            assert code == 0 and out.strip().endswith("OK"), body
            assert pretty_store(check_soundness(load_program(f), load_store(s)).final_store) == final

    @pytest.mark.parametrize("command", [["run"], ["run", "--engine", "abs"], ["check"]])
    def test_body_domain_not_a_multiset_exit_one(self, capsys, tmp_path, command):
        f = tmp_path / "dom.chrcp"
        f.write_text("r @ p(X) <=> {q(Y)}#{Y in X}.\n")
        s = tmp_path / "s.store"
        s.write_text("p(1).\n")
        code, _, err = run_cli(capsys, *command, str(f), "--store", str(s))
        assert code == 1
        assert "body comprehension domain 1 is not a multiset" in err and "Traceback" not in err

    def test_parse_error_exit_one(self, capsys, tmp_path):
        f = tmp_path / "bad.chrcp"
        f.write_text("r @ p(X \\ q(X)\n")
        code, _, err = run_cli(capsys, "run", str(f))
        assert code == 1
        assert "expected" in err

    def test_unknown_reduce_function_exit_one(self, capsys, tmp_path):
        f = tmp_path / "foo.chrcp"
        f.write_text("r @ p(X) <=> q(reduce(foo, 0, X)).\n")
        code, _, err = run_cli(capsys, "run", str(f))
        assert code == 1
        assert "unknown reduce function 'foo'" in err and "Traceback" not in err

    def test_type_error_prints_concrete_syntax(self, capsys, tmp_path):
        f = tmp_path / "plus.chrcp"
        f.write_text("r @ p(X) <=> q(X + a).\n")
        s = tmp_path / "p.store"
        s.write_text("p(1).\n")
        code, _, err = run_cli(capsys, "run", str(f), "--store", str(s))
        assert code == 1
        assert "+ expects two integers, got 1, a" in err
        assert "Int(" not in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "line, error, message",
        [
            ("p(1 + a).", TermTypeError, "+ expects two integers, got 1, a"),
            ("p([1 | 2]).", TermTypeError, "multiset union of non-multisets: [1 | 2]"),
            ("p(X).", NonGroundError, "store constraint p(X) is not ground"),
        ],
    )
    def test_bad_store_term_names_its_position(self, capsys, tmp_path, line, error, message):
        s = tmp_path / "bad.store"
        s.write_text("q(1),\n" + line + "\n")
        code, _, err = run_cli(capsys, "run", prog("relabel"), "--store", str(s))
        assert code == 1
        assert f"{s}:2:1: {message}" in err and "Traceback" not in err
        with pytest.raises(error) as info:
            load_store(s)
        assert str(info.value) == f"{s}:2:1: {message}"

    def test_missing_file_exit_one(self, capsys, tmp_path):
        missing = tmp_path / "nope.chrcp"
        code, _, err = run_cli(capsys, "run", str(missing))
        assert code == 1
        assert str(missing) in err and "Traceback" not in err

    def test_unwritable_trace_exit_one(self, capsys, tmp_path):
        trace = tmp_path / "no-such-dir" / "t.json"
        code, _, err = run_cli(
            capsys, "run", prog("relabel"), "--store", store("relabel2"), "--trace", str(trace)
        )
        assert code == 1
        assert str(trace) in err and "Traceback" not in err

    def test_non_utf8_file_exit_one(self, capsys, tmp_path):
        f = tmp_path / "latin1.chrcp"
        f.write_bytes(b"r @ p(X) <=> q(X).\n% \xe9t\xe9\n")
        code, _, err = run_cli(capsys, "run", str(f))
        assert code == 1
        assert str(f) in err and "UTF-8" in err and "Traceback" not in err


class TestAnalyze:
    def test_text(self, capsys, monkeypatch):
        monkeypatch.setenv("CHRCP_COLOR", "0")
        code, out, _ = run_cli(capsys, "analyze", prog("pivot_swap"))
        assert code == 0
        assert "data/2: non-monotone" in out
        assert "swap/3: monotone" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", prog("pivot_swap"), "--json")
        payload = json.loads(out)
        assert payload["predicates"]["data/2"] is False
        assert payload["predicates"]["swap/3"] is True
        assert all(not p["monotone"] for p in payload["patterns"])

    def test_color_env_off_means_plain(self, capsys, monkeypatch):
        monkeypatch.setenv("CHRCP_COLOR", "0")
        _, out, _ = run_cli(capsys, "analyze", prog("pivot_swap"))
        assert "\x1b[" not in out

    def test_color_env_forces_ansi(self, capsys, monkeypatch):
        monkeypatch.setenv("CHRCP_COLOR", "1")
        _, out, _ = run_cli(capsys, "analyze", prog("pivot_swap"))
        assert "\x1b[" in out


class TestCheck:
    def test_ok(self, capsys, monkeypatch):
        monkeypatch.setenv("CHRCP_COLOR", "0")
        code, out, _ = run_cli(
            capsys, "check", prog("remove_non_min"), "--store", store("remove_non_min")
        )
        assert code == 0
        assert out.strip().endswith("OK")
        assert "violations=0" in out

    def test_step_budget_exit_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CHRCP_COLOR", "0")
        f = tmp_path / "loop.chrcp"
        f.write_text("loop @ p(X) ==> p(X).\n")
        s = tmp_path / "s.store"
        s.write_text("p(1).\n")
        code, out, err = run_cli(capsys, "check", str(f), "--store", str(s), "--max-steps", "40")
        assert code == 2
        assert "steps=40 " in out and "violations=0" in out
        assert "OK" not in out.split()
        assert "step budget 40" in err

    def test_unwritable_trace_exit_one(self, capsys, tmp_path):
        trace = tmp_path / "no-such-dir" / "t.json"
        code, _, err = run_cli(
            capsys, "check", prog("relabel"), "--store", store("relabel2"), "--trace", str(trace)
        )
        assert code == 1
        assert str(trace) in err and "Traceback" not in err

    def test_large_store_checks_every_step(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CHRCP_COLOR", "0")
        data = [f"data({agent}, {v})" for agent in "ab" for v in range(0, 1000, 10)]
        s = tmp_path / "pivot201.store"
        s.write_text(", ".join(["swap(a, b, 500)"] + data) + ".\n")
        trace = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "run", prog("pivot_swap"), "--store", str(s), "--trace", str(trace))
        assert code == 0
        records = len(json.loads(trace.read_text()))
        code, out, err = run_cli(capsys, "check", prog("pivot_swap"), "--store", str(s))
        assert code == 0 and err == ""
        assert f"steps={records} " in out and "violations=0" in out
        assert out.strip().endswith("OK")


# sha256 of the `check --trace` JSON of each corpus run, recorded before a
# confirmed firing stopped carrying its stores: its replayed stores must
# render the same text.
TRACE_PINS = {
    ("pivot_swap", "pivot_swap"): "0a45872f66f1b36721e577d8982f0d52ef87e6d08bf688d014ecd948b86c8a03",
    ("relabel", "relabel2"): "64d1117a101ec8b1836136f12d3395ccc5e53371aaa313d61dfb2710c1809fc8",
    ("pair_prop", "pair3"): "0a8a2e4105b0ea824e609a4de7f2b0df5cde9535f730f368074bb4a3157f93b1",
    ("remove_non_min", "remove_non_min"): "def736bd6aeb3d385914970d4bba7411ffc780ba11acd6ea5ad96b4549c5dc8c",
}
# The negative control (`maximality_disabled`) on relabel3: violation records.
CONTROL_TRACE_PIN = "4b97f7b7f66e0c8e97152e08b63f300cc4bc6487d405f18ff0bcdbcccb895cd6"


class TestCheckTracePins:
    @pytest.mark.parametrize("program, store_name", list(TRACE_PINS))
    def test_check_trace_is_pinned(self, capsys, tmp_path, program, store_name):
        trace = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "check", prog(program), "--store", store(store_name), "--trace", str(trace))
        assert code == 0
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_PINS[program, store_name]

    def test_negative_control_trace_is_pinned(self, tmp_path):
        with maximality_disabled():
            report = check_soundness(chrcp.corpus_program("relabel"), chrcp.corpus_store("relabel3"))
        assert report.violations
        trace = tmp_path / "trace.json"
        cli._write_trace(str(trace), trace_records(report))
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == CONTROL_TRACE_PIN


class TestTraceStreaming:
    """`_write_trace` writes each record as it is rendered, and its bytes are
    those of `json.dump(records, fh, indent=2)`."""

    @pytest.mark.parametrize(
        "records",
        [[], [{}], [{"index": 0, "nested": [1, {"k": []}, "a\nb"]}, {"index": 1, "kind": None}]],
        ids=["empty", "one-empty", "nested"],
    )
    def test_bytes_are_json_dump(self, tmp_path, records):
        trace = tmp_path / "t.json"
        cli._write_trace(str(trace), iter(records))
        assert trace.read_text() == json.dumps(records, indent=2)

    @pytest.mark.parametrize("engine", ["op", "abs"])
    def test_run_trace(self, capsys, tmp_path, engine):
        f, s, trace = tmp_path / "p.chrcp", tmp_path / "s.store", tmp_path / "t.json"
        f.write_text("r @ p(X) <=> q(X).\n")
        s.write_text("p(1), p(2), p(3).\n")
        args = ["run", str(f), "--store", str(s), "--engine", engine, "--trace", str(trace)]
        assert run_cli(capsys, *args)[0] == 0
        records = json.loads(trace.read_text())
        assert len(records) > 1 and trace.read_text() == json.dumps(records, indent=2)

    def test_check_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        args = ["check", prog("relabel"), "--store", store("relabel2"), "--trace", str(trace)]
        assert run_cli(capsys, *args)[0] == 0
        records = list(trace_records(check_soundness(chrcp.corpus_program("relabel"), chrcp.corpus_store("relabel2"))))
        assert len(records) > 1 and trace.read_text() == json.dumps(records, indent=2)


class TestFuzz:
    def test_small_sweep(self, capsys, monkeypatch):
        monkeypatch.setenv("CHRCP_COLOR", "0")
        code, out, _ = run_cli(capsys, "fuzz", "--seeds", "0..5", "--max-steps", "100")
        assert code == 0
        assert "6/6 OK" in out

    def test_store_cap_named(self, capsys, monkeypatch):
        monkeypatch.setenv("CHRCP_COLOR", "0")
        code, out, _ = run_cli(capsys, "fuzz", "--seeds", "486..486", "--max-steps", "150")
        assert code == 0
        assert "1 truncated (1 at the store cap 64)" in out

    def test_malformed_seed_range_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--seeds", "5..x")
        assert code == 1
        assert "5..x" in err and "Traceback" not in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["run"], ["run", "X", "--bogus"], ["run", "X", "--max-steps", "abc"], []],
        ids=["missing-program", "unknown-flag", "bad-int", "no-command"],
    )
    def test_usage_error_exit_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "usage:" in err

    def test_help_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "usage:" in out

    def test_negative_run_budget_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "run", prog("relabel"), "--max-steps", "-3")
        assert code == 1
        assert out == "" and "--max-steps" in err and "truncated" not in err

    def test_negative_fuzz_budget_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--seeds", "0..2", "--max-steps", "-1")
        assert code == 1
        assert out == "" and "--max-steps" in err

    def test_zero_budget_is_legal(self, capsys):
        code, _, err = run_cli(capsys, "run", prog("relabel"), "--store", store("relabel2"), "--max-steps", "0")
        assert code == 2
        assert "step budget 0" in err

    def test_reversed_seed_range_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--seeds", "5..3")
        assert code == 1
        assert out == "" and "5..3" in err and "Traceback" not in err


SPLIT = "split @ go, {a(X)}#{X in Xs}, {a(Y)}#{Y in Ys} <=> l(Xs), r(Ys).\n"
SPLIT_STORE = "go, " + ", ".join(f"a({v})" for v in (160, 205, 830, 878, 17, 402, 561, 93, 744, 318)) + ".\n"


class TestRunIsCheckedRun:
    """`chrcp run` (default seed) makes the run that `chrcp check` checks."""

    def assert_same_run(self, capsys, tmp_path, program_file, store_file):
        run_trace, check_trace = tmp_path / "run.json", tmp_path / "check.json"
        code, out, _ = run_cli(capsys, "run", program_file, "--store", store_file, "--trace", str(run_trace))
        assert code == 0
        report = check_soundness(load_program(program_file), load_store(store_file))
        assert out.strip() == pretty_store(report.final_store)
        code, _, _ = run_cli(capsys, "check", program_file, "--store", store_file, "--trace", str(check_trace))
        assert code == 0

        def steps(path):
            return [(r["kind"], r["goalDigest"]) for r in json.loads(path.read_text())]

        assert steps(run_trace) == steps(check_trace)

    def test_contested_split(self, capsys, tmp_path):
        f, s = tmp_path / "split.chrcp", tmp_path / "split.store"
        f.write_text(SPLIT)
        s.write_text(SPLIT_STORE)
        self.assert_same_run(capsys, tmp_path, str(f), str(s))

    @pytest.mark.parametrize("program", PROGRAMS)
    @pytest.mark.parametrize("store_name", STORES)
    def test_corpus(self, capsys, tmp_path, program, store_name):
        self.assert_same_run(capsys, tmp_path, prog(program), store(store_name))
