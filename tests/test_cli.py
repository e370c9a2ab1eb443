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
from chrcp.errors import ChrcpError
from chrcp.machine import annotate, run_operational
from chrcp.parse import load_program, load_store, parse_program, parse_store, pretty_store
from chrcp.rewrite import run_abstract, store_of
from chrcp.soundness import check_soundness


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

    def test_parse_error_exit_one(self, capsys, tmp_path):
        f = tmp_path / "bad.chrcp"
        f.write_text("r @ p(X \\ q(X)\n")
        code, _, err = run_cli(capsys, "run", str(f))
        assert code == 1
        assert "expected" in err

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
