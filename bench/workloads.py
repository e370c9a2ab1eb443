"""Workloads of the chrcp benchmark.

Each workload turns a seed into inputs (set-up) and a list of cases. One
round runs every case once; a case is one `chrcp run` command, called
in-process through `chrcp.cli.main` with the CLI defaults (`--seed 0`,
validation on), or one `check_soundness` call, the call behind
`chrcp fuzz`. Every case output is checked against an expected result that
is computed here in plain Python from the generated input, never from an
engine run.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from chrcp import cli, fuzz, machine, soundness
from chrcp.bundled import corpus_path, corpus_program, corpus_store
from chrcp.match import maximality_disabled

from layers import rebind

# High enough that no case hits the step budget (exit 2 counts as a failure).
MAX_STEPS = "1000000"
# Step budget of each sweep seed (`chrcp fuzz --budget`). Acceptance
# criterion 6 uses 150, where seed 18 alone runs for 4.7-7 s: too long a case
# to catch a quiet moment of a shared machine, so runs disagreed by 20-28%.
# At 80 no seed takes more than about 0.4 s, and seed 18 still leads the tail.
SWEEP_BUDGET = 80
PIVOT = 500  # data values are drawn from 0..999

SPLIT_PROGRAM = "split @ go, {a(X)}#{X in Xs}, {a(Y)}#{Y in Ys} <=> l(Xs), r(Ys).\n"


@dataclass(frozen=True)
class Sizes:
    pivot: tuple[int, int]  # pivot_swap data per agent, n and 2n
    pure: tuple[int, int]  # pivot_swap_pure data per agent
    copy: tuple[int, int]  # copy_prop p-constraints
    split: tuple[int, int]  # contested a-constraints of the split rule
    pair: tuple[int, int]  # pair_prop p-constraints
    sweep: int  # generated seeds per sweep round


# Cases stay under a second, so that every case runs many times in a run
# and its fastest time comes from a quiet moment of the machine. The 2n
# sizes of pivot, pure, copy and split are ROADMAP baseline rows.
FULL = Sizes(pivot=(100, 200), pure=(25, 50), copy=(100, 200), split=(5, 10), pair=(8, 16), sweep=200)
TINY = Sizes(pivot=(10, 20), pure=(5, 10), copy=(10, 20), split=(3, 6), pair=(4, 8), sweep=10)


@dataclass
class Case:
    """One timed operation. `run` is what is timed; `check` turns its output
    into an error message, or None when the output is right. `size` tags the
    n and 2n cases that `size_exponent` compares."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    size: str | None = None


class StepCounter:
    """Counts machine transitions by wrapping `run_operational`, which runs
    once per case, so that no benchmark code runs per step."""

    def __init__(self) -> None:
        self.steps = 0
        inner = machine.run_operational

        def counted(*args, **kwargs):
            run = inner(*args, **kwargs)
            self.steps += len(run.trace)
            return run

        self._undo = rebind(inner, counted)

    def close(self) -> None:
        self._undo()


# ---------------------------------------------------------------------------
# Reading the printed final store (independent of the chrcp parser)

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z][A-Za-z0-9_]*)|([(),\[\].]))")


def parse_printed_store(text: str) -> Counter:
    """Multiset of atoms printed by `chrcp run`, as (pred, *args) tuples;
    a list argument becomes a sorted tuple, since it denotes a multiset."""
    tokens: list[str | int] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected text at {pos}: {text[pos:pos + 20]!r}")
        num, name, punct = m.groups()
        tokens.append(int(num) if num is not None else (name or punct))
        pos = m.end()
    at = 0

    def peek():
        return tokens[at] if at < len(tokens) else None

    def take(expected=None):
        nonlocal at
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        at += 1
        return tok

    def term():
        if peek() == "[":
            take("[")
            items = []
            while peek() != "]":
                items.append(term())
                if peek() == ",":
                    take(",")
            take("]")
            return tuple(sorted(items, key=repr))
        tok = take()
        if tok in ("(", ")", ",", "[", "]", "."):
            raise ValueError(f"unexpected {tok!r}")
        return tok

    atoms: Counter = Counter()
    if not tokens:
        return atoms
    while True:
        pred = take()
        if not isinstance(pred, str) or not pred[0].isalpha():
            raise ValueError(f"bad predicate {pred!r}")
        args = []
        if peek() == "(":
            take("(")
            args.append(term())
            while peek() == ",":
                take(",")
                args.append(term())
            take(")")
        atoms[(pred, *args)] += 1
        if peek() == ".":
            take(".")
            break
        take(",")
    if peek() is not None:
        raise ValueError("text after the final '.'")
    return atoms


def _store_text(atoms: list[str], rng: random.Random) -> str:
    atoms = list(atoms)
    rng.shuffle(atoms)
    return ", ".join(atoms) + ".\n"


def _diff(expected: Counter, got: Counter) -> str | None:
    if expected == got:
        return None
    missing = expected - got
    extra = got - expected
    return f"final store differs: missing {sorted(missing, key=repr)[:3]}, unexpected {sorted(extra, key=repr)[:3]}"


# ---------------------------------------------------------------------------
# `chrcp run` cases


def _cli_case(name: str, argv: list[str], expect: Callable[[Counter], str | None], size=None) -> Case:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        try:
            atoms = parse_printed_store(text)
        except ValueError as exc:
            return f"unreadable output: {exc}"
        return expect(atoms)

    return Case(name, run, check, size)


def _run_argv(program: Path, store: Path, *extra: str) -> list[str]:
    return ["run", str(program), "--store", str(store), "--max-steps", MAX_STEPS, "--seed", "0", *extra]


def _pivot_store(seed: int, n: int, workdir: Path) -> tuple[Path, Counter]:
    """Store with n data per agent around pivot 500, and the expected swap:
    a's data >= pivot moves to b, b's data < pivot moves to a. Half of each
    agent's data lies on each side of the pivot, so every seed moves the
    same amount of data; the seed picks the values and their order."""
    rng = random.Random(f"pivot:{seed}:{n}")
    held = {
        agent: [rng.randrange(PIVOT) for _ in range(n // 2)] + [rng.randrange(PIVOT, 1000) for _ in range(n - n // 2)]
        for agent in ("a", "b")
    }
    data = [f"data({agent}, {d})" for agent, ds in held.items() for d in ds]
    rng.shuffle(data)
    expected: Counter = Counter()
    for d in held["a"]:
        expected[("data", "b" if d >= PIVOT else "a", d)] += 1
    for d in held["b"]:
        expected[("data", "a" if d < PIVOT else "b", d)] += 1
    # The swap goes last, as in the bundled store: pivot_swap_pure is not
    # confluent, and a swap activated before the data are stored ends at
    # once through ge2/lt2 with nothing moved.
    path = workdir / f"pivot-{n}.store"
    path.write_text(", ".join(data + [f"swap(a, b, {PIVOT})"]) + ".\n")
    return path, expected


def pivot_large(seed: int, sizes: Sizes, workdir: Path) -> list[Case]:
    program = corpus_path("pivot_swap")
    (n, n2) = sizes.pivot
    small, small_expected = _pivot_store(seed, n, workdir)
    large, large_expected = _pivot_store(seed, n2, workdir)
    return [
        _cli_case(f"pivot_swap n={n}", _run_argv(program, small), lambda got: _diff(small_expected, got), "n"),
        _cli_case(f"pivot_swap n={n2}", _run_argv(program, large), lambda got: _diff(large_expected, got), "2n"),
        _cli_case(
            f"pivot_swap n={n2} --engine abs",
            _run_argv(program, large, "--engine", "abs"),
            lambda got: _diff(large_expected, got),
        ),
    ]


def _copy_store(seed: int, m: int, workdir: Path) -> tuple[Path, Counter]:
    """m p-constraints; copy_prop adds one q per p and keeps every p."""
    rng = random.Random(f"copy:{seed}:{m}")
    values = [rng.randrange(1000) for _ in range(m)]
    path = workdir / f"copy-{m}.store"
    path.write_text(_store_text([f"p({v})" for v in values], rng))
    return path, Counter(("p", v) for v in values) + Counter(("q", v) for v in values)


def atom_chains(seed: int, sizes: Sizes, workdir: Path) -> list[Case]:
    pure = corpus_path("pivot_swap_pure")
    copy = corpus_path("copy_prop")
    cases = []
    for n, tag in zip(sizes.pure, ("n", "2n")):
        # Only the data fragment remains: grab/unroll constraints all fire away.
        path, expected = _pivot_store(seed, n, workdir)
        cases.append(_cli_case(f"pivot_swap_pure n={n}", _run_argv(pure, path), lambda got, e=expected: _diff(e, got), tag))
    for m, tag in zip(sizes.copy, ("n", "2n")):
        path, expected = _copy_store(seed, m, workdir)
        cases.append(_cli_case(f"copy_prop p={m}", _run_argv(copy, path), lambda got, e=expected: _diff(e, got), tag))
    return cases


def _split_case(seed: int, k: int, program: Path, workdir: Path, tag: str) -> Case:
    """go plus k distinct a's. Any l/r partition of the a values is right, so
    the check does not pin which maximal match the machine takes."""
    rng = random.Random(f"split:{seed}:{k}")
    values = rng.sample(range(1000), k)
    path = workdir / f"split-{k}.store"
    path.write_text(_store_text(["go"] + [f"a({v})" for v in values], rng))

    def expect(got: Counter) -> str | None:
        lefts = [a for a in got.elements() if a[0] == "l"]
        rights = [a for a in got.elements() if a[0] == "r"]
        if len(lefts) != 1 or len(rights) != 1 or sum(got.values()) != 2:
            return f"expected exactly one l and one r, got {sorted(got.elements(), key=repr)[:4]}"
        if len(lefts[0]) != 2 or len(rights[0]) != 2:
            return "l/r do not hold one list each"
        if Counter(lefts[0][1]) + Counter(rights[0][1]) != Counter(values):
            return "l and r do not partition the a values"
        return None

    return _cli_case(f"split k={k}", _run_argv(program, path), expect, tag)


def _pair_store(seed: int, m: int, workdir: Path) -> tuple[Path, Counter]:
    """m distinct p's; pair_prop adds one q(X, Y) per ordered distinct pair."""
    rng = random.Random(f"pair:{seed}:{m}")
    values = rng.sample(range(1000), m)
    path = workdir / f"pair-{m}.store"
    path.write_text(_store_text([f"p({v})" for v in values], rng))
    expected = Counter(("p", v) for v in values)
    expected.update(("q", x, y) for x in values for y in values if x != y)
    return path, expected


def many_matches(seed: int, sizes: Sizes, workdir: Path) -> list[Case]:
    split = workdir / "split.chrcp"
    split.write_text(SPLIT_PROGRAM)
    pair = corpus_path("pair_prop")
    cases = []
    for (k, m), tag in zip(zip(sizes.split, sizes.pair), ("n", "2n")):
        cases.append(_split_case(seed, k, split, workdir, tag))
        path, expected = _pair_store(seed, m, workdir)
        cases.append(_cli_case(f"pair_prop p={m}", _run_argv(pair, path), lambda got, e=expected: _diff(e, got), tag))
    return cases


# ---------------------------------------------------------------------------
# Soundness sweep


def _seed_case(seed: int) -> Case:
    program, init = fuzz.generate_random(seed)
    # size_exponent compares the seeds with 4 and 8 initial constraints.
    size = {4: "n", 8: "2n"}.get(len(init))

    def check(report) -> str | None:
        return None if report.ok else f"{len(report.violations)} violation(s)"

    return Case(f"seed {seed}", lambda: soundness.check_soundness(program, init, max_steps=SWEEP_BUDGET), check, size)


def _control_case() -> Case:
    program = corpus_program("relabel")
    store = corpus_store("relabel3")

    def run():
        with maximality_disabled():
            return soundness.check_soundness(program, store)

    def check(report) -> str | None:
        return None if report.violations else "negative control (maximality off) raised no violation"

    return Case("control relabel3 without maximality", run, check)


def soundness_sweep(seed: int, sizes: Sizes, workdir: Path) -> list[Case]:
    """Seeds 0..N-1 in every run, starting at the workload seed and wrapping.

    The sweep's time is tail-driven (seed 18 alone takes about a sixth of
    it), so a seed range that moved with the workload seed would make runs
    incomparable and could drop the tail; the workload seed only rotates
    the order.
    """
    start = seed % sizes.sweep
    cases = [_seed_case((start + i) % sizes.sweep) for i in range(sizes.sweep)]
    cases.append(_control_case())
    return cases


WORKLOADS = {
    "pivot-large": pivot_large,
    "atom-chains": atom_chains,
    "many-matches": many_matches,
    "soundness-sweep": soundness_sweep,
}
