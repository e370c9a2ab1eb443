"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated time budget. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

from chrcp import corpus_program, corpus_store
from chrcp.fuzz import STORE_CAP, generate_random
from chrcp.machine import annotate, run_operational
from chrcp.match import maximality_disabled
from chrcp.monotone import is_monotone
from chrcp.parse import parse_store
from chrcp.rewrite import abstract_steps, run_abstract, store_of
from chrcp.rules import Atom, canonical_store
from chrcp.soundness import check_soundness, correspondence
from chrcp.terms import INFTY, Int, mset, reduce_eval

from oracles import oracle_match_keys, oracle_prop_instances, oracle_successors, production_match_keys


def _announce(line: str) -> None:
    # immediate with -s; always echoed in the terminal summary either way
    import conftest

    conftest.acceptance_lines.append(line)
    print(line, flush=True)


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE FAIL #{number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s (limit {limit_seconds}s)"
    )
    _announce(f"ACCEPTANCE PASS #{number}: {description} ({elapsed:.2f}s)")


def store(text):
    return store_of(parse_store(text))


def test_criterion_1_worked_derivation(relabel_program):
    with criterion(1, "maximal comprehension derivation on the relabel program", 1.0):
        succ2 = {s for _, s in abstract_steps(relabel_program, store("a(1), a(2)."))}
        assert succ2 == {store("b(1), b(2).")}
        succ3 = {s for _, s in abstract_steps(relabel_program, store("a(1), a(2), a(3)."))}
        assert store("b(1), b(2), a(3).") not in succ3
        assert succ3 == {store("b(1), b(2), b(3).")}


def test_criterion_2_monotonicity_verdicts(relabel_program):
    with criterion(2, "monotonicity verdicts for a(3) and c(3)", 1.0):
        assert is_monotone(relabel_program, Atom("a", (Int(3),))) is False
        assert is_monotone(relabel_program, Atom("c", (Int(3),))) is True


def test_criterion_3_pivot_swap_end_to_end(pivot_program, pivot_store):
    with criterion(3, "pivotSwap end-to-end on both engines", 1.0):
        expected = store("data(a,3), data(a,2), data(b,7), data(b,8).")
        # pre-verified by the brute-force oracle before trusting the engines
        assert oracle_successors(pivot_program, store_of(pivot_store)) == {expected}
        ab = run_abstract(pivot_program, store_of(pivot_store), max_steps=10)
        assert ab.truncated is None and ab.final == expected
        op = run_operational(annotate(pivot_program), pivot_store)
        assert op.state.terminal
        assert correspondence(op.state) == expected


def test_criterion_4_remove_non_min(remove_min_program, remove_min_store):
    with criterion(4, "removeNonMin end-to-end with folded minimum 3", 1.0):
        # manual fold oracle: min over [3, 3, 5] seeded with infty
        weights = sorted([3, 3, 5])
        folded = float("inf")
        for w in weights:
            folded = w if w < folded else folded
        assert folded == 3
        assert reduce_eval("min", INFTY, mset(Int(3), Int(3), Int(5))) == Int(3)

        expected = store("edge(a,d,5), edge(b,c,1).")
        ab = run_abstract(remove_min_program, store_of(remove_min_store), max_steps=10)
        assert ab.final == expected
        assert ab.steps[0].theta["Wm"] == Int(3)
        op = run_operational(annotate(remove_min_program), remove_min_store)
        assert correspondence(op.state) == expected


def test_criterion_5_monotone_replay_500():
    with criterion(5, "monotone-extension replay over 500 random triples", 60.0):
        rng = random.Random(42)
        triples = 0
        attempts = 0
        while triples < 500:
            seed = attempts
            attempts += 1
            program, init = generate_random(seed)
            base_store = store_of(init[:6])
            candidates = [
                Atom("m0", (Int(rng.randint(0, 3)),)),
                Atom("m1", (Int(rng.randint(0, 3)), Int(rng.randint(0, 3)))),
            ] + list(init[:2])
            extension = tuple(a for a in candidates if is_monotone(program, a))[:2]
            base = run_abstract(program, base_store, max_steps=4)
            current = store_of(tuple(base_store) + extension)
            for step in base.steps:
                hits = [
                    succ
                    for s, succ in abstract_steps(program, current)
                    if (s.rule, s.theta, s.consumed, s.produced)
                    == (step.rule, step.theta, step.consumed, step.produced)
                ]
                assert hits, f"seed {seed}: derivation broke after extension"
                current = hits[0]
            assert current == canonical_store(tuple(base.final) + extension), f"seed {seed}"
            triples += 1


def test_criterion_6_soundness_1000_seeds(relabel_program):
    with criterion(6, "1000-seed differential soundness sweep + negative control", 300.0):
        totals = Counter()
        for seed in range(1000):
            program, init = generate_random(seed)
            report = check_soundness(program, init, max_steps=150, max_store=STORE_CAP)
            assert report.ok, f"seed {seed}: {report.violations}"
            totals.update(report.counts())
        assert totals == {"silent": 54_355, "abstract": 4_962, "violation": 0}
        with maximality_disabled():
            control = check_soundness(relabel_program, corpus_store("relabel3"))
        assert control.counts() == {"silent": 16, "abstract": 1, "violation": 2}


def test_criterion_7_saturation_counts():
    with criterion(7, "propagation saturation fires each instance exactly once", 1.0):
        program = corpus_program("pair_prop")
        (rule,) = program.rules
        for store_name, expected_count in (("pair2", 2), ("pair3", 6)):
            init = corpus_store(store_name)
            run = run_operational(annotate(program), init)
            assert run.state.terminal
            fires = sum(1 for kind, _ in run.trace if kind == "prop-prop")
            p_items = [(n, a) for n, a in run.state.store.items() if a.pred == "p"]
            instances = oracle_prop_instances(rule, p_items)
            assert fires == len(instances) == expected_count, store_name


def test_criterion_8_matcher_oracle_300():
    with criterion(8, "match enumeration equals brute-force oracle on 300 pairs", 60.0):
        pairs = 0
        seed = 0
        while pairs < 300:
            program, init = generate_random(seed)
            seed += 1
            items = list(enumerate(init[:8]))
            for rule in program.rules:
                if pairs >= 300:
                    break
                got = production_match_keys(rule, items)
                want = oracle_match_keys(rule, items)
                assert got == want, f"seed {seed - 1}, rule {rule.name}"
                pairs += 1
        assert pairs == 300


def test_criterion_9_pure_encoding_agreement(pivot_program, pivot_store):
    with criterion(9, "pure encoding agrees with pivotSwap on the data fragment", 1.0):
        def data_fragment(atoms):
            return canonical_store(a for a in atoms if a.pred == "data")

        comp_op = run_operational(annotate(pivot_program), pivot_store)
        comp_ab = run_abstract(pivot_program, store_of(pivot_store), max_steps=10)
        pure = run_operational(annotate(corpus_program("pivot_swap_pure")), pivot_store)
        assert pure.state.terminal
        expected = data_fragment(parse_store("data(a,3), data(a,2), data(b,7), data(b,8)."))
        assert data_fragment(correspondence(comp_op.state)) == expected
        assert data_fragment(comp_ab.final) == expected
        assert data_fragment(correspondence(pure.state)) == expected
