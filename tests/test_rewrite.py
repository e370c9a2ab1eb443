import random

import pytest

from chrcp.errors import TermTypeError
from chrcp.fuzz import generate_random
from chrcp.monotone import is_monotone
from chrcp.parse import parse_program, parse_store
from chrcp.rewrite import (
    abstract_steps,
    run_abstract,
    store_of,
    unfold_body,
)
from chrcp.rules import Atom, Comprehension, canonical_store
from chrcp.terms import GTrue, Int, Rel, Sym, Var, mset

from oracles import oracle_successors, oracle_unfold


def store(text):
    return store_of(parse_store(text))


class TestUnfoldBody:
    def test_comprehension_instances(self):
        c = Comprehension(Atom("data", (Sym("b"), Var("D"))), GTrue(), ("D",), mset(Int(7)))
        assert unfold_body([c], {}) == [Atom("data", (Sym("b"), Int(7)))]

    def test_failing_elements_skipped(self):
        c = Comprehension(
            Atom("p", (Var("X"),)), Rel(">", Var("X"), Int(0)), ("X",), mset(Int(1), Int(-1), Int(2))
        )
        assert sorted(a.args[0].value for a in unfold_body([c], {})) == [1, 2]

    def test_empty_domain(self):
        c = Comprehension(Atom("p", (Var("X"),)), GTrue(), ("X",), mset())
        assert unfold_body([c], {}) == []

    def test_ill_typed_guard_skips_its_elements(self):
        # Under W = a, `W + 1` is ill-typed for every element: each is
        # skipped as if its guard failed, and the unfolding succeeds.
        (rule,) = parse_program("r @ t(W) ==> {q(D) | D >= W + 1}#{D in [1, 5]}.").rules
        assert unfold_body(rule.body, {"W": Sym("a")}) == oracle_unfold(rule.body, {"W": Sym("a")}) == []


    def test_domain_not_a_multiset_is_a_type_error(self):
        (rule,) = parse_program("r @ t(Xs) ==> {q(D)}#{D in Xs}.").rules
        with pytest.raises(TermTypeError, match="^body comprehension domain 1 is not a multiset$"):
            unfold_body(rule.body, {"Xs": Int(1)})


class TestAbstractStep:
    def test_relabel_two(self, relabel_program):
        succs = {s for _, s in abstract_steps(relabel_program, store("a(1), a(2)."))}
        assert succs == {store("b(1), b(2).")}

    def test_relabel_three_maximality(self, relabel_program):
        succs = {s for _, s in abstract_steps(relabel_program, store("a(1), a(2), a(3)."))}
        assert store("b(1), b(2), a(3).") not in succs
        assert succs == {store("b(1), b(2), b(3).")}

    def test_pivot_swap(self, pivot_program, pivot_store):
        succs = {s for _, s in abstract_steps(pivot_program, store_of(pivot_store))}
        assert succs == {store("data(a,3), data(b,7), data(a,2), data(b,8).")}

    def test_agrees_with_oracle_on_corpus(self, pivot_program, pivot_store, relabel_program):
        for program, st in (
            (pivot_program, store_of(pivot_store)),
            (relabel_program, store("a(1), a(2), a(3).")),
        ):
            got = {s for _, s in abstract_steps(program, st)}
            assert got == oracle_successors(program, st)


class TestRunAbstract:
    def test_single_application(self, relabel_program):
        run = run_abstract(relabel_program, store("a(1)."), max_steps=10)
        assert run.final == store("b(1).")
        assert len(run.steps) == 1 and run.truncated is None

    def test_empty_store_quiesces(self, relabel_program):
        run = run_abstract(relabel_program, (), max_steps=5)
        assert run.final == () and run.steps == []

    def test_divergent_propagation_hits_limit(self):
        p = parse_program("loop @ p(X) ==> p(X).")
        run = run_abstract(p, store("p(1)."), max_steps=25)
        assert run.truncated == "step budget 25" and len(run.steps) == 25

    def test_seed_determinism(self, pivot_program, pivot_store):
        a = run_abstract(pivot_program, store_of(pivot_store), 10, seed=5)
        b = run_abstract(pivot_program, store_of(pivot_store), 10, seed=5)
        assert a.final == b.final and a.steps == b.steps


class TestMonotoneReplay:
    def replay(self, program, start, extension):
        """Re-apply a recorded derivation from the extended store."""
        base = run_abstract(program, start, max_steps=6)
        current = store_of(tuple(start) + tuple(extension))
        for step in base.steps:
            options = [
                succ
                for s, succ in abstract_steps(program, current)
                if (s.rule, s.theta, s.consumed, s.produced)
                == (step.rule, step.theta, step.consumed, step.produced)
            ]
            assert options, f"step {step.rule} not applicable after extension"
            current = options[0]
        expected = canonical_store(tuple(base.final) + tuple(extension))
        assert current == expected

    def test_relabel_extension(self, relabel_program):
        ext = parse_store("c(3).")
        assert all(is_monotone(relabel_program, a) for a in ext)
        self.replay(relabel_program, store("a(1), a(2)."), ext)

    def test_random_monotone_extensions(self):
        rng = random.Random(17)
        tried = 0
        for seed in range(120):
            program, init = generate_random(seed)
            if not init:
                continue
            candidates = [Atom("m0", (Int(rng.randint(0, 3)),))] + [
                Atom(a.pred, a.args) for a in init[:2]
            ]
            ext = tuple(a for a in candidates if is_monotone(program, a))[:2]
            if not ext:
                continue
            self.replay(program, store_of(init[:5]), ext)
            tried += 1
        assert tried >= 30
