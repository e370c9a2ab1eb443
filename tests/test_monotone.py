import hashlib
import itertools
import random

import pytest

from chrcp.bundled import PROGRAMS, STORES, corpus_program, corpus_store
from chrcp.errors import ChrcpError
from chrcp.fuzz import MAX_VALUE, generate_random
from chrcp.machine import annotate
from chrcp.monotone import (
    absorbers,
    argument_blind,
    is_monotone,
    predicate_report,
    residual_non_unifiable,
    unifiable,
    verdict,
)
from chrcp.parse import parse_program
from chrcp.rules import Atom, Comprehension, Program, normalize_program
from chrcp.terms import (
    GUARD_TRUE,
    Int,
    Rel,
    Var,
    conj,
    eval_guard,
    guard_vars,
)

from oracles import _subsumed, substitute


def comp(pred, *args, guard=GUARD_TRUE, binders=("Y",), domain="Ys"):
    return Comprehension(Atom(pred, args), guard, binders, Var(domain))


class TestUnifiability:
    def test_predicate_mismatch(self):
        assert not unifiable(Atom("b", (Var("X"),)), comp("a", Var("Y")), GUARD_TRUE, {})

    def test_open_pattern_unifies(self):
        assert unifiable(Atom("a", (Var("X"),)), comp("a", Var("Y")), GUARD_TRUE, {})

    def test_ground_guard_refutes(self):
        m = comp("a", Var("Y"), guard=Rel("<", Var("Y"), Int(3)))
        assert not unifiable(Atom("a", (Int(3),)), m, GUARD_TRUE, {})
        assert unifiable(Atom("a", (Int(2),)), m, GUARD_TRUE, {})

    def test_comp_comp(self):
        body = Comprehension(
            Atom("a", (Var("X"),)), Rel(">", Var("X"), Int(0)), ("X",), Var("Xs")
        )
        assert not unifiable(body, comp("b", Var("Y")), GUARD_TRUE, {})
        assert unifiable(body, comp("a", Var("Y")), GUARD_TRUE, {})

    def test_contradictory_open_guard_over_approximates(self):
        body = Comprehension(
            Atom("a", (Var("X"),)),
            conj(Rel(">", Var("X"), Int(0)), Rel("<", Var("X"), Int(0))),
            ("X",),
            Var("Xs"),
        )
        # the conjunct-wise approximation does not see the contradiction
        assert unifiable(body, comp("a", Var("Y")), GUARD_TRUE, {})


class TestHeadPrecondition:
    """`unifiable` takes heads as `absorbers` gives them: distinct variable
    arguments. Any other head is an error, not a verdict."""

    def test_repeated_variable_raises(self):
        head = comp("a", Var("Y"), Var("Y"))
        with pytest.raises(ChrcpError, match="distinct variable arguments"):
            unifiable(Atom("a", (Int(1), Int(2))), head, GUARD_TRUE, {})

    def test_constant_argument_raises(self):
        head = comp("a", Var("Y"), Int(3))
        with pytest.raises(ChrcpError, match="distinct variable arguments"):
            unifiable(Atom("a", (Var("X"), Int(4))), head, GUARD_TRUE, {})


class TestEveryGuardCounts:
    def test_ground_conjuncts_of_rule_and_pattern_guards_refute(self):
        never = Rel(">", Int(1), Int(2))
        assert not unifiable(Atom("a", (Int(1),)), comp("a", Var("Y")), never, {})
        body = Comprehension(Atom("a", (Var("X"),)), never, ("X",), Var("Xs"))
        assert not unifiable(body, comp("a", Var("Y")), GUARD_TRUE, {})
        # the rule guard sees the head's arguments as the pattern's
        assert not unifiable(Atom("a", (Int(3),)), comp("a", Var("Y")), Rel("<", Var("Y"), Int(3)), {})


class TestVerdicts:
    def test_relabel_program(self, relabel_program):
        assert is_monotone(relabel_program, Atom("a", (Int(3),))) is False
        assert is_monotone(relabel_program, Atom("c", (Int(3),))) is True

    def test_witness_attached(self, relabel_program):
        report = residual_non_unifiable(relabel_program, [Atom("a", (Int(3),))])
        (v,) = report.verdicts
        assert not v.monotone
        assert v.witness_rule == "relabel"
        assert v.witness_head is not None

    def test_empty_program(self):
        assert is_monotone(Program(()), Atom("a", (Int(1),)))

    def test_atom_heads_never_block(self):
        p = parse_program("r @ p(X), q(X) <=> s(X).")
        assert is_monotone(p, Atom("p", (Int(1),)))

    def test_pure_swap_all_monotone(self):
        from chrcp import corpus_program

        p = corpus_program("pivot_swap_pure")
        assert all(predicate_report(p).values())

    def test_predicate_report(self, pivot_program):
        rep = predicate_report(pivot_program)
        assert rep[("data", 2)] is False
        assert rep[("swap", 3)] is True

    def test_adding_rules_preserves_non_monotone(self):
        base = parse_program("r @ {a(X)}#{X in Xs} <=> true.")
        extended = parse_program("r @ {a(X)}#{X in Xs} <=> true. s @ p(X) <=> a(X).")
        pat = Atom("a", (Int(1),))
        assert not is_monotone(base, pat)
        assert not is_monotone(extended, pat)

    def test_monotone_survives_across_random_extensions(self):
        for seed in range(40):
            p1, _ = generate_random(seed)
            p2, _ = generate_random(seed + 1000)
            merged = Program(
                tuple(p1.rules)
                + tuple(
                    type(r)(f"x_{r.name}", r.propagated, r.simplified, r.guard, r.body)
                    for r in p2.rules
                )
            )
            pat = Atom("p0", (Int(1),))
            if not is_monotone(p1, pat):
                assert not is_monotone(merged, pat)


class TestApproximationSafety:
    def test_monotone_atoms_never_subsumed(self):
        """A monotone verdict guarantees no ground instantiation of any
        comprehension head can absorb the constraint."""
        rng = random.Random(5)
        checked = 0
        for seed in range(60):
            program, init = generate_random(seed)
            atoms = [Atom("m0", (Int(rng.randint(0, 3)),))] + list(init[:3])
            for a in atoms:
                if not is_monotone(program, a):
                    continue
                for rule in program.rules:
                    for head in rule.heads:
                        if not isinstance(head, Comprehension):
                            continue
                        outside = sorted(head.free_vars())
                        for _ in range(8):
                            theta = {v: Int(rng.randint(0, 3)) for v in outside}
                            assert not _subsumed(a, head, theta)
                            checked += 1
        assert checked > 100


def ground_instances(atom, guard=GUARD_TRUE):
    """Every instance of `atom` with its variables (and the guard's) set to
    values 0..MAX_VALUE under which the guard holds."""
    names = sorted(atom.free_vars() | guard_vars(guard))
    for values in itertools.product(range(MAX_VALUE + 1), repeat=len(names)):
        theta = {v: Int(x) for v, x in zip(names, values)}
        if eval_guard(substitute(theta, guard)):
            yield substitute(theta, atom)


class TestInstances:
    """A monotone verdict on a pattern carries over to its ground instances;
    `OccurrenceProgram.monotone` answers a monotone predicate's instances
    without a verdict of their own, which is sound only because of this."""

    SEEDS = range(200)

    def test_monotone_predicate_has_only_monotone_instances(self):
        checked = 0
        for seed in self.SEEDS:
            program, _ = generate_random(seed)
            pw = annotate(program)
            for (pred, arity), mono in predicate_report(program).items():
                generic = Atom(pred, tuple(Var(f"X{i}") for i in range(arity)))
                for inst in ground_instances(generic):
                    assert pw.monotone(inst) is is_monotone(program, inst), (seed, inst)
                    if mono:
                        assert is_monotone(program, inst), (seed, inst)
                        checked += 1
        assert checked > 1000

    def test_monotone_body_pattern_has_only_monotone_instances(self):
        checked = 0
        for seed in self.SEEDS:
            program, _ = generate_random(seed)
            body = [p for rule in program.rules for p in rule.body]
            for v in residual_non_unifiable(program, body).verdicts:
                if not v.monotone:
                    continue
                p = v.pattern
                instances = ground_instances(p) if isinstance(p, Atom) else ground_instances(p.atom, p.guard)
                for inst in instances:
                    assert is_monotone(program, inst), (seed, p, inst)
                    checked += 1
        assert checked > 100


class TestVerdictUnderTheta:
    """The init step judges a body comprehension under its firing's θ
    (`OccurrenceProgram.monotone_under`); its verdict must be that of the
    pattern with θ put in (`oracles.substitute`)."""

    PROGRAMS = [
        # θ decides: an argument the head's ground conjunct reads, the
        # pattern's own guard, and an equation on a θ variable in it
        "r @ t(N), {a(X)}#{X in Xs} ==> {b(X, N)}#{X in Xs}, {b(X, 3) | N > 2}#{X in Xs}, "
        "{b(X, 3) | N = 2}#{X in Xs}. s @ {b(V, 3)}#{V in Vs} <=> c(Vs).",
        # the absorbing rule's own M is not the firing's M
        "r @ t(M), {a(X)}#{X in Xs} ==> {b(X, M)}#{X in Xs}. u @ t(M), {b(W, Z) | M > 5}#{W, Z in Ws} <=> c(Ws).",
    ]

    def test_comprehension_verdict_is_its_instance_verdict(self):
        rng = random.Random(3)
        programs = [generate_random(seed)[0] for seed in range(200)]
        programs += [parse_program(text) for text in self.PROGRAMS]
        checked = 0
        for program in programs:
            pw = annotate(program)
            for rule in program.rules:
                for p in rule.body:
                    if not isinstance(p, Comprehension):
                        continue
                    outer = sorted(p.free_vars() | rule.head_vars())
                    for _ in range(4):
                        theta = {v: Int(rng.randint(0, 6)) for v in outer}
                        assert pw.monotone_under(p, theta) is pw.monotone(substitute(theta, p)), (rule.name, p, theta)
                        checked += 1
        assert checked > 100


class TestArgumentBlind:
    """`annotate` records the predicate/arity pairs that some argument-blind
    comprehension head absorbs, and `OccurrenceProgram.monotone` answers
    their atoms without a verdict: it must answer as the verdict does."""

    def test_blind_pairs_answer_like_verdict(self):
        programs = [generate_random(seed)[0] for seed in range(200)]
        programs += [corpus_program(name) for name in PROGRAMS]
        checked = 0
        for program in programs:
            pw = annotate(program)
            heads = absorbers(normalize_program(program))
            for pred, arity in pw.absorbed_preds:
                generic = Atom(pred, tuple(Var(f"X{i}") for i in range(arity)))
                for inst in ground_instances(generic):
                    assert pw.monotone(inst) is verdict(heads, inst, {}).monotone is False, inst
                    checked += 1
        assert checked > 1000

    def test_corpus_heads_are_blind(self):
        assert annotate(corpus_program("pivot_swap")).absorbed_preds == {("data", 2)}
        assert annotate(corpus_program("remove_non_min")).absorbed_preds == {("edge", 3)}

    def test_ground_decidable_conjunct_is_not_blind(self):
        """`{p(X, 3)}` normalizes to `{p(V1, V2) | V1 = X, V2 = 3}`: once
        an atom's arguments are in, `V2 = 3` is ground and decides, so the
        head absorbs p(1, 3) but not p(1, 4)."""
        program = parse_program("r @ {p(X, 3)}#{X in Xs} <=> q(Xs).")
        (_, head, guard), = absorbers(normalize_program(program))
        assert not argument_blind(head, guard)
        pw = annotate(program)
        assert pw.absorbed_preds == frozenset()
        p13, p14 = Atom("p", (Int(1), Int(3))), Atom("p", (Int(1), Int(4)))
        assert (pw.monotone(p13), pw.monotone(p14)) == (False, True)
        assert (is_monotone(program, p13), is_monotone(program, p14)) == (False, True)

    def test_ground_rule_guard_conjunct_is_not_blind(self):
        program = parse_program("r @ {p(X)}#{X in Xs} <=> 1 > 2 | q(Xs).")
        assert annotate(program).absorbed_preds == frozenset()
        assert annotate(program).monotone(Atom("p", (Int(1),)))


def verdict_lines():
    """One line per monotonicity verdict: `residual_non_unifiable` on every
    body pattern and initial atom, the `predicate_report`, and
    `annotate(p).monotone` on every ground instance of each predicate with
    values 0..MAX_VALUE; over generated seeds 0..999 and the corpus programs
    (whose initial atoms are those of every bundled store)."""
    bundled_atoms = tuple(a for s in STORES for a in corpus_store(s))
    cases = [(f"seed {seed}",) + generate_random(seed) for seed in range(1000)]
    cases += [(name, corpus_program(name), bundled_atoms) for name in PROGRAMS]
    for name, program, init in cases:
        patterns = [p for rule in program.rules for p in rule.body] + list(init)
        for v in residual_non_unifiable(program, patterns).verdicts:
            yield f"{name} verdict {v.pattern!r} {v.monotone} {v.witness_rule} {v.witness_head!r}"
        report = predicate_report(program)
        for (pred, arity), mono in sorted(report.items()):
            yield f"{name} predicate {pred}/{arity} {mono}"
        pw = annotate(program)
        for pred, arity in sorted(report):
            generic = Atom(pred, tuple(Var(f"X{i}") for i in range(arity)))
            for inst in ground_instances(generic):
                yield f"{name} instance {inst!r} {pw.monotone(inst)}"


# (verdicts, SHA-256 over `verdict_lines`) recorded while the analysis still
# unified patterns with renamed-apart heads: a simpler test must give the
# same verdicts.
RECORDED_VERDICTS = (34352, "941ea7c8deb49d07ca60d5a3bb00313a38624c73f13d910fc226ed2223b6b8d5")


class TestRecordedVerdicts:
    def test_verdicts_unchanged(self):
        h = hashlib.sha256()
        count = 0
        for line in verdict_lines():
            h.update(line.encode() + b"\n")
            count += 1
        assert (count, h.hexdigest()) == RECORDED_VERDICTS
