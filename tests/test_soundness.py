import dataclasses
import random

import pytest

import chrcp.rewrite
import chrcp.soundness
from chrcp import corpus_program, corpus_store
from chrcp.fuzz import generate_random
from chrcp.machine import (
    ActGoal,
    ExecutionState,
    InitGoal,
    LabeledStore,
    LazyGoal,
    annotate,
    run_operational,
    state_digest,
)
from chrcp.match import maximality_disabled
from chrcp.parse import parse_program, parse_store
from chrcp.rewrite import MAX_STEPS, store_of
from chrcp.rules import Atom
from chrcp.soundness import (
    ABSTRACT,
    SILENT,
    VIOLATION,
    _change,
    _pending,
    _pushed,
    check_soundness,
    classify_step,
    correspondence,
    trace_records,
)
from chrcp.terms import Int, MSet, Substitution


def state(goals, labeled=()):
    store = LabeledStore()
    for a in labeled:
        store, _ = store.add(a)
    return ExecutionState(tuple(goals), store)


class TestCorrespondence:
    def test_lazy_and_store(self):
        s = state([LazyGoal(Atom("p", (Int(1),)))], [Atom("q", (Int(2),))])
        assert correspondence(s) == store_of(parse_store("p(1), q(2)."))

    def test_act_contributes_nothing(self):
        a = Atom("p", (Int(1),))
        s = state([ActGoal(a, 3, 2)], [a])
        assert correspondence(s) == store_of(parse_store("p(1)."))

    def test_init_unfolds(self, relabel_program):
        body = parse_store("a(1), a(2).")
        s = state([InitGoal(tuple(body))])
        assert correspondence(s) == store_of(body)

    def test_empty(self):
        assert correspondence(state([])) == ()


class TestClassify:
    def collect(self, program, init, **kw):
        pw = annotate(program)
        events = []
        run_operational(pw, init, observer=lambda ev: events.append(ev), **kw)
        return pw, events

    def test_lazy_act_is_silent(self):
        p = parse_program("r @ p(X), q(X) <=> s(X).")
        pw, events = self.collect(p, parse_store("p(1)."))
        kinds = {ev.kind: classify_step(pw, ev.before, ev.after).kind for ev in events}
        assert kinds["lazy-act"] == SILENT

    def test_firing_is_abstract(self, pivot_program):
        pw, events = self.collect(pivot_program, corpus_store("pivot_swap"))
        fires = [ev for ev in events if ev.kind == "act-simpa-1"]
        assert fires
        cls = classify_step(pw, fires[0].before, fires[0].after)
        assert cls.kind == ABSTRACT
        assert cls.step is not None and cls.step.rule == "pivotSwap"

    def test_corrupted_step_is_violation(self, pivot_program):
        pw, events = self.collect(pivot_program, corpus_store("pivot_swap"))
        ev = events[0]
        store, _ = ev.after.store.add(Atom("ghost", ()))
        corrupted = ExecutionState(ev.after.goals, store)
        assert classify_step(pw, ev.before, corrupted).kind == VIOLATION

    def test_corrupted_firing_is_violation(self, pivot_program):
        pw, events = self.collect(pivot_program, corpus_store("pivot_swap"))
        ev = next(ev for ev in events if ev.kind == "act-simpa-1")
        assert ev.after.goals[0].cause is not None
        store, _ = ev.after.store.add(Atom("ghost", ()))
        corrupted = ExecutionState(ev.after.goals, store)
        assert classify_step(pw, ev.before, corrupted).kind == VIOLATION

    def test_tampered_certificate_falls_back_to_search(self, relabel_program, monkeypatch):
        searches = []
        search = chrcp.soundness.abstract_steps

        def counted(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(chrcp.soundness, "abstract_steps", counted)
        pw, events = self.collect(relabel_program, corpus_store("relabel3"))
        ev = next(ev for ev in events if ev.kind == "act-simpa-1")
        assert classify_step(pw, ev.before, ev.after).kind == ABSTRACT
        assert not searches
        # Bind the comprehension domain to a multiset shorter than its block.
        top = ev.after.goals[0]
        rule, m = top.cause
        (domain,) = [v for v, t in m.theta.items() if isinstance(t, MSet)]
        short = Substitution({**m.theta.mapping(), domain: MSet(m.theta[domain].items[:-1])})
        forged = dataclasses.replace(top, cause=(rule, dataclasses.replace(m, theta=short)))
        tampered = ExecutionState((forged,) + ev.after.goals[1:], ev.after.store)
        cls = classify_step(pw, ev.before, tampered)
        assert len(searches) == 1
        assert cls.kind == ABSTRACT and cls.step.theta == m.theta

    @pytest.mark.parametrize(
        "program, store_name, kind",
        [
            ("pivot_swap", "pivot_swap", "act-simpa-1"),
            ("relabel", "relabel3", "act-simpa-1"),
            ("pair_prop", "pair3", "prop-prop"),
        ],
    )
    def test_confirmed_firing_builds_no_store(self, monkeypatch, program, store_name, kind):
        """A firing its certificate confirms is judged from its change: no
        erasure is sorted, no successor store is built, and the verdict
        carries no stores."""
        pw, events = self.collect(corpus_program(program), corpus_store(store_name))

        def refuse(name):
            def called(*args, **kwargs):
                raise AssertionError(f"{name} called")

            return called

        for module in (chrcp.soundness, chrcp.rewrite):
            monkeypatch.setattr(module, "canonical_store", refuse("canonical_store"))
        monkeypatch.setattr(chrcp.rewrite, "rule_application", refuse("rule_application"))
        fires = [ev for ev in events if ev.kind == kind]
        assert fires
        for ev in fires:
            cls = classify_step(pw, ev.before, ev.after)
            assert cls.kind == ABSTRACT and cls.step is not None
            assert cls.before is None and cls.after is None

    def test_change_reads_the_same_in_either_order(self, remove_min_program, remove_min_store):
        """A step's change is the same whichever of its two stores was read
        last, and it is what the two stores' entries differ by."""
        pw, events = self.collect(remove_min_program, remove_min_store)
        changed = [ev for ev in events if ev.before.store is not ev.after.store]
        assert any(len(ev.after.store) < len(ev.before.store) for ev in changed)
        for ev in changed:
            top = _pushed(ev.before, ev.after)
            old, new = dict(ev.before.store.items()), dict(ev.after.store.items())
            gone = [a for n, a in old.items() if n not in new]
            put = [a for n, a in new.items() if n not in old]
            pending = _pending(ev.before.goals[:1]), _pending(ev.after.goals[:top])
            expected = (pending[0] + gone, pending[1] + put)
            for first in (ev.before, ev.after, ev.before):
                first.store.by_label  # re-roots the index at that store
                assert _change(ev.before, ev.after, top) == expected

    def test_swapping_goals_below_the_top_is_silent(self):
        p = parse_program("r @ p(X), q(X) <=> s(X).")
        p1, q2, q3 = Atom("p", (Int(1),)), Atom("q", (Int(2),)), Atom("q", (Int(3),))
        before = state([LazyGoal(p1), LazyGoal(q2), LazyGoal(q3)])
        after = state([ActGoal(p1, 1, 1), LazyGoal(q3), LazyGoal(q2)], [p1])
        assert classify_step(annotate(p), before, after).kind == SILENT

    def test_replacing_a_goal_below_the_top_is_violation(self):
        p = parse_program("r @ p(X), q(X) <=> s(X).")
        p1, q2, q3 = Atom("p", (Int(1),)), Atom("q", (Int(2),)), Atom("q", (Int(3),))
        before = state([LazyGoal(p1), LazyGoal(q2), LazyGoal(q3)])
        after = state([ActGoal(p1, 1, 1), LazyGoal(q2), LazyGoal(Atom("ghost", ()))], [p1])
        cls = classify_step(annotate(p), before, after)
        assert cls.kind == VIOLATION
        assert cls.before == correspondence(before) and cls.after == correspondence(after)


class TestCheckSoundness:
    def test_only_steps_that_change_the_erasure_erase_whole(self, pivot_program, monkeypatch):
        """A whole erasure is one sort of the erased store. A silent step
        and a firing its certificate confirms make none, so the final
        store is the only one."""
        calls = []
        sort = chrcp.soundness.canonical_store

        def counted(atoms):
            calls.append(1)
            return sort(atoms)

        rng = random.Random(0)
        data = [f"data({a}, {rng.randrange(1000)})" for a in "ab" for _ in range(200)]
        init = parse_store(", ".join(data + ["swap(a, b, 500)"]) + ".")
        monkeypatch.setattr(chrcp.soundness, "canonical_store", counted)
        rep = check_soundness(pivot_program, init)
        assert rep.ok and rep.steps > 2000
        assert rep.counts()[ABSTRACT] == 1
        assert len(calls) == 1
        run = run_operational(annotate(pivot_program), init)
        assert rep.final_store == correspondence(run.state)

    def test_firing_unfolds_its_body_once(self, pivot_program, monkeypatch):
        """The checker unfolds the pushed goal's body once when judging the
        firing that pushes it, the certificate unfolds the body its (rule,
        match) denotes once, to check that the machine pushed that body,
        and the pushed goal is unfolded once more when the next step pops
        it; the initial goal is unfolded when popped, and the final state
        holds no init goal."""
        calls = []
        unfold = chrcp.soundness.unfold_body

        def counted(patterns):
            calls.append(1)
            return unfold(patterns)

        monkeypatch.setattr(chrcp.soundness, "unfold_body", counted)
        rep = check_soundness(pivot_program, corpus_store("pivot_swap"))
        assert rep.ok and rep.counts()[ABSTRACT] == 1
        assert len(calls) == 4

    def test_pivot_swap_ok(self, pivot_program):
        rep = check_soundness(pivot_program, corpus_store("pivot_swap"))
        assert rep.ok and rep.truncated is None
        assert rep.final_store == store_of(
            parse_store("data(a,2), data(a,3), data(b,7), data(b,8).")
        )

    def test_relabel_three_ok(self, relabel_program):
        rep = check_soundness(relabel_program, corpus_store("relabel3"))
        assert rep.ok
        assert rep.final_store == store_of(parse_store("b(1), b(2), b(3)."))
        assert rep.counts()[ABSTRACT] == 1

    def test_remove_non_min_ok(self, remove_min_program, remove_min_store):
        rep = check_soundness(remove_min_program, remove_min_store)
        assert rep.ok
        assert rep.final_store == store_of(parse_store("edge(a,d,5), edge(b,c,1)."))

    def test_negative_control_detects_violation(self, relabel_program):
        with maximality_disabled():
            rep = check_soundness(relabel_program, corpus_store("relabel3"))
        assert not rep.ok
        assert len(rep.violations) >= 1

    def test_trace_records_shape(self, relabel_program):
        rep = check_soundness(relabel_program, corpus_store("relabel2"))
        recs = list(trace_records(rep))
        assert len(recs) == rep.steps
        assert all({"index", "kind", "classification"} <= set(r) for r in recs)
        fired = [r for r in recs if r["classification"] == ABSTRACT]
        assert fired and "storeBefore" in fired[0]

    def test_goal_digests_are_the_run_trace(self, relabel_program):
        loop = parse_program("loop @ p(X) ==> p(X).")
        for program, st, max_store in (
            (relabel_program, corpus_store("relabel2"), 64),
            (loop, parse_store("p(1)."), 3),
        ):
            rep = check_soundness(program, st, max_store=max_store)
            digests = []
            run_operational(
                annotate(program),
                st,
                max_steps=MAX_STEPS,
                observer=lambda ev: digests.append(state_digest(ev.after)),
                max_store=max_store,
            )
            assert rep.goal_digests == digests
        assert rep.truncated == "store cap 3" and len(rep.goal_digests) == rep.steps

    def test_truncated_run_still_classifies(self):
        p = parse_program("loop @ p(X) ==> p(X).")
        rep = check_soundness(p, parse_store("p(1)."), max_steps=40)
        assert rep.truncated == "step budget 40" and rep.steps == len(rep.classifications) == 40
        assert rep.ok  # every executed step is still silent or abstract

    def test_engines_agree_on_corpus(self, pivot_program, remove_min_program):
        from chrcp.rewrite import run_abstract

        for program, st in (
            (pivot_program, corpus_store("pivot_swap")),
            (remove_min_program, corpus_store("remove_non_min")),
            (corpus_program("relabel"), corpus_store("relabel2")),
        ):
            rep = check_soundness(program, st)
            ab = run_abstract(program, store_of(st), max_steps=50)
            assert rep.ok and ab.truncated is None
            assert rep.final_store == ab.final


class TestFuzzSlice:
    def test_soundness_over_seeds(self):
        for seed in range(80):
            program, init = generate_random(seed)
            rep = check_soundness(program, init, max_steps=120)
            assert rep.ok, f"seed {seed}: {rep.violations}"

    def test_certificate_verdicts_equal_search_verdicts(self):
        for seed in range(80):
            program, init = generate_random(seed)
            pw = annotate(program)

            def cross_check(ev):
                top = ev.after.goals[0] if ev.after.goals else None
                if not isinstance(top, InitGoal):
                    return
                bare = dataclasses.replace(top, cause=None)
                searched = ExecutionState((bare,) + ev.after.goals[1:], ev.after.store)
                got = classify_step(pw, ev.before, ev.after).kind
                assert got == classify_step(pw, ev.before, searched).kind, f"seed {seed}, step {ev.index}"

            run_operational(pw, init, max_steps=120, observer=cross_check, max_store=64)

    def test_silent_iff_whole_erasure_unchanged(self):
        """A step judged by its change is silent exactly when the two whole
        erasures are equal."""
        for seed in range(80):
            program, init = generate_random(seed)
            pw = annotate(program)

            def cross_check(ev):
                whole = correspondence(ev.before) == correspondence(ev.after)
                silent = classify_step(pw, ev.before, ev.after).kind == SILENT
                assert silent == whole, f"seed {seed}, step {ev.index}"

            run_operational(pw, init, max_steps=120, observer=cross_check, max_store=64)

    def test_clean_seeds_need_no_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("certificate check fell back to the search")

        monkeypatch.setattr(chrcp.soundness, "abstract_steps", no_search)
        for seed in range(80):
            program, init = generate_random(seed)
            rep = check_soundness(program, init, max_steps=120)
            assert rep.ok, f"seed {seed}: {rep.violations}"
