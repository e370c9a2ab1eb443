import pytest

from chrcp import corpus_program, corpus_store, machine
from chrcp.errors import ChrcpError
from chrcp.fuzz import generate_random
from chrcp.machine import (
    ActGoal,
    EagerGoal,
    ExecutionState,
    InitGoal,
    LabeledStore,
    LazyGoal,
    PropGoal,
    annotate,
    initial_state,
    run_operational,
    step,
    validate_state,
)
from chrcp.parse import parse_program, parse_store
from chrcp.rewrite import store_of
from chrcp.rules import Atom
from chrcp.soundness import correspondence
from chrcp.terms import Int

from oracles import oracle_prop_instances, whole_state_problems


class TestAnnotate:
    def test_pivot_indices(self, pivot_program):
        pw = annotate(pivot_program)
        (ar,) = pw.rules
        assert ar.occurrences == (1, 2, 3)
        assert pw.lookup(1)[1] == 0 and pw.lookup(3)[1] == 2
        assert pw.lookup(4) is None

    def test_sequential_across_rules(self):
        pw = annotate(parse_program("r @ p(X), q(X) <=> s(X). t @ s(X) ==> p(X)."))
        assert [ar.occurrences for ar in pw.rules] == [(1, 2), (3,)]

    def test_empty_program(self):
        pw = annotate(parse_program(""))
        assert pw.lookup(1) is None
        assert pw.rules == () and pw.table == {}

    def test_drop_indices_reproduces_source(self, pivot_program):
        assert annotate(pivot_program).source == pivot_program


class TestLabeledStore:
    def test_fresh_labels_count_up(self):
        s = LabeledStore()
        s, n1 = s.add(Atom("p", (Int(1),)))
        s, n2 = s.add(Atom("p", (Int(2),)))
        assert (n1, n2) == (1, 2)
        s, n3 = s.add(Atom("p", (Int(3),)))
        assert n3 == 3

    def test_labels_never_reused_after_removal(self):
        s = LabeledStore()
        s, n1 = s.add(Atom("p", (Int(1),)))
        s = s.remove([n1])
        s, n2 = s.add(Atom("p", (Int(1),)))
        assert n2 == 2 and n1 not in s


class TestStepDispatch:
    def test_init_classifies_storage(self, relabel_program):
        pw = annotate(relabel_program)
        st = parse_store("a(1), a(2).")
        out = step(pw, initial_state(st))
        assert out is not None
        state, kind = out
        assert kind == "init"
        # both a-atoms unify with the comprehension head: stored eagerly
        assert all(isinstance(g, EagerGoal) for g in state.goals)
        assert len(state.store.entries) == 2

    def test_init_lazy_goals_precede_eager(self):
        p = parse_program("r @ {a(X)}#{X in Xs} <=> true.")
        pw = annotate(p)
        st = parse_store("c(1), a(2).")
        state, kind = step(pw, initial_state(st))
        assert [type(g) for g in state.goals] == [LazyGoal, EagerGoal]

    def test_act_past_last_occurrence_drops(self, relabel_program):
        pw = annotate(relabel_program)
        store = LabeledStore()
        store, n = store.add(Atom("a", (Int(1),)))
        s = ExecutionState((ActGoal(Atom("a", (Int(1),)), n, 99),), store)
        state, kind = step(pw, s)
        assert kind == "act-drop" and state.goals == ()

    def test_eager_drop_when_deleted(self, relabel_program):
        pw = annotate(relabel_program)
        s = ExecutionState((EagerGoal(Atom("a", (Int(1),)), 7),), LabeledStore())
        state, kind = step(pw, s)
        assert kind == "eager-drop" and state.goals == ()

    def test_prop_saturates_on_exhausted_history(self):
        p = parse_program("copy @ p(X) ==> q(X).")
        pw = annotate(p)
        store = LabeledStore()
        store, n = store.add(Atom("p", (Int(1),)))
        ar, _ = pw.lookup(1)
        from chrcp.machine import _instance_key
        from chrcp.match import enumerate_matches

        (m,) = enumerate_matches(ar.rule, store.items(), anchor=(0, n))
        hist = frozenset({_instance_key(ar, m)})
        s = ExecutionState((PropGoal(Atom("p", (Int(1),)), n, 1, hist),), store)
        state, kind = step(pw, s)
        assert kind == "prop-sat"
        assert isinstance(state.goals[0], ActGoal) and state.goals[0].occurrence == 2


class TestRuns:
    def test_empty_init_terminates_in_one_step(self, relabel_program):
        run = run_operational(annotate(relabel_program), ())
        assert run.state.terminal
        assert [k for k, _ in run.trace] == ["init"]

    def test_pivot_swap(self, pivot_program, pivot_store):
        run = run_operational(annotate(pivot_program), pivot_store)
        assert run.state.terminal and run.truncated is None
        assert correspondence(run.state) == store_of(
            parse_store("data(a,3), data(a,2), data(b,7), data(b,8).")
        )

    def test_single_propagation_fires_once(self):
        p = parse_program("copy @ p(X) ==> q(X).")
        run = run_operational(annotate(p), parse_store("p(1)."))
        assert correspondence(run.state) == store_of(parse_store("p(1), q(1)."))
        assert sum(1 for k, _ in run.trace if k == "prop-prop") == 1

    def test_validity_preserved_throughout(self, relabel_program, pivot_program):
        for program, st in (
            (relabel_program, parse_store("a(1), a(2), a(3).")),
            (pivot_program, corpus_store("pivot_swap")),
        ):
            pw = annotate(program)
            seen = []

            def spy(ev):
                seen.append(whole_state_problems(pw, ev.after))

            run_operational(pw, st, observer=spy)
            assert seen and all(not problems for problems in seen)

    def test_no_duplicate_labels_ever(self, remove_min_program, remove_min_store):
        pw = annotate(remove_min_program)
        states = []
        run_operational(pw, remove_min_store, observer=lambda ev: states.append(ev.after))
        for s in states:
            labels = s.store.labels()
            assert len(set(labels)) == len(labels)

    def test_invalid_state_raises_chrcp_error(self, relabel_program, monkeypatch):
        monkeypatch.setattr(machine, "validate_state", lambda pw, before, after: ["broken"])
        with pytest.raises(ChrcpError, match="invalid state after init"):
            run_operational(annotate(relabel_program), corpus_store("relabel2"))

    def test_step_limit_flag(self):
        p = parse_program("loop @ p(X) ==> p(X).")
        run = run_operational(annotate(p), parse_store("p(1)."), max_steps=30)
        assert run.truncated == "step budget 30" and len(run.trace) == 30

    def test_store_cap_flag(self):
        p = parse_program("loop @ p(X) ==> p(X).")
        run = run_operational(annotate(p), parse_store("p(1)."), max_store=3)
        assert run.truncated == "store cap 3" and len(run.state.store.entries) == 4

    def test_act_simpa_2_retains_active(self):
        p = parse_program("r @ p(X) \\ q(X) <=> s(X).")
        run = run_operational(annotate(p), parse_store("p(1), q(1), q(1)."))
        final = correspondence(run.state)
        assert final == store_of(parse_store("p(1), s(1), s(1)."))


class TestValidateTransition:
    """`validate_state` checks what one transition pushed and labelled; each
    hand-built pair breaks one invariant, which the whole-state reference
    also reports."""

    a1 = Atom("a", (Int(1),))
    b1 = Atom("b", (Int(1),))

    def check(self, pw, before, after, expected):
        assert validate_state(pw, before, after) == [expected]
        assert whole_state_problems(pw, after) == [expected]

    def test_pushed_non_monotone_lazy_goal(self, relabel_program):
        pw = annotate(relabel_program)  # a/1 feeds a comprehension head
        before = ExecutionState((InitGoal((self.a1,)),), LabeledStore())
        after = ExecutionState((LazyGoal(self.a1),), LabeledStore())
        self.check(pw, before, after, f"lazy goal holds non-monotone constraint {self.a1}")

    def test_init_goal_pushed_below_the_top(self, relabel_program):
        pw = annotate(relabel_program)
        store = LabeledStore(((1, self.b1),), 2)
        before = ExecutionState((ActGoal(self.b1, 1, 1),), store)
        after = ExecutionState((ActGoal(self.b1, 1, 2), InitGoal(())), store)
        self.check(pw, before, after, "init goal below the top of the stack")

    def test_label_given_twice(self, relabel_program):
        pw = annotate(relabel_program)
        before = ExecutionState((LazyGoal(self.b1),), LabeledStore(((1, self.a1),), 2))
        relabelled = LabeledStore(((1, self.a1), (1, self.b1)), 2)
        after = ExecutionState((ActGoal(self.b1, 1, 1),), relabelled)
        self.check(pw, before, after, "duplicate store labels")

    def test_real_transitions_pass(self, relabel_program):
        pw = annotate(relabel_program)
        state = initial_state(parse_store("a(1), b(2)."))
        while (out := step(pw, state)) is not None:
            assert validate_state(pw, state, out[0]) == []
            state = out[0]

    def test_agrees_with_whole_state_check(self):
        cases = [generate_random(seed) for seed in range(80)] + [
            (corpus_program(prog), corpus_store(st))
            for prog, st in (
                ("pivot_swap", "pivot_swap"),
                ("relabel", "relabel2"),
                ("relabel", "relabel3"),
                ("pair_prop", "pair2"),
                ("pair_prop", "pair3"),
                ("remove_non_min", "remove_non_min"),
            )
        ]
        steps = 0
        for program, init in cases:
            pw = annotate(program)

            def agree(ev):
                nonlocal steps
                steps += 1
                assert validate_state(pw, ev.before, ev.after) == whole_state_problems(pw, ev.after)

            run_operational(pw, init, max_steps=120, observer=agree, max_store=64)
        assert steps > 1000


class TestSaturation:
    def fires(self, run):
        return sum(1 for k, _ in run.trace if k == "prop-prop")

    def test_pairs_two(self):
        program = corpus_program("pair_prop")
        run = run_operational(annotate(program), corpus_store("pair2"))
        assert run.state.terminal
        (rule,) = program.rules
        final_items = run.state.store.items()
        p_items = [(n, a) for n, a in final_items if a.pred == "p"]
        expected = oracle_prop_instances(rule, p_items)
        assert self.fires(run) == len(expected) == 2

    def test_pairs_three(self):
        program = corpus_program("pair_prop")
        run = run_operational(annotate(program), corpus_store("pair3"))
        (rule,) = program.rules
        p_items = [(n, a) for n, a in run.state.store.items() if a.pred == "p"]
        expected = oracle_prop_instances(rule, p_items)
        assert self.fires(run) == len(expected) == 6

    def test_no_instance_fires_twice_lazy(self):
        program = corpus_program("pair_prop")
        pw = annotate(program)
        fired = []

        def spy(ev):
            if ev.kind == "prop-prop":
                goal = ev.before.goals[0]
                new = ev.after.goals[1].history - goal.history
                fired.extend(new)

        run_operational(pw, corpus_store("pair3"), observer=spy)
        assert len(fired) == len(set(fired))

    def test_duplicate_values_refire_across_occurrences(self):
        # Characterization: identical-value pairs give one distinct instance,
        # found independently at both occurrences of the same active goal.
        program = corpus_program("pair_prop")
        run = run_operational(annotate(program), parse_store("p(1), p(1)."))
        (rule,) = program.rules
        p_items = [(n, a) for n, a in run.state.store.items() if a.pred == "p"]
        assert len(oracle_prop_instances(rule, p_items)) == 1
        assert self.fires(run) == 2

    def test_termination_on_monotone_propagation(self):
        p = parse_program("r @ p(X), p(Y) ==> q(X, Y). s @ q(X, Y) ==> m(X).")
        run = run_operational(annotate(p), parse_store("p(1), p(2), p(3)."), max_steps=4000)
        assert run.state.terminal and run.truncated is None
