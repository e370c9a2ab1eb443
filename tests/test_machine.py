import hashlib

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from chrcp import corpus_program, corpus_store, machine
from chrcp.bundled import PROGRAMS, STORES
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
    state_digest,
    step,
    validate_state,
)
from chrcp.parse import parse_program, parse_store, pretty_pattern
from chrcp.rewrite import store_of
from chrcp.rules import Atom
from chrcp.soundness import correspondence
from chrcp.terms import Int

from oracles import ModelStore, oracle_prop_instances, whole_state_problems


class TestAnnotate:
    def test_pivot_indices(self, pivot_program):
        pw = annotate(pivot_program)
        (rule,) = {pw.lookup(i)[0] for i in (1, 2, 3)}
        assert rule.name == "pivotSwap"
        assert [pw.lookup(i)[1] for i in (1, 2, 3)] == [0, 1, 2]
        assert pw.lookup(4) is None

    def test_sequential_across_rules(self):
        pw = annotate(parse_program("r @ p(X), q(X) <=> s(X). t @ s(X) ==> p(X)."))
        assert [(pw.lookup(i)[0].name, pw.lookup(i)[1]) for i in (1, 2, 3)] == [("r", 0), ("r", 1), ("t", 0)]
        assert pw.lookup(4) is None

    def test_empty_program(self):
        pw = annotate(parse_program(""))
        assert pw.lookup(1) is None
        assert pw.table == {}

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


class StoreAgainstModel(RuleBasedStateMachine):
    """Drives `LabeledStore` and the unindexed `ModelStore` through the same
    updates; after each one they must hold the same entries, answer `in` and
    `len` alike, bucket each predicate's labels in label order, and digest
    alike. The updated index must equal one built from the entries afresh."""

    atoms = st.builds(
        Atom, st.sampled_from("pqr"), st.lists(st.integers(0, 3).map(Int), max_size=2).map(tuple)
    )

    def __init__(self) -> None:
        super().__init__()
        self.store, self.model = LabeledStore(), ModelStore()

    @rule(atom=atoms)
    def add(self, atom):
        (self.store, n), (self.model, m) = self.store.add(atom), self.model.add(atom)
        assert n == m

    @rule(atoms=st.lists(atoms, max_size=5))
    def add_many(self, atoms):
        (self.store, ns), (self.model, ms) = self.store.add_many(atoms), self.model.add_many(atoms)
        assert ns == ms

    @rule(labels=st.lists(st.integers(0, 40), max_size=4))
    def remove_any(self, labels):
        self.store, self.model = self.store.remove(labels), self.model.remove(labels)

    @precondition(lambda self: len(self.model) > 0)
    @rule(data=st.data())
    def remove_held(self, data):
        held = [n for n, _ in self.model.entries]
        labels = data.draw(st.lists(st.sampled_from(held), min_size=1, max_size=len(held)))
        self.store, self.model = self.store.remove(labels), self.model.remove(labels)

    @invariant()
    def agree(self):
        store, model = self.store, self.model
        assert store.entries == model.entries and store.next_label == model.next_label
        assert len(store) == len(model)
        assert all((n in store) == (n in model) for n in range(model.next_label + 2))
        assert {p: tuple(n for n, _ in b) for p, b in store.by_pred.items()} == model.buckets()
        goals = (ActGoal(Atom("p"), 1, 1),)
        assert state_digest(ExecutionState(goals, store)) == state_digest(ExecutionState(goals, model))
        fresh = LabeledStore(store.entries, store.next_label)
        assert (fresh.by_label, fresh.by_pred, fresh.tokens) == (store.by_label, store.by_pred, store.tokens)


TestStoreAgainstModel = StoreAgainstModel.TestCase
TestStoreAgainstModel.settings = settings(max_examples=60, stateful_step_count=25, deadline=None)


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
        rule, _ = pw.lookup(1)
        from chrcp.match import enumerate_matches

        (m,) = enumerate_matches(rule, store, anchor=(0, n))
        hist = frozenset({m.instance_key(rule.head_vars())})
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
            labels = [n for n, _ in s.store.entries]
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

    def test_shared_instance_key_excluded_in_one_search(self, monkeypatch):
        """Two matches of one anchored search share an instance key when the
        other heads swap equal atoms. Each propagation step still makes one
        search, for one match past the goal's history, and fires what the
        least new match of an unbounded search would fire."""
        pw = annotate(parse_program("t @ p(X), p(Y), p(Z) ==> q(X, Y, Z)."))
        init = parse_store("p(1), p(1), p(1), p(1).")
        real = machine.enumerate_matches
        searches, histories = [], []

        def spy(rule, store, anchor=None, *, limit=None, exclude=frozenset(), **kwargs):
            searches.append((limit, exclude))
            return real(rule, store, anchor, limit=limit, exclude=exclude, **kwargs)

        def unbounded(rule, store, anchor=None, *, limit=None, exclude=frozenset(), **kwargs):
            keys = rule.head_vars()
            return [m for m in real(rule, store, anchor, **kwargs) if m.instance_key(keys) not in exclude]

        def prop_history(ev):
            goal = ev.before.goals[0]
            if isinstance(goal, PropGoal) and goal.atom.pred == "p":  # a q takes no search
                histories.append(goal.history)

        monkeypatch.setattr(machine, "enumerate_matches", spy)
        run = run_operational(pw, init, observer=prop_history)
        assert searches == [(1, history) for history in histories]
        assert self.fires(run) == 12
        monkeypatch.setattr(machine, "enumerate_matches", unbounded)
        assert run_operational(pw, init).trace == run.trace

    def test_termination_on_monotone_propagation(self):
        p = parse_program("r @ p(X), p(Y) ==> q(X, Y). s @ q(X, Y) ==> m(X).")
        run = run_operational(annotate(p), parse_store("p(1), p(2), p(3)."), max_steps=4000)
        assert run.state.terminal and run.truncated is None


def trace_sha256(run) -> str:
    """SHA-256 of a run's (kind, digest) trace and its final labeled store."""
    h = hashlib.sha256()
    for kind, digest in run.trace:
        h.update(f"{kind} {digest}\n".encode())
    for n, a in run.state.store.items():
        h.update(f"{n} {pretty_pattern(a)}\n".encode())
    return h.hexdigest()


# (steps, trace_sha256) of every bundled program on every bundled store at
# 3000 steps, recorded before the store was indexed: machine changes that
# only make it faster must keep every one.
RECORDED = {
    ("pivot_swap", "pivot_swap"): (26, "9cc07a6e031c02ff160ecf4266ef0a38aafdde26470ea9e3dccbe3e94667bb50"),
    ("pivot_swap", "remove_non_min"): (26, "4685dd542aa4f30b740dd976e2ad3b2f6a383d816a1b6bf6307bb48c7bc04d05"),
    ("pivot_swap", "relabel2"): (11, "cb3929e6655d5e70d76a88bb884ee022aa25dc9f444036ba6566e2159b439627"),
    ("pivot_swap", "relabel3"): (16, "938df7a176bb0fce111dd79234e910f2ecb5ecb41de6b1d0a3167cf9dc75ea51"),
    ("pivot_swap", "pair2"): (11, "5320f0880f1a083d31ebdac3aea6c4af65f86478356ef97dfc53dc77c8e3e019"),
    ("pivot_swap", "pair3"): (16, "573d8c30b5f38fdbe81ca1fb76f5fcb8cbdffea3adb2ac5f0c3d1601420268db"),
    ("pivot_swap_pure", "pivot_swap"): (138, "73d54c75e9cb14e64acba68daccf7550bbb6991f6af55ad4cf7a7dd5c33109c6"),
    ("pivot_swap_pure", "remove_non_min"): (56, "d3e0e4d51a7863e25fcb908e715d92ed3630275ae3442d971e2d4f56cdb36c62"),
    ("pivot_swap_pure", "relabel2"): (23, "c88724001a78a13316259b3df7a31f8173d9f54d57147675bf6af994687d6c29"),
    ("pivot_swap_pure", "relabel3"): (34, "0f155921474e853bc5f34de3d88a56eee56750edd3b7fb513370aaef6d318d7b"),
    ("pivot_swap_pure", "pair2"): (23, "8e61fe418f49026296584ce7f17402d8d7a1bca6bebe1c58efc0e607f37f460a"),
    ("pivot_swap_pure", "pair3"): (34, "6657ca939e75f1e70cae386aaa1b1b617f64d106088c52e3e16c4c72674f223c"),
    ("remove_non_min", "pivot_swap"): (21, "20e6da5722f60c84787257349dcf4edb94d89743adf2cf10afeb6baa7c9ad64c"),
    ("remove_non_min", "remove_non_min"): (15, "0edfd8f8bcb671c95ec277adc11b6218f55e55a4ef8f63faab724fe56c21505c"),
    ("remove_non_min", "relabel2"): (9, "ee66ac899b8f8dddb15230da1e9b3f03aa475289dc7046f5bc08fa2da2556fb9"),
    ("remove_non_min", "relabel3"): (13, "0bcb162f1ab019b5a5467aa8c00e17662e3d6e1f3373ee2c75261f19d70b83bf"),
    ("remove_non_min", "pair2"): (9, "58575663e1a37ac040932f76fe6be83a90e339f69942734b5d4780ae5d15fb8d"),
    ("remove_non_min", "pair3"): (13, "3716d3040c967618383579b5503d6e754d3018ccdb924927f57a090a9dda559d"),
    ("relabel", "pivot_swap"): (16, "386b4b55facb3c105090e0f7084b55692d615717b1e4e10f73db63961b2eda0b"),
    ("relabel", "remove_non_min"): (16, "5969261e11d3dc8ccaeafaffd4836aa57f727b8832b4bc1a53db1f3824a6d01c"),
    ("relabel", "relabel2"): (11, "62c5ead9d602208521eac4263dd538f0bebe617017b0945abe296f836d551d93"),
    ("relabel", "relabel3"): (15, "10b6402c53314e49c998fad5e77fd9cb2a6e4abb7745579b220cd09d8bed486a"),
    ("relabel", "pair2"): (7, "398569329dbc2d1e217e6ec2a575ece0796e66237499644b64eceb6c55026cd8"),
    ("relabel", "pair3"): (10, "101e196dc9353f76680997ca32a81637d742c33d6d7a18762c8804e01d07df84"),
    ("pair_prop", "pivot_swap"): (31, "38b8800f89a60ae1d0f52aee0f673e197f98651c68dff73f291dde25ce934e7b"),
    ("pair_prop", "remove_non_min"): (31, "b08e3ef0c0eecbc4ad821a523742390c733dfc3bab4807e4909cbf926ef2c227"),
    ("pair_prop", "relabel2"): (13, "1fda4c22fe867a88a380aabbd3f192ae6903339a1f2cd76f7367a9fc47c2f382"),
    ("pair_prop", "relabel3"): (19, "1ad8371dc4b5d98de2b2a2add7dddb56f35e90c3b0632c1c940603a472593f2f"),
    ("pair_prop", "pair2"): (29, "ad5651ca85db1b75da8c19a40455efe6fc8628dde45271d6458b14bc2bd0c02c"),
    ("pair_prop", "pair3"): (67, "dce61ca055173c84048d99e49cddad67ed865e00f4c3e65b38320890f760dc7d"),
    ("copy_prop", "pivot_swap"): (21, "7b8038d1280e461ae5ab17a99c780c63cd7952556db7840614fa93ca3770fe1f"),
    ("copy_prop", "remove_non_min"): (21, "dc4ab743c4c7327641a8e096421ae0e2e01cb4787fe4372c0a885ed53338edc2"),
    ("copy_prop", "relabel2"): (9, "4ffb58f53e628a2d52e09cc1c2a809c8b2110cc621cf19ae6b52cd098ec8e1bc"),
    ("copy_prop", "relabel3"): (13, "c9810ae137b8b1728d2806b9f04e44475f29fd09a6dcf121eb36ef747123265e"),
    ("copy_prop", "pair2"): (21, "fff0ec43bdae49130ba1be3df7850baf3b75a771240e254e544375827bb339de"),
    ("copy_prop", "pair3"): (31, "86e3a9cfbead9ccf739b43de4abee2ef327afc2641a5559fe292e90a2180a65a"),
}


class TestRecordedTraces:
    @pytest.mark.parametrize("program, store_name", [(p, s) for p in PROGRAMS for s in STORES])
    def test_trace_unchanged(self, program, store_name):
        run = run_operational(annotate(corpus_program(program)), corpus_store(store_name), max_steps=3000)
        assert (len(run.trace), trace_sha256(run)) == RECORDED[program, store_name]

    def test_search_only_where_the_head_takes_the_active_constraint(self, pivot_program, pivot_store, monkeypatch):
        """An occurrence whose head has another predicate or arity than the
        active constraint moves on (act-next, prop-sat) without a search."""
        pw = annotate(pivot_program)
        real_step, real_enumerate = machine.step, machine.enumerate_matches
        active: list = []
        searched, mismatched = [], []

        def spy_step(pw, state):
            active[:] = state.goals[:1]
            return real_step(pw, state)

        def spy_enumerate(rule, store, anchor=None, **kwargs):
            head = rule.heads[anchor[0]]
            head = head if isinstance(head, Atom) else head.atom
            atom = active[0].atom
            searched.append(anchor)
            if (head.pred, head.arity) != (atom.pred, atom.arity):
                mismatched.append(anchor)
            return real_enumerate(rule, store, anchor, **kwargs)

        monkeypatch.setattr(machine, "step", spy_step)
        monkeypatch.setattr(machine, "enumerate_matches", spy_enumerate)
        run = run_operational(pw, pivot_store, max_steps=3000)
        kinds = [kind for kind, _ in run.trace]
        assert searched and not mismatched
        # Every step of these kinds searched before the gate; some now skip it.
        after_search = ("act-simpa-1", "act-simpa-2", "act-next", "prop-prop", "prop-sat")
        assert len(searched) < sum(map(kinds.count, after_search))
        assert (len(run.trace), trace_sha256(run)) == RECORDED["pivot_swap", "pivot_swap"]

    def test_no_search_without_a_partner(self, pivot_program, monkeypatch):
        """Once the swap has fired, each of the 400 data it re-adds meets a
        rule whose swap partner is gone: no search. The swap's own firing
        is the run's one search."""
        searches = []
        real = machine.enumerate_matches

        def spy(*args, **kwargs):
            searches.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(machine, "enumerate_matches", spy)
        data = [f"data({agent}, {d})" for agent in "ab" for d in range(200)]
        run = run_operational(annotate(pivot_program), parse_store(", ".join(data + ["swap(a, b, 100)"]) + "."))
        assert run.truncated is None and len(run.state.store) == 400
        assert len(searches) == 1
