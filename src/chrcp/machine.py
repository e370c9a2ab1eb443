"""Goal-stack execution engine with lazy/eager storage and saturation.

Rule heads get unique occurrence indices; an active constraint walks them in
order, trying to fire the owning rule anchored at that head. Constraints the
monotonicity analysis clears are stored lazily (on activation); anything
that could be absorbed by a comprehension head is stored eagerly at init
time. `annotate` decides monotonicity once per program: the predicates whose
every constraint is monotone, and the comprehension heads that any other
pattern is checked against. Propagation rules track per-goal histories of applied instances so
saturation terminates. The store (`match.LabeledStore`) keeps its index up
to date per step: a label -> atom map, per-predicate buckets in label order
for the head-match search, and digest tokens for `state_digest`. A head of
another predicate or arity than the active constraint's costs no search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

from .errors import ChrcpError, recursion_guard
from .match import LabeledStore, MatchResult, enumerate_matches
from .monotone import Absorber, absorbers, predicate_report, verdict
from .rewrite import MAX_STEPS, unfold_body
from .rules import (
    Atom,
    Pattern,
    Program,
    Rule,
    normalize_rule,
)


# ---------------------------------------------------------------------------
# Occurrence annotation


@dataclass(frozen=True)
class AnnotatedRule:
    rule: Rule  # normalized
    occurrences: tuple[int, ...]  # aligned with rule.heads

    @property
    def is_propagation(self) -> bool:
        return self.rule.is_propagation


@dataclass(frozen=True, eq=False)
class OccurrenceProgram:
    source: Program
    rules: tuple[AnnotatedRule, ...]
    table: dict  # occurrence index -> (AnnotatedRule, head position)
    absorbers: tuple[Absorber, ...]  # comprehension heads with their rule guards
    monotone_preds: frozenset  # (pred, arity) pairs whose generic atom is monotone

    def lookup(self, i: int):
        """Rule owning occurrence i with the head position, or None."""
        return self.table.get(i)

    def monotone(self, pattern: Pattern) -> bool:
        """A pattern of a monotone predicate is monotone; any other pattern
        gets its own verdict against the program's comprehension heads."""
        atom = pattern if isinstance(pattern, Atom) else pattern.atom
        if (atom.pred, atom.arity) in self.monotone_preds:
            return True
        return verdict(self.absorbers, pattern).monotone


def annotate(program: Program) -> OccurrenceProgram:
    """Number every head pattern 1..N in textual order, and analyse the
    program's monotonicity once for every run of the machine on it."""
    rules: list[AnnotatedRule] = []
    table: dict = {}
    i = 0
    for r in program.rules:
        nr = normalize_rule(r)
        occ: list[int] = []
        for pos in range(len(nr.heads)):
            i += 1
            occ.append(i)
        ar = AnnotatedRule(nr, tuple(occ))
        for pos, idx in enumerate(ar.occurrences):
            table[idx] = (ar, pos)
        rules.append(ar)
    normalized = Program(tuple(ar.rule for ar in rules))
    preds = frozenset(k for k, mono in predicate_report(normalized).items() if mono)
    return OccurrenceProgram(program, tuple(rules), table, absorbers(normalized), preds)


# ---------------------------------------------------------------------------
# Goals


@dataclass(frozen=True)
class InitGoal:
    body: tuple[Pattern, ...]
    # (normalized rule, MatchResult) of the firing that pushed this goal: the
    # certificate the soundness checker confirms. Not part of goal identity.
    cause: tuple | None = field(default=None, compare=False)


@dataclass(frozen=True)
class LazyGoal:
    atom: Atom


@dataclass(frozen=True)
class EagerGoal:
    atom: Atom
    label: int


@dataclass(frozen=True)
class ActGoal:
    atom: Atom
    label: int
    occurrence: int


@dataclass(frozen=True)
class PropGoal:
    atom: Atom
    label: int
    occurrence: int
    history: frozenset  # `MatchResult.instance_key`s of the instances fired


Goal = Union[InitGoal, LazyGoal, EagerGoal, ActGoal, PropGoal]


@dataclass(frozen=True)
class ExecutionState:
    goals: tuple[Goal, ...]
    store: LabeledStore

    @property
    def terminal(self) -> bool:
        return not self.goals


def initial_state(body: Iterable[Pattern]) -> ExecutionState:
    return ExecutionState((InitGoal(tuple(body)),), LabeledStore())


STEP_KINDS = (
    "init",
    "lazy-act",
    "eager-act",
    "eager-drop",
    "act-simpa-1",
    "act-simpa-2",
    "act-next",
    "act-drop",
    "act-prop",
    "prop-prop",
    "prop-sat",
)


# ---------------------------------------------------------------------------
# Transitions


def _least_match(
    ar: AnnotatedRule, pos: int, goal: ActGoal | PropGoal, store: LabeledStore, history: frozenset = frozenset()
) -> MatchResult | None:
    """The least match of `ar` with the active constraint in head `pos`
    whose instance key is not in `history`. A head of another predicate or
    arity cannot take the constraint, so that costs no search."""
    head = ar.rule.heads[pos]
    head = head if isinstance(head, Atom) else head.atom
    if head.pred != goal.atom.pred or head.arity != goal.atom.arity:
        return None
    matches = enumerate_matches(ar.rule, store, anchor=(pos, goal.label), limit=1, exclude=history)
    return matches[0] if matches else None


def step(pw: OccurrenceProgram, state: ExecutionState) -> tuple[ExecutionState, str] | None:
    """One transition of the leading goal; None when the stack is empty. A
    firing takes the least match (`MatchResult.sort_key` order) that a
    propagation goal's history does not already hold. The search asks for
    that one match (`enumerate_matches`' `limit=1`) and skips the history's
    instances (`exclude`) before it validates anything."""
    if not state.goals:
        return None
    goal, rest = state.goals[0], state.goals[1:]
    store = state.store

    if isinstance(goal, InitGoal):
        lazy_pats, eager_pats = [], []
        for p in goal.body:
            (lazy_pats if pw.monotone(p) else eager_pats).append(p)
        lazy_atoms = unfold_body(lazy_pats)
        eager_atoms = unfold_body(eager_pats)
        store2, labels = store.add_many(eager_atoms)
        goals = (
            tuple(LazyGoal(a) for a in lazy_atoms)
            + tuple(EagerGoal(a, n) for a, n in zip(eager_atoms, labels))
            + rest
        )
        return ExecutionState(goals, store2), "init"

    if isinstance(goal, LazyGoal):
        store2, n = store.add(goal.atom)
        return ExecutionState((ActGoal(goal.atom, n, 1),) + rest, store2), "lazy-act"

    if isinstance(goal, EagerGoal):
        if goal.label in store:
            return (
                ExecutionState((ActGoal(goal.atom, goal.label, 1),) + rest, store),
                "eager-act",
            )
        return ExecutionState(rest, store), "eager-drop"

    if isinstance(goal, ActGoal):
        hit = pw.lookup(goal.occurrence)
        if hit is None:
            return ExecutionState(rest, store), "act-drop"
        ar, pos = hit
        if ar.is_propagation:
            return (
                ExecutionState(
                    (PropGoal(goal.atom, goal.label, goal.occurrence, frozenset()),) + rest,
                    store,
                ),
                "act-prop",
            )
        m = _least_match(ar, pos, goal, store)
        n_prop = len(ar.rule.propagated)
        if m is not None:
            store2 = store.remove(i for b in m.blocks[n_prop:] for i in b)
            init = InitGoal(m.theta.apply(ar.rule.body), (ar.rule, m))
            if pos >= n_prop:
                # Active constraint sits in the simplified head: it goes too.
                return ExecutionState((init,) + rest, store2), "act-simpa-1"
            return ExecutionState((init, goal) + rest, store2), "act-simpa-2"
        return (
            ExecutionState(
                (ActGoal(goal.atom, goal.label, goal.occurrence + 1),) + rest, store
            ),
            "act-next",
        )

    if isinstance(goal, PropGoal):
        hit = pw.lookup(goal.occurrence)
        if hit is None:
            raise ChrcpError("prop goal on a vanished occurrence")
        ar, pos = hit
        m = _least_match(ar, pos, goal, store, goal.history)
        if m is not None:
            body = m.theta.apply(ar.rule.body)
            new_hist = goal.history | {m.instance_key(ar.rule.head_vars())}
            goals = (
                InitGoal(body, (ar.rule, m)),
                PropGoal(goal.atom, goal.label, goal.occurrence, new_hist),
            ) + rest
            return ExecutionState(goals, store), "prop-prop"
        return (
            ExecutionState(
                (ActGoal(goal.atom, goal.label, goal.occurrence + 1),) + rest, store
            ),
            "prop-sat",
        )

    raise TypeError(f"unknown goal {goal!r}")


# ---------------------------------------------------------------------------
# State validity (preserved by every transition)


def validate_state(pw: OccurrenceProgram, before: ExecutionState, after: ExecutionState) -> list[str]:
    """Problems the transition `before` -> `after` added to a valid `before`.
    A transition pops the top goal and pushes goals onto the rest; it takes
    fresh labels from `before.store.next_label` upwards and appends their
    entries. So only the pushed goals and the fresh labels are checked."""
    problems: list[str] = []
    pushed = after.goals[: max(len(after.goals) - len(before.goals) + 1, 0)]
    for idx, g in enumerate(pushed):
        if isinstance(g, LazyGoal) and not pw.monotone(g.atom):
            problems.append(f"lazy goal holds non-monotone constraint {g.atom}")
        if isinstance(g, InitGoal) and idx != 0:
            problems.append("init goal below the top of the stack")
    first, stop = before.store.next_label, after.store.next_label
    entries = after.store.entries
    kept = len(entries) - (stop - first)  # entries not labelled by this step
    fresh = [n for n, _ in entries[max(kept, 0) :]]
    if not 0 <= kept <= len(before.store.entries) or fresh != list(range(first, stop)):
        problems.append("duplicate store labels")
    return problems


# ---------------------------------------------------------------------------
# Driver


@dataclass(frozen=True)
class StepEvent:
    index: int
    kind: str
    before: ExecutionState
    after: ExecutionState


@dataclass
class OpRun:
    state: ExecutionState
    trace: list[tuple[str, str]]  # (kind, state digest)
    truncated: str | None  # the limit that stopped the run, e.g. "step budget 40"


def goal_digest(g: Goal) -> str:
    if isinstance(g, InitGoal):
        return f"init[{len(g.body)}]"
    if isinstance(g, LazyGoal):
        return f"lazy {g.atom.pred}/{g.atom.arity}"
    if isinstance(g, EagerGoal):
        return f"eager #{g.label}"
    if isinstance(g, ActGoal):
        return f"act #{g.label}@{g.occurrence}"
    return f"prop #{g.label}@{g.occurrence}|{len(g.history)}"


def state_digest(s: ExecutionState) -> str:
    store = ",".join(s.store.tokens)
    goals = ";".join(goal_digest(g) for g in s.goals[:4])
    more = "..." if len(s.goals) > 4 else ""
    return f"<[{goals}{more}] | {{{store}}}>"


def run_operational(
    pw: OccurrenceProgram,
    init: Iterable[Pattern],
    max_steps: int = MAX_STEPS,
    observer: Callable[[StepEvent], None] | None = None,
    max_store: int | None = None,
) -> OpRun:
    """Drive the machine from `init` to an empty goal stack. The run is
    deterministic: every firing takes the least match.

    Each transition is checked against the state before it (`validate_state`),
    and a problem raises `ChrcpError`, as does nesting past the interpreter's
    recursion limit. The run stops early after `max_steps`
    steps, or once the store holds more than `max_store` constraints (no cap
    when None); `truncated` then names the limit it hit.
    """
    state = initial_state(init)
    trace: list[tuple[str, str]] = []
    with recursion_guard():
        for index in range(max_steps):
            out = step(pw, state)
            if out is None:
                return OpRun(state, trace, None)
            nxt, kind = out
            problems = validate_state(pw, state, nxt)
            if problems:
                raise ChrcpError(f"invalid state after {kind}: {problems}")
            if observer is not None:
                observer(StepEvent(index, kind, state, nxt))
            trace.append((kind, state_digest(nxt)))
            state = nxt
            if max_store is not None and len(state.store) > max_store:
                return OpRun(state, trace, f"store cap {max_store}")
    return OpRun(state, trace, None if state.terminal else f"step budget {max_steps}")
