"""Goal-stack execution engine with lazy/eager storage and saturation.

Rule heads get unique occurrence indices; an active constraint walks them in
order, trying to fire the owning rule anchored at that head. Constraints the
monotonicity analysis clears are stored lazily (on activation); anything
that could be absorbed by a comprehension head is stored eagerly at init
time. `annotate` decides monotonicity once per program: the predicates whose
every constraint is monotone, the predicates whose every constraint some
argument-blind comprehension head absorbs (`monotone.argument_blind`), and
the comprehension heads that any other pattern gets its own verdict
against. Propagation rules track per-goal histories of applied instances so
saturation terminates. The store (`match.LabeledStore`) keeps its index up
to date per step: a label -> atom map, per-predicate buckets in label order
for the head-match search, and digest tokens for `state_digest`, which
joins them once per store and formats the top four goals. A head of another
predicate or arity than the active constraint's costs no search, and
neither does a rule with an atom head whose predicate has no constraint
stored: that partner is missing, so the rule cannot fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

from . import match
from .errors import ChrcpError, recursion_guard
from .match import LabeledStore, MatchResult, enumerate_matches
from .monotone import Absorber, absorbers, argument_blind, predicate_report, verdict
from .rewrite import MAX_STEPS, unfold_body
from .rules import Atom, Pattern, Program, Rule, normalize_program


# ---------------------------------------------------------------------------
# Occurrence annotation


@dataclass(frozen=True, eq=False)
class OccurrenceProgram:
    source: Program
    table: dict  # occurrence index -> (normalized rule, head position)
    absorbers: tuple[Absorber, ...]  # comprehension heads with their rule guards
    monotone_preds: frozenset  # (pred, arity) pairs whose generic atom is monotone
    absorbed_preds: frozenset  # (pred, arity) pairs an argument-blind head absorbs

    def lookup(self, i: int):
        """Rule owning occurrence i with the head position, or None."""
        return self.table.get(i)

    def monotone(self, pattern: Pattern) -> bool:
        """A pattern of a monotone predicate is monotone, and an atom of an
        absorbed predicate is not. Any other pattern, a comprehension
        pattern with its own guard among them, gets its own verdict against
        the program's comprehension heads."""
        atom = pattern if isinstance(pattern, Atom) else pattern.atom
        key = (atom.pred, atom.arity)
        if key in self.monotone_preds:
            return True
        if isinstance(pattern, Atom) and key in self.absorbed_preds:
            return False
        return verdict(self.absorbers, pattern).monotone


def annotate(program: Program) -> OccurrenceProgram:
    """Number every head pattern 1..N in textual order, and analyse the
    program's monotonicity once for every run of the machine on it."""
    normalized = normalize_program(program)
    occurrences = [(rule, pos) for rule in normalized.rules for pos in range(len(rule.heads))]
    table = dict(enumerate(occurrences, 1))
    preds = frozenset(k for k, mono in predicate_report(normalized).items() if mono)
    heads = absorbers(normalized)
    absorbed = frozenset((h.atom.pred, h.atom.arity) for _, h, guard in heads if argument_blind(h, guard))
    return OccurrenceProgram(program, table, heads, preds, absorbed)


# ---------------------------------------------------------------------------
# Goals


@dataclass(frozen=True)
class InitGoal:
    body: tuple[Pattern, ...]
    # (normalized rule, MatchResult) of the firing that pushed this goal: the
    # certificate the soundness checker confirms. Not part of goal identity.
    cause: tuple | None = field(default=None, compare=False)

    @property
    def digest(self) -> str:
        """The goal's text in a state digest."""
        return f"init[{len(self.body)}]"


@dataclass(frozen=True)
class LazyGoal:
    atom: Atom

    @property
    def digest(self) -> str:
        return f"lazy {self.atom.pred}/{self.atom.arity}"


@dataclass(frozen=True)
class EagerGoal:
    atom: Atom
    label: int

    @property
    def digest(self) -> str:
        return f"eager #{self.label}"


@dataclass(frozen=True)
class ActGoal:
    atom: Atom
    label: int
    occurrence: int

    @property
    def digest(self) -> str:
        return f"act #{self.label}@{self.occurrence}"


@dataclass(frozen=True)
class PropGoal:
    atom: Atom
    label: int
    occurrence: int
    history: frozenset  # `MatchResult.instance_key`s of the instances fired

    @property
    def digest(self) -> str:
        return f"prop #{self.label}@{self.occurrence}|{len(self.history)}"


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
    rule: Rule, pos: int, goal: ActGoal | PropGoal, store: LabeledStore, history: frozenset = frozenset()
) -> MatchResult | None:
    """The least match of the normalized `rule` with the active constraint
    in head `pos` whose instance key is not in `history`; a non-maximal one
    too while `match.maximality_disabled` is active. Two cases cost no
    search: a head of another predicate or arity cannot take the
    constraint, and another atom head whose predicate has no constraint in
    the store has no partner to take."""
    head = rule.heads[pos]
    head = head if isinstance(head, Atom) else head.atom
    if head.pred != goal.atom.pred or head.arity != goal.atom.arity:
        return None
    by_pred = store.by_pred
    if any(isinstance(h, Atom) and i != pos and not by_pred.get(h.pred) for i, h in enumerate(rule.heads)):
        return None
    matches = enumerate_matches(rule, store, (pos, goal.label), maximal=match.MAXIMAL, limit=1, exclude=history)
    return matches[0] if matches else None


def step(pw: OccurrenceProgram, state: ExecutionState) -> tuple[ExecutionState, str] | None:
    """One transition of the leading goal; None when the stack is empty. A
    firing takes the least match (by `MatchResult.blocks`) that a
    propagation goal's history does not already hold. The search asks for
    that one match (`enumerate_matches`' `limit=1`) and skips the history's
    instances (`exclude`) before it validates anything, and before it
    solves anything when the rule's heads are all atoms. An occurrence
    whose rule misses an atom partner in the store makes no search
    (`_least_match`)."""
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
        rule, pos = hit
        if rule.is_propagation:
            return (
                ExecutionState(
                    (PropGoal(goal.atom, goal.label, goal.occurrence, frozenset()),) + rest,
                    store,
                ),
                "act-prop",
            )
        m = _least_match(rule, pos, goal, store)
        n_prop = len(rule.propagated)
        if m is not None:
            store2 = store.remove(i for b in m.blocks[n_prop:] for i in b)
            init = InitGoal(m.theta.apply(rule.body), (rule, m))
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
        rule, pos = hit
        m = _least_match(rule, pos, goal, store, goal.history)
        if m is not None:
            body = m.theta.apply(rule.body)
            new_hist = goal.history | {m.instance_key(rule.head_vars())}
            goals = (
                InitGoal(body, (rule, m)),
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


def state_digest(s: ExecutionState) -> str:
    """The top four goals and the store's tokens. The tokens' text is cached
    on the immutable store, so a step that keeps the store pays only for
    its goals."""
    goals = ";".join(g.digest for g in s.goals[:4])
    more = "..." if len(s.goals) > 4 else ""
    return f"<[{goals}{more}] | {{{s.store.digest}}}>"


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
