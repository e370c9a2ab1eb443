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
saturation terminates.

A step costs what it changes. The goal stack (`GoalStack`) is a persistent
linked stack: a step pops one node and pushes a few onto the tail it
shares. The store (`match.LabeledStore`) is persistent by rerooting: the
newest version owns the one index the head-match search reads, and a
step edits it for the k labels it adds or removes; an older version keeps
only the edit back to its successor. `validate_state` checks the pushed
goals and the fresh labels, and `state_digest` is a view of the state's
stack node and store version (`StateDigest`), rendered only when read, so
a run's trace holds what each step changed and no text. A head of another
predicate or arity than the active constraint's costs no search, and
neither does a rule with an atom head whose predicate has no constraint
stored: that partner is missing, so the rule cannot fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union

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


class GoalStack:
    """A persistent stack of goals. A node holds the top goal and the stack
    below it, which every stack pushed onto it shares, so a push or a pop
    costs O(1) and a step copies no goal. `EMPTY` is the one empty stack.
    The stack reads like the tuple of its goals, top first: `len`, `[i]`,
    `[:k]` (a tuple), `[k:]` (the shared tail itself), iteration, `==`
    against a tuple or a stack, and `tuple + stack` (the tuple's goals
    pushed, its first on top)."""

    __slots__ = ("top", "rest", "_len")

    def __init__(self, top: Goal | None, rest: GoalStack | None) -> None:
        self.top, self.rest = top, rest
        self._len = 0 if rest is None else rest._len + 1

    def push(self, goal: Goal) -> GoalStack:
        return GoalStack(goal, self)

    def __radd__(self, goals: object) -> GoalStack:
        if not isinstance(goals, tuple):
            return NotImplemented
        node = self
        for g in reversed(goals):
            node = GoalStack(g, node)
        return node

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Goal]:
        node = self
        while node._len:
            yield node.top  # type: ignore[misc]
            node = node.rest  # type: ignore[assignment]

    def __getitem__(self, i):
        """`[i]` and `[k:]` walk i or k nodes, `[:k]` k nodes; any other
        slice copies the stack to a tuple first."""
        if isinstance(i, slice):
            start, stop = i.start or 0, i.stop
            if i.step is not None or start < 0 or (stop is not None and stop < 0):
                return tuple(self)[i]
        else:
            start, stop = i + self._len if i < 0 else i, None
            if not 0 <= start < self._len:
                raise IndexError("goal stack index out of range")
        node = self
        for _ in range(min(start, self._len)):
            node = node.rest  # type: ignore[assignment]
        if not isinstance(i, slice):
            return node.top
        if stop is None:
            return node
        out = []
        for _ in range(min(stop - start, node._len)):
            out.append(node.top)
            node = node.rest  # type: ignore[assignment]
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, tuple):
            return self._len == len(other) and tuple(self) == other
        if not isinstance(other, GoalStack):
            return NotImplemented
        a, b = self, other
        if a._len != b._len:
            return False
        while a is not b:
            if a.top != b.top:
                return False
            a, b = a.rest, b.rest  # type: ignore[assignment]
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"GoalStack({tuple(self)!r})"

    @property
    def digest(self) -> str:
        """The top four goals' text in a state digest."""
        return ";".join(g.digest for g in self[:4]) + ("..." if self._len > 4 else "")


EMPTY = GoalStack(None, None)


@dataclass(frozen=True)
class ExecutionState:
    """A goal stack and a store. Goals given as a tuple (or any iterable)
    become a `GoalStack`."""

    goals: GoalStack
    store: LabeledStore

    def __post_init__(self) -> None:
        if not isinstance(self.goals, GoalStack):
            object.__setattr__(self, "goals", tuple(self.goals) + EMPTY)

    @property
    def terminal(self) -> bool:
        return not self.goals


def initial_state(body: Iterable[Pattern]) -> ExecutionState:
    return ExecutionState(EMPTY.push(InitGoal(tuple(body))), LabeledStore())


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
    goals = state.goals
    if not goals:
        return None
    goal, rest, store = goals.top, goals.rest, state.store

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
        return ExecutionState(rest.push(ActGoal(goal.atom, n, 1)), store2), "lazy-act"

    if isinstance(goal, EagerGoal):
        if goal.label in store:
            return ExecutionState(rest.push(ActGoal(goal.atom, goal.label, 1)), store), "eager-act"
        return ExecutionState(rest, store), "eager-drop"

    if isinstance(goal, ActGoal):
        hit = pw.lookup(goal.occurrence)
        if hit is None:
            return ExecutionState(rest, store), "act-drop"
        rule, pos = hit
        if rule.is_propagation:
            prop = PropGoal(goal.atom, goal.label, goal.occurrence, frozenset())
            return ExecutionState(rest.push(prop), store), "act-prop"
        m = _least_match(rule, pos, goal, store)
        n_prop = len(rule.propagated)
        if m is not None:
            store2 = store.remove(i for b in m.blocks[n_prop:] for i in b)
            init = InitGoal(m.theta.apply(rule.body), (rule, m))
            if pos >= n_prop:
                # Active constraint sits in the simplified head: it goes too.
                return ExecutionState(rest.push(init), store2), "act-simpa-1"
            return ExecutionState((init, goal) + rest, store2), "act-simpa-2"
        return ExecutionState(rest.push(ActGoal(goal.atom, goal.label, goal.occurrence + 1)), store), "act-next"

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
        return ExecutionState(rest.push(ActGoal(goal.atom, goal.label, goal.occurrence + 1)), store), "prop-sat"

    raise TypeError(f"unknown goal {goal!r}")


# ---------------------------------------------------------------------------
# State validity (preserved by every transition)


def validate_state(pw: OccurrenceProgram, before: ExecutionState, after: ExecutionState) -> list[str]:
    """Problems the transition `before` -> `after` added to a valid `before`.
    A transition pops the top goal and pushes goals onto the rest; the store
    labels what it adds from `before.store.next_label` upwards. So only the
    pushed goals and the fresh labels are checked: the entries `after`
    holds beyond `before` (`LabeledStore.delta`, the edit between the two
    versions) must carry exactly the labels the step gave."""
    problems: list[str] = []
    node = after.goals
    for idx in range(len(node) - len(before.goals) + 1):  # the pushed goals, top first
        g, node = node.top, node.rest
        if isinstance(g, LazyGoal) and not pw.monotone(g.atom):
            problems.append(f"lazy goal holds non-monotone constraint {g.atom}")
        if isinstance(g, InitGoal) and idx != 0:
            problems.append("init goal below the top of the stack")
    old, new = before.store, after.store
    _, added = old.delta(new)
    first, stop = old.next_label, new.next_label
    # `added` rises in label order, so its ends and its length fix it.
    if len(added) != stop - first or added and (added[0][0], added[-1][0]) != (first, stop - 1):
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


class StateDigest:
    """A state's digest as a view: the state's goal-stack node and store
    version, both persistent, so making one costs O(1) and holds no text.
    `str()` renders `<[top four goals] | {pred#label,...}>`: the goals'
    texts (`GoalStack.digest`), then the store's tokens in label order
    (`LabeledStore.digest`, which re-roots the store there). `==` and
    `hash` go by that text, and a digest equals its text as a `str`.
    Nothing is cached: a rendered digest keeps no O(store) text alive."""

    __slots__ = ("goals", "store")

    def __init__(self, goals: GoalStack, store: LabeledStore) -> None:
        self.goals, self.store = goals, store

    def __str__(self) -> str:
        return f"<[{self.goals.digest}] | {{{self.store.digest}}}>"

    def __repr__(self) -> str:
        return f"StateDigest({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (StateDigest, str)):
            return str(self) == str(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(str(self))


@dataclass
class OpRun:
    state: ExecutionState
    trace: list[tuple[str, StateDigest]]  # (kind, digest of the state after the step)
    truncated: str | None  # the limit that stopped the run, e.g. "step budget 40"


def state_digest(s: ExecutionState) -> StateDigest:
    """The digest of `s`: a view of its goal stack and store, rendered by
    `str()` (`StateDigest`)."""
    return StateDigest(s.goals, s.store)


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
    trace: list[tuple[str, StateDigest]] = []
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
