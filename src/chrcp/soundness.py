"""Differential checking of the goal-stack engine against the rewriting
semantics.

Every machine state erases to a plain store (stored constraints plus the
constraints still pending in init/lazy goals). A machine transition must
either leave that erasure unchanged (silent) or be one valid rewriting step;
anything else is a soundness violation, reported with both stores attached.
Each transition is judged on its own, by what it changed.

A step pops the top goal and pushes goals onto the rest of the stack. Its
change is two multisets: `out`, the popped goal's pending atoms plus the
atoms of the labels it removed, and `put`, the pushed goals' pending atoms
plus the atoms of the labels it added. When the rest of the stack is
shared, the erasure after the step is cb = ca - out + put, with ca the
erasure before and out contained in ca, all as multisets. So a step is
silent iff out = put, and a firing of `rule` that consumes `consumed` (the
atoms of labels held in ca) and produces `produced` is the abstract step
ca -> ca - consumed + produced iff that store is cb, that is, adding out +
consumed to both and cancelling ca, iff out + produced = put + consumed.
A firing the machine certifies is therefore confirmed from its change
alone; only the residual maximality test reads the rest of the erasure,
and only the atoms of the comprehension heads' (predicate, arity) pairs in
it, since an atom of any other pair fits no comprehension head. No whole
erasure is built or sorted unless the certificate fails or a goal below
the top changed. The certificate's heads, guard and body are read under
the match's substitution as they stand in the rule, through the search's
own judgments (`matches_exactly`, `residual_non_match`) and
`terms.guard_holds` and `rewrite.unfold_body`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

from .errors import BudgetError, NonGroundError, RebindError, TermTypeError
from .machine import (
    ExecutionState,
    Goal,
    InitGoal,
    LazyGoal,
    OccurrenceProgram,
    StateDigest,
    StepEvent,
    annotate,
    run_operational,
)
from .match import MatchResult, matches_exactly, residual_non_match
from .parse import pretty_store
from .rewrite import MAX_STEPS, AbstractStep, Store, abstract_steps, unfold_body
from .rules import Atom, Comprehension, Pattern, Program, Rule, canonical_store
from .terms import guard_holds


def _key(p: Pattern) -> tuple[str, int]:
    atom = p if isinstance(p, Atom) else p.atom
    return atom.pred, atom.arity


def _pending(goals: Iterable[Goal], keys: frozenset | None = None) -> list[Atom]:
    """What `goals` still hold: init-goal bodies (unfolded under their
    substitutions), lazy-goal atoms.
    With `keys`, only the atoms of those (predicate, arity) pairs: a body
    pattern is unfolded only when its own pair is one of them."""
    atoms: list[Atom] = []
    for g in goals:
        if isinstance(g, InitGoal):
            body = g.body if keys is None else [p for p in g.body if _key(p) in keys]
            if body:
                atoms.extend(unfold_body(body, g.theta.mapping()))
        elif isinstance(g, LazyGoal) and (keys is None or _key(g.atom) in keys):
            atoms.append(g.atom)
    return atoms


def correspondence(state: ExecutionState) -> Store:
    """Store denoted by a machine state: stored constraints (labels dropped)
    plus the constraints its goals still hold."""
    return canonical_store([*state.store.by_label.values(), *_pending(state.goals)])


def _pushed(before: ExecutionState, after: ExecutionState) -> int | None:
    """How many goals the step pushed onto the rest of `before`'s stack, or
    None when it changed a goal below the top. The machine pushes onto the
    very stack it popped (`GoalStack` shares its tails), so the rest is
    found by identity; a stack built apart from it counts as changed, and
    is then erased whole."""
    below = before.goals.rest
    top = len(after.goals) - len(below)
    return top if top >= 0 and after.goals[top:] is below else None


def _change(before: ExecutionState, after: ExecutionState, top: int) -> tuple[list[Atom], list[Atom]]:
    """The step's (out, put): the popped goal's pending atoms plus the
    atoms of the entries it removed, and the `top` pushed goals' pending
    atoms plus the atoms of the entries it added. The entries come from
    `LabeledStore.delta`: the edit that links the two store versions, read
    without re-rooting either, so the answer does not depend on which of
    the two was read last."""
    out, put = _pending([before.goals.top]), _pending(islice(after.goals, top))
    removed, added = before.store.delta(after.store)
    out += [a for _, a in removed]
    put += [a for _, a in added]
    return out, put


SILENT = "silent"
ABSTRACT = "abstract"
VIOLATION = "violation"


@dataclass(frozen=True)
class StepClass:
    """A step's verdict. A firing confirmed by its certificate carries its
    `step` and no stores; a verdict of the fallback search and a violation
    carry both erased stores."""

    kind: str  # silent | abstract | violation
    step: AbstractStep | None = None
    before: Store | None = None
    after: Store | None = None


# Candidate steps the fallback search may examine for one machine step.
ORACLE_BUDGET = 100_000


def _unmatched(before: ExecutionState, comps: list[Comprehension], ids: set[int]) -> list[Atom]:
    """The atoms of the erasure of `before`, outside the labels `ids`, whose
    (predicate, arity) pair is that of one of the comprehensions `comps`:
    stored ones from their predicates' buckets, pending ones from the goals,
    an init goal's body unfolded only where a pattern has such a pair."""
    keys = frozenset(_key(c) for c in comps)
    by_pred = before.store.by_pred
    stored = [a for pred in {p for p, _ in keys} for n, a in by_pred.get(pred, ()) if n not in ids and _key(a) in keys]
    return stored + _pending(before.goals, keys)


def _confirm_certificate(
    rule: Rule, m: MatchResult, before: ExecutionState, out: list[Atom], put: list[Atom]
) -> AbstractStep | None:
    """The abstract step the machine's own firing (rule, match) denotes, if
    the step from `before` with change (`out`, `put`) is that step: every
    block of labels matches its head exactly under theta, the guard holds,
    the match is maximal in the erasure of `before`, and out + produced =
    put + consumed as multisets. None when any of these fails. Heads, guard
    and body are all read under theta, as they stand in the rule: each
    comprehension head through its planned filter, as the search's own
    validation reads it.

    The last test is the successor test: with ca the erasure before and cb
    after, cb = ca - out + put, and the match's labels are held in ca, so
    ca - consumed + produced = cb iff out + produced = put + consumed. The
    body is unfolded here from (rule, match), not read off the goal the
    machine pushed, so the test also checks that the machine pushed the
    body its match denotes. Maximality needs only the unmatched atoms of
    the comprehension heads' (predicate, arity) pairs (`_unmatched`): a
    comprehension subsumes no atom of another pair."""
    atoms = before.store.by_label
    ids = [i for b in m.blocks for i in b]
    if len(set(ids)) != len(ids) or any(i not in atoms for i in ids):
        return None
    theta, heads, filters = m.theta.mapping(), rule.heads, rule.filters()
    for i, block in enumerate(m.blocks):
        if not matches_exactly(heads[i : i + 1], [atoms[n] for n in block], theta, filters[i : i + 1]):
            return None
    # theta binds the guard's Bind variables too, so each Bind is a test.
    if not guard_holds(rule.guard, theta):
        return None
    comps = [h for h in heads if isinstance(h, Comprehension)]
    if comps and not residual_non_match(heads, _unmatched(before, comps, set(ids)), theta, filters):
        return None
    consumed = tuple(atoms[i] for b in m.blocks[len(rule.propagated) :] for i in b)
    produced = tuple(unfold_body(rule.body, theta))
    if Counter([*out, *produced]) != Counter([*put, *consumed]):
        return None
    return AbstractStep(rule.name, m.theta, consumed, produced)


def classify_step(pw: OccurrenceProgram, before: ExecutionState, after: ExecutionState) -> StepClass:
    """Silent, one abstract step, or a violation: one transition judged.

    When the step shares the rest of the stack, it is judged by its change
    (`_change`): the erasure after it is cb = ca - out + put, so it is
    silent iff `out` and `put` balance, and a firing whose certificate, the
    (rule, match) on the init goal it pushes, the declarative judgments
    confirm from that change is that abstract step (`_confirm_certificate`:
    out + produced = put + consumed), with no erasure built; its maximality
    reads only the unmatched atoms of the comprehension heads' (predicate,
    arity) pairs. A step that changed a goal below the top is erased whole,
    and its change is the two whole erasures. Only when no certificate
    confirms the step are both states erased whole and every abstract step
    of the erasure before searched.
    """
    top = _pushed(before, after)
    if top is None:
        ca, cb = correspondence(before), correspondence(after)
        if ca == cb:
            return StepClass(SILENT)
        out, put = list(ca), list(cb)
    else:
        out, put = _change(before, after, top)
        if out == put or Counter(out) == Counter(put):
            return StepClass(SILENT)
    first = after.goals.top  # None on the empty stack
    if isinstance(first, InitGoal) and first.cause is not None:
        try:
            astep = _confirm_certificate(*first.cause, before, out, put)
        except (TermTypeError, NonGroundError, RebindError):
            astep = None
        if astep is not None:
            return StepClass(ABSTRACT, step=astep)
    if top is not None:
        ca, cb = correspondence(before), correspondence(after)
    for examined, (astep, succ) in enumerate(abstract_steps(pw.source, ca), 1):
        if examined > ORACLE_BUDGET:
            raise BudgetError(f"more than {ORACLE_BUDGET} candidate steps while confirming")
        if succ == cb:
            return StepClass(ABSTRACT, step=astep, before=ca, after=cb)
    return StepClass(VIOLATION, before=ca, after=cb)


@dataclass
class SoundnessReport:
    classifications: list[tuple[int, str, StepClass]] = field(default_factory=list)
    goal_digests: list[StateDigest] = field(default_factory=list)  # the run's, step by step
    final_store: Store = ()
    truncated: str | None = None  # the limit that stopped the run, e.g. "store cap 64"
    steps: int = 0
    init: tuple[Pattern, ...] = ()  # the run's initial goal, for `trace_records`

    @property
    def violations(self) -> list[tuple[int, str, StepClass]]:
        return [c for c in self.classifications if c[2].kind == VIOLATION]

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        out = {SILENT: 0, ABSTRACT: 0, VIOLATION: 0}
        for _, _, c in self.classifications:
            out[c.kind] += 1
        return out


def check_soundness(
    program: Program,
    init: Iterable[Pattern],
    max_steps: int = MAX_STEPS,
    max_store: int | None = None,
) -> SoundnessReport:
    """Run the machine, classifying every transition against the oracle.

    The run stops at the same limits as `run_operational`: `max_steps`
    steps, and `max_store` constraints when given. A truncated run still
    classifies every step it executed, and `truncated` names the limit hit.
    Each step is judged on its own (`classify_step`), so a silent step costs
    what it changed, and a certified firing what it changed and the
    unmatched atoms a comprehension head could take; the final store is the
    erasure of the last state."""
    pw = annotate(program)
    init = tuple(init)
    report = SoundnessReport(init=init)

    def observe(ev: StepEvent) -> None:
        report.classifications.append((ev.index, ev.kind, classify_step(pw, ev.before, ev.after)))

    run = run_operational(pw, init, max_steps=max_steps, observer=observe, max_store=max_store)
    report.goal_digests = [digest for _, digest in run.trace]
    report.final_store = run.final
    report.truncated = run.truncated
    report.steps = len(run.trace)
    return report


def trace_record(
    index: int,
    kind: str,
    *,
    rule: str | None = None,
    digest: StateDigest | None = None,
    cls: StepClass | None = None,
) -> dict:
    """One JSON-ready record of `docs/trace-format.md`. `rule` names the
    declarative engine's step; `digest`, the machine state's, is rendered
    here; `cls` is the classification of a checked step."""
    rec: dict = {"index": index, "kind": kind}
    if rule is not None:
        rec["rule"] = rule
    rec.update(goalDigest=None if digest is None else str(digest), storeBefore=None, storeAfter=None, classification=None)
    if cls is not None:
        if cls.before is not None:
            rec["storeBefore"] = pretty_store(cls.before)
        if cls.after is not None:
            rec["storeAfter"] = pretty_store(cls.after)
        rec["classification"] = cls.kind
        if cls.step is not None:
            rec["rule"] = cls.step.rule
    return rec


def trace_records(report: SoundnessReport) -> Iterator[dict]:
    """JSON-ready per-step records of a check, yielded one at a time.

    A firing confirmed by its certificate carries no stores, so its
    `storeBefore` and `storeAfter` are replayed: the erasure starts as the
    initial goal's, a silent step leaves it as it is, a confirmed firing
    takes out its `consumed` and adds its `produced` (that is what
    confirming it proved), and a verdict that carries its stores resets it
    to its `after`. So the records are those of stores kept per step."""
    erasure = Counter(unfold_body(report.init, {}))
    shown: str | None = None  # `erasure` rendered, while it is unchanged
    for (index, kind, cls), digest in zip(report.classifications, report.goal_digests):
        rec = trace_record(index, kind, digest=digest, cls=cls)
        if cls.after is not None:
            erasure, shown = Counter(cls.after), rec["storeAfter"]
        elif cls.step is not None:
            rec["storeBefore"] = shown if shown is not None else pretty_store(canonical_store(erasure.elements()))
            erasure.subtract(cls.step.consumed)
            erasure.update(cls.step.produced)
            rec["storeAfter"] = shown = pretty_store(canonical_store(erasure.elements()))
        yield rec
