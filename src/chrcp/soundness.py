"""Differential checking of the goal-stack engine against the rewriting
semantics.

Every machine state erases to a plain store (stored constraints plus the
constraints still pending in init/lazy goals). A machine transition must
either leave that erasure unchanged (silent) or be one valid rewriting step;
anything else is a soundness violation, reported with both stores attached.
Each transition is judged on its own, a silent one by what it changed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .errors import BudgetError, NonGroundError, RebindError, TermTypeError
from .machine import (
    ExecutionState,
    Goal,
    InitGoal,
    LazyGoal,
    OccurrenceProgram,
    StepEvent,
    annotate,
    run_operational,
)
from .match import MatchResult, matches_exactly, residual_non_match
from .parse import pretty_store
from .rewrite import MAX_STEPS, AbstractStep, Store, abstract_steps, rule_application, unfold_body
from .rules import Atom, Pattern, Program, Rule, canonical_store
from .terms import eval_guard


def _pending(goals: Iterable[Goal]) -> list[Atom]:
    """What `goals` still hold: init-goal bodies (unfolded), lazy-goal atoms."""
    atoms: list[Atom] = []
    for g in goals:
        if isinstance(g, InitGoal):
            atoms.extend(unfold_body(g.body))
        elif isinstance(g, LazyGoal):
            atoms.append(g.atom)
    return atoms


def correspondence(state: ExecutionState) -> Store:
    """Store denoted by a machine state: stored constraints (labels dropped)
    plus the constraints its goals still hold."""
    return canonical_store([*state.store.by_label.values(), *_pending(state.goals)])


def _pushed(before: ExecutionState, after: ExecutionState) -> int | None:
    """How many goals the step pushed onto the rest of `before`'s stack, or
    None when it changed a goal below the top."""
    below = before.goals[1:]
    top = len(after.goals) - len(below)
    return top if top >= 0 and after.goals[top:] == below else None


def _same_change(before: ExecutionState, after: ExecutionState, popped: list[Atom], pushed: list[Atom]) -> bool:
    """Whether the step's removed atoms plus the popped goal's pending atoms
    `popped` equal its added atoms plus the pushed goals' pending atoms
    `pushed`, as multisets. A label keeps its atom while it is held: the
    store is immutable, and `validate_state`, applied by `run_operational`
    before any observer sees the step, keeps new labels fresh, so the added
    labels are those from `before.store.next_label` on. The two stores'
    sizes then tell whether any label was removed, and only then are their
    labels compared."""
    out, put = list(popped), list(pushed)
    old, new = before.store, after.store
    if new is not old:
        added = range(old.next_label, new.next_label)
        put += [new.by_label[n] for n in added]
        if len(new) - len(added) < len(old):
            out += [old.by_label[n] for n in old.by_label.keys() - new.by_label.keys()]
    return out == put or Counter(out) == Counter(put)


def unchanged_erasure(before: ExecutionState, after: ExecutionState) -> bool:
    """Whether `correspondence(before) == correspondence(after)`, read off
    what the step changed. A step pops the top goal and pushes goals onto
    the rest. When the rest is shared, both erasures hold its pending atoms,
    so they are equal iff the popped and pushed goals and the removed and
    added labels balance (`_same_change`). A step that changed a goal below
    the top is erased whole, so nothing is assumed of it."""
    top = _pushed(before, after)
    if top is None:
        return correspondence(before) == correspondence(after)
    return _same_change(before, after, _pending(before.goals[:1]), _pending(after.goals[:top]))


SILENT = "silent"
ABSTRACT = "abstract"
VIOLATION = "violation"


@dataclass(frozen=True)
class StepClass:
    kind: str  # silent | abstract | violation
    step: AbstractStep | None = None
    before: Store | None = None
    after: Store | None = None


# Candidate steps the fallback search may examine for one machine step.
ORACLE_BUDGET = 100_000


def _confirm_certificate(
    rule: Rule, m: MatchResult, atoms: dict[int, Atom], ca: Store, cb: Store
) -> AbstractStep | None:
    """The abstract step the machine's own firing (rule, match) denotes, if
    it is one: every block of labels in `atoms` matches its head exactly under
    theta, the guard holds, the match is maximal in the whole erased store
    `ca`, and applying it turns `ca` into `cb`. None when any of these fails."""
    ids = [i for b in m.blocks for i in b]
    if len(set(ids)) != len(ids) or any(i not in atoms for i in ids):
        return None
    theta = m.theta
    heads = [theta.apply(h) for h in rule.heads]
    for head, block in zip(heads, m.blocks):
        if not matches_exactly([head], [atoms[i] for i in block]):
            return None
    # theta binds the `:=` variables too, so substituting it turns each
    # binding into an equality check.
    if not eval_guard(theta.apply(rule.guard)):
        return None
    erased = Counter(ca)
    rest = erased.copy()
    rest.subtract(atoms[i] for i in ids)
    if not residual_non_match(heads, rest.elements()):
        return None
    astep, successor = rule_application(rule, m, atoms, erased)
    return astep if successor == cb else None


def classify_step(pw: OccurrenceProgram, before: ExecutionState, after: ExecutionState) -> StepClass:
    """Silent, one abstract step, or a violation: one transition judged.

    A step that leaves the erasure unchanged is silent, and costs what it
    changed (`unchanged_erasure`). Any other step erases both states whole,
    from the same pending atoms: each goal's body is unfolded once. A
    firing step carries its certificate on the init goal it pushes; when
    the declarative judgments confirm it, no search is needed. Otherwise the
    step is confirmed by searching every abstract step of the erased store.
    """
    top = _pushed(before, after)
    if top is None:
        ca, cb = correspondence(before), correspondence(after)
        if ca == cb:
            return StepClass(SILENT)
    else:
        popped, pushed = _pending(before.goals[:1]), _pending(after.goals[:top])
        if _same_change(before, after, popped, pushed):
            return StepClass(SILENT)
        rest = _pending(after.goals[top:])
        ca = canonical_store([*before.store.by_label.values(), *popped, *rest])
        cb = canonical_store([*after.store.by_label.values(), *pushed, *rest])
    first = after.goals[0] if after.goals else None
    if isinstance(first, InitGoal) and first.cause is not None:
        try:
            astep = _confirm_certificate(*first.cause, before.store.by_label, ca, cb)
        except (TermTypeError, NonGroundError, RebindError):
            astep = None
        if astep is not None:
            return StepClass(ABSTRACT, step=astep, before=ca, after=cb)
    for examined, (astep, succ) in enumerate(abstract_steps(pw.source, ca), 1):
        if examined > ORACLE_BUDGET:
            raise BudgetError(f"more than {ORACLE_BUDGET} candidate steps while confirming")
        if succ == cb:
            return StepClass(ABSTRACT, step=astep, before=ca, after=cb)
    return StepClass(VIOLATION, before=ca, after=cb)


@dataclass
class SoundnessReport:
    classifications: list[tuple[int, str, StepClass]] = field(default_factory=list)
    goal_digests: list[str] = field(default_factory=list)
    final_store: Store = ()
    truncated: str | None = None  # the limit that stopped the run, e.g. "store cap 64"
    steps: int = 0

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
    what it changed; the final store is the erasure of the last state."""
    pw = annotate(program)
    report = SoundnessReport()

    def observe(ev: StepEvent) -> None:
        report.classifications.append((ev.index, ev.kind, classify_step(pw, ev.before, ev.after)))

    run = run_operational(pw, init, max_steps=max_steps, observer=observe, max_store=max_store)
    report.goal_digests = [digest for _, digest in run.trace]
    report.final_store = correspondence(run.state)
    report.truncated = run.truncated
    report.steps = len(run.trace)
    return report


def trace_record(
    index: int,
    kind: str,
    *,
    rule: str | None = None,
    digest: str | None = None,
    cls: StepClass | None = None,
) -> dict:
    """One JSON-ready record of `docs/trace-format.md`. `rule` names the
    declarative engine's step; `cls` is the classification of a checked step."""
    rec: dict = {"index": index, "kind": kind}
    if rule is not None:
        rec["rule"] = rule
    rec.update(goalDigest=digest, storeBefore=None, storeAfter=None, classification=None)
    if cls is not None:
        if cls.before is not None:
            rec["storeBefore"] = pretty_store(cls.before)
        if cls.after is not None:
            rec["storeAfter"] = pretty_store(cls.after)
        rec["classification"] = cls.kind
        if cls.step is not None:
            rec["rule"] = cls.step.rule
    return rec


def trace_records(report: SoundnessReport) -> list[dict]:
    """JSON-ready per-step records of a check."""
    return [
        trace_record(index, kind, digest=digest, cls=cls)
        for (index, kind, cls), digest in zip(report.classifications, report.goal_digests)
    ]
