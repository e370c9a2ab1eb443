"""Differential checking of the goal-stack engine against the rewriting
semantics.

Every machine state erases to a plain store (stored constraints plus the
constraints still pending in init/lazy goals). A machine transition must
either leave that erasure unchanged (silent) or be one valid rewriting step;
anything else is a soundness violation, reported with both stores attached.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .errors import NonGroundError, OracleBudgetError, RebindError, TermTypeError
from .machine import (
    ExecutionState,
    InitGoal,
    LazyGoal,
    OccurrenceProgram,
    StepEvent,
    annotate,
    initial_state,
    run_operational,
)
from .match import MatchResult, matches_exactly, residual_non_match
from .rewrite import AbstractStep, Store, abstract_steps, unfold_body
from .rules import Atom, Pattern, Program, Rule, canonical_store
from .terms import eval_guard_env, guard_bind_vars


def correspondence(state: ExecutionState) -> Store:
    """Store denoted by a machine state: stored constraints (labels dropped)
    plus init-goal bodies (unfolded) plus lazy-goal atoms."""
    atoms = list(state.store.atoms())
    for g in state.goals:
        if isinstance(g, InitGoal):
            atoms.extend(unfold_body(g.body))
        elif isinstance(g, LazyGoal):
            atoms.append(g.atom)
    return canonical_store(atoms)


SILENT = "silent"
ABSTRACT = "abstract"
VIOLATION = "violation"


@dataclass(frozen=True)
class StepClass:
    kind: str  # silent | abstract | violation
    step: AbstractStep | None = None
    before: Store | None = None
    after: Store | None = None

    @property
    def ok(self) -> bool:
        return self.kind != VIOLATION


def _removable_by(rule, removed: Counter) -> bool:
    """Sound prefilter: can the rule's simplified heads possibly account for
    the observed removal delta? (Produced constraints may mask consumption,
    so only a shortfall against a fixed-arity head disqualifies a rule.)"""
    atom_counts = Counter(p.pred for p in rule.simplified if isinstance(p, Atom))
    comp_preds = {p.atom.pred for p in rule.simplified if not isinstance(p, Atom)}
    for pred, n in removed.items():
        if n > atom_counts.get(pred, 0) and pred not in comp_preds:
            return False
    return True


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
    # theta already binds the `:=` variables, and binding them again would
    # raise RebindError: evaluate without them, then compare.
    binds = guard_bind_vars(rule.guard)
    env = {k: v for k, v in theta.items() if k not in binds}
    ok, env = eval_guard_env(rule.guard, env)
    if not ok or any(env.get(v) != theta.get(v) for v in binds):
        return None
    rest = Counter(ca)
    rest.subtract(atoms[i] for i in ids)
    if not residual_non_match(heads, rest.elements()):
        return None
    n_prop = len(rule.propagated)
    consumed = canonical_store(atoms[i] for b in m.blocks[n_prop:] for i in b)
    produced = canonical_store(unfold_body(theta.apply(rule.body)))
    succ = Counter(ca)
    succ.subtract(consumed)
    succ.update(produced)
    if canonical_store(succ.elements()) != cb:
        return None
    return AbstractStep(rule.name, theta, consumed, produced)


def classify_step(
    pw: OccurrenceProgram,
    before: ExecutionState,
    after: ExecutionState,
    oracle_budget: int = 100_000,
    *,
    ca: Store | None = None,
) -> StepClass:
    """Silent, one abstract step, or a violation. `ca`, when given, is the
    erasure of `before` (`correspondence(before)`).

    A firing step carries its certificate on the init goal it pushes; when
    the declarative judgments confirm it, no search is needed. Otherwise the
    step is confirmed by searching every abstract step of the erased store.
    """
    if ca is None:
        ca = correspondence(before)
    cb = correspondence(after)
    if ca == cb:
        return StepClass(SILENT)
    top = after.goals[0] if after.goals else None
    if isinstance(top, InitGoal) and top.cause is not None:
        try:
            astep = _confirm_certificate(*top.cause, dict(before.store.items()), ca, cb)
        except (TermTypeError, NonGroundError, RebindError):
            astep = None
        if astep is not None:
            return StepClass(ABSTRACT, step=astep, before=ca, after=cb)
    removed = Counter(a.pred for a in ca)
    removed.subtract(Counter(a.pred for a in cb))
    removed = Counter({p: n for p, n in removed.items() if n > 0})
    examined = 0
    for astep, succ in abstract_steps(
        pw.source, ca, rule_filter=lambda r: _removable_by(r, removed)
    ):
        examined += 1
        if examined > oracle_budget:
            raise OracleBudgetError(
                f"more than {oracle_budget} candidate steps while confirming"
            )
        if succ == cb:
            return StepClass(ABSTRACT, step=astep, before=ca, after=cb)
    return StepClass(VIOLATION, before=ca, after=cb)


@dataclass
class SoundnessReport:
    classifications: list[tuple[int, str, StepClass]] = field(default_factory=list)
    goal_digests: list[str] = field(default_factory=list)
    final_store: Store = ()
    limit_exceeded: bool = False
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
    max_steps: int = 2_000,
    oracle_budget: int = 100_000,
    seed: int | None = None,
    max_store: int | None = 64,
) -> SoundnessReport:
    """Run the machine, classifying every transition against the oracle.

    Divergent programs are cut off by the step budget and by `max_store`
    (the oracle needs desk-scale stores); truncated runs still classify
    every executed step. Each state is erased once: a step's `before`
    erasure is the previous step's `after` erasure."""
    pw = annotate(program)
    report = SoundnessReport()
    init = tuple(init)
    erased = correspondence(initial_state(init))

    def observe(ev: StepEvent) -> None:
        nonlocal erased
        cls = classify_step(pw, ev.before, ev.after, oracle_budget, ca=erased)
        report.classifications.append((ev.index, ev.kind, cls))
        if cls.kind != SILENT:
            erased = cls.after

    run = run_operational(
        pw,
        init,
        max_steps=max_steps,
        seed=seed,
        observer=observe,
        max_store=max_store,
    )
    report.goal_digests = [digest for _, digest in run.trace]
    report.final_store = erased
    report.limit_exceeded = run.limit_exceeded
    report.steps = len(run.trace)
    return report


def trace_records(report: SoundnessReport) -> list[dict]:
    """JSON-ready per-step records."""
    from .parse import pretty_store

    out = []
    for pos, (index, kind, cls) in enumerate(report.classifications):
        rec: dict = {
            "index": index,
            "kind": kind,
            "goalDigest": report.goal_digests[pos] if pos < len(report.goal_digests) else None,
            "storeBefore": pretty_store(cls.before) if cls.before is not None else None,
            "storeAfter": pretty_store(cls.after) if cls.after is not None else None,
            "classification": cls.kind,
        }
        if cls.step is not None:
            rec["rule"] = cls.step.rule
        out.append(rec)
    return out
