"""Declarative (abstract) rewriting semantics.

A store is a canonical multiset of ground constraints. One step picks a rule
instance whose heads match store fragments maximally, removes the simplified
fragment and adds the unfolded body. The relation is nondeterministic;
`run_abstract` fixes a deterministic policy (perturbable by seed), and
`abstract_steps` lists every step of a store.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NonGroundError, recursion_guard
from .match import LabeledStore, MatchResult, comp_element_instance, enumerate_matches
from .rules import (
    Atom,
    Pattern,
    Program,
    Rule,
    canonical_store,
    ground_atom,
    normalize_program,
)
from .terms import MSet, Substitution, normalize

Store = tuple[Atom, ...]

# Default step budget of every run: `run_abstract`, `run_operational`,
# `check_soundness`, `chrcp run` and `chrcp check`.
MAX_STEPS = 10_000


def store_of(atoms: Iterable[Atom]) -> Store:
    return canonical_store(ground_atom(a) for a in atoms)


def unfold_body(patterns: Iterable[Pattern]) -> list[Atom]:
    """Ground constraints denoted by a closed body.

    Atoms pass through; a comprehension emits one instance per domain
    element whose guard holds, silently skipping failing elements. Order is
    deterministic: pattern order, then canonical domain order.
    """
    out: list[Atom] = []
    for p in patterns:
        if isinstance(p, Atom):
            out.append(ground_atom(p))
        else:
            dom = normalize(p.domain)
            if not isinstance(dom, MSet):
                raise NonGroundError(f"body comprehension domain {p.domain!r} is not a multiset")
            for el in dom.items:
                inst = comp_element_instance(p, el)
                if inst is not None:
                    out.append(ground_atom(inst))
    return out


@dataclass(frozen=True)
class AbstractStep:
    """One rule application: substitution, removed and added fragments."""

    rule: str
    theta: Substitution
    consumed: Store  # simplified fragment (removed)
    produced: Store  # unfolded body (added)


def rule_application(
    rule: Rule, match: MatchResult, atoms_by_label: dict[int, Atom], store: Counter
) -> tuple[AbstractStep, Store]:
    """The step that fires `rule` at `match` on the multiset `store`, and its
    successor store - consumed + produced. `atoms_by_label` maps the labels
    in the match's blocks to their constraints in `store`. Copying a Counter
    hashes no atom, so callers count a store once for all its matches."""
    n_prop = len(rule.propagated)
    consumed = canonical_store(atoms_by_label[i] for b in match.blocks[n_prop:] for i in b)
    produced = canonical_store(unfold_body(match.theta.apply(rule.body)))
    successor = store.copy()
    successor.subtract(consumed)
    successor.update(produced)
    step = AbstractStep(rule.name, match.theta, consumed, produced)
    return step, canonical_store(successor.elements())


def abstract_steps(program: Program, store: Store) -> Iterator[tuple[AbstractStep, Store]]:
    """Every applicable rule instance, in deterministic order.

    Duplicate instances arising from different partitions of equal
    constraints collapse to one entry.
    """
    program = normalize_program(program)
    labeled = LabeledStore(tuple(enumerate(store)), len(store))
    multiset = Counter(store)
    seen: set = set()
    for rule in program.rules:
        for match in enumerate_matches(rule, labeled):
            step, successor = rule_application(rule, match, labeled.by_label, multiset)
            key = (step.rule, step.theta.key(), step.consumed, step.produced)
            if key in seen:
                continue
            seen.add(key)
            yield step, successor


@dataclass
class AbstractRun:
    final: Store
    steps: list[AbstractStep]
    truncated: str | None  # the limit that stopped the run, e.g. "step budget 40"


def run_abstract(program: Program, store: Store, max_steps: int = MAX_STEPS, seed: int = 0) -> AbstractRun:
    """Iterate single steps until quiescence or the step budget runs out.

    The successor choice at each step is deterministic for a fixed seed.
    Steps that leave the store unchanged (possible when every comprehension
    block is empty) are skipped: the relation admits them, but a runner
    looping on them would never produce anything new. Nesting past the
    interpreter's recursion limit raises `ChrcpError`.
    """
    program = normalize_program(program)
    rng = random.Random(seed)
    current = store_of(store)
    steps: list[AbstractStep] = []

    def changing(st: Store):
        return [(s, succ) for s, succ in abstract_steps(program, st) if succ != st]

    with recursion_guard():
        for _ in range(max_steps):
            options = changing(current)
            if not options:
                return AbstractRun(current, steps, None)
            step, successor = options[rng.randrange(len(options))] if len(options) > 1 else options[0]
            steps.append(step)
            current = successor
        truncated = f"step budget {max_steps}" if changing(current) else None
    return AbstractRun(current, steps, truncated)
