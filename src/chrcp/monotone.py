"""Static monotonicity analysis.

A constraint pattern is monotone for a program when nothing matching it can
ever be absorbed by a comprehension head of any rule; such constraints may
be stored lazily by the goal-stack engine without breaking maximality.

Rule normalization makes every argument of a comprehension head a distinct
fresh variable, so the most general unifier of a pattern with such a head
maps head argument i to pattern argument i. The unifiability test
deliberately over-approximates guard satisfiability: under that unifier a
guard conjunct is evaluated only when ground; anything still containing
variables counts as possibly satisfiable. That can only demote constraints
to eager storage, never the reverse, so it is safe.
An instance of a pattern unifies with no more heads and grounds no fewer
conjuncts, so an instance of a monotone pattern is monotone too: a predicate
whose generic atom is monotone needs no verdict per constraint. Conversely,
a head whose every guard conjunct reads a variable besides its arguments
(`argument_blind`) unifies with every atom of its predicate and arity, so
those atoms need no verdict either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ChrcpError, TermTypeError
from .rules import Atom, Comprehension, Pattern, Program, normalize_program
from .terms import (
    Bind,
    ConjComp,
    GTrue,
    Guard,
    Rel,
    Var,
    conjuncts,
    guard_vars,
    is_ground,
    normalize,
    rel_holds,
    subst_guard,
)


def _guards_possibly_sat(guards: Iterable[Guard]) -> bool:
    """Conjunct-wise check: ground conjuncts must hold, open ones pass."""
    for g in guards:
        for c in conjuncts(g):
            if isinstance(c, (GTrue, Bind, ConjComp)):
                continue  # Bind always succeeds; comprehensions stay open
            if isinstance(c, Rel) and is_ground(c.lhs) and is_ground(c.rhs):
                try:
                    if not rel_holds(c.op, normalize(c.lhs), normalize(c.rhs)):
                        return False
                except TermTypeError:
                    return False
    return True


def unifiable(pattern: Pattern, head: Comprehension, rule_guard: Guard) -> bool:
    """Over-approximate: can some instance of `pattern` be absorbed by `head`,
    a comprehension head of a rule guarded by `rule_guard`?

    `head` comes from `absorbers`, so its atom's arguments are distinct
    variables and the most general unifier is `m`, head argument i to
    pattern argument i. Only ground conjuncts are evaluated, and `m`
    replaces head variables only, all at once: a variable name the pattern
    shares with the rule grounds no conjunct, so nothing is renamed apart,
    and the pattern's own guard is checked as it is. Any other head raises
    `ChrcpError`.
    """
    args = head.atom.args
    if len({v.name for v in args if isinstance(v, Var)}) != len(args):
        raise ChrcpError(
            f"comprehension head {head.atom!r} must have distinct variable arguments, as `absorbers` gives"
        )
    atom, guards = (pattern, []) if isinstance(pattern, Atom) else (pattern.atom, [pattern.guard])
    if atom.pred != head.atom.pred or atom.arity != head.atom.arity:
        return False
    m = {v.name: t for v, t in zip(args, atom.args)}
    return _guards_possibly_sat(guards + [subst_guard(m, head.guard), subst_guard(m, rule_guard)])


Absorber = tuple[str, Comprehension, Guard]


def argument_blind(head: Comprehension, rule_guard: Guard) -> bool:
    """Whether `unifiable(a, head, rule_guard)` holds for every atom `a` of
    the head's predicate and arity: every conjunct of the head's guard and
    of `rule_guard` has a free variable besides the head's arguments, so no
    atom grounds it and `unifiable` evaluates none. A ground conjunct is
    evaluated whatever the atom, so a head with one is not blind, and
    neither is a head with an argument that is not a variable (`absorbers`
    gives none)."""
    if not all(isinstance(v, Var) for v in head.atom.args):
        return False
    args = frozenset(v.name for v in head.atom.args)  # type: ignore[attr-defined]
    return all(guard_vars(c) - args for g in (head.guard, rule_guard) for c in conjuncts(g))


def absorbers(program: Program) -> tuple[Absorber, ...]:
    """Every comprehension head of the normalized program as (rule name,
    head, rule guard); normalization gives each head distinct variable
    arguments, as `unifiable` needs."""
    return tuple(
        (rule.name, head, rule.guard)
        for rule in normalize_program(program).rules
        for head in rule.heads
        if isinstance(head, Comprehension)
    )


@dataclass(frozen=True)
class PatternVerdict:
    pattern: Pattern
    monotone: bool
    witness_rule: str | None = None
    witness_head: Comprehension | None = None


@dataclass(frozen=True)
class MonotonicityReport:
    verdicts: tuple[PatternVerdict, ...]


def verdict(heads: Iterable[Absorber], pattern: Pattern) -> PatternVerdict:
    """Monotone iff the pattern, as it is, unifies with none of the
    `absorbers` heads; otherwise the first such head is the witness."""
    for rule, head, guard in heads:
        if unifiable(pattern, head, guard):
            return PatternVerdict(pattern, False, rule, head)
    return PatternVerdict(pattern, True)


def residual_non_unifiable(program: Program, patterns: Iterable[Pattern]) -> MonotonicityReport:
    """Verdict per pattern: monotone iff it unifies with no comprehension head."""
    heads = absorbers(program)
    return MonotonicityReport(tuple(verdict(heads, p) for p in patterns))


def is_monotone(program: Program, pattern: Pattern) -> bool:
    return verdict(absorbers(program), pattern).monotone


def predicate_report(program: Program) -> dict[tuple[str, int], bool]:
    """Monotonicity of the generic atom p(X1..Xk) per predicate/arity pair in
    head, body and comprehension positions."""
    result: dict[tuple[str, int], bool] = {}
    for rule in program.rules:
        for p in rule.heads + rule.body:
            a = p if isinstance(p, Atom) else p.atom
            if (a.pred, a.arity) not in result:
                generic = Atom(a.pred, tuple(Var(f"X{i+1}") for i in range(a.arity)))
                result[(a.pred, a.arity)] = is_monotone(program, generic)
    return result
