"""Static monotonicity analysis.

A constraint pattern is monotone for a program when nothing matching it can
ever be absorbed by a comprehension head of any rule; such constraints may
be stored lazily by the goal-stack engine without breaking maximality.

The unifiability test deliberately over-approximates guard satisfiability:
after syntactic unification, a guard conjunct is evaluated only when ground;
anything still containing variables counts as possibly satisfiable. That can
only demote constraints to eager storage, never the reverse, so it is safe.
An instance of a pattern unifies with no more heads and grounds no fewer
conjuncts, so an instance of a monotone pattern is monotone too: a predicate
whose generic atom is monotone needs no verdict per constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .rules import Atom, Comprehension, Pattern, Program, normalize_program
from .terms import (
    Bind,
    ConjComp,
    GTrue,
    Guard,
    Inf,
    Int,
    Bool,
    MSet,
    MSetUnion,
    PrimApp,
    Reduce,
    Rel,
    Sym,
    Term,
    TermComp,
    TupleTerm,
    Var,
    conjuncts,
    guard_vars,
    is_ground,
    normalize,
    rel_holds,
    rename_guard,
    rename_term,
    subst_guard,
    term_vars,
)
from .errors import TermTypeError


# ---------------------------------------------------------------------------
# First-order syntactic unification (comprehension/reduce terms are opaque)


def _walk(t: Term, s: dict[str, Term]) -> Term:
    while isinstance(t, Var) and t.name in s:
        t = s[t.name]
    return t


def _occurs(name: str, t: Term, s: dict[str, Term]) -> bool:
    t = _walk(t, s)
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, (TupleTerm, MSet)):
        return any(_occurs(name, i, s) for i in t.items)
    if isinstance(t, MSetUnion):
        return _occurs(name, t.left, s) or _occurs(name, t.right, s)
    if isinstance(t, PrimApp):
        return any(_occurs(name, a, s) for a in t.args)
    if isinstance(t, (TermComp, Reduce)):
        return bool(term_vars(t) & {name})
    return False


def unify_terms(a: Term, b: Term, s: dict[str, Term] | None = None) -> dict[str, Term] | None:
    s = dict(s or {})
    a, b = _walk(a, s), _walk(b, s)
    if a == b:
        return s
    if isinstance(a, Var):
        if _occurs(a.name, b, s):
            return None
        s[a.name] = b
        return s
    if isinstance(b, Var):
        return unify_terms(b, a, s)
    if isinstance(a, (Int, Inf, Bool, Sym)) or isinstance(b, (Int, Inf, Bool, Sym)):
        return s if a == b else None
    if isinstance(a, TupleTerm) and isinstance(b, TupleTerm):
        if len(a.items) != len(b.items):
            return None
        for x, y in zip(a.items, b.items):
            s2 = unify_terms(x, y, s)
            if s2 is None:
                return None
            s = s2
        return s
    # Multisets, unions, comprehensions, reduce, arithmetic: opaque — equal
    # structures unified above, anything else is conservatively ununifiable
    # only when both sides are rigid and different.
    return None


def unify_atoms(a: Atom, b: Atom, s: dict[str, Term] | None = None) -> dict[str, Term] | None:
    if a.pred != b.pred or a.arity != b.arity:
        return None
    s = dict(s or {})
    for x, y in zip(a.args, b.args):
        s2 = unify_terms(x, y, s)
        if s2 is None:
            return None
        s = s2
    return s


def _resolve(s: dict[str, Term]) -> dict[str, Term]:
    """Chase variable chains so substitution application is one pass."""
    out: dict[str, Term] = {}
    for k in s:
        t = _walk(Var(k), s)
        if not isinstance(t, Var) or t.name != k:
            out[k] = _deep_walk(t, s)
    return out


def _deep_walk(t: Term, s: dict[str, Term]) -> Term:
    t = _walk(t, s)
    if isinstance(t, TupleTerm):
        return TupleTerm(tuple(_deep_walk(i, s) for i in t.items))
    if isinstance(t, MSet):
        return MSet(tuple(_deep_walk(i, s) for i in t.items))
    if isinstance(t, MSetUnion):
        return MSetUnion(_deep_walk(t.left, s), _deep_walk(t.right, s))
    if isinstance(t, PrimApp):
        return PrimApp(t.op, tuple(_deep_walk(a, s) for a in t.args))
    return t


def _guards_possibly_sat(guards: Iterable[Guard], s: dict[str, Term]) -> bool:
    """Conjunct-wise check: ground conjuncts must hold, open ones pass."""
    m = _resolve(s)
    for g in guards:
        for c in conjuncts(subst_guard(m, g)):
            if isinstance(c, (GTrue, Bind, ConjComp)):
                continue  # Bind always succeeds; comprehensions stay open
            if isinstance(c, Rel) and is_ground(c.lhs) and is_ground(c.rhs):
                try:
                    if not rel_holds(c.op, normalize(c.lhs), normalize(c.rhs)):
                        return False
                except TermTypeError:
                    return False
    return True


# ---------------------------------------------------------------------------
# Standardizing apart


def _rename_apart(obj, suffix: str):
    if isinstance(obj, Atom):
        ren = {v: v + suffix for v in obj.free_vars()}
        return Atom(obj.pred, tuple(rename_term(ren, a) for a in obj.args))
    if isinstance(obj, Comprehension):
        names = (
            obj.atom.free_vars()
            | guard_vars(obj.guard)
            | term_vars(obj.domain)
            | obj.local_vars
        )
        ren = {v: v + suffix for v in names}
        return Comprehension(
            Atom(obj.atom.pred, tuple(rename_term(ren, a) for a in obj.atom.args)),
            rename_guard(ren, obj.guard),
            tuple(ren.get(b, b) for b in obj.binders),
            rename_term(ren, obj.domain),
            tuple(ren.get(x, x) for x in obj.aux),
        )
    if isinstance(obj, Guard):
        names = guard_vars(obj) | _bind_names(obj)
        ren = {v: v + suffix for v in names}
        return rename_guard(ren, obj)
    raise TypeError(f"cannot rename {obj!r}")


def _bind_names(g: Guard) -> set[str]:
    out: set[str] = set()
    for c in conjuncts(g):
        if isinstance(c, Bind):
            out |= set(c.vars)
    return out


# ---------------------------------------------------------------------------
# Unifiability of a body pattern with a comprehension head


def unifiable(pattern: Pattern, head: Comprehension, rule_guard: Guard) -> bool:
    """Over-approximate: can some instance of `pattern` be absorbed by `head`,
    a comprehension head of a rule guarded by `rule_guard`? The pattern must
    share no variable with the head and the guard (see `absorbers`)."""
    atom, guards = (pattern, []) if isinstance(pattern, Atom) else (pattern.atom, [pattern.guard])
    s = unify_atoms(atom, head.atom)
    return s is not None and _guards_possibly_sat(guards + [head.guard, rule_guard], s)


Absorber = tuple[str, Comprehension, Comprehension, Guard]


def absorbers(program: Program) -> tuple[Absorber, ...]:
    """Every comprehension head of the normalized program as (rule name,
    head, head renamed apart, rule guard renamed apart with it)."""
    return tuple(
        (rule.name, head, _rename_apart(head, "#h"), _rename_apart(rule.guard, "#h"))
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
    """Monotone iff the pattern unifies with none of the `absorbers` heads;
    otherwise the first such head is the witness."""
    renamed = _rename_apart(pattern, "#b")
    for rule, head, head_apart, guard_apart in heads:
        if unifiable(renamed, head_apart, guard_apart):
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
