"""Constraint patterns, rules and programs, plus head normalization
and well-formedness checking.

A rule keeps its propagated (retained) and simplified (consumed) head
patterns apart.  `normalize_rule` rewrites every head atom so its arguments
are fresh variables, pushing the original argument terms into equality
guards; matching then only ever binds variables against store values.
A normalized rule plans its guard and each comprehension head's filter
once (`Conjunct`, `CompFilter`), and every match search reads the plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from .terms import (
    Bind,
    Bool,
    Guard,
    Inf,
    Int,
    MSet,
    MSetUnion,
    Rel,
    Substitution,
    Sym,
    Term,
    TupleTerm,
    Var,
    conj,
    conjuncts,
    guard_bind_vars,
    guard_vars,
    name_supply,
    norm_loose,
    normalize,
    rename_binders,
    subst_guard,
    subst_term,
    term_key,
    term_vars,
)


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= term_vars(a)
        return out

    def substituted(self, theta: Substitution) -> "Atom":
        m = theta.mapping()
        return Atom(self.pred, tuple(norm_loose(subst_term(m, a)) for a in self.args))


@dataclass(frozen=True)
class Comprehension:
    """Head/body pattern matching a multiset of constraints.

    `binders` are collected into the domain; `aux` names the other local
    variables of a normalized head, local like binders but not part of the
    collected tuple: the fresh atom argument variables, and the variables
    its guard binds, which each element binds anew.
    """

    atom: Atom
    guard: Guard
    binders: tuple[str, ...]
    domain: Term
    aux: tuple[str, ...] = ()

    @property
    def local_vars(self) -> frozenset[str]:
        return frozenset(self.binders) | frozenset(self.aux)

    def free_vars(self) -> frozenset[str]:
        inner = (self.atom.free_vars() | guard_vars(self.guard)) - self.local_vars
        return inner | term_vars(self.domain)

    def substituted(self, theta: Substitution) -> "Comprehension":
        m = {k: v for k, v in theta.mapping().items() if k not in self.local_vars}
        dom = norm_loose(subst_term(m, self.domain))
        atom, guard, binders, aux = self.atom, self.guard, self.binders, self.aux
        clash: set[str] = set()
        for v in m.values():
            clash |= term_vars(v) & self.local_vars
        if clash:
            locals_ = binders + aux
            renamed, ren = rename_binders(locals_, clash)
            binders = renamed[: len(binders)]
            aux = renamed[len(binders) :]
            atom = Atom(atom.pred, tuple(subst_term(ren, a) for a in atom.args))
            guard = subst_guard(ren, guard)
        new_atom = Atom(atom.pred, tuple(norm_loose(subst_term(m, a)) for a in atom.args))
        # The guard is left unevaluated: an ill-typed conjunct fails only the
        # elements it is solved for (`match._try_conjunct`), not the caller.
        return Comprehension(new_atom, subst_guard(m, guard), binders, dom, aux)


Pattern = Union[Atom, Comprehension]


def patterns_free_vars(ps: Iterable[Pattern]) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for p in ps:
        out |= p.free_vars()
    return out


# ---------------------------------------------------------------------------
# Plans read by the match search


class Conjunct:
    """A guard conjunct planned for the match solver: the conjunct, its free
    variables, and `solves`, one (Y, t, free variables of t) per side of an
    equation that is a bare variable Y not occurring in the other side t,
    the right side first. Y is solved once t is ground. Plans are only
    read, never compared, so they are plain classes, which, unlike a
    dataclass, cost nothing to define at import."""

    __slots__ = ("guard", "vars", "solves")

    def __init__(self, guard: Guard, vars: frozenset[str], solves: tuple[tuple[str, Term, frozenset[str]], ...]):
        self.guard, self.vars, self.solves = guard, vars, solves


def plan_conjuncts(g: Guard) -> tuple[Conjunct, ...]:
    """The top-level conjuncts of `g`, flattened once, each planned."""
    out: list[Conjunct] = []
    for c in conjuncts(g):
        solves: tuple = ()
        if isinstance(c, Rel) and c.op == "=":
            sides = ((c.rhs, c.lhs), (c.lhs, c.rhs))
            solves = tuple(
                (y.name, t, term_vars(t)) for y, t in sides if isinstance(y, Var) and y.name not in term_vars(t)
            )
        out.append(Conjunct(c, guard_vars(c), solves))
    return tuple(out)


class CompFilter:
    """A normalized comprehension head's filter, planned once per rule.

    `args` names the head's argument variables by position (`normalize_rule`
    makes each argument a fresh variable Vi). `conjuncts` is its guard,
    planned. `pins` holds (i, t, free variables of t) for each conjunct
    `Vi = t`, and `members` maps A to (T, free variables of T) for the first
    top-level conjunct `A in T`: the search reads from them which values an
    argument position can take (`match._pin`)."""

    __slots__ = ("args", "conjuncts", "pins", "members")

    def __init__(
        self,
        args: tuple[str, ...],
        conjuncts: tuple[Conjunct, ...],
        pins: tuple[tuple[int, Term, frozenset[str]], ...],
        members: dict[str, tuple[Term, frozenset[str]]],
    ):
        self.args, self.conjuncts, self.pins, self.members = args, conjuncts, pins, members


def comp_filter(c: Comprehension) -> CompFilter:
    """The filter of `c`, a comprehension head of a normalized rule."""
    args = tuple(a.name for a in c.atom.args)  # type: ignore[attr-defined]
    position = {name: i for i, name in enumerate(args)}
    planned = plan_conjuncts(c.guard)
    pins, members = [], {}
    for cj in planned:
        g = cj.guard
        if isinstance(g, Rel) and isinstance(g.lhs, Var):
            if g.op == "=" and g.lhs.name in position:
                pins.append((position[g.lhs.name], g.rhs, term_vars(g.rhs)))
            elif g.op == "in":
                members.setdefault(g.lhs.name, (g.rhs, term_vars(g.rhs)))
    return CompFilter(args, planned, tuple(pins), members)


@dataclass(frozen=True)
class Rule:
    name: str
    propagated: tuple[Pattern, ...]
    simplified: tuple[Pattern, ...]
    guard: Guard
    body: tuple[Pattern, ...]
    normalized: bool = field(default=False, compare=False)
    # Every match search reads these, so they are computed once per rule;
    # the plans only for a normalized rule, the only kind searched.
    _head_vars: frozenset = field(init=False, compare=False, repr=False)
    _rule_vars: frozenset = field(init=False, compare=False, repr=False)
    _guard_plan: tuple = field(init=False, compare=False, repr=False)
    _filters: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        head = patterns_free_vars(self.heads)
        rule = head | guard_vars(self.guard) | frozenset(guard_bind_vars(self.guard))
        object.__setattr__(self, "_head_vars", head)
        object.__setattr__(self, "_rule_vars", rule | patterns_free_vars(self.body))
        plan: tuple = ()
        filters: tuple = ()
        if self.normalized:
            plan = plan_conjuncts(self.guard)
            filters = tuple(comp_filter(h) if isinstance(h, Comprehension) else None for h in self.heads)
        object.__setattr__(self, "_guard_plan", plan)
        object.__setattr__(self, "_filters", filters)

    @property
    def heads(self) -> tuple[Pattern, ...]:
        return self.propagated + self.simplified

    @property
    def is_propagation(self) -> bool:
        return not self.simplified

    def head_vars(self) -> frozenset[str]:
        """Free variables of the heads, comprehension domains included."""
        return self._head_vars

    def rule_vars(self) -> frozenset[str]:
        """Free variables of the heads, guard and body, and the guard's bound ones."""
        return self._rule_vars

    def guard_plan(self) -> tuple[Conjunct, ...]:
        """The guard, planned (`plan_conjuncts`); a normalized rule's only."""
        return self._guard_plan

    def filters(self) -> tuple[CompFilter | None, ...]:
        """Per head, its `CompFilter`, or None for an atom head; a normalized
        rule's only."""
        return self._filters


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]


# ---------------------------------------------------------------------------
# Head normalization


def classify_binds(guard: Guard, known: Iterable[str]) -> Guard:
    """Turn the Binds of `guard` on variables already `known` (or bound by
    an earlier Bind) back into equality checks."""
    known = set(known)
    items: list[Guard] = []
    for c in conjuncts(guard):
        if isinstance(c, Bind):
            if any(v in known for v in c.vars):
                lhs = Var(c.vars[0]) if len(c.vars) == 1 else TupleTerm(tuple(Var(v) for v in c.vars))
                items.append(Rel("=", lhs, c.value))
            else:
                known.update(c.vars)
                items.append(c)
        else:
            items.append(c)
    return conj(*items)


def normalize_rule(r: Rule) -> Rule:
    """Make every head atom argument a fresh variable.

    Plain-head argument terms become equality guards on the rule guard;
    comprehension-head argument terms become equality guards on the
    comprehension guard. Bare variable arguments of plain heads are kept
    when not repeated within the same atom. A comprehension guard's
    equation on one of its binders or on a rule variable is a test
    (`classify_binds`), as the parser makes the rule guard's; one that
    binds a fresh variable binds it per element (`Comprehension.aux`).
    """
    if r.normalized:
        return r
    taken = set(r.rule_vars())
    for h in r.heads:
        if isinstance(h, Comprehension):
            taken |= h.local_vars
    fresh = name_supply("V", taken)

    rule_eqs: list[Guard] = []

    def norm_plain(a: Atom) -> Atom:
        seen: set[str] = set()
        args: list[Term] = []
        for t in a.args:
            if isinstance(t, Var) and t.name not in seen:
                seen.add(t.name)
                args.append(t)
            else:
                v = fresh()
                seen.add(v)
                rule_eqs.append(Rel("=", Var(v), t))
                args.append(Var(v))
        return Atom(a.pred, tuple(args))

    def norm_comp(c: Comprehension) -> Comprehension:
        # A binder is local: one named like a rule variable is renamed
        # apart, so that an environment holding the one never reads it for
        # the other.
        ren = {b: Var(fresh()) for b in c.binders if b in r.rule_vars()}
        if ren:
            atom = Atom(c.atom.pred, tuple(subst_term(ren, a) for a in c.atom.args))
            binders = tuple(ren[b].name if b in ren else b for b in c.binders)
            c = Comprehension(atom, subst_guard(ren, c.guard), binders, c.domain, c.aux)
        # The parser reads `X = t` with a bare X as a Bind, and classifies
        # only the rule guard's. A Bind left binds a variable of its own.
        own = classify_binds(c.guard, r.rule_vars() | c.local_vars)
        lets = guard_bind_vars(own)
        eqs: list[Guard] = []
        args: list[Term] = []
        aux: list[str] = []
        for t in c.atom.args:
            v = fresh()
            aux.append(v)
            eqs.append(Rel("=", Var(v), t))
            args.append(Var(v))
        guard = conj(*eqs, own)
        return Comprehension(Atom(c.atom.pred, tuple(args)), guard, c.binders, c.domain, (*aux, *lets))

    def norm_pattern(p: Pattern) -> Pattern:
        return norm_plain(p) if isinstance(p, Atom) else norm_comp(p)

    propagated = tuple(norm_pattern(p) for p in r.propagated)
    simplified = tuple(norm_pattern(p) for p in r.simplified)
    guard = conj(*rule_eqs, r.guard)
    return Rule(r.name, propagated, simplified, guard, r.body, normalized=True)


def normalize_program(p: Program) -> Program:
    return Program(tuple(normalize_rule(r) for r in p.rules))


# ---------------------------------------------------------------------------
# Ground atoms and stores


_LITERALS = frozenset((Int, Inf, Bool, Sym))


def is_literal_atom(a: Atom) -> bool:
    """Is every argument of `a` an integer, `infty`, boolean or symbol
    literal? Such an atom is ground and normal as it stands."""
    for t in a.args:
        if type(t) not in _LITERALS:
            return False
    return True


def ground_atom(a: Atom) -> Atom:
    """`a` normalized: `a` itself when it is a literal atom, else a
    normalized copy; raises NonGroundError on free variables."""
    if is_literal_atom(a):
        return a
    return Atom(a.pred, tuple(normalize(t) for t in a.args))


def atom_key(a: Atom):
    return (a.pred, len(a.args)) + tuple(term_key(t) for t in a.args)


def canonical_store(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    return tuple(sorted(atoms, key=atom_key))


# ---------------------------------------------------------------------------
# Well-formedness


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} in rule {self.rule}: {self.detail}"


def _determinable_vars(r: Rule) -> set[str]:
    """Variables bound by matching: head argument positions plus equality
    propagation through guard equations and tuple structure."""
    det: set[str] = set()

    def add_term_pattern(t: Term) -> None:
        # Mirrors what the match solver can destructure.
        if isinstance(t, Var):
            det.add(t.name)
        elif isinstance(t, (TupleTerm, MSet)):
            for i in t.items:
                add_term_pattern(i)
        elif isinstance(t, MSetUnion):
            add_term_pattern(t.left)
            add_term_pattern(t.right)

    for h in r.heads:
        if isinstance(h, Atom):
            for t in h.args:
                add_term_pattern(t)
        elif isinstance(h.domain, Var):
            # Rule variables occurring only inside a comprehension would be
            # bound per matched element, which an empty block never provides;
            # they intentionally do not count as anchored.
            det.add(h.domain.name)

    eqs: list[tuple[Term, Term]] = []
    for c in conjuncts(r.guard):
        if isinstance(c, Rel) and c.op == "=":
            eqs.append((c.lhs, c.rhs))

    changed = True
    while changed:
        changed = False
        for lhs, rhs in eqs:
            for a, b in ((lhs, rhs), (rhs, lhs)):
                if term_vars(a) <= det:
                    before = len(det)
                    add_term_pattern(b)
                    if len(det) != before:
                        changed = True
    return det


def check_rule(r: Rule) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if not r.heads:
        out.append(Diagnostic("empty-head", r.name, "rule has no head patterns"))

    head_fv = r.head_vars()
    bindvars = set(guard_bind_vars(r.guard))

    domain_vars: list[str] = []
    for h in r.heads:
        if isinstance(h, Comprehension):
            if len(set(h.binders)) != len(h.binders):
                out.append(
                    Diagnostic("duplicate-binders", r.name, f"binders {h.binders}")
                )
            collectable: set[str] = set()
            for t in h.atom.args:
                collectable |= term_vars(t)
            for c in conjuncts(h.guard):
                if isinstance(c, Rel) and c.op == "=":
                    collectable |= term_vars(c.lhs) | term_vars(c.rhs)
            for b in h.binders:
                if b not in collectable:
                    out.append(
                        Diagnostic(
                            "binder-unanchored",
                            r.name,
                            f"binder {b} cannot be collected from matched constraints",
                        )
                    )
            if not isinstance(h.domain, Var):
                out.append(
                    Diagnostic(
                        "head-domain-not-var",
                        r.name,
                        f"head comprehension domain {h.domain!r} is not a variable",
                    )
                )
            else:
                domain_vars.append(h.domain.name)

    for dv in domain_vars:
        uses = 0
        for h in r.heads:
            if isinstance(h, Atom):
                uses += dv in h.free_vars()
            else:
                uses += dv in (h.atom.free_vars() | guard_vars(h.guard)) - h.local_vars
                uses += isinstance(h.domain, Var) and h.domain.name == dv
        if uses > 1:
            out.append(
                Diagnostic(
                    "domain-var-shared",
                    r.name,
                    f"domain variable {dv} occurs elsewhere in the heads",
                )
            )

    body_fv = patterns_free_vars(r.body)
    for v in sorted(body_fv - (head_fv | bindvars)):
        out.append(
            Diagnostic("ungrounded-body", r.name, f"body variable {v} is not bound by the heads")
        )

    det = _determinable_vars(r)
    for v in sorted(head_fv - det):
        out.append(
            Diagnostic(
                "unanchored-var",
                r.name,
                f"head variable {v} may stay undetermined (occurs only inside comprehensions)",
            )
        )

    # Guard reads must be resolvable from matched variables plus earlier Binds.
    known = det | set()
    for c in conjuncts(r.guard):
        if isinstance(c, Bind):
            needed = term_vars(c.value)
            for v in sorted(needed - known):
                out.append(
                    Diagnostic("guard-unbound-var", r.name, f"guard reads unbound variable {v}")
                )
            for v in c.vars:
                if v in known:
                    out.append(
                        Diagnostic("bind-rebind", r.name, f"guard re-binds variable {v}")
                    )
            known |= set(c.vars)
        else:
            for v in sorted(guard_vars(c) - known):
                out.append(
                    Diagnostic("guard-unbound-var", r.name, f"guard reads unbound variable {v}")
                )
    return out


def check_program(p: Program) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    seen: set[str] = set()
    for r in p.rules:
        if r.name in seen:
            out.append(Diagnostic("duplicate-rule-name", r.name, "rule name reused"))
        seen.add(r.name)
        out.extend(check_rule(r))
    return out
