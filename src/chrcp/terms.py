"""Core term language: values, guards and evaluation.

Terms cover integers plus an ``infty`` top element, symbols, booleans,
tuples and multisets, together with term-level comprehensions, a fold-style
``reduce`` operator and primitive arithmetic.  Everything is an immutable
value.  Ground terms have a canonical form (multisets are kept sorted under
a total term order), so multiset and store equality are plain ``==``.

Guards are conjunctions of relations over terms.  ``Bind`` realizes guard
equations like ``Ws = {...}``: it introduces bindings that guards to its
right (and the rule body) may read.  Inside a comprehension's guard, and in
a rule guard read under a match's substitution, an equation on a variable
already bound is a test instead (``guard_holds``).

A term gets its value one way: ``eval_term(t, env)`` walks it once, reading
each variable from ``env``; nothing is substituted into it.  The
substitution functions (``subst_term``, ``subst_guard``) only rename and
unify patterns, and spell out the term an error message names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import NonGroundError, RebindError, TermTypeError


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Int(Term):
    value: int


@dataclass(frozen=True)
class Inf(Term):
    """Top element of the numeric order; spelled ``infty`` in source."""


@dataclass(frozen=True)
class Bool(Term):
    value: bool


@dataclass(frozen=True)
class Sym(Term):
    name: str


@dataclass(frozen=True)
class TupleTerm(Term):
    items: tuple[Term, ...]


@dataclass(frozen=True)
class MSet(Term):
    # Ground literals are kept sorted by term_key (see normalize).
    items: tuple[Term, ...]


@dataclass(frozen=True)
class MSetUnion(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TermComp(Term):
    """Term-level comprehension: map/filter over a multiset domain."""

    template: Term
    guard: "Guard"
    binders: tuple[str, ...]
    domain: Term


@dataclass(frozen=True)
class Reduce(Term):
    """Fold one of `REDUCE_FNS` over a multiset, seeded with unit."""

    fn: str
    unit: Term
    domain: Term


@dataclass(frozen=True)
class PrimApp(Term):
    op: str
    args: tuple[Term, ...]


INFTY = Inf()


def mset(*items: Term) -> MSet:
    return MSet(tuple(items))


def tup(*items: Term) -> TupleTerm:
    return TupleTerm(tuple(items))


# ---------------------------------------------------------------------------
# Guards


class Guard:
    __slots__ = ()


@dataclass(frozen=True)
class GTrue(Guard):
    pass


@dataclass(frozen=True)
class Rel(Guard):
    op: str  # one of = != < <= > >= in
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Bind(Guard):
    vars: tuple[str, ...]
    value: Term


@dataclass(frozen=True)
class Conj(Guard):
    items: tuple[Guard, ...]


@dataclass(frozen=True)
class ConjComp(Guard):
    """Conjunction of a guard instantiated over a multiset domain."""

    binders: tuple[str, ...]
    domain: Term
    body: Guard


GUARD_TRUE = GTrue()

REL_OPS = ("=", "!=", "<", "<=", ">", ">=", "in")


def conj(*guards: Guard) -> Guard:
    """Flatten a conjunction, dropping trivially true parts."""
    items: list[Guard] = []
    for g in guards:
        if isinstance(g, GTrue):
            continue
        if isinstance(g, Conj):
            items.extend(g.items)
        else:
            items.append(g)
    if not items:
        return GUARD_TRUE
    if len(items) == 1:
        return items[0]
    return Conj(tuple(items))


def conjuncts(g: Guard) -> tuple[Guard, ...]:
    if isinstance(g, GTrue):
        return ()
    if isinstance(g, Conj):
        out: list[Guard] = []
        for it in g.items:
            out.extend(conjuncts(it))
        return tuple(out)
    return (g,)


# ---------------------------------------------------------------------------
# Total term order (canonicalizes multisets, reduce folds and stores)


def term_key(t: Term):
    if isinstance(t, Bool):
        return (0, 1 if t.value else 0)
    if isinstance(t, Int):
        return (1, 0, t.value)
    if isinstance(t, Inf):
        return (1, 1, 0)
    if isinstance(t, Sym):
        return (2, t.name)
    if isinstance(t, TupleTerm):
        return (3, len(t.items)) + tuple(term_key(i) for i in t.items)
    if isinstance(t, MSet):
        return (4, len(t.items)) + tuple(term_key(i) for i in t.items)
    if isinstance(t, Var):
        return (5, t.name)
    # Unevaluated constructs only show up in non-ground positions; a stable
    # syntactic fallback keeps the order total.
    return (9, repr(t))


# ---------------------------------------------------------------------------
# Free variables


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, (Int, Inf, Bool, Sym)):
        return frozenset()
    if isinstance(t, (TupleTerm, MSet)):
        out: frozenset[str] = frozenset()
        for i in t.items:
            out |= term_vars(i)
        return out
    if isinstance(t, MSetUnion):
        return term_vars(t.left) | term_vars(t.right)
    if isinstance(t, TermComp):
        inner = (term_vars(t.template) | guard_vars(t.guard)) - frozenset(t.binders)
        return term_vars(t.domain) | inner
    if isinstance(t, Reduce):
        return term_vars(t.unit) | term_vars(t.domain)
    if isinstance(t, PrimApp):
        out = frozenset()
        for a in t.args:
            out |= term_vars(a)
        return out
    raise TypeError(f"not a term: {t!r}")


def guard_vars(g: Guard) -> frozenset[str]:
    """Free variables of a guard; Bind variables scope rightward."""
    if isinstance(g, GTrue):
        return frozenset()
    if isinstance(g, Rel):
        return term_vars(g.lhs) | term_vars(g.rhs)
    if isinstance(g, Bind):
        return term_vars(g.value)
    if isinstance(g, Conj):
        bound: set[str] = set()
        out: set[str] = set()
        for it in g.items:
            out |= guard_vars(it) - bound
            if isinstance(it, Bind):
                bound.update(it.vars)
        return frozenset(out)
    if isinstance(g, ConjComp):
        return term_vars(g.domain) | (guard_vars(g.body) - frozenset(g.binders))
    raise TypeError(f"not a guard: {g!r}")


def guard_bind_vars(g: Guard) -> tuple[str, ...]:
    """Variables introduced by Bind at the top conjunction level."""
    if isinstance(g, Bind):
        return g.vars
    if isinstance(g, Conj):
        out: list[str] = []
        for it in g.items:
            out.extend(guard_bind_vars(it))
        return tuple(out)
    return ()


# ---------------------------------------------------------------------------
# Substitution


class Substitution:
    """Map from variable name to ground term; iterates in sorted name order."""

    __slots__ = ("_m",)

    def __init__(self, mapping: Mapping[str, Term] | Iterable[tuple[str, Term]] = ()):
        m = dict(mapping)
        self._m = {k: m[k] for k in sorted(m)}

    def __contains__(self, name: str) -> bool:
        return name in self._m

    def __getitem__(self, name: str) -> Term:
        return self._m[name]

    def get(self, name: str, default: Term | None = None) -> Term | None:
        return self._m.get(name, default)

    def items(self) -> Iterator[tuple[str, Term]]:
        return iter(self._m.items())

    def mapping(self) -> dict[str, Term]:
        return dict(self._m)

    def key(self) -> tuple:
        return tuple((k, term_key(v)) for k, v in self._m.items())

    def __len__(self) -> int:
        return len(self._m)

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._m == other._m

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}->{v!r}" for k, v in self._m.items())
        return f"Substitution({inner})"


def _range_vars(m: Mapping[str, Term]) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for v in m.values():
        out |= term_vars(v)
    return out


def rename_binders(
    binders: tuple[str, ...], avoid: set[str]
) -> tuple[tuple[str, ...], dict[str, Term]]:
    """Fresh names for binders colliding with `avoid`; returns the var map."""
    new: list[str] = []
    ren: dict[str, Term] = {}
    taken = set(avoid) | set(binders)
    for b in binders:
        if b in avoid:
            i = 1
            nb = f"{b}_{i}"
            while nb in taken:
                i += 1
                nb = f"{b}_{i}"
            taken.add(nb)
            ren[b] = Var(nb)
            new.append(nb)
        else:
            new.append(b)
    return tuple(new), ren


def subst_term(m: Mapping[str, Term], t: Term) -> Term:
    """Capture-avoiding replacement; no evaluation."""
    if not m:
        return t
    if isinstance(t, Var):
        return m.get(t.name, t)
    if isinstance(t, (Int, Inf, Bool, Sym)):
        return t
    if isinstance(t, TupleTerm):
        return TupleTerm(tuple(subst_term(m, i) for i in t.items))
    if isinstance(t, MSet):
        return MSet(tuple(subst_term(m, i) for i in t.items))
    if isinstance(t, MSetUnion):
        return MSetUnion(subst_term(m, t.left), subst_term(m, t.right))
    if isinstance(t, TermComp):
        dom = subst_term(m, t.domain)
        m2 = {k: v for k, v in m.items() if k not in t.binders}
        binders, template, guard = t.binders, t.template, t.guard
        clash = _range_vars(m2) & set(binders)
        if clash:
            binders, ren = rename_binders(binders, set(clash))
            template = subst_term(ren, template)
            guard = subst_guard(ren, guard)
        return TermComp(subst_term(m2, template), subst_guard(m2, guard), binders, dom)
    if isinstance(t, Reduce):
        return Reduce(t.fn, subst_term(m, t.unit), subst_term(m, t.domain))
    if isinstance(t, PrimApp):
        return PrimApp(t.op, tuple(subst_term(m, a) for a in t.args))
    raise TypeError(f"not a term: {t!r}")


def subst_guard(m: Mapping[str, Term], g: Guard) -> Guard:
    if not m:
        return g
    if isinstance(g, GTrue):
        return g
    if isinstance(g, Rel):
        return Rel(g.op, subst_term(m, g.lhs), subst_term(m, g.rhs))
    if isinstance(g, Bind):
        value = subst_term(m, g.value)
        if any(v in m for v in g.vars):
            # A determined binding equation degenerates to an equality check.
            if len(g.vars) == 1:
                lhs = m.get(g.vars[0], Var(g.vars[0]))
            else:
                lhs = TupleTerm(tuple(m.get(v, Var(v)) for v in g.vars))
            return Rel("=", lhs, value)
        return Bind(g.vars, value)
    if isinstance(g, Conj):
        return Conj(tuple(subst_guard(m, it) for it in g.items))
    if isinstance(g, ConjComp):
        dom = subst_term(m, g.domain)
        m2 = {k: v for k, v in m.items() if k not in g.binders}
        binders, body = g.binders, g.body
        clash = _range_vars(m2) & set(binders)
        if clash:
            binders, ren = rename_binders(binders, set(clash))
            body = subst_guard(ren, body)
        return ConjComp(binders, dom, subst_guard(m2, body))
    raise TypeError(f"not a guard: {g!r}")


# ---------------------------------------------------------------------------
# Evaluation


def bind_binders(binders: tuple[str, ...], element: Term) -> dict[str, Term]:
    """Destructure one domain element against a binder tuple."""
    if len(binders) == 1:
        return {binders[0]: element}
    if not isinstance(element, TupleTerm) or len(element.items) != len(binders):
        raise TermTypeError(
            f"domain element {pretty_term(element)} does not fit binders {', '.join(binders)}"
        )
    return dict(zip(binders, element.items))


def _num(t: Term) -> float | int:
    if isinstance(t, Int):
        return t.value
    if isinstance(t, Inf):
        return math.inf
    raise TermTypeError(f"not a number: {pretty_term(t)}")


def num_cmp(a: Term, b: Term) -> int:
    """Ordering on integers and infty; type error elsewhere."""
    x, y = _num(a), _num(b)
    return (x > y) - (x < y)


def apply_prim(op: str, args: tuple[Term, ...]) -> Term:
    if op in ("+", "-", "*"):
        if len(args) != 2 or not all(isinstance(a, Int) for a in args):
            raise TermTypeError(f"{op} expects two integers, got {', '.join(map(pretty_term, args))}")
        a, b = args[0].value, args[1].value  # type: ignore[union-attr]
        return Int(a + b if op == "+" else a - b if op == "-" else a * b)
    if op in ("min", "max"):
        if len(args) != 2:
            raise TermTypeError(f"{op} expects two arguments")
        c = num_cmp(args[0], args[1])
        if op == "min":
            return args[0] if c <= 0 else args[1]
        return args[0] if c >= 0 else args[1]
    if op in REL_OPS:
        if len(args) != 2:
            raise TermTypeError(f"{op} expects two arguments")
        return Bool(rel_holds(op, args[0], args[1]))
    raise TermTypeError(f"unknown primitive {op}")


def rel_holds(op: str, lhs: Term, rhs: Term) -> bool:
    """Relation between two ground canonical terms."""
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "in":
        if not isinstance(rhs, MSet):
            raise TermTypeError(f"'in' needs a multiset, got {pretty_term(rhs)}")
        return lhs in rhs.items
    c = num_cmp(lhs, rhs)
    if op == "<":
        return c < 0
    if op == "<=":
        return c <= 0
    if op == ">":
        return c > 0
    if op == ">=":
        return c >= 0
    raise TermTypeError(f"unknown relation {op}")


def eval_term(t: Term, env: Mapping[str, Term] | None = None) -> Term:
    """The canonical value of `t`, its variables read from `env`: one walk,
    no copy of `t` made. A comprehension binds its binders over `env`
    per element. `NonGroundError` names every variable `env` leaves free
    (the message is built only on that path); a type error raises
    `TermTypeError`."""
    env = env or {}
    try:
        return _value(t, env)
    except (NonGroundError, TermTypeError, ValueError):  # ValueError: a union `pretty_term` cannot print
        closed = subst_term(env, t)
        free = term_vars(closed)
        if free:
            raise NonGroundError(f"free variables {', '.join(sorted(free))} in {pretty_term(closed)}") from None
        raise


# The canonical value of a ground term.
normalize = eval_term


def _value(t: Term, env: Mapping[str, Term]) -> Term:
    cls = t.__class__
    if cls is Var:
        try:
            return env[t.name]  # type: ignore[attr-defined]
        except KeyError:
            raise NonGroundError(f"unbound variable {t.name}") from None  # type: ignore[attr-defined]
    if cls is Int or cls is Sym or cls is Bool or cls is Inf:
        return t
    if cls is TupleTerm:
        return TupleTerm(tuple([_value(i, env) for i in t.items]))  # type: ignore[attr-defined]
    if cls is MSet:
        return MSet(tuple(sorted([_value(i, env) for i in t.items], key=term_key)))  # type: ignore[attr-defined]
    if cls is MSetUnion:
        left, right = _value(t.left, env), _value(t.right, env)  # type: ignore[attr-defined]
        if not isinstance(left, MSet) or not isinstance(right, MSet):
            raise TermTypeError(f"multiset union of non-multisets: {pretty_term(subst_term(env, t))}")
        return MSet(tuple(sorted(left.items + right.items, key=term_key)))
    if cls is TermComp:
        return _comp_value(t, env)  # type: ignore[arg-type]
    if cls is Reduce:
        unit, dom = _value(t.unit, env), _value(t.domain, env)  # type: ignore[attr-defined]
        if not isinstance(dom, MSet):
            raise TermTypeError(f"reduce domain is not a multiset: {pretty_term(dom)}")
        return reduce_eval(t.fn, unit, dom)  # type: ignore[attr-defined]
    if cls is PrimApp:
        return apply_prim(t.op, tuple([_value(a, env) for a in t.args]))  # type: ignore[attr-defined]
    raise TypeError(f"not a term: {t!r}")


def _comp_value(t: TermComp, env: Mapping[str, Term]) -> MSet:
    """A term comprehension's multiset. Its template and guard must be
    closed by `env` and its binders, even where no element reads them."""
    if any(v not in env for v in (term_vars(t.template) | guard_vars(t.guard)) - frozenset(t.binders)):
        raise NonGroundError("open comprehension")
    dom = _value(t.domain, env)
    if not isinstance(dom, MSet):
        raise TermTypeError(f"comprehension domain is not a multiset: {pretty_term(dom)}")
    out: list[Term] = []
    for el in dom.items:
        local = {**env, **bind_binders(t.binders, el)}
        if guard_holds(t.guard, local):
            out.append(_value(t.template, local))
    return MSet(tuple(sorted(out, key=term_key)))


def eval_guard(g: Guard, env: Mapping[str, Term] | None = None) -> bool:
    """Truth of a guard; Bind always succeeds and extends the environment."""
    ok, _ = eval_guard_env(g, dict(env or {}))
    return ok


def guard_holds(g: Guard, env: Mapping[str, Term]) -> bool:
    """Truth of `g` under `env`, where an equation whose left side names a
    variable `env` already binds is a test, not a binding: the guard of a
    comprehension, read per element with its binders bound, and a rule
    guard read under a match's substitution."""
    for c in conjuncts(g):
        if isinstance(c, Bind) and any(v in env for v in c.vars):
            lhs = Var(c.vars[0]) if len(c.vars) == 1 else TupleTerm(tuple(Var(v) for v in c.vars))
            ok = eval_term(lhs, env) == eval_term(c.value, env)
        else:
            ok, env = eval_guard_env(c, env)  # type: ignore[arg-type]
        if not ok:
            return False
    return True


def eval_guard_env(g: Guard, env: dict[str, Term]) -> tuple[bool, dict[str, Term]]:
    """Truth of `g` under `env`, and `env` extended by its Binds; a Bind on
    a variable `env` binds raises `RebindError`. A guard comprehension's
    body is read per element by `guard_holds`."""
    if isinstance(g, GTrue):
        return True, env
    if isinstance(g, Rel):
        return rel_holds(g.op, eval_term(g.lhs, env), eval_term(g.rhs, env)), env
    if isinstance(g, Bind):
        value = eval_term(g.value, env)
        env2 = dict(env)
        _bind_into(env2, g.vars, value)
        return True, env2
    if isinstance(g, Conj):
        for it in g.items:
            ok, env = eval_guard_env(it, env)
            if not ok:
                return False, env
        return True, env
    if isinstance(g, ConjComp):
        dom = eval_term(g.domain, env)
        if not isinstance(dom, MSet):
            raise TermTypeError(f"comprehension domain is not a multiset: {pretty_term(dom)}")
        for el in dom.items:
            if not guard_holds(g.body, {**env, **bind_binders(g.binders, el)}):
                return False, env
        return True, env
    raise TypeError(f"not a guard: {g!r}")


def _bind_into(env: dict[str, Term], names: tuple[str, ...], value: Term) -> None:
    if len(names) == 1:
        pairs = [(names[0], value)]
    else:
        if not isinstance(value, TupleTerm) or len(value.items) != len(names):
            raise TermTypeError(f"cannot destructure {pretty_term(value)} into {', '.join(names)}")
        pairs = list(zip(names, value.items))
    for name, v in pairs:
        if name in env:
            raise RebindError(f"variable {name} is already bound")
        env[name] = v


# ---------------------------------------------------------------------------
# Reduce functions


def reduce_eval(fn: str, unit: Term, m: MSet) -> Term:
    """Left fold of one of `REDUCE_FNS` over canonical element order.

    Associative-commutative functions are order-insensitive; anything else
    is well-defined but depends on the canonical order.
    """
    f = REDUCE_FNS.get(fn)
    if f is None:
        raise TermTypeError(f"unknown reduce function {fn!r}")
    acc = unit
    for el in sorted(m.items, key=term_key):
        acc = f(acc, el)
    return acc


def _rf_min(acc: Term, el: Term) -> Term:
    return el if num_cmp(el, acc) < 0 else acc


def _rf_max(acc: Term, el: Term) -> Term:
    return el if num_cmp(el, acc) > 0 else acc


def _rf_sum(acc: Term, el: Term) -> Term:
    if not isinstance(acc, Int) or not isinstance(el, Int):
        raise TermTypeError(f"sum expects integers, got {pretty_term(acc)}, {pretty_term(el)}")
    return Int(acc.value + el.value)


def _rf_count(acc: Term, el: Term) -> Term:
    if not isinstance(acc, Int):
        raise TermTypeError(f"count expects an integer seed, got {pretty_term(acc)}")
    return Int(acc.value + 1)


# The functions `reduce(f, unit, m)` may name; the parser rejects any other.
REDUCE_FNS: dict[str, Callable[[Term, Term], Term]] = dict(min=_rf_min, max=_rf_max, sum=_rf_sum, count=_rf_count)


# ---------------------------------------------------------------------------
# Concrete syntax (the parser's pretty printer and error messages use it)


def pretty_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Inf):
        return "infty"
    if isinstance(t, Bool):
        return "true" if t.value else "false"
    if isinstance(t, Sym):
        return t.name
    if isinstance(t, TupleTerm):
        return "(" + ", ".join(pretty_term(i) for i in t.items) + ")"
    if isinstance(t, MSet):
        return "[" + ", ".join(pretty_term(i) for i in t.items) + "]"
    if isinstance(t, MSetUnion):
        if isinstance(t.left, MSet):
            items = ", ".join(pretty_term(i) for i in t.left.items)
            return f"[{items} | {pretty_term(t.right)}]"
        raise ValueError(f"no concrete syntax for union {t!r}")
    if isinstance(t, TermComp):
        inner = pretty_term(t.template)
        if not isinstance(t.guard, GTrue):
            inner += " | " + pretty_guard(t.guard)
        return "{" + inner + "}" + pretty_binders(t.binders, t.domain)
    if isinstance(t, Reduce):
        return f"reduce({t.fn}, {pretty_term(t.unit)}, {pretty_term(t.domain)})"
    if isinstance(t, PrimApp):
        if t.op in ("min", "max"):
            return f"{t.op}({pretty_term(t.args[0])}, {pretty_term(t.args[1])})"
        if t.op in ("+", "-", "*"):
            lhs, rhs = (_paren_arith(a) for a in t.args)
            return f"{lhs} {t.op} {rhs}"
        return f"({pretty_term(t.args[0])} {t.op} {pretty_term(t.args[1])})"
    raise TypeError(f"not a term: {t!r}")


def _paren_arith(t: Term) -> str:
    s = pretty_term(t)
    if isinstance(t, PrimApp) and t.op in ("+", "-", "*"):
        return f"({s})"
    return s


def pretty_binders(binders: tuple[str, ...], domain: Term) -> str:
    """A comprehension's binder clause `#{X, Y in T}`."""
    return "#{" + ", ".join(binders) + " in " + pretty_term(domain) + "}"


def pretty_guard(g: Guard) -> str:
    if isinstance(g, GTrue):
        return "true"
    if isinstance(g, Rel):
        op = "in" if g.op == "in" else g.op
        return f"{pretty_term(g.lhs)} {op} {pretty_term(g.rhs)}"
    if isinstance(g, Bind):
        lhs = g.vars[0] if len(g.vars) == 1 else "(" + ", ".join(g.vars) + ")"
        return f"{lhs} = {pretty_term(g.value)}"
    if isinstance(g, Conj):
        return ", ".join(pretty_guard(i) for i in g.items)
    if isinstance(g, ConjComp):
        return "{" + pretty_guard(g.body) + "}" + pretty_binders(g.binders, g.domain)
    raise TypeError(f"not a guard: {g!r}")


# ---------------------------------------------------------------------------
# Fresh names


def name_supply(prefix: str, taken: Iterable[str]) -> Callable[[], str]:
    used = set(taken)
    counter = [0]

    def fresh() -> str:
        while True:
            counter[0] += 1
            name = f"{prefix}{counter[0]}"
            if name not in used:
                used.add(name)
                return name

    return fresh
