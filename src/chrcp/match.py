"""Matching of rule heads against constraint stores.

A comprehension pattern is asked two questions, each answered by one
function:

* comp_instances — which atoms its domain denotes under an environment,
  one per element (None where the element's guard fails): a block must be
  exactly these (`matches_exactly`), and a body unfolds to them
  (`rewrite.unfold_body`);
* _fit           — whether a given atom fits it: the atom's arguments bind
  the pattern's, then its guard is solved, strictly or leniently. This
  decides the search's absorption and, through `residual_non_match`, the
  maximality test.

Patterns are read under an environment, never instantiated: the solver
(`_solve_guard`, `_try_conjunct`, `_solve_eq`) reads each variable's value
from it and evaluates what it closes (`terms.eval_term`).

`enumerate_matches` is the search procedure: it solves for a substitution
pattern by pattern (atom heads first by predicate- or argument-indexed
backtracking, then comprehension absorption with branching on contested
constraints). Every match it keeps has its comprehension blocks validated
by `matches_exactly` and, where a constraint was deliberately left out,
its maximality tested by `residual_non_match`, both under the match's
substitution through each head's filter, planned once per normalized rule
(`rules.CompFilter`). The referee (`soundness`) confirms a firing through
the same two judgments.

The store searched, `LabeledStore`, is persistent by rerooting: the
versions derived from one store share one mutable index (label -> atom,
per-predicate and per-argument buckets as label-ordered lists), kept for
the newest version or the last one read, and every other version keeps
only the edit back to its neighbour. A derivation edits the index for the
k entries it adds or removes; reading an older version re-applies the
edits in between. The search reads one version's maps and buckets in
place, so they are valid until another version of the family is read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import ChrcpError, NonGroundError, RebindError, TermTypeError
from .rules import Atom, CompFilter, Comprehension, Conjunct, Pattern, Rule, normalize_rule, plan_conjuncts
from .terms import (
    Bind,
    ConjComp,
    GTrue,
    MSet,
    MSetUnion,
    Rel,
    Substitution,
    Term,
    TupleTerm,
    Var,
    _bind_into,
    bind_binders,
    eval_guard_env,
    eval_term,
    pretty_term,
    rel_holds,
    term_key,
    term_vars,
)

StoreItem = tuple[int, Atom]


class _StoreIndex:
    """The one mutable index of a family of `LabeledStore` versions, kept for
    the family's root: `by_label` (label -> atom, in no particular order),
    `items` (every (label, atom) entry), `by_pred` (predicate -> its
    entries) and `by_arg`, the argument index: (predicate, argument
    position) -> value -> the entries whose argument there is that value,
    built for a pair on its first lookup and kept up to date from then on.
    Every list holds its entries in label order; an emptied bucket is
    dropped."""

    __slots__ = ("by_label", "items", "by_pred", "by_arg", "positions")

    def __init__(self, items: list[StoreItem]) -> None:
        """The index of `items`, entries in label order, built in one pass."""
        self.by_label: dict[int, Atom] = dict(items)
        self.items: list[StoreItem] = items
        self.by_pred: dict[str, list[StoreItem]] = {}
        self.by_arg: dict[tuple[str, int], dict[Term, list[StoreItem]]] = {}
        self.positions: dict[str, list[int]] = {}  # predicate -> its positions in `by_arg`
        for item in items:
            bucket = self.by_pred.get(item[1].pred)
            if bucket is None:
                self.by_pred[item[1].pred] = [item]
            else:
                bucket.append(item)

    def edit(self, item: StoreItem, add: bool) -> None:
        """One entry edit: add the entry (label, atom), or delete it."""
        n, atom = item
        if add:
            self.by_label[n] = atom
        else:
            del self.by_label[n]
        _edit_list(self.items, item, add)
        _edit_bucket(self.by_pred, atom.pred, item, add)
        for pos in self.positions.get(atom.pred, ()):
            if pos < len(atom.args):
                _edit_bucket(self.by_arg[atom.pred, pos], atom.args[pos], item, add)


def _edit_bucket(buckets: dict, key: object, item: StoreItem, add: bool) -> None:
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = [item]
    else:
        _edit_list(bucket, item, add)
        if not bucket:
            del buckets[key]


def _edit_list(bucket: list[StoreItem], item: StoreItem, add: bool) -> None:
    """Insert `item` into, or delete it from, the label-ordered `bucket`.
    `(n,)` sorts just before `(n, atom)`, and labels in a bucket are
    distinct, so no atom is ever compared."""
    n = item[0]
    if add:
        if not bucket or bucket[-1][0] < n:
            bucket.append(item)
        else:
            bucket.insert(bisect_left(bucket, (n,)), item)
    elif bucket[-1][0] == n:
        bucket.pop()
    else:
        del bucket[bisect_left(bucket, (n,))]


class LabeledStore:
    """Labeled constraints, indexed for head matching and state digests.

    A store is a persistent value: `add`, `add_many` and `remove` return a
    new version and leave this one as it was. The versions derived from one
    store built by `LabeledStore(entries, next_label)` form a family that
    shares one mutable index (`_StoreIndex`), kept for one version, the
    root: the newest version derived, or the last one read. Every other
    version keeps only the edit back to its neighbour towards the root, the
    k entries the neighbour lacks or holds beyond it, so a derivation costs
    its k entries, never the store. Reading another version re-roots the
    index there (Baker's trick; Conchon & Filliâtre, 2007): the edits
    between the two are re-applied, and each edit on the path turns to
    point at the new root. The checker's `before`, one edit behind the
    machine's `after`, costs one edit to read.

    Aliasing: `by_label`, `by_pred`, `by_arg`, `items()` and `lookup` hand
    out the index's own maps and lists. What was read from one version is
    valid until another version of the same family is read; copy it first
    when both are needed (`delta` does).

    Labels are never reused, even after deletion: `next_label` is the next
    one `add` gives. `digest` is the store's text in a state digest: each
    entry's token `pred#label`, in label order, rendered from `items()`
    each time it is read. No version keeps a text, so a run that keeps
    every version (a trace of `machine.StateDigest`s) holds only their
    edits."""

    __slots__ = ("next_label", "_len", "_index", "_link")

    def __init__(self, entries: Iterable[StoreItem] = (), next_label: int = 1) -> None:
        """The store holding `entries`, (label, atom) pairs whose labels rise
        and stay below `next_label`; `ChrcpError` otherwise."""
        items = list(entries)
        last = None
        for n, _ in items:
            if n >= next_label or (last is not None and n <= last):
                raise ChrcpError(f"store label {n} is repeated, out of order or not below next label {next_label}")
            last = n
        self._derive(_StoreIndex(items), next_label, len(items))

    def _derive(self, index: _StoreIndex, next_label: int, length: int) -> "LabeledStore":
        self._index, self.next_label, self._len, self._link = index, next_label, length, None
        return self

    def _root(self) -> _StoreIndex:
        """The family's index, made this version's by re-applying the edits
        between it and the root."""
        if self._link is not None:
            path = []
            v: LabeledStore = self
            while v._link is not None:
                path.append(v)
                v = v._link[0]
            index = self._index
            for v in reversed(path):
                w, drop, put = v._link  # v = w - drop + put
                for item in drop:
                    index.edit(item, False)
                for item in put:
                    index.edit(item, True)
                w._link, v._link = (v, put, drop), None
        return self._index

    @property
    def by_label(self) -> dict[int, Atom]:
        return self._root().by_label

    @property
    def by_pred(self) -> dict[str, list[StoreItem]]:
        return self._root().by_pred

    @property
    def by_arg(self) -> dict[tuple[str, int], dict[Term, list[StoreItem]]]:
        return self._root().by_arg

    def items(self) -> list[StoreItem]:
        """The (label, atom) entries in label order."""
        return self._root().items

    @property
    def digest(self) -> str:
        return ",".join(f"{a.pred}#{n}" for n, a in self.items())

    def __len__(self) -> int:
        return self._len

    def __contains__(self, label: int) -> bool:
        return label in self._root().by_label

    def __repr__(self) -> str:
        return f"LabeledStore({tuple(self.items())!r}, {self.next_label})"

    def lookup(self, pred: str, pos: int, value: Term) -> Sequence[StoreItem]:
        """The entries of `pred` whose argument `pos` is `value`, in label
        order. The first lookup of a (pred, pos) pair indexes that pair."""
        index = self._root()
        by_value = index.by_arg.get((pred, pos))
        if by_value is None:
            by_value = index.by_arg[pred, pos] = {}
            index.positions.setdefault(pred, []).append(pos)
            for item in index.by_pred.get(pred, ()):
                args = item[1].args
                if pos < len(args):
                    by_value.setdefault(args[pos], []).append(item)
        return by_value.get(value, ())

    def add(self, atom: Atom) -> tuple["LabeledStore", int]:
        store, (n,) = self.add_many((atom,))
        return store, n

    def add_many(self, atoms: Iterable[Atom]) -> tuple["LabeledStore", list[int]]:
        """The store with `atoms` added under fresh labels, and the labels."""
        new = tuple(enumerate(atoms, self.next_label))
        if not new:
            return self, []
        index = self._root()
        for item in new:
            index.edit(item, True)
        stop = self.next_label + len(new)
        store = object.__new__(LabeledStore)._derive(index, stop, self._len + len(new))
        self._link = (store, new, ())
        return store, list(range(self.next_label, stop))

    def remove(self, labels: Iterable[int]) -> "LabeledStore":
        """The store without the entries of the held `labels`."""
        index = self._root()
        by_label = index.by_label
        gone = tuple((n, by_label[n]) for n in sorted({n for n in labels if n in by_label}))
        if not gone:
            return self
        for item in gone:
            index.edit(item, False)
        store = object.__new__(LabeledStore)._derive(index, self.next_label, self._len - len(gone))
        self._link = (store, (), gone)
        return store

    def delta(self, other: "LabeledStore") -> tuple[tuple[StoreItem, ...], tuple[StoreItem, ...]]:
        """(removed, added): the entries this version holds and `other` does
        not, and those `other` holds and this one does not, in label order.
        Between a version and one derived from it, this is the edit that
        links them, read without re-rooting; any other pair is compared
        whole."""
        if other is self:
            return (), ()
        if other._link is not None and other._link[0] is self:
            return other._link[1], other._link[2]
        if self._link is not None and self._link[0] is other:
            return self._link[2], self._link[1]
        mine = dict(self.items())
        theirs = dict(other.items())
        removed = tuple((n, a) for n, a in mine.items() if theirs.get(n) != a)
        return removed, tuple((n, a) for n, a in theirs.items() if mine.get(n) != a)


# False while `maximality_disabled` is active. Only the goal-stack machine
# reads it, and passes it to `enumerate_matches` as `maximal`.
MAXIMAL = True


@contextmanager
def maximality_disabled():
    """Make the goal-stack machine fire non-maximal matches as well: the
    differential harness's negative control, which `check_soundness` must
    catch. The declarative engine keeps the real semantics."""
    global MAXIMAL
    prev, MAXIMAL = MAXIMAL, False
    try:
        yield
    finally:
        MAXIMAL = prev


# ---------------------------------------------------------------------------
# Declarative judgments


def comp_instances(c: Comprehension, plan: tuple[Conjunct, ...], env: Mapping[str, Term], dom: MSet) -> Iterator[Atom | None]:
    """Per element of `dom`, the value of `c`'s domain under `env`, in
    canonical order, the atom it makes, or None when its guard fails or
    leaves an argument open. The element binds the binders over `env` (a
    binder shadows a variable of `env` of its name), then `plan`, the guard
    planned (`plan_conjuncts`, or a normalized head's `CompFilter`), is
    solved strictly for `c`'s own variables. A Bind in `plan` on a variable
    `env` binds raises `RebindError`."""
    pred, args, local = c.atom.pred, c.atom.args, c.local_vars
    for el in dom.items:
        solved, _ = _solve_guard(plan, {**env, **bind_binders(c.binders, el)}, local)
        if solved is None:
            yield None
            continue
        try:
            # A variable's value is normal already: values come from
            # domains, store atoms and evaluated terms.
            inst = Atom(pred, tuple([solved[a.name] if isinstance(a, Var) else eval_term(a, solved) for a in args]))
        except (KeyError, NonGroundError):  # an argument the guard left open
            inst = None
        yield inst


def matches_exactly(
    patterns: Iterable[Pattern],
    store: Iterable[Atom],
    env: Mapping[str, Term] | None = None,
    filters: Sequence[CompFilter | None] = (),
) -> bool:
    """Patterns read under `env` consume the given store fragment exactly:
    each atom its instance, each comprehension the atoms of
    `comp_instances`, every element making one. Without `filters` each
    comprehension's guard is planned here. With them the patterns are the
    heads of a normalized rule, `env` a match's substitution, and each
    comprehension is read through its filter `filters[i]`
    (`rules.CompFilter`, planned once per rule)."""
    need: list[Atom] = []
    env = env or {}
    for i, p in enumerate(patterns):
        if isinstance(p, Atom):
            need.append(Atom(p.pred, tuple(eval_term(a, env) for a in p.args)))
            continue
        dom = eval_term(p.domain, env)
        if not isinstance(dom, MSet):
            raise TermTypeError(f"comprehension domain is not a multiset: {pretty_term(dom)}")
        plan = filters[i].conjuncts if filters else plan_conjuncts(p.guard)  # type: ignore[union-attr]
        for inst in comp_instances(p, plan, env, dom):
            if inst is None:
                return False
            need.append(inst)
    return Counter(need) == Counter(store)


def subsumes(a: Atom, m: Comprehension, plan: tuple[Conjunct, ...] | None = None) -> Substitution | None:
    """Binder instantiation under which `a` fits the closed comprehension,
    if any (`_fit`, strict; the domain's contents ignored). `plan` is its
    guard planned (`plan_conjuncts`), when the caller has it."""
    fit = _fit(m, plan_conjuncts(m.guard) if plan is None else plan, a, {}, m.local_vars)
    return None if fit is None else Substitution(zip(m.binders, fit[1]))


def residual_non_match(
    patterns: Iterable[Pattern],
    store: Iterable[Atom],
    env: Mapping[str, Term] | None = None,
    filters: Sequence[CompFilter | None] = (),
) -> bool:
    """True iff no store constraint fits any comprehension pattern (`_fit`,
    strict, only each pattern's own variables solved): the maximality test
    of a match. Patterns, `env` and `filters` are read as by
    `matches_exactly`."""
    env = env or {}
    comps = [
        (p, filters[i].conjuncts if filters else plan_conjuncts(p.guard))  # type: ignore[union-attr]
        for i, p in enumerate(patterns)
        if isinstance(p, Comprehension)
    ]
    if not comps:
        return True
    for a in store:
        for c, plan in comps:
            if _fit(c, plan, a, env, c.local_vars) is not None:  # type: ignore[arg-type]
                return False
    return True


def _fit(
    c: Comprehension, plan: tuple[Conjunct, ...], atom: Atom, env: dict[str, Term], solvable: frozenset[str],
    lenient: bool = False,
) -> tuple[dict[str, Term], tuple[Term, ...], int] | None:
    """Does `atom` fit the comprehension `c` under `env`? The atom's
    arguments bind or test `c.atom`'s (`_match_atom`), then `plan`, `c`'s
    guard planned, is solved for the names in `solvable` (`_solve_guard`),
    strictly or leniently. Returns (the solved environment, the binders'
    values, the count of conjuncts left deferred), or None when the atom
    does not fit or a binder is left open."""
    solved = _match_atom(c.atom, atom, env, solvable)
    if solved is None:
        return None
    solved, deferred = _solve_guard(plan, solved, solvable, lenient=lenient)
    if solved is None:
        return None
    try:
        return solved, tuple([solved[b] for b in c.binders]), deferred
    except KeyError:
        return None


# ---------------------------------------------------------------------------
# Directed solving: bind pattern variables against ground values


def _solvable_pattern(t: Term, env: Mapping[str, Term], solvable: frozenset[str]) -> bool:
    """Can `t` be matched structurally once env is applied?"""
    if isinstance(t, Var):
        return t.name in env or t.name in solvable
    if isinstance(t, TupleTerm):
        return all(_solvable_pattern(i, env, solvable) for i in t.items)
    if isinstance(t, MSet):
        return all(_solvable_pattern(i, env, solvable) for i in t.items)
    if isinstance(t, MSetUnion):
        return _solvable_pattern(t.left, env, solvable) and _solvable_pattern(
            t.right, env, solvable
        )
    return not (term_vars(t) - set(env))  # evaluable once env applied


def _solve_eq(pattern: Term, value: Term, env: dict[str, Term], solvable: frozenset[str]) -> dict[str, Term] | None:
    """Extend env so pattern, read under env, equals the ground value; None
    on clash, on a part of pattern that is neither structure nor closed by
    env, or on a type error in evaluating a closed part."""
    if isinstance(pattern, Var):
        name = pattern.name
        if name in env:
            return env if env[name] == value else None
        return {**env, name: value} if name in solvable else None
    if isinstance(pattern, TupleTerm):
        if not isinstance(value, TupleTerm) or len(value.items) != len(pattern.items):
            return None
        for pi, vi in zip(pattern.items, value.items):
            nxt = _solve_eq(pi, vi, env, solvable)
            if nxt is None:
                return None
            env = nxt
        return env
    closed = term_vars(pattern) <= env.keys()
    if isinstance(pattern, (MSet, MSetUnion)) and not closed:
        return _solve_mset(pattern, value, env, solvable)
    if not closed:
        return None
    try:
        return env if eval_term(pattern, env) == value else None
    except TermTypeError:
        return None


def _solve_mset(pattern: Term, value: Term, env: dict[str, Term], solvable: frozenset[str]) -> dict[str, Term] | None:
    """Match a multiset pattern like `[D | Ds]`, read under env, against a
    ground multiset.

    Element patterns closed by env are removed by equality; the other
    element patterns commit to the least remaining elements (canonical
    order); the rest term takes what is left.
    """
    if not isinstance(value, MSet):
        return None
    bound = env.keys()
    sides = [(pattern, None)] if isinstance(pattern, MSet) else [(pattern.left, pattern.right), (pattern.right, pattern.left)]
    remaining = list(value.items)
    var_elems: list[Term] = []
    try:
        for side, rest in sides:
            if not isinstance(side, MSet) and term_vars(side) <= bound:
                side = eval_term(side, env)  # a union side closed by env is its value
            if isinstance(side, MSet):
                break
        else:
            return None
        for e in side.items:
            if not term_vars(e) <= bound:
                var_elems.append(e)
            elif (e := eval_term(e, env)) in remaining:
                remaining.remove(e)
            else:
                return None
    except TermTypeError:
        return None
    remaining.sort(key=term_key)
    if len(var_elems) > len(remaining):
        return None
    for e in var_elems:  # commit to canonical-least elements
        nxt = _solve_eq(e, remaining.pop(0), env, solvable)
        if nxt is None:
            return None
        env = nxt
    left_over = MSet(tuple(remaining))
    if rest is None:
        return env if not remaining else None
    return _solve_eq(rest, left_over, env, solvable)


def _match_atom(pattern: Atom, value: Atom, env: dict[str, Term], solvable: frozenset[str]) -> dict[str, Term] | None:
    """`env` extended so `pattern` equals the ground `value`, or None. A
    bare-variable argument is bound or compared by name; only a structured
    one is solved (`_solve_eq`). `env` itself is never changed: the first
    binding copies it."""
    if pattern.pred != value.pred or pattern.arity != value.arity:
        return None
    out = env
    for pt, vt in zip(pattern.args, value.args):
        if not isinstance(pt, Var):
            nxt = _solve_eq(pt, vt, out, solvable)
            if nxt is None:
                return None
            out = nxt
        elif pt.name in out:
            if out[pt.name] != vt:
                return None
        elif pt.name not in solvable:
            return None
        else:
            if out is env:
                out = dict(env)
            out[pt.name] = vt
    return out


_DEFER = object()


def _try_conjunct(cj: Conjunct, env: dict[str, Term], solvable: frozenset[str]):
    """Returns (status, env): status in {True, False, _DEFER}. The conjunct
    is read under env. A type error in evaluating it, or a side of it that
    env closes, fails it, since it would fail every instance. The plan
    decides the common cases from variable names alone: a conjunct that env
    closes, and an equation whose one open side is a bare variable, which
    it solves; an equation one of whose sides env closes solves the other
    side as a pattern."""
    c = cj.guard
    bound = env.keys()
    try:
        if isinstance(c, Rel):
            if cj.vars <= bound:
                return rel_holds(c.op, eval_term(c.lhs, env), eval_term(c.rhs, env)), env
            for name, other, other_vars in cj.solves:
                if name not in bound and other_vars <= bound:
                    if name not in solvable:
                        return _DEFER, env
                    return True, {**env, name: eval_term(other, env)}
            closed = [(side, eval_term(side, env)) for side in (c.lhs, c.rhs) if term_vars(side) <= bound]
            if c.op == "=" and closed:
                side, value = closed[0]
                pattern = c.rhs if side is c.lhs else c.lhs
                if _solvable_pattern(pattern, env, solvable):
                    nxt = _solve_eq(pattern, value, env, solvable)
                    return (False, env) if nxt is None else (True, nxt)
            return _DEFER, env
        if not cj.vars <= bound:
            return _DEFER, env
        if isinstance(c, GTrue):
            return True, env
        if isinstance(c, Bind):
            env2 = dict(env)
            _bind_into(env2, c.vars, eval_term(c.value, env))  # a rebind raises RebindError
            return True, env2
        if isinstance(c, ConjComp):
            return eval_guard_env(c, env)[0], env
    except TermTypeError:
        return False, env
    raise TypeError(f"not a guard conjunct: {c!r}")


def _solve_guard(
    plan: tuple[Conjunct, ...], env: dict[str, Term], solvable: frozenset[str], *, lenient: bool = False
) -> tuple[dict[str, Term] | None, int]:
    """Worklist solver over a planned guard's conjuncts: (env, the count of
    conjuncts left deferred), env None when one fails. Strict: every
    conjunct must eventually hold, and one left pending fails. Lenient:
    pending conjuncts are dropped (the caller re-validates)."""
    pending = plan
    while pending:
        progress = False
        deferred: list[Conjunct] = []
        for cj in pending:
            status, env = _try_conjunct(cj, env, solvable)
            if status is _DEFER:
                deferred.append(cj)
            elif status:
                progress = True
            else:
                return None, 0
        if not progress:
            return (env if lenient or not deferred else None), len(deferred)
        pending = deferred
    return env, 0


# ---------------------------------------------------------------------------
# Rule-head match enumeration


@dataclass(frozen=True)
class MatchResult:
    """One way a rule's heads fit a store: substitution plus the partition
    of store items by head pattern (blocks are disjoint; ids are store
    labels/positions)."""

    theta: Substitution
    blocks: tuple[tuple[int, ...], ...]

    def all_ids(self) -> tuple[int, ...]:
        return tuple(sorted(i for b in self.blocks for i in b))

    def instance_key(self, head_vars: frozenset[str]) -> tuple:
        """The rule instance this match fires: the substitution restricted
        to the rule's `head_vars` and the matched labels. A propagation goal
        keeps the keys of the instances it fired as its history."""
        return instance_key({k: v for k, v in self.theta.items() if k in head_vars}, self.all_ids())


def instance_key(bindings: Mapping[str, Term], labels: Iterable[int]) -> tuple:
    """Key of a rule instance: its head-variable bindings in name order, and
    its labels sorted. `MatchResult.instance_key` and the search's skip of
    fired instances both build it here, so the two agree."""
    return (tuple((k, term_key(bindings[k])) for k in sorted(bindings)), tuple(sorted(labels)))


def enumerate_matches(
    rule: Rule,
    store: LabeledStore,
    anchor: tuple[int, int] | None = None,
    *,
    maximal: bool = True,
    limit: int | None = None,
    exclude: Collection[tuple] = frozenset(),
) -> list[MatchResult]:
    """The maximal matches of a rule against a labeled store, least first by
    `blocks` (block labels per head): all of them, or with `limit` only the
    `limit` least. With `maximal=False` the non-maximal ones are kept too.
    One search never returns two matches with equal blocks: a search path
    is fixed by its blocks (each atom head's candidate, then each item's
    comprehension or none), and staying out binds nothing. A match whose
    `instance_key` is in `exclude` is dropped, so it neither counts toward
    `limit` nor bounds the search. When every head is an atom, the atoms
    chosen fix the key, so a fired instance is skipped as its last atom
    head takes its candidate, before any of its heads or its guard is
    solved; with a comprehension head the key needs the blocks' domains,
    so the match is dropped after absorption, before it is validated.

    `anchor`, when given, is (head pattern index, store label): the item
    must land in that pattern's block. An anchored atom head is matched
    first, with the anchored item as its one candidate, so its bindings are
    known before any partner is tried. The other atom heads take their
    candidates in label order from the argument index where one of their
    arguments is bound, else from their predicates' buckets. Once the atom
    heads are matched, each comprehension takes its candidates from its
    predicate's bucket, or, when its guard pins an argument position to
    values the substitution already fixes (`_pin`: `Vi = t` with t ground,
    or `Vi = A` with a top-level `A in T`, T ground), from the store's
    argument index, one lookup per value, merged in label order. An item
    is tried only by the comprehensions whose candidates hold it; an item
    that none holds is skipped, as one that every comprehension rejects,
    and an anchored item outside its own head's candidates means no match.
    With a `limit` the search is branch and bound: the
    blocks chosen so far bound every completion from below (a head not
    reached yet has block `()`, below any label; an atom head's block is
    its one label; a comprehension's block only grows by larger labels), in
    whatever order the heads are reached, and a branch whose bound exceeds
    the `limit`-th least match found so far is cut. Choices are tried
    least-first, so the bound tightens early.
    """
    if limit is not None and limit < 1:
        raise ChrcpError(f"match limit must be at least 1, not {limit}")
    rule = normalize_rule(rule)
    heads = rule.heads
    solvable, head_vars = rule.rule_vars(), rule.head_vars()
    if anchor is not None and anchor[1] not in store:
        return []

    atom_idx = [i for i, p in enumerate(heads) if isinstance(p, Atom)]
    if anchor is not None and anchor[0] in atom_idx:
        # The anchored head goes first, so no partner is solved before its
        # bindings are known. The results stay the same: `blocks_so_far` is a
        # lower bound in any head order, since a head not reached yet has
        # block (), and each head's candidates still rise in label order, so
        # the `break` after `cut` stays valid.
        atom_idx.remove(anchor[0])
        atom_idx.insert(0, anchor[0])
    comp_idx = [i for i, p in enumerate(heads) if isinstance(p, Comprehension)]
    # A comprehension head's instance key needs its domain, so `finish`
    # checks `exclude` for such a rule; otherwise `match_atoms` does.
    skip_fired = bool(exclude) and not comp_idx
    atoms_by_id = store.by_label
    filters, guard_plan = rule.filters(), rule.guard_plan()
    local = {ci: solvable | heads[ci].local_vars for ci in comp_idx}

    results: list[MatchResult] = []  # with a limit: the least found so far, sorted

    def blocks_so_far(chosen: dict[int, int], absorbed: Mapping[int, list[int]]) -> tuple:
        """Blocks of the chosen atom heads and of what each comprehension
        absorbed so far; () for the heads not reached yet."""
        return tuple(
            (chosen[h],) if h in chosen else tuple(absorbed.get(h, ())) for h in range(len(heads))
        )

    def cut(chosen: dict[int, int], absorbed: Mapping[int, list[int]]) -> bool:
        """Once `limit` matches are found: no match whose blocks extend the
        ones chosen so far can be among the `limit` least."""
        if limit is None or len(results) < limit:
            return False
        return blocks_so_far(chosen, absorbed) > results[-1].blocks

    def finish(
        env: dict[str, Term],
        chosen: dict[int, int],
        labels: Mapping[int, list[int]],
        tuples: Mapping[int, list[Term]],
        risky_stays: list[int],
    ) -> None:
        blocks = blocks_so_far(chosen, labels)
        if anchor is not None and anchor[1] not in blocks[anchor[0]]:
            return
        if cut(chosen, labels):
            return
        # Bind each comprehension's domain to its collected binder tuples.
        env = dict(env)
        for ci in comp_idx:
            comp: Comprehension = heads[ci]  # type: ignore[assignment]
            if not isinstance(comp.domain, Var):
                raise ChrcpError(f"comprehension head domain {pretty_term(comp.domain)} is not a variable")
            dval = MSet(tuple(sorted(tuples[ci], key=term_key)))
            if comp.domain.name in env:
                if env[comp.domain.name] != dval:
                    return
            else:
                env[comp.domain.name] = dval
        solved, _ = _solve_guard(guard_plan, env, solvable)
        if solved is None:
            return
        bound = {k: v for k, v in solved.items() if k in solvable}
        res = MatchResult(Substitution(bound), blocks)
        if comp_idx and exclude and res.instance_key(head_vars) in exclude:
            return
        # Declarative validation of every comprehension block, then
        # maximality, both under `bound` through each head's filter. An atom
        # head needs neither: its arguments are variables (`normalize_rule`)
        # that `_match_atom` bound to, or checked against, the matched
        # atom's own. Items every comprehension rejected at assign time stay
        # rejected (failures are stable as the substitution grows), so only
        # deliberate stays need the maximality test: no head fits one, its
        # filter solved strictly for its own variables.
        for ci in comp_idx:
            try:
                if not matches_exactly([heads[ci]], [atoms_by_id[i] for i in blocks[ci]], bound, (filters[ci],)):
                    return
            except (TermTypeError, NonGroundError, RebindError):
                return
        if maximal and risky_stays and not residual_non_match(heads, [atoms_by_id[i] for i in risky_stays], bound, filters):
            return
        results.append(res)
        if limit is not None:
            results.sort(key=lambda m: m.blocks)
            del results[limit:]

    def assign_comps(env: dict[str, Term], chosen: dict[int, int]) -> None:
        # Which comprehensions try each item, by label. An item outside a
        # comprehension's candidates fails its pinning conjunct under every
        # extension of `env`, like an item `_absorb_lenient` rejects, so it
        # is never a risky stay and the residual test in `finish` may skip
        # it: maximality stays exact. An anchored item outside its own
        # head's candidates cannot land in that head's block.
        used = set(chosen.values())
        tries: dict[int, list[int]] = {}
        for ci in comp_idx:
            for n, _ in _candidates(store, heads[ci].atom.pred, filters[ci], env, local[ci]):  # type: ignore[union-attr]
                if n not in used:
                    tries.setdefault(n, []).append(ci)
        if anchor is not None and anchor[0] in comp_idx:
            if anchor[0] not in tries.get(anchor[1], ()):
                return
            tries[anchor[1]] = [anchor[0]]
        remaining = sorted(tries)
        # The items each comprehension absorbed so far (labels, binder
        # tuples) and the items deliberately left out, all in label order.
        labels: dict[int, list[int]] = {ci: [] for ci in comp_idx}
        tuples: dict[int, list[Term]] = {ci: [] for ci in comp_idx}
        stays: list[int] = []
        # Depth-first over contested items with an explicit stack. An entry
        # is one choice for one item: where to resume, the substitution,
        # the list lengths to roll back to, and (item, comprehension or None
        # for "stays out", binder tuple).
        stack: list = [(0, env, None, None)]
        while stack:
            pos, env, marks, choice = stack.pop()
            if marks is not None:
                for ci, n in zip(comp_idx, marks):
                    del labels[ci][n:], tuples[ci][n:]
                del stays[marks[-1] :]
                item_id, ci, btuple = choice
                if ci is None:
                    stays.append(item_id)
                else:
                    labels[ci].append(item_id)
                    tuples[ci].append(btuple)
                if cut(chosen, labels):
                    continue
            while pos < len(remaining):
                item_id = remaining[pos]
                atom = atoms_by_id[item_id]
                pos += 1
                anchored_here = anchor is not None and anchor[1] == item_id
                hits: list[tuple[int, dict[str, Term], Term, bool]] = []
                for ci in tries[item_id]:
                    hit = _absorb_lenient(heads[ci], filters[ci], atom, env, local[ci])  # type: ignore[arg-type]
                    if hit is not None:
                        hits.append((ci,) + hit)
                if not hits:
                    if anchored_here:
                        break  # the anchored item must be absorbed
                    continue
                # A candidate that neither extended the substitution nor deferred
                # guard checks absorbs the item under any final substitution, so
                # leaving it unassigned would always fail the residual test.
                may_stay = not anchored_here and not (
                    maximal and any(clean for _, _, _, clean in hits)
                )
                if len(hits) == 1 and not may_stay:
                    ci, env, btuple, _ = hits[0]
                    labels[ci].append(item_id)
                    tuples[ci].append(btuple)
                    continue
                # The stack pops the last choice first, so the least come
                # first: staying out, then the later comprehensions.
                marks = tuple(len(labels[ci]) for ci in comp_idx) + (len(stays),)
                stack.extend((pos, env2, marks, (item_id, ci, btuple)) for ci, env2, btuple, _ in hits)
                if may_stay:
                    stack.append((pos, env, marks, (item_id, None, None)))
                break
            else:
                finish(env, chosen, labels, tuples, stays)

    def fired_key(chosen: dict[int, int]) -> tuple:
        """The instance key of any match of atom heads only that takes the
        `chosen` atoms. `normalize_rule` makes each atom-head argument a
        variable, which `_match_atom` binds to the chosen atom's argument."""
        bindings = {v.name: t for h, n in chosen.items() for v, t in zip(heads[h].args, atoms_by_id[n].args)}
        return instance_key(bindings, chosen.values())

    def match_atoms(pending: list[int], env: dict[str, Term], chosen: dict[int, int]) -> None:
        if not pending:
            if comp_idx:
                assign_comps(env, chosen)
            else:
                finish(env, chosen, {}, {}, [])
            return
        hi = pending[0]
        pat: Atom = heads[hi]  # type: ignore[assignment]
        if anchor is not None and anchor[0] == hi:
            cands = ((anchor[1], atoms_by_id[anchor[1]]),)
        else:
            cands = _atom_candidates(store, pat, env)
        last = len(pending) == 1
        for item_id, atom in cands:
            if item_id in chosen.values():
                continue
            if anchor is not None and anchor[1] == item_id and anchor[0] != hi:
                continue
            chosen2 = {**chosen, hi: item_id}
            if cut(chosen2, {}):
                break  # the later candidates have larger labels, so larger bounds
            if skip_fired and last and fired_key(chosen2) in exclude:
                continue
            env2 = _match_atom(pat, atom, env, solvable)
            if env2 is None:
                continue
            if _solve_guard(guard_plan, env2, solvable, lenient=True)[0] is None:
                continue
            match_atoms(pending[1:], env2, chosen2)

    try:
        match_atoms(atom_idx, {}, {})
    finally:
        del match_atoms  # the recursive closure holds its own cell: a cycle
    results.sort(key=lambda m: m.blocks)
    return results


def _atom_candidates(store: LabeledStore, pat: Atom, env: dict[str, Term]) -> Sequence[StoreItem]:
    """The items an atom head of a normalized rule tries under `env`, in
    label order: where one of its argument variables is bound, the
    argument index's entries for that value (an atom outside them fails
    that argument in `_match_atom`), else its predicate's bucket."""
    for pos, arg in enumerate(pat.args):
        if isinstance(arg, Var) and arg.name in env:
            return store.lookup(pat.pred, pos, env[arg.name])
    return store.by_pred.get(pat.pred, ())


def _candidates(
    store: LabeledStore, pred: str, f: CompFilter, env: dict[str, Term], solvable: frozenset[str]
) -> Sequence[StoreItem]:
    """The items a comprehension head of predicate `pred` and filter `f`
    tries under `env`, in label order: the predicate's bucket, or, where
    the guard pins an argument position (`_pin`), the argument index's
    entries for the values pinned, one lookup per value, merged."""
    pin = _pin(f, env, solvable)
    if pin is None:
        return store.by_pred.get(pred, ())
    pos, values = pin
    if len(values) == 1:
        return store.lookup(pred, pos, values[0])
    return tuple(sorted(chain.from_iterable(store.lookup(pred, pos, v) for v in values)))


def _pin(f: CompFilter, env: dict[str, Term], solvable: frozenset[str]) -> tuple[int, tuple[Term, ...]] | None:
    """An argument position i that the filter's guard pins under `env`, with
    the values argument i can take, or None when no position is pinned. The
    first `Vi = t` in the guard decides:

    * t is ground under `env`: the one value of t;
    * t is an unbound variable A with a top-level `A in T`, T ground under
      `env`: the distinct elements of T, none if T is not a multiset.

    An atom whose argument i is none of them is rejected by `_absorb_lenient`
    under `env` and under every extension of it: `Vi = t` then compares
    argument i with the value of t, or binds A to it, and `A in T` fails. A
    t or T that raises a type error fails its conjunct for every atom, so
    no value is left."""
    bound = env.keys()
    for pos, t, t_vars in f.pins:
        try:
            if t_vars <= bound:
                return pos, (eval_term(t, env),)
            if isinstance(t, Var) and t.name in f.members and t.name in solvable:
                dom, dom_vars = f.members[t.name]
                if dom_vars <= bound:
                    value = eval_term(dom, env)
                    return pos, tuple(dict.fromkeys(value.items)) if isinstance(value, MSet) else ()
        except TermTypeError:
            return pos, ()
    return None


def _absorb_lenient(
    comp: Comprehension, f: CompFilter, atom: Atom, env: dict[str, Term], solvable: frozenset[str]
) -> tuple[dict[str, Term], Term, bool] | None:
    """Can `atom` plausibly join the comprehension's block under env? `f` is
    its filter, and `solvable` holds the rule's variables and its own
    (`_fit`, lenient: the final validation rechecks every block). Returns
    (env with rule-variable extensions, collected binder tuple, clean) or
    None. `clean`: the absorption neither extended the substitution nor
    left conjuncts deferred, so it holds under any extension of env."""
    fit = _fit(comp, f.conjuncts, atom, env, solvable, lenient=True)
    if fit is None:
        return None
    solved, values, deferred = fit
    local = comp.local_vars
    env2 = {k: v for k, v in solved.items() if k not in local}
    btuple: Term = values[0] if len(values) == 1 else TupleTerm(values)
    return env2, btuple, deferred == 0 and env2.keys() == env.keys()
