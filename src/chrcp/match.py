"""Matching of rule heads against constraint stores.

Three judgments drive everything:

* matches_exactly  — a closed pattern multiset consumes a store fragment
  completely (each comprehension block is dictated by its ground domain);
* subsumes         — a ground constraint fits a comprehension's atom and
  guard under some binder instantiation (domain contents ignored);
* residual_non_match — no store constraint is subsumed by any comprehension
  in a pattern multiset; this is what makes matched comprehensions maximal.

`enumerate_matches` is the search procedure: it solves for a substitution
pattern by pattern (atoms first, by predicate-indexed backtracking, then
comprehension absorption with branching on contested constraints), and
validates every match it keeps against the declarative judgments above.
Asked for the `limit` least matches, it searches least-first by branch and
bound and cuts every branch that cannot beat them, before validation.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Collection, Iterable, Mapping

from .errors import ChrcpError, NonGroundError, TermTypeError
from .rules import Atom, Comprehension, Pattern, Rule, normalize_rule
from .terms import (
    Bind,
    ConjComp,
    GTrue,
    Guard,
    MSet,
    MSetUnion,
    Rel,
    Substitution,
    Term,
    TupleTerm,
    Var,
    _bind_into,
    bind_binders,
    conjuncts,
    eval_guard_env,
    eval_term,
    guard_vars,
    is_ground,
    norm_loose,
    normalize,
    rel_holds,
    subst_term,
    term_key,
    term_vars,
)

StoreItem = tuple[int, Atom]


@dataclass(frozen=True)
class LabeledStore:
    """Labeled constraints, indexed for head matching and state digests.

    `entries` are (label, atom) pairs in label order. Beside them the store
    keeps `by_label` (label -> atom), `by_pred` (predicate -> its entries in
    label order) and `tokens` (each entry's digest token `pred#label`).
    `add`, `add_many` and `remove` derive the new index from the old one; a
    store built from `entries` alone indexes them once."""

    entries: tuple[StoreItem, ...] = ()
    next_label: int = 1  # labels are never reused, even after deletion
    by_label: dict = field(default=None, compare=False, repr=False)  # type: ignore[assignment]
    by_pred: dict = field(default=None, compare=False, repr=False)  # type: ignore[assignment]
    tokens: tuple = field(default=None, compare=False, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.by_label is None:
            index = _index(self.entries, {}, {}, ())
            for name, value in zip(("by_label", "by_pred", "tokens"), index):
                object.__setattr__(self, name, value)

    def items(self) -> tuple[StoreItem, ...]:
        return self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, label: int) -> bool:
        return label in self.by_label

    def add(self, atom: Atom) -> tuple["LabeledStore", int]:
        store, (n,) = self.add_many((atom,))
        return store, n

    def add_many(self, atoms: Iterable[Atom]) -> tuple["LabeledStore", list[int]]:
        new = tuple(enumerate(atoms, self.next_label))
        stop = self.next_label + len(new)
        index = _index(new, self.by_label, self.by_pred, self.tokens)
        return LabeledStore(self.entries + new, stop, *index), list(range(self.next_label, stop))

    def remove(self, labels: Iterable[int]) -> "LabeledStore":
        gone = sorted({n for n in labels if n in self.by_label})
        if not gone:
            return self
        by_label, by_pred = dict(self.by_label), dict(self.by_pred)
        by_group: dict[str, list[int]] = {}
        for n in gone:
            by_group.setdefault(by_label.pop(n).pred, []).append(n)
        for pred, ns in by_group.items():
            bucket = by_pred.pop(pred)
            if len(ns) < len(bucket):
                by_pred[pred] = _cut(bucket, [bisect_left(bucket, (n,)) for n in ns])
        at = [bisect_left(self.entries, (n,)) for n in gone]  # (n,) sorts just before (n, atom)
        return LabeledStore(_cut(self.entries, at), self.next_label, by_label, by_pred, _cut(self.tokens, at))


def _index(new: tuple[StoreItem, ...], by_label: dict, by_pred: dict, tokens: tuple) -> tuple[dict, dict, tuple]:
    """(by_label, by_pred, tokens) of a store indexed by the given three
    once the label-ordered entries `new` are appended to it."""
    by_label = {**by_label, **dict(new)}
    grouped: dict[str, list[StoreItem]] = {}
    for e in new:
        grouped.setdefault(e[1].pred, []).append(e)
    by_pred = dict(by_pred)
    for pred, es in grouped.items():
        by_pred[pred] = by_pred.get(pred, ()) + tuple(es)
    return by_label, by_pred, tokens + tuple(f"{a.pred}#{n}" for n, a in new)


def _cut(seq: tuple, positions: list[int]) -> tuple:
    """`seq` without the items at the ascending `positions`."""
    return tuple(chain.from_iterable(seq[a + 1 : b] for a, b in zip([-1, *positions], [*positions, len(seq)])))


# One knob, used by the differential harness's negative control. Only
# callers that pass check_maximality=None honor it (the goal-stack engine);
# oracle-side enumeration always requests the real semantics explicitly.
_STATE = threading.local()


def ambient_maximality() -> bool:
    return getattr(_STATE, "maximality", True)


@contextmanager
def maximality_disabled():
    """Skip the residual (maximality) check in ambient-mode enumeration;
    for harness negative controls."""
    prev = ambient_maximality()
    _STATE.maximality = False
    try:
        yield
    finally:
        _STATE.maximality = prev


# ---------------------------------------------------------------------------
# Declarative judgments


def comp_element_instance(c: Comprehension, element: Term) -> Atom | None:
    """Atom produced by one domain element, or None if its guard fails.

    The guard may determine auxiliary variables (normalized atom arguments),
    so satisfaction is checked by solving rather than plain evaluation.
    """
    env = bind_binders(c.binders, element)
    solved = _solve_guard(c.guard, env, c.local_vars)
    if solved is None:
        return None
    try:
        return Atom(c.atom.pred, tuple(eval_term(a, solved) for a in c.atom.args))
    except NonGroundError:
        return None


def comp_instances(c: Comprehension) -> list[Atom] | None:
    """Required constraint multiset of a closed comprehension.

    Returns None when some domain element fails the guard: matching demands
    every element be used.
    """
    dom = normalize(c.domain)
    if not isinstance(dom, MSet):
        raise TermTypeError(f"comprehension domain is not a multiset: {dom!r}")
    out: list[Atom] = []
    for el in dom.items:
        inst = comp_element_instance(c, el)
        if inst is None:
            return None
        out.append(inst)
    return out


def matches_exactly(patterns: Iterable[Pattern], store: Iterable[Atom]) -> bool:
    """Closed patterns consume the given store fragment exactly."""
    need: list[Atom] = []
    for p in patterns:
        if isinstance(p, Atom):
            need.append(Atom(p.pred, tuple(normalize(a) for a in p.args)))
        else:
            inst = comp_instances(p)
            if inst is None:
                return False
            need.extend(inst)
    return Counter(need) == Counter(store)


def subsumes(a: Atom, m: Comprehension) -> Substitution | None:
    """Binder instantiation under which `a` fits the comprehension, if any."""
    env = _match_atom(m.atom, a, {}, solvable=m.local_vars)
    if env is None:
        return None
    env = _solve_guard(m.guard, env, solvable=m.local_vars)
    if env is None:
        return None
    missing = [b for b in m.binders if b not in env]
    if missing:
        return None
    return Substitution({b: env[b] for b in m.binders})


def residual_non_match(patterns: Iterable[Pattern], store: Iterable[Atom]) -> bool:
    """True iff no store constraint is subsumed by any comprehension pattern."""
    comps = [p for p in patterns if isinstance(p, Comprehension)]
    if not comps:
        return True
    for a in store:
        for m in comps:
            if subsumes(a, m) is not None:
                return False
    return True


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
    """Extend env so pattern equals the ground value; None on clash or on a
    type error in instantiating the pattern."""
    try:
        pattern = norm_loose(subst_term(env, pattern))
    except TermTypeError:
        return None
    if is_ground(pattern):
        return env if pattern == value else None
    if isinstance(pattern, Var):
        if pattern.name not in solvable:
            return None
        env2 = dict(env)
        env2[pattern.name] = value
        return env2
    if isinstance(pattern, TupleTerm):
        if not isinstance(value, TupleTerm) or len(value.items) != len(pattern.items):
            return None
        for pi, vi in zip(pattern.items, value.items):
            nxt = _solve_eq(pi, vi, env, solvable)
            if nxt is None:
                return None
            env = nxt
        return env
    if isinstance(pattern, (MSet, MSetUnion)):
        return _solve_mset(pattern, value, env, solvable)
    return None


def _solve_mset(pattern: Term, value: Term, env: dict[str, Term], solvable: frozenset[str]) -> dict[str, Term] | None:
    """Match a multiset pattern like `[D | Ds]` against a ground multiset.

    Ground element patterns are removed by equality; remaining variable
    element patterns commit to the least remaining elements (canonical
    order); the rest term takes what is left.
    """
    if not isinstance(value, MSet):
        return None
    if isinstance(pattern, MSet):
        elems, rest = list(pattern.items), None
    elif isinstance(pattern, MSetUnion) and isinstance(pattern.left, MSet):
        elems, rest = list(pattern.left.items), pattern.right
    elif isinstance(pattern, MSetUnion) and isinstance(pattern.right, MSet):
        elems, rest = list(pattern.right.items), pattern.left
    else:
        return None
    remaining = list(value.items)
    var_elems: list[Term] = []
    for e in elems:
        try:
            e2 = norm_loose(subst_term(env, e))
        except TermTypeError:
            return None
        if is_ground(e2):
            if e2 not in remaining:
                return None
            remaining.remove(e2)
        else:
            var_elems.append(e2)
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
    if pattern.pred != value.pred or pattern.arity != value.arity:
        return None
    for pt, vt in zip(pattern.args, value.args):
        nxt = _solve_eq(pt, vt, env, solvable)
        if nxt is None:
            return None
        env = nxt
    return env


_DEFER = object()


def _try_conjunct(c: Guard, env: dict[str, Term], solvable: frozenset[str]):
    """Returns (status, env): status in {True, False, _DEFER}. A type error
    in instantiating or evaluating the conjunct fails it, since it would
    fail every instance."""
    try:
        if isinstance(c, GTrue):
            return True, env
        if isinstance(c, Rel):
            lhs = norm_loose(subst_term(env, c.lhs))
            rhs = norm_loose(subst_term(env, c.rhs))
            lg, rg = is_ground(lhs), is_ground(rhs)
            if lg and rg:
                return rel_holds(c.op, lhs, rhs), env
            if c.op == "=":
                if lg and _solvable_pattern(rhs, env, solvable):
                    nxt = _solve_eq(rhs, lhs, env, solvable)
                    return (False, env) if nxt is None else (True, nxt)
                if rg and _solvable_pattern(lhs, env, solvable):
                    nxt = _solve_eq(lhs, rhs, env, solvable)
                    return (False, env) if nxt is None else (True, nxt)
            return _DEFER, env
        if isinstance(c, Bind):
            value = norm_loose(subst_term(env, c.value))
            if not is_ground(value):
                return _DEFER, env
            env2 = dict(env)
            _bind_into(env2, c.vars, value)  # a rebind raises RebindError
            return True, env2
        if isinstance(c, ConjComp):
            dom = norm_loose(subst_term(env, c.domain))
            body_open = guard_vars(c.body) - frozenset(c.binders) - set(env)
            if not is_ground(dom) or body_open:
                return _DEFER, env
            ok, _ = eval_guard_env(c, dict(env))
            return ok, env
    except TermTypeError:
        return False, env
    raise TypeError(f"not a guard conjunct: {c!r}")


def _solve_guard_ex(
    g: Guard, env: dict[str, Term], solvable: frozenset[str], *, lenient: bool = False
) -> tuple[dict[str, Term] | None, int]:
    """Worklist solver over guard conjuncts; returns (env, deferred count).

    Strict mode: every conjunct must eventually hold; anything left pending
    fails. Lenient mode: pending conjuncts are dropped (caller re-validates).
    """
    pending = list(conjuncts(g))
    while pending:
        progress = False
        deferred: list[Guard] = []
        for c in pending:
            status, env = _try_conjunct(c, env, solvable)
            if status is _DEFER:
                deferred.append(c)
            elif status:
                progress = True
            else:
                return None, 0
        if not progress:
            if lenient:
                return env, len(deferred)
            return (env, 0) if not deferred else (None, len(deferred))
        pending = deferred
    return env, 0


def _solve_guard(
    g: Guard, env: dict[str, Term], solvable: frozenset[str], *, lenient: bool = False
) -> dict[str, Term] | None:
    return _solve_guard_ex(g, env, solvable, lenient=lenient)[0]


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

    def sort_key(self):
        return (self.blocks, self.theta.key())

    def instance_key(self, head_vars: frozenset[str]) -> tuple:
        """The rule instance this match fires: the substitution restricted
        to the rule's `head_vars` and the matched labels. A propagation goal
        keeps the keys of the instances it fired as its history."""
        return (self.theta.restrict(head_vars).key(), self.all_ids())


def enumerate_matches(
    rule: Rule,
    store: LabeledStore,
    anchor: tuple[int, int] | None = None,
    *,
    check_maximality: bool | None = None,
    limit: int | None = None,
    exclude: Collection[tuple] = frozenset(),
) -> list[MatchResult]:
    """The maximal matches of a rule against a labeled store, least first in
    `MatchResult.sort_key` order (block ids per head, then substitution):
    all of them, or with `limit` only the `limit` least. A match whose
    `instance_key` is in `exclude` is dropped before it is validated, so it
    neither counts toward `limit` nor bounds the search.

    `anchor`, when given, is (head pattern index, store label): the item
    must land in that pattern's block. Atom heads take their candidates,
    and comprehensions absorb, from their predicates' buckets in label
    order. With a `limit` the search is branch and bound: the blocks chosen
    so far bound every completion from below (an atom head's block is its
    one label, a comprehension's block only grows by larger labels), and a
    branch whose bound exceeds the `limit`-th least match found so far is
    cut. Choices are tried least-first, so the bound tightens early.
    `check_maximality=None` defers to the ambient flag (see
    `maximality_disabled`); pass True to force the real semantics.
    """
    if limit is not None and limit < 1:
        raise ChrcpError(f"match limit must be at least 1, not {limit}")
    maximal = ambient_maximality() if check_maximality is None else check_maximality
    rule = normalize_rule(rule)
    heads = rule.heads
    solvable, head_vars = rule.rule_vars(), rule.head_vars()
    if anchor is not None and anchor[1] not in store:
        return []

    atom_idx = [i for i, p in enumerate(heads) if isinstance(p, Atom)]
    comp_idx = [i for i, p in enumerate(heads) if isinstance(p, Comprehension)]
    by_pred, atoms_by_id = store.by_pred, store.by_label
    comp_buckets = [by_pred.get(pred, ()) for pred in {heads[i].atom.pred for i in comp_idx}]

    results: list[MatchResult] = []  # with a limit: the least found so far, sorted
    seen: set = set()

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
                raise ChrcpError(f"comprehension head domain {comp.domain!r} is not a variable")
            dval = MSet(tuple(sorted(tuples[ci], key=term_key)))
            if comp.domain.name in env:
                if env[comp.domain.name] != dval:
                    return
            else:
                env[comp.domain.name] = dval
        solved = _solve_guard(rule.guard, env, solvable)
        if solved is None:
            return
        theta = Substitution({k: v for k, v in solved.items() if k in solvable})
        res = MatchResult(theta, blocks)
        if exclude and res.instance_key(head_vars) in exclude:
            return
        # Declarative validation of every block, then maximality.
        matched_pats = []
        for hi, p in enumerate(heads):
            inst = theta.apply(p)
            try:
                if not matches_exactly([inst], [atoms_by_id[i] for i in blocks[hi]]):
                    return
            except (TermTypeError, NonGroundError):
                return
            matched_pats.append(inst)
        if maximal and risky_stays:
            # Items rejected by every comprehension at assign time stay
            # rejected (failures are stable as the substitution grows), so
            # only deliberate stay choices need the residual test.
            if not residual_non_match(matched_pats, [atoms_by_id[i] for i in risky_stays]):
                return
        key = res.sort_key()
        if key not in seen:
            seen.add(key)
            results.append(res)
            if limit is not None:
                results.sort(key=MatchResult.sort_key)
                del results[limit:]

    def assign_comps(remaining: list[StoreItem], env: dict[str, Term], chosen: dict[int, int]) -> None:
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
                item_id, atom = remaining[pos]
                pos += 1
                anchored_here = anchor is not None and anchor[1] == item_id
                candidates: list[tuple[int, dict[str, Term], Term, bool]] = []
                for ci in comp_idx:
                    if anchored_here and anchor[0] != ci:
                        continue
                    hit = _absorb_lenient(heads[ci], atom, env, solvable)  # type: ignore[arg-type]
                    if hit is not None:
                        candidates.append((ci,) + hit)
                if not candidates:
                    if anchored_here:
                        break  # the anchored item must be absorbed
                    continue
                # A candidate that neither extended the substitution nor deferred
                # guard checks absorbs the item under any final substitution, so
                # leaving it unassigned would always fail the residual test.
                may_stay = not anchored_here and not (
                    maximal and any(clean for _, _, _, clean in candidates)
                )
                if len(candidates) == 1 and not may_stay:
                    ci, env, btuple, _ = candidates[0]
                    labels[ci].append(item_id)
                    tuples[ci].append(btuple)
                    continue
                # The stack pops the last choice first, so the least come
                # first: staying out, then the later comprehensions.
                marks = tuple(len(labels[ci]) for ci in comp_idx) + (len(stays),)
                stack.extend((pos, env2, marks, (item_id, ci, btuple)) for ci, env2, btuple, _ in candidates)
                if may_stay:
                    stack.append((pos, env, marks, (item_id, None, None)))
                break
            else:
                finish(env, chosen, labels, tuples, stays)

    def match_atoms(pending: list[int], env: dict[str, Term], chosen: dict[int, int]) -> None:
        if not pending:
            used = set(chosen.values())
            remaining = [it for bucket in comp_buckets for it in bucket if it[0] not in used]
            if len(comp_buckets) > 1:
                remaining.sort()  # merge the buckets in label order (labels are distinct)
            assign_comps(remaining, env, chosen)
            return
        hi = pending[0]
        pat: Atom = heads[hi]  # type: ignore[assignment]
        if anchor is not None and anchor[0] == hi:
            cands = ((anchor[1], atoms_by_id[anchor[1]]),)
        else:
            cands = by_pred.get(pat.pred, ())
        for item_id, atom in cands:
            if item_id in chosen.values():
                continue
            if anchor is not None and anchor[1] == item_id and anchor[0] != hi:
                continue
            chosen2 = {**chosen, hi: item_id}
            if cut(chosen2, {}):
                break  # the later candidates have larger labels
            env2 = _match_atom(pat, atom, env, solvable)
            if env2 is None:
                continue
            lenv = _solve_guard(rule.guard, env2, solvable, lenient=True)
            if lenv is None:
                continue
            match_atoms(pending[1:], env2, chosen2)

    match_atoms(atom_idx, {}, {})
    results.sort(key=MatchResult.sort_key)
    return results


def _absorb_lenient(
    comp: Comprehension, atom: Atom, env: dict[str, Term], solvable: frozenset[str]
) -> tuple[dict[str, Term], Term, bool] | None:
    """Can `atom` plausibly join this comprehension's block under env?

    Returns (env with rule-variable extensions, collected binder tuple,
    clean) or None. `clean` means the absorption neither extended the
    substitution nor left guard conjuncts deferred, i.e. it holds under any
    extension of env. Deferred conjuncts are allowed — the final validation
    rechecks every block declaratively.
    """
    local = solvable | comp.local_vars
    env2 = _match_atom(comp.atom, atom, dict(env), local)
    if env2 is None:
        return None
    env2, n_deferred = _solve_guard_ex(comp.guard, env2, local, lenient=True)
    if env2 is None:
        return None
    vals = [env2.get(b) for b in comp.binders]
    if any(v is None for v in vals):
        return None  # uncollectable binder: no way to place it in the domain
    btuple: Term = vals[0] if len(vals) == 1 else TupleTerm(tuple(vals))  # type: ignore[arg-type]
    for name in comp.binders + comp.aux:
        env2.pop(name, None)
    clean = n_deferred == 0 and set(env2) == set(env)
    return env2, btuple, clean
