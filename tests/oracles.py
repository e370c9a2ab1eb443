"""Brute-force oracles, independent of the package's match search.

The production matcher normalizes rule heads and solves for a substitution
pattern by pattern. These oracles instead enumerate every assignment of
store constraints to head patterns of the raw rule, derive the substitution
by naive argument matching, and check the side conditions by direct
evaluation. Only variable/tuple/ground argument patterns are supported,
which covers the generated and bundled test inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from chrcp.errors import NonGroundError, ParseError, RebindError, TermTypeError
from chrcp.machine import InitGoal, LabeledStore, LazyGoal
from chrcp.rules import Atom, Comprehension, Program, Rule, canonical_store
from chrcp.terms import (
    Bind,
    MSet,
    Rel,
    TupleTerm,
    Var,
    conjuncts,
    eval_guard_env,
    eval_term,
    is_ground,
    normalize,
    term_key,
)


class OracleFail(Exception):
    pass


# Reference lexer: one regex match per token or skipped chunk, with the line
# and column carried along the text, chunk by chunk.
_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<int>\d+)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<sym>[a-z][A-Za-z0-9_]*)
      | (?P<punct><=>|==>|!=|<=|>=|\\|@|\||\#|\{|\}|\(|\)|\[|\]|,|\.|=|<|>|\+|-|\*)
    """,
    re.VERBOSE,
)
_REFERENCE_KEYWORDS = {"in", "true", "false", "infty", "reduce"}


def reference_tokenize(text: str, path: str = "<input>") -> list[tuple[str, str, int, int]]:
    """Reference for `parse.tokenize`: (kind, text, line, column) of every
    token, ending in `eof`; `ParseError` at a character that starts none."""
    tokens: list[tuple[str, str, int, int]] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col, path)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind not in ("ws", "comment"):
            if kind == "sym" and chunk in _REFERENCE_KEYWORDS:
                tokens.append(("keyword", chunk, line, col))
            else:
                tokens.append((kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def labeled(items) -> LabeledStore:
    """The store holding `items`, (label, atom) pairs in label order."""
    items = tuple(items)
    return LabeledStore(items, items[-1][0] + 1 if items else 1)


@dataclass(frozen=True)
class ModelStore:
    """Reference for `LabeledStore`: a plain tuple of (label, atom) entries
    in label order, with no index; every query scans it."""

    entries: tuple = ()
    next_label: int = 1

    def add(self, atom):
        n = self.next_label
        return ModelStore(self.entries + ((n, atom),), n + 1), n

    def add_many(self, atoms):
        atoms = tuple(atoms)
        labels = list(range(self.next_label, self.next_label + len(atoms)))
        entries = self.entries + tuple(zip(labels, atoms))
        return ModelStore(entries, self.next_label + len(atoms)), labels

    def remove(self, labels):
        gone = set(labels)
        return ModelStore(tuple(e for e in self.entries if e[0] not in gone), self.next_label)

    def __contains__(self, label) -> bool:
        return any(n == label for n, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def digest(self) -> str:
        """The store's text in a state digest, rendered on every query."""
        return ",".join(f"{a.pred}#{n}" for n, a in self.entries)

    def buckets(self) -> dict:
        """Predicate -> labels of its entries, in label order."""
        out: dict = {}
        for n, a in self.entries:
            out.setdefault(a.pred, []).append(n)
        return {pred: tuple(ns) for pred, ns in out.items()}

    def lookup(self, pred, pos, value) -> tuple:
        """The entries of `pred` whose argument `pos` is `value`, in label order."""
        return tuple(e for e in self.entries if e[1].pred == pred and e[1].args[pos : pos + 1] == (value,))

    def arg_index(self, pred, pos) -> dict:
        """Value -> `lookup(pred, pos, value)`, for the values that occur."""
        values = dict.fromkeys(a.args[pos] for _, a in self.entries if a.pred == pred and pos < len(a.args))
        return {v: self.lookup(pred, pos, v) for v in values}


def _match_term(pattern, value, binders, local, theta):
    if isinstance(pattern, Var):
        scope = local if pattern.name in binders else theta
        if pattern.name in scope:
            if scope[pattern.name] != value:
                raise OracleFail
        else:
            scope[pattern.name] = value
        return
    if isinstance(pattern, TupleTerm):
        if not isinstance(value, TupleTerm) or len(value.items) != len(pattern.items):
            raise OracleFail
        for p, v in zip(pattern.items, value.items):
            _match_term(p, v, binders, local, theta)
        return
    if is_ground(pattern):
        if normalize(pattern) != value:
            raise OracleFail
        return
    raise OracleFail  # argument shapes outside the oracle's scope


def _comp_guard_holds(guard, env) -> bool:
    """A comprehension guard under `env`, conjunct by conjunct. An equation
    whose left side names only variables `env` binds (a binder, a rule
    variable) is a test, as in a rule guard; the parser reads it as a Bind."""
    for c in conjuncts(guard):
        if isinstance(c, Bind) and all(v in env for v in c.vars):
            lhs = Var(c.vars[0]) if len(c.vars) == 1 else TupleTerm(tuple(Var(v) for v in c.vars))
            c = Rel("=", lhs, c.value)
        ok, env = eval_guard_env(c, env)
        if not ok:
            return False
    return True


def _subsumed(atom, comp: Comprehension, theta) -> bool:
    """Would the comprehension (under theta) absorb this constraint?"""
    if comp.atom.pred != atom.pred or comp.atom.arity != atom.arity:
        return False
    local: dict = {}
    frozen = dict(theta)
    try:
        for pt, vt in zip(comp.atom.args, atom.args):
            _match_term(pt, vt, set(comp.binders), local, frozen)
        if frozen != dict(theta):  # may not invent new global bindings
            return False
        env = dict(theta)
        env.update(local)
        return _comp_guard_holds(comp.guard, env)
    except (OracleFail, NonGroundError, TermTypeError, RebindError):
        return False


def _solve_rule_guard(guard, theta) -> dict | None:
    """Naive fixpoint over guard conjuncts: equations on a bare unbound
    variable define it, Binds extend the environment, everything else must
    evaluate to true once ground."""
    env = dict(theta)
    pending = list(conjuncts(guard))
    while pending:
        progress = False
        rest = []
        for c in pending:
            if isinstance(c, Bind):
                try:
                    val = eval_term(c.value, env)
                except NonGroundError:
                    rest.append(c)
                    continue
                if len(c.vars) == 1:
                    pairs = [(c.vars[0], val)]
                elif isinstance(val, TupleTerm) and len(val.items) == len(c.vars):
                    pairs = list(zip(c.vars, val.items))
                else:
                    return None
                for k, v in pairs:
                    if k in env and env[k] != v:
                        return None
                    env[k] = v
                progress = True
                continue
            sides = {}
            for tag, t in (("l", c.lhs), ("r", c.rhs)) if isinstance(c, Rel) else ():
                try:
                    sides[tag] = eval_term(t, env)
                except NonGroundError:
                    pass
            if isinstance(c, Rel) and len(sides) == 2:
                ok, _ = eval_guard_env(Rel(c.op, sides["l"], sides["r"]), {})
                if not ok:
                    return None
                progress = True
            elif isinstance(c, Rel) and c.op == "=" and len(sides) == 1:
                var_side = c.rhs if "l" in sides else c.lhs
                if isinstance(var_side, Var) and var_side.name not in env:
                    env[var_side.name] = next(iter(sides.values()))
                    progress = True
                else:
                    rest.append(c)
            else:
                try:
                    ok, _ = eval_guard_env(c, env)
                except NonGroundError:
                    rest.append(c)
                    continue
                if not ok:
                    return None
                progress = True
        if not progress:
            return None if rest else env
        pending = rest
    return env


def oracle_matches(rule: Rule, items, maximal: bool = True) -> list[tuple[dict, tuple]]:
    """Every (theta, blocks) for the raw rule against an indexed store; with
    `maximal=False` the non-maximal ones too."""
    heads = rule.heads
    n = len(heads)
    ids = [i for i, _ in items]
    atoms = dict(items)
    results: list[tuple[dict, tuple]] = []
    seen: set = set()
    # Assignments to a head with the wrong predicate always fail; skipping
    # them up front keeps the enumeration exhaustive but tractable.
    options = []
    for i in ids:
        a = atoms[i]
        fits = [
            h
            for h, p in enumerate(heads)
            if (p.pred if isinstance(p, Atom) else p.atom.pred) == a.pred
            and (p.arity if isinstance(p, Atom) else p.atom.arity) == a.arity
        ]
        options.append([None] + fits)
    for assign in product(*options):
        blocks = {
            h: [i for i, a in zip(ids, assign) if a == h] for h in range(n)
        }
        if any(
            isinstance(p, Atom) and len(blocks[h]) != 1 for h, p in enumerate(heads)
        ):
            continue
        try:
            theta: dict = {}
            pending: list[tuple] = []
            for h, p in enumerate(heads):
                if isinstance(p, Atom):
                    a = atoms[blocks[h][0]]
                    if p.pred != a.pred or p.arity != a.arity:
                        raise OracleFail
                    for pt, vt in zip(p.args, a.args):
                        _match_term(pt, vt, frozenset(), {}, theta)
                else:
                    if not isinstance(p.domain, Var):
                        raise OracleFail
                    collected = []
                    for i in blocks[h]:
                        a = atoms[i]
                        if p.atom.pred != a.pred or p.atom.arity != a.arity:
                            raise OracleFail
                        local: dict = {}
                        for pt, vt in zip(p.atom.args, a.args):
                            _match_term(pt, vt, set(p.binders), local, theta)
                        if set(local) != set(p.binders):
                            raise OracleFail
                        collected.append(
                            local[p.binders[0]]
                            if len(p.binders) == 1
                            else TupleTerm(tuple(local[b] for b in p.binders))
                        )
                        pending.append((p.guard, local))
                    dom = MSet(tuple(sorted(collected, key=term_key)))
                    if p.domain.name in theta:
                        if theta[p.domain.name] != dom:
                            raise OracleFail
                    else:
                        theta[p.domain.name] = dom
            full = _solve_rule_guard(rule.guard, theta)
            if full is None:
                raise OracleFail
            if not rule.head_vars() <= set(full):
                raise OracleFail  # undetermined head variable
            # per-element guards may read rule-guard bindings, so they are
            # checked under the fully extended substitution
            for g, local in pending:
                env = dict(full)
                env.update(local)
                if not _comp_guard_holds(g, env):
                    raise OracleFail
            rest = [atoms[i] for i, a in zip(ids, assign) if a is None] if maximal else []
            for a in rest:
                if any(
                    isinstance(p, Comprehension) and _subsumed(a, p, full)
                    for p in heads
                ):
                    raise OracleFail
            key = (
                _theta_key(full, rule),
                tuple(tuple(sorted(blocks[h])) for h in range(n)),
            )
            if key not in seen:
                seen.add(key)
                results.append((full, key[1]))
        except (OracleFail, NonGroundError, TermTypeError, RebindError):
            continue
    return results


def _theta_key(theta: dict, rule: Rule):
    keep = rule.rule_vars()
    return tuple(sorted((k, term_key(v)) for k, v in theta.items() if k in keep))


def oracle_match_keys(rule: Rule, items, maximal: bool = True, anchor=None) -> set:
    """The keys of `oracle_matches`; with an `anchor` (head, label), those
    whose block of that head holds that label."""
    return {
        (_theta_key(theta, rule), blocks)
        for theta, blocks in oracle_matches(rule, items, maximal)
        if anchor is None or anchor[1] in blocks[anchor[0]]
    }


def production_match_keys(rule: Rule, items, maximal: bool = True, anchor=None) -> set:
    from chrcp.match import enumerate_matches

    keep = rule.rule_vars()
    out = set()
    for m in enumerate_matches(rule, labeled(items), anchor, maximal=maximal):
        key = tuple(
            sorted((k, term_key(v)) for k, v in m.theta.items() if k in keep)
        )
        out.add((key, m.blocks))
    return out


def oracle_unfold(patterns, theta) -> list[Atom]:
    out: list[Atom] = []
    for p in patterns:
        if isinstance(p, Atom):
            out.append(Atom(p.pred, tuple(eval_term(a, theta) for a in p.args)))
            continue
        dom = eval_term(p.domain, theta)
        if not isinstance(dom, MSet):
            raise TermTypeError(f"domain {dom!r} is not a multiset")
        for el in dom.items:
            env = dict(theta)
            if len(p.binders) == 1:
                env[p.binders[0]] = el
            else:
                assert isinstance(el, TupleTerm) and len(el.items) == len(p.binders)
                env.update(zip(p.binders, el.items))
            try:
                ok, genv = eval_guard_env(p.guard, env)
            except TermTypeError:
                ok, genv = False, env
            if ok:
                out.append(Atom(p.atom.pred, tuple(eval_term(a, genv) for a in p.atom.args)))
    return out


def oracle_successors(program: Program, store) -> set:
    """Canonical successor stores of one rewriting step, by brute force."""
    items = list(enumerate(store))
    atoms = dict(items)
    succs = set()
    for rule in program.rules:
        n_prop = len(rule.propagated)
        for theta, blocks in oracle_matches(rule, items):
            consumed = {i for b in blocks[n_prop:] for i in b}
            remaining = [a for i, a in items if i not in consumed]
            produced = oracle_unfold(rule.body, theta)
            succs.add(canonical_store(remaining + produced))
    return succs


def oracle_prop_instances(rule: Rule, items) -> set:
    """Distinct (theta restricted to head variables, label set) pairs."""
    hv = rule.head_vars()
    out = set()
    for theta, blocks in oracle_matches(rule, items):
        labels = tuple(sorted(i for b in blocks for i in b))
        tkey = tuple(sorted((k, term_key(v)) for k, v in theta.items() if k in hv))
        out.add((tkey, labels))
    return out


def whole_state_problems(pw, state) -> list[str]:
    """Reference for `machine.validate_state`: the validity of a whole machine
    state, re-checked from scratch. Every lazy goal holds a monotone
    constraint, an init goal sits only on top, and store labels are distinct."""
    problems: list[str] = []
    for idx, g in enumerate(state.goals):
        if isinstance(g, LazyGoal) and not pw.monotone(g.atom):
            problems.append(f"lazy goal holds non-monotone constraint {g.atom}")
        if isinstance(g, InitGoal) and idx != 0:
            problems.append("init goal below the top of the stack")
    labels = [n for n, _ in state.store.items()]
    if len(set(labels)) != len(labels):
        problems.append("duplicate store labels")
    return problems
