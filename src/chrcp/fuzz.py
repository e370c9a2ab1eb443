"""Random well-formed programs and initial stores for property testing.

Everything is integer-typed so generated guards can never hit type errors.
Variables reused inside comprehension heads are always anchored by a plain
head first, keeping every rule acceptable to the well-formedness checker.
"""

from __future__ import annotations

import random

from .errors import ChrcpError
from .rules import Atom, Comprehension, Pattern, Program, Rule, check_program
from .terms import Bind, GUARD_TRUE, Int, Reduce, Rel, Var, conj


# Size bounds of a generated program and store.
MAX_PREDICATES = 4
MAX_ARITY = 2
MAX_RULES = 3
MAX_HEADS = 3
MAX_STORE = 8  # initial constraints
MAX_VALUE = 3  # integer arguments lie in 0..MAX_VALUE
MAX_BODY = 2

# Store cap of the random-program sweeps (`chrcp fuzz`): some generated
# programs double their store on every propagation firing.
STORE_CAP = 64

_CMP_OPS = ("<", "<=", ">", ">=", "!=")


def generate_random(seed: int) -> tuple[Program, tuple[Pattern, ...]]:
    """Deterministic (program, initial constraint multiset) for a seed."""
    rng = random.Random(seed)
    n_preds = rng.randint(2, MAX_PREDICATES)
    preds = [(f"p{i}", rng.randint(1, MAX_ARITY)) for i in range(n_preds)]

    rules = []
    for k in range(rng.randint(1, MAX_RULES)):
        rules.append(_gen_rule(rng, f"r{k}", preds))

    store_size = rng.randint(0, MAX_STORE)
    init = tuple(_gen_atom(rng, preds) for _ in range(store_size))
    program = Program(tuple(rules))
    return program, init


def _gen_atom(rng: random.Random, preds) -> Atom:
    pred, arity = rng.choice(preds)
    return Atom(pred, tuple(Int(rng.randint(0, MAX_VALUE)) for _ in range(arity)))


def _gen_rule(rng: random.Random, name: str, preds) -> Rule:
    n_heads = rng.randint(1, MAX_HEADS)
    kinds = [rng.random() < 0.35 for _ in range(n_heads)]  # True = comprehension
    is_prop = rng.random() < 0.3

    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    anchored: list[str] = []
    plain_heads: list[Atom] = []
    for _ in [k for k in kinds if not k]:
        pred, arity = rng.choice(preds)
        args = []
        for _ in range(arity):
            roll = rng.random()
            if roll < 0.55 or not anchored:
                v = fresh("X")
                anchored.append(v)
                args.append(Var(v))
            elif roll < 0.8:
                args.append(Var(rng.choice(anchored)))
            else:
                args.append(Int(rng.randint(0, MAX_VALUE)))
        plain_heads.append(Atom(pred, tuple(args)))

    comp_heads: list[Comprehension] = []
    domains: list[tuple[str, int]] = []  # (domain var, binder count)
    comp_preds_used: set[str] = set()
    for _ in [k for k in kinds if k]:
        # Two comprehension heads over one predicate make the number of
        # maximal matches explode combinatorially (every split of the
        # matching constraints is one); keep generated rules desk-scale.
        open_preds = [p for p in preds if p[0] not in comp_preds_used]
        if not open_preds:
            continue
        pred, arity = rng.choice(open_preds)
        comp_preds_used.add(pred)
        binders: list[str] = []
        args = []
        for _ in range(arity):
            roll = rng.random()
            if roll < 0.6 or not anchored:
                b = fresh("B")
                binders.append(b)
                args.append(Var(b))
            elif roll < 0.85:
                args.append(Var(rng.choice(anchored)))
            else:
                args.append(Int(rng.randint(0, MAX_VALUE)))
        if not binders:  # a comprehension that collects nothing is useless
            b = fresh("B")
            binders.append(b)
            args[0] = Var(b)
        guard = GUARD_TRUE
        if rng.random() < 0.5:
            guard = Rel(
                rng.choice(_CMP_OPS),
                Var(rng.choice(binders)),
                Int(rng.randint(0, MAX_VALUE)),
            )
        dom = fresh("Ds")
        domains.append((dom, len(binders)))
        comp_heads.append(Comprehension(Atom(pred, tuple(args)), guard, tuple(binders), Var(dom)))

    heads: list[Pattern] = list(plain_heads) + list(comp_heads)

    guard_parts = []
    if anchored and rng.random() < 0.4:
        guard_parts.append(
            Rel(rng.choice(_CMP_OPS), Var(rng.choice(anchored)), Int(rng.randint(0, MAX_VALUE)))
        )
    bind_vars: list[str] = []
    single_domains = [d for d, k in domains if k == 1]
    if single_domains and rng.random() < 0.4:
        w = fresh("W")
        bind_vars.append(w)
        guard_parts.append(Bind((w,), Reduce("sum", Int(0), Var(rng.choice(single_domains)))))
    guard = conj(*guard_parts)

    body: list[Pattern] = []
    usable = anchored + bind_vars
    for _ in range(rng.randint(0, MAX_BODY)):
        if domains and rng.random() < 0.3:
            dom, k = rng.choice(domains)
            binders = tuple(fresh("C") for _ in range(k))
            pred, arity = rng.choice(preds)
            args = tuple(
                Var(rng.choice(binders)) if rng.random() < 0.7 else Int(rng.randint(0, MAX_VALUE))
                for _ in range(arity)
            )
            bguard = GUARD_TRUE
            if rng.random() < 0.3:
                bguard = Rel(rng.choice(_CMP_OPS), Var(rng.choice(binders)), Int(rng.randint(0, MAX_VALUE)))
            body.append(Comprehension(Atom(pred, args), bguard, binders, Var(dom)))
        else:
            pred, arity = rng.choice(preds)
            args = tuple(
                Var(rng.choice(usable)) if usable and rng.random() < 0.6 else Int(rng.randint(0, MAX_VALUE))
                for _ in range(arity)
            )
            body.append(Atom(pred, args))

    if is_prop:
        propagated, simplified = tuple(heads), ()
    else:
        flags = [rng.random() < 0.7 for _ in heads]
        if not any(flags):
            flags[-1] = True
        propagated = tuple(h for h, f in zip(heads, flags) if not f)
        simplified = tuple(h for h, f in zip(heads, flags) if f)

    rule = Rule(name, propagated, simplified, guard, tuple(body))
    if check_program(Program((rule,))):
        raise ChrcpError(f"generator produced ill-formed rule {name}")
    return rule
