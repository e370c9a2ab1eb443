import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chrcp.errors import NonGroundError, RebindError, TermTypeError
from chrcp.terms import (
    Bind,
    Bool,
    ConjComp,
    GTrue,
    INFTY,
    Int,
    MSet,
    MSetUnion,
    PrimApp,
    Reduce,
    Rel,
    Sym,
    TermComp,
    TupleTerm,
    Var,
    conj,
    eval_guard,
    mset,
    normalize,
    eval_term,
    guard_holds,
    reduce_eval,
    term_key,
    tup,
)

from oracles import reference_eval


def ints(*vals):
    return mset(*(Int(v) for v in vals))


class TestNormalize:
    def test_union_flattens(self):
        t = MSetUnion(ints(1), ints(2, 2))
        assert normalize(t) == ints(1, 2, 2)

    def test_multiset_order_insensitive(self):
        assert normalize(mset(Sym("a"), Sym("b"))) == normalize(mset(Sym("b"), Sym("a")))

    def test_term_comprehension_projects_and_filters(self):
        # W over (X, Y, W) in [(a,b,3), (a,d,5)]
        dom = mset(tup(Sym("a"), Sym("b"), Int(3)), tup(Sym("a"), Sym("d"), Int(5)))
        t = TermComp(Var("W"), GTrue(), ("X", "Y", "W"), dom)
        assert normalize(t) == ints(3, 5)

    def test_term_comprehension_guard(self):
        t = TermComp(Var("X"), Rel(">", Var("X"), Int(1)), ("X",), ints(1, 2, 3))
        assert normalize(t) == ints(2, 3)

    def test_reduce_empty_returns_unit(self):
        assert normalize(Reduce("min", INFTY, mset())) == INFTY

    def test_arithmetic(self):
        assert normalize(PrimApp("+", (Int(2), Int(3)))) == Int(5)
        assert normalize(PrimApp("*", (Int(2), PrimApp("-", (Int(5), Int(1)))))) == Int(8)

    def test_non_ground_raises(self):
        with pytest.raises(NonGroundError):
            normalize(Var("X"))

    def test_ill_typed_raises(self):
        with pytest.raises(TermTypeError):
            normalize(PrimApp("+", (Int(1), Sym("a"))))
        with pytest.raises(TermTypeError):
            normalize(PrimApp("+", (Int(1), INFTY)))

    def test_infty_ordering(self):
        assert normalize(PrimApp("min", (INFTY, Int(3)))) == Int(3)
        assert normalize(PrimApp("max", (INFTY, Int(3)))) == INFTY


class TestEvalUnderEnv:
    """`eval_term(t, env)` reads variables from `env`; nothing is substituted."""

    def test_variables_read_from_env(self):
        assert eval_term(tup(Var("X"), Int(1)), {"X": Int(3)}) == tup(Int(3), Int(1))

    def test_empty_env_is_normalize(self):
        t = tup(Int(2), mset(Int(3), Int(1)))
        assert eval_term(t, {}) == normalize(t) == tup(Int(2), ints(1, 3))

    def test_binders_shadow(self):
        # X read from env; the binder Z shadows env's Z inside the comprehension
        t = TermComp(tup(Var("X"), Var("Z")), Rel(">", Var("Z"), Int(0)), ("Z",), Var("Zs"))
        env = {"X": Int(1), "Z": Int(9), "Zs": ints(0, 2)}
        assert eval_term(t, env) == mset(tup(Int(1), Int(2)))

    def test_evaluates_under_env(self):
        assert eval_term(PrimApp("+", (Var("X"), Int(1))), {"X": Int(3)}) == Int(4)

    def test_bound_bind_is_a_test(self):
        g = Bind(("W",), Var("X"))
        assert guard_holds(g, {"W": Int(2), "X": Int(2)})
        assert not guard_holds(g, {"W": Int(3), "X": Int(2)})

    def test_unbound_variables_are_all_named(self):
        t = PrimApp("+", (Var("Y"), PrimApp("+", (Var("X"), Var("Z")))))
        with pytest.raises(NonGroundError, match=r"^free variables Y, Z in Y \+ \(1 \+ Z\)$"):
            eval_term(t, {"X": Int(1)})

    def test_open_comprehension_is_non_ground_even_when_empty(self):
        t = TermComp(Var("Y"), GTrue(), ("X",), mset())
        with pytest.raises(NonGroundError, match="free variables Y"):
            eval_term(t, {})


class TestGuards:
    def test_comparison(self):
        assert eval_guard(Rel(">=", Int(3), Int(5))) is False
        assert eval_guard(Rel("<", Int(3), INFTY)) is True

    def test_conj_comp(self):
        g = ConjComp(("X",), ints(1, 2), Rel(">", Var("X"), Int(0)))
        assert eval_guard(g) is True
        g2 = ConjComp(("X",), ints(1, -2), Rel(">", Var("X"), Int(0)))
        assert eval_guard(g2) is False

    def test_membership(self):
        assert eval_guard(Rel("in", Sym("a"), mset(Sym("a"), Sym("b"))))
        assert not eval_guard(Rel("in", Sym("c"), mset(Sym("a"))))

    def test_empty_multiset_disequality(self):
        assert eval_guard(Rel("!=", mset(), mset())) is False

    def test_bind_extends_environment(self):
        g = conj(Bind(("W",), PrimApp("+", (Int(1), Int(2)))), Rel("=", Var("W"), Int(3)))
        assert eval_guard(g) is True

    def test_bind_left_to_right(self):
        g = conj(
            Bind(("A",), Int(2)),
            Bind(("B",), PrimApp("*", (Var("A"), Int(3)))),
            Rel("=", Var("B"), Int(6)),
        )
        assert eval_guard(g)

    def test_rebind_is_an_error(self):
        g = conj(Bind(("W",), Int(1)), Bind(("W",), Int(2)))
        with pytest.raises(RebindError):
            eval_guard(g)

    def test_reading_unbound_raises(self):
        with pytest.raises(NonGroundError):
            eval_guard(Rel("=", Var("X"), Int(1)))

    def test_tuple_bind_destructures(self):
        g = conj(Bind(("A", "B"), tup(Int(1), Int(2))), Rel("<", Var("A"), Var("B")))
        assert eval_guard(g)


class TestReduce:
    def test_min_fold(self):
        assert reduce_eval("min", INFTY, ints(3, 3, 5)) == Int(3)

    def test_sum_fold(self):
        assert reduce_eval("sum", Int(0), ints(1, 2, 3)) == Int(6)

    def test_count(self):
        assert reduce_eval("count", Int(0), ints(4, 4, 9)) == Int(3)

    def test_unknown_function(self):
        with pytest.raises(TermTypeError):
            reduce_eval("nope", Int(0), ints(1))


ground_terms = st.recursive(
    st.one_of(
        st.integers(-20, 20).map(Int),
        st.sampled_from([Sym("a"), Sym("b"), Sym("c"), Bool(True), INFTY]),
    ),
    lambda kids: st.one_of(
        st.lists(kids, min_size=0, max_size=3).map(lambda xs: MSet(tuple(xs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: TupleTerm(tuple(xs))),
    ),
    max_leaves=12,
)


@given(ground_terms)
def test_normalize_idempotent(t):
    once = normalize(t)
    assert normalize(once) == once


@given(ground_terms, ground_terms)
def test_term_order_total(a, b):
    ka, kb = term_key(normalize(a)), term_key(normalize(b))
    assert (ka < kb) or (kb < ka) or (ka == kb)


@given(st.lists(st.integers(-50, 50), max_size=8), st.randoms())
@settings(max_examples=60)
def test_reduce_permutation_invariant(values, rnd):
    items = [Int(v) for v in values]
    shuffled = items[:]
    rnd.shuffle(shuffled)
    for fn, unit in (("min", INFTY), ("max", Int(-1000)), ("sum", Int(0)), ("count", Int(0))):
        assert reduce_eval(fn, unit, MSet(tuple(items))) == reduce_eval(
            fn, unit, MSet(tuple(shuffled))
        )


# The differential test below draws terms over these names: env binds some
# of them, so each drawn term reads bound, shadowed and free variables.
NAMES = ("X", "Y", "F")

small = st.one_of(st.integers(-2, 2).map(Int), st.sampled_from([Sym("a"), Bool(True), INFTY]))
values = st.one_of(
    small,
    st.lists(st.integers(-2, 2).map(Int), max_size=3).map(lambda xs: MSet(tuple(sorted(xs, key=term_key)))),
    st.lists(st.tuples(small, small).map(TupleTerm), max_size=2).map(lambda xs: MSet(tuple(sorted(xs, key=term_key)))),
)
envs = st.dictionaries(st.sampled_from(NAMES), values, max_size=3)

_OPS = ("+", "-", "min", "max", "<", "=", "in")


def _guards(kids):
    rel = st.builds(Rel, st.sampled_from(("=", "!=", "<", ">=", "in")), kids, kids)
    # A Bind's target is never a binder: an equation on a binder raised
    # `RebindError` on the two-pass path, and is a test now.
    bind = st.builds(lambda v: Bind(("F",), v), kids)
    return st.one_of(st.just(GTrue()), rel, st.builds(lambda a, b: conj(a, b), bind, rel))


def _comprehensions(kids):
    binders = st.sampled_from([("X",), ("B",), ("B",), ("B", "C")])
    domains = st.one_of(st.lists(kids, max_size=3).map(lambda xs: MSet(tuple(xs))), st.sampled_from([Var(v) for v in NAMES]), kids)
    return st.builds(TermComp, kids, _guards(kids), binders, domains)


open_terms = st.recursive(
    st.one_of(small, st.sampled_from([Var(v) for v in NAMES + ("B", "C")])),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(lambda xs: MSet(tuple(xs))),
        st.lists(kids, min_size=2, max_size=2).map(lambda xs: TupleTerm(tuple(xs))),
        st.builds(lambda a, b: MSetUnion(MSet((a,)), b), kids, kids),
        st.builds(lambda op, a, b: PrimApp(op, (a, b)), st.sampled_from(_OPS), kids, kids),
        st.builds(Reduce, st.sampled_from(("min", "max", "sum", "count")), kids, kids),
        _comprehensions(kids),
        _comprehensions(kids),
        st.builds(MSetUnion, kids, kids),  # rare in text: `pretty_term` prints no such union
    ),
    max_leaves=10,
)


def _outcome(f):
    try:
        return "value", f()
    except (NonGroundError, TermTypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@given(open_terms, envs)
@settings(max_examples=400, deadline=None)
def test_eval_term_agrees_with_substitute_then_normalize(t, env):
    """One walk under env gives what substituting env and then evaluating
    gave: equal values, or the same error class with the same message."""
    assert _outcome(lambda: eval_term(t, env)) == _outcome(lambda: reference_eval(t, env))
