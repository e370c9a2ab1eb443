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
    Substitution,
    Sym,
    TermComp,
    TupleTerm,
    Var,
    conj,
    eval_guard,
    mset,
    normalize,
    reduce_eval,
    substitute,
    term_key,
    tup,
)


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


class TestSubstitute:
    def test_direct_replacement(self):
        theta = Substitution({"X": Int(3)})
        assert substitute(theta, tup(Var("X"), Var("Y"))) == tup(Int(3), Var("Y"))

    def test_empty_substitution_is_identity(self):
        t = tup(Var("X"), mset(Int(1)))
        assert substitute(Substitution(), t) == t

    def test_binders_shadow(self):
        # X replaced, bound Z untouched inside the comprehension
        t = TermComp(tup(Var("X"), Var("Z")), Rel(">", Var("Z"), Int(0)), ("Z",), Var("Zs"))
        out = substitute(Substitution({"X": Int(1), "Z": Int(9)}), t)
        assert out == TermComp(tup(Int(1), Var("Z")), Rel(">", Var("Z"), Int(0)), ("Z",), Var("Zs"))

    def test_normalizes_ground_subterms(self):
        out = substitute(Substitution({"X": Int(3)}), PrimApp("+", (Var("X"), Int(1))))
        assert out == Int(4)

    def test_determined_bind_becomes_equality(self):
        g = Bind(("W",), Var("X"))
        out = substitute(Substitution({"W": Int(2), "X": Int(2)}), g)
        assert out == Rel("=", Int(2), Int(2))
        assert eval_guard(out)


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


@given(ground_terms)
@settings(max_examples=60)
def test_substitution_idempotent_on_objects(t):
    theta = Substitution({"X": Int(1), "Y": mset(Int(2))})
    obj = TupleTerm((Var("X"), t, Var("Y")))
    once = substitute(theta, obj)
    assert substitute(theta, once) == once
