import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chrcp.bundled import PROGRAMS, STORES, corpus_path
from chrcp.errors import ChrcpError, NonGroundError, ParseError, ScopeError, TermTypeError
from chrcp.fuzz import generate_random
from chrcp.parse import (
    MAX_NESTING,
    parse_program,
    parse_store,
    position,
    pretty_program,
    pretty_store,
    tokenize,
)
from chrcp.rules import Atom, Comprehension
from chrcp.terms import (
    Bind,
    PrimApp,
    Inf,
    Int,
    MSet,
    MSetUnion,
    Reduce,
    Rel,
    Sym,
    TermComp,
    TupleTerm,
    Var,
    eval_term,
    term_key,
)

from oracles import reference_tokenize


class TestParseProgram:
    def test_pivot_swap_shape(self):
        text = (
            "pivotSwap @ swap(X,Y,P), {data(X,D)|D>=P}#{D in Xs}, "
            "{data(Y,D)|D<P}#{D in Ys} <=> {data(Y,D)}#{D in Xs}, {data(X,D)}#{D in Ys}."
        )
        p = parse_program(text)
        (r,) = p.rules
        assert r.name == "pivotSwap"
        assert r.propagated == ()
        assert len(r.simplified) == 3
        assert isinstance(r.simplified[0], Atom)
        comp = r.simplified[1]
        assert isinstance(comp, Comprehension)
        assert comp.binders == ("D",)
        assert comp.domain == Var("Xs")
        assert comp.guard == Rel(">=", Var("D"), Var("P"))
        assert len(r.body) == 2

    def test_propagation_arrow(self):
        (r,) = parse_program("r @ p(X) ==> q(X).").rules
        assert r.propagated and not r.simplified
        assert r.is_propagation

    def test_retained_heads(self):
        (r,) = parse_program("r @ p(X) \\ q(X) <=> s(X).").rules
        assert len(r.propagated) == 1 and len(r.simplified) == 1

    def test_parse_error_location(self):
        with pytest.raises(ParseError) as exc:
            parse_program("r @ p(X \\ q(X)")
        assert exc.value.line == 1

    def test_unknown_reduce_function_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown reduce function 'foo': expected one of min, max, sum, count") as exc:
            parse_program("r @ p(X) <=> q(reduce(foo, 0, X)).")
        assert (exc.value.line, exc.value.col) == (1, 23)

    def test_scope_error_on_check(self):
        with pytest.raises(ScopeError):
            parse_program("r @ p(X) <=> q(Z).")

    def test_guard_and_bind(self):
        (r,) = parse_program("r @ p(X) <=> Es = [X], W = reduce(sum, 0, Es), X > 0 | q(W).").rules
        binds = [c for c in (r.guard.items if hasattr(r.guard, "items") else [r.guard])]
        assert any(isinstance(c, Bind) for c in binds)

    def test_head_var_equation_is_a_check_not_a_bind(self):
        (r,) = parse_program("r @ p(X), q(Y) <=> X = Y | s(X).").rules
        assert isinstance(r.guard, Rel)

    def test_comprehension_guard_equation_passes_the_checker(self):
        # The parser keeps a head comprehension's `X = 1` as a Bind;
        # `normalize_rule` makes it a test (tests/test_rules.py).
        (r,) = parse_program("r @ a(Y), {b(X) | X = 1}#{X in Xs} <=> c(Xs).").rules
        assert r.heads[1].guard == Bind(("X",), Int(1))

    def test_empty_body_keyword(self):
        (r,) = parse_program("r @ p(X) <=> true.").rules
        assert r.body == ()

    def test_comments(self):
        p = parse_program("% a comment\nr @ p(X) <=> true. % trailing\n")
        assert len(p.rules) == 1


class TestTerms:
    def test_term_spellings(self):
        (r,) = parse_program(
            "r @ p(X) <=> Ms = [1, 2, (a, 3)], Cs = [X | Ms], "
            "W = reduce(min, infty, [3, 1]), T = {V | V > 0}#{V in Ms} | q(W)."
        ).rules
        conj = r.guard.items
        assert conj[0].value == MSet((Int(1), Int(2), TupleTerm((Sym("a"), Int(3)))))
        assert isinstance(conj[1].value, MSetUnion)
        assert conj[2].value == Reduce("min", Inf(), MSet((Int(3), Int(1))))
        assert isinstance(conj[3].value, TermComp)

    def test_negative_numbers(self):
        (a,) = parse_store("p(-3).")
        assert a.args == (Int(-3),)

    def test_arith_precedence(self):
        (r,) = parse_program("r @ p(X) <=> W = X + 2 * 3 | q(W).").rules
        bind = r.guard
        assert bind.value.op == "+"


class TestNestingBound:
    def test_deep_parentheses_are_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting deeper than") as info:
            parse_store("p(" + "(" * 3000 + "1" + ")" * 3000 + ").")
        assert (info.value.line, info.value.col) == (1, 3 + MAX_NESTING)

    def test_deep_unary_minus_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting deeper than") as info:
            parse_store("p(\n" + "-" * 5000 + "1).")
        assert (info.value.line, info.value.col) == (2, MAX_NESTING + 1)

    def test_long_operator_chain_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_program("r @ p(X) <=> q(" + "+".join(["X"] * 3000) + ").")

    def test_deepest_accepted_terms_stay_recursion_safe(self):
        (sums,) = parse_program("r @ p(X) <=> q(" + "+".join(["X"] * MAX_NESTING) + ").").rules
        (nested,) = parse_store("p(" + "[" * (MAX_NESTING - 1) + "1" + "]" * (MAX_NESTING - 1) + ").")
        (negated,) = parse_program("r @ p(X) <=> q(" + "-" * (MAX_NESTING - 1) + "X).").rules
        for t in (sums.body[0].args[0], nested.args[0], negated.body[0].args[0]):
            assert term_key(t) and eval_term(t, {"X": Int(1)}) is not None
        assert isinstance(sums.body[0].args[0], PrimApp)


class TestParseStore:
    def test_basic(self):
        st = parse_store("data(a,7), data(a,3), swap(a,b,5).")
        assert len(st) == 3
        assert st[0] == Atom("data", (Sym("a"), Int(7)))

    def test_empty(self):
        assert parse_store("") == ()

    def test_non_ground_rejected(self):
        with pytest.raises(NonGroundError):
            parse_store("data(X, 1).")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("p(1 + a), q(X).", TermTypeError, "<input>:1:1: + expects two integers, got 1, a"),
            ("q(X), p(1 + a).", NonGroundError, "<input>:1:1: store constraint q(X) is not ground"),
        ],
    )
    def test_first_bad_atom_in_text_order(self, text, error, message):
        """Each atom that is not literal is checked once, in text order: the
        first one that fails is reported, whatever kind its error is."""
        with pytest.raises(error) as info:
            parse_store(text)
        assert str(info.value) == message

    def test_literal_store_is_not_grounded_again(self, monkeypatch):
        """A store of literal atoms, the 401 of a `pivot_swap` store with 200
        data per agent, is ground and normal as parsed: no term of it is
        searched for variables or normalized."""
        rng = random.Random(0)
        data = [f"data({a}, {rng.randrange(1000)})" for a in "ab" for _ in range(200)]
        text = ", ".join(data + ["swap(a, b, 500)"]) + "."
        expected = parse_store(text)

        def refuse(*args):
            raise AssertionError("a literal atom was grounded again")

        for module in [m for name, m in sys.modules.items() if name.startswith("chrcp")]:
            for name in ("normalize", "term_vars"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert parse_store(text) == expected and len(expected) == 401
        with pytest.raises(AssertionError, match="grounded again"):
            parse_store("p(1 + 2).")  # the spies are live
        monkeypatch.undo()
        assert parse_store("p(1+2).") == (Atom("p", (Int(3),)),)
        assert parse_store("p([3, 1]).") == (Atom("p", (MSet((Int(1), Int(3))),)),)


class TestRoundTrip:
    def test_corpus_round_trips(self):
        from chrcp import corpus_program
        from chrcp.bundled import PROGRAMS

        for name in PROGRAMS:
            p = corpus_program(name)
            assert parse_program(pretty_program(p)) == p, name

    def test_generated_programs_round_trip(self):
        for seed in range(40):
            p, init = generate_random(seed)
            text = pretty_program(p)
            assert parse_program(text, check=False) == p, f"seed {seed}\n{text}"

    def test_store_round_trips(self, pivot_store):
        assert parse_store(pretty_store(pivot_store)) == pivot_store


# Every character the grammar uses (docs/grammar.md), and its multi-character
# tokens, so random text reaches past the first token now and then.
GRAMMAR_CHARS = "aqzAXY_019 \n%@\\<=>!+-*,.|#(){}[]"
GRAMMAR_TOKENS = (
    "p", "q(", "X", "Ys", "_", "0", "12", "@", "\\", "<=>", "==>", "|", ",", ".",
    "(", ")", "{", "}", "[", "]", "#", " in ", "true", "false", "infty", "=",
    "!=", "<", "<=", ">", ">=", "+", "-", "*", "min(", "max(", "reduce(", "% c\n",
)
CORPUS_TEXTS = tuple(
    corpus_path(name, kind).read_text()
    for names, kind in ((PROGRAMS, "program"), (STORES, "store"))
    for name in names
)


def parses_or_raises_chrcp_error(text: str) -> None:
    """Any other exception escapes the test and fails it."""
    for parse in (parse_program, parse_store):
        try:
            parse(text)
        except ChrcpError:
            pass


class TestParserProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet=GRAMMAR_CHARS, max_size=60)
        | st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=30).map("".join)
    )
    def test_random_text(self, text):
        parses_or_raises_chrcp_error(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(CORPUS_TEXTS),
        st.integers(min_value=0),
        st.sampled_from(("delete", "insert", "replace")),
        st.sampled_from(GRAMMAR_CHARS),
    )
    def test_corpus_mutations(self, text, at, op, char):
        at %= len(text) + 1
        tail = text[at + 1 :] if op != "insert" else text[at:]
        parses_or_raises_chrcp_error(text[:at] + ("" if op == "delete" else char) + tail)


def lexed(text: str):
    """(kind, text, line, column) of every token of `tokenize`, or its
    `ParseError` as (message, line, column)."""
    try:
        return [(t.kind, t.text, *position(text, t.offset)) for t in tokenize(text)]
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def reference_lexed(text: str):
    try:
        return reference_tokenize(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


class TestLexerAgainstReference:
    """The one-pass lexer gives every token, with the line and column it
    computes from the token's offset, or the error, that the reference
    lexer gives."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet=GRAMMAR_CHARS, max_size=60)
        | st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=30).map("".join)
        | st.text(max_size=30)
    )
    def test_random_text(self, text):
        assert lexed(text) == reference_lexed(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(CORPUS_TEXTS),
        st.integers(min_value=0),
        st.sampled_from(("delete", "insert", "replace")),
        st.sampled_from(GRAMMAR_CHARS + "$\t\u00a0\u0661"),
    )
    def test_corpus_mutations(self, text, at, op, char):
        at %= len(text) + 1
        tail = text[at + 1 :] if op != "insert" else text[at:]
        text = text[:at] + ("" if op == "delete" else char) + tail
        assert lexed(text) == reference_lexed(text)

    @pytest.mark.parametrize(
        "name, kind", [(name, kind) for names, kind in ((PROGRAMS, "program"), (STORES, "store")) for name in names]
    )
    def test_corpus_file(self, name, kind):
        text = corpus_path(name, kind).read_text()
        assert lexed(text) == reference_lexed(text)
