import pytest

from chrcp.parse import parse_program, pretty_rule
from chrcp.rules import (
    Atom,
    Comprehension,
    Program,
    Rule,
    check_program,
    normalize_rule,
)
from chrcp.terms import GUARD_TRUE, Bind, Int, PrimApp, Rel, Var, conjuncts


def rule_of(text):
    return parse_program(text).rules[0]


class TestNormalizeRule:
    def test_complex_arg_moves_to_guard(self):
        r = Rule("r", (), (Atom("p", (PrimApp("+", (Var("X"), Int(1))),)), Atom("q", (Var("X"),))), GUARD_TRUE, ())
        nr = normalize_rule(r)
        (arg,) = nr.simplified[0].args
        assert isinstance(arg, Var) and arg.name not in ("X",)
        eqs = [c for c in conjuncts(nr.guard) if isinstance(c, Rel)]
        assert any(c.lhs == arg for c in eqs)

    def test_plain_variable_head_unchanged(self):
        r = rule_of("r @ p(X) <=> q(X).")
        nr = normalize_rule(r)
        assert nr.simplified == r.simplified
        assert nr.guard == r.guard

    def test_repeated_variable_renamed(self):
        r = rule_of("r @ p(X, X) <=> q(X).")
        nr = normalize_rule(r)
        a = nr.simplified[0]
        assert a.args[0] == Var("X")
        assert isinstance(a.args[1], Var) and a.args[1].name != "X"

    def test_comprehension_args_become_aux_equations(self, pivot_program):
        nr = normalize_rule(pivot_program.rules[0])
        comp = nr.simplified[1]
        assert isinstance(comp, Comprehension)
        assert len(comp.aux) == 2
        assert all(isinstance(a, Var) and a.name in comp.aux for a in comp.atom.args)
        eqs = [c for c in conjuncts(comp.guard) if isinstance(c, Rel) and c.op == "="]
        assert {c.rhs for c in eqs} >= {Var("X"), Var("D")}
        assert comp.binders == ("D",)  # collected tuple unchanged

    @pytest.mark.parametrize("guard", ["X = 1", "Y = X", "X = Y", "(X, Y) = (1, 1)"])
    def test_comprehension_equation_on_a_known_variable_is_a_test(self, guard):
        r = rule_of(f"r @ a(Y), {{b(X) | {guard}}}#{{X in Xs}} <=> c(Xs).")
        assert any(isinstance(c, Bind) for c in conjuncts(r.heads[1].guard))  # as parsed
        comp = normalize_rule(r).heads[1]
        assert not any(isinstance(c, Bind) for c in conjuncts(comp.guard))

    def test_comprehension_bind_on_a_fresh_variable_is_local(self):
        r = rule_of("r @ {b(X) | Z = X + 1, Z > 2}#{X in Xs} <=> c(Xs).")
        comp = normalize_rule(r).heads[0]
        assert [c.vars for c in conjuncts(comp.guard) if isinstance(c, Bind)] == [("Z",)]
        assert "Z" in comp.local_vars and "Z" not in comp.free_vars()

    def test_idempotent(self, pivot_program):
        nr = normalize_rule(pivot_program.rules[0])
        assert normalize_rule(nr) == nr


class TestCheckProgram:
    def test_pivot_swap_clean(self, pivot_program):
        assert check_program(pivot_program) == []

    def test_corpus_clean(self):
        from chrcp import corpus_program
        from chrcp.bundled import PROGRAMS

        for name in PROGRAMS:
            assert check_program(corpus_program(name)) == [], name

    def test_ungrounded_body(self):
        p = parse_program("r @ p(X) <=> q(Z).", check=False)
        kinds = {d.kind for d in check_program(p)}
        assert "ungrounded-body" in kinds

    def test_duplicate_rule_name(self):
        p = parse_program("r @ p(X) <=> q(X). r @ q(X) <=> p(X).", check=False)
        assert any(d.kind == "duplicate-rule-name" for d in check_program(p))

    def test_guard_bound_body_var_is_fine(self):
        p = parse_program("r @ p(X) <=> W = X + 1 | q(W).", check=False)
        assert check_program(p) == []

    def test_domain_must_be_var_in_heads(self):
        p = parse_program("r @ {a(X)}#{X in [1, 2]} <=> true.", check=False)
        assert any(d.kind == "head-domain-not-var" for d in check_program(p))

    def test_domain_var_shared_rejected(self):
        p = parse_program("r @ p(Xs), {a(X)}#{X in Xs} <=> true.", check=False)
        assert any(d.kind == "domain-var-shared" for d in check_program(p))

    def test_unanchored_head_var(self):
        # X occurs only inside the comprehension: an empty block leaves it free
        p = parse_program("r @ {a(X, D)}#{D in Ds} <=> b(X).", check=False)
        assert any(d.kind == "unanchored-var" for d in check_program(p))

    def test_empty_head(self):
        with pytest.raises(Exception):
            parse_program("r @ <=> q(1).")


def test_normalized_rule_still_well_formed(pivot_program):
    nr = normalize_rule(pivot_program.rules[0])
    assert check_program(Program((nr,))) == []
    # and it prints as parseable syntax
    assert parse_program(pretty_rule(nr), check=False).rules
