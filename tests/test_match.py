import gc
import random

import pytest

from chrcp import corpus_program, corpus_store, match
from chrcp.errors import ChrcpError, NonGroundError, RebindError, TermTypeError
from chrcp.fuzz import generate_random
from chrcp.machine import annotate, run_operational
from chrcp.match import (
    enumerate_matches,
    matches_exactly,
    residual_non_match,
    subsumes,
)
from chrcp.parse import parse_program, parse_store
from chrcp.rules import Atom, Comprehension, Rule, comp_filter, normalize_rule
from chrcp.soundness import ABSTRACT, check_soundness, correspondence
from chrcp.terms import Bind, GTrue, Int, Rel, Substitution, Sym, Var, conj, mset

from oracles import _subsumed, labeled, oracle_match_keys, production_match_keys, substitute


def atom(text):
    return parse_store(text + ".")[0]


def comp(pattern_text):
    # parse a single-head rule to reuse the comprehension syntax
    (r,) = parse_program(f"r @ {pattern_text} <=> true.", check=False).rules
    return r.heads[0]


class TestMatchesExactly:
    def test_singleton_comprehension(self):
        c = Comprehension(Atom("data", (Sym("a"), Var("D"))), GTrue(), ("D",), mset(Int(7)))
        assert matches_exactly([c], [atom("data(a,7)")])

    def test_empty_domain_empty_store(self):
        c = Comprehension(Atom("data", (Sym("a"), Var("D"))), GTrue(), ("D",), mset())
        assert matches_exactly([c], [])
        assert not matches_exactly([c], [atom("data(a,7)")])

    def test_atom_must_consume_exactly(self):
        assert matches_exactly([atom("p(1)")], [atom("p(1)")])
        assert not matches_exactly([atom("p(1)")], [atom("p(1)"), atom("p(1)")])

    def test_failing_guard_element_blocks_match(self):
        c = Comprehension(
            Atom("p", (Var("D"),)), Rel(">", Var("D"), Int(0)), ("D",), mset(Int(1), Int(-1))
        )
        assert not matches_exactly([c], [atom("p(1)"), atom("p(-1)")])


class TestSubsumes:
    def setup_method(self):
        self.pattern = Comprehension(
            Atom("data", (Sym("a"), Var("D"))), Rel(">=", Var("D"), Int(5)), ("D",), mset()
        )

    def test_absorbs(self):
        theta = subsumes(atom("data(a,7)"), self.pattern)
        assert theta == Substitution({"D": Int(7)})

    def test_guard_blocks(self):
        assert subsumes(atom("data(a,3)"), self.pattern) is None

    def test_predicate_mismatch(self):
        assert subsumes(atom("edge(a,b,3)"), self.pattern) is None

    def test_domain_contents_ignored(self):
        # absorption does not require membership in the current domain
        assert subsumes(atom("data(a,9)"), self.pattern) is not None


class TestResidual:
    THETA = {"X": Sym("a"), "Y": Sym("b"), "P": Int(5)}

    def residual(self, pivot_program, store):
        """The pivot rule's maximality test under THETA, read through its
        normalized heads' filters."""
        rule = normalize_rule(pivot_program.rules[0])
        return residual_non_match(rule.heads, store, self.THETA, rule.filters())

    def test_blocked_by_absorbable(self, pivot_program):
        assert self.residual(pivot_program, [atom("data(a,3)")])
        assert not self.residual(pivot_program, [atom("data(a,7)")])

    def test_empty_store_never_blocks(self, pivot_program):
        assert self.residual(pivot_program, [])

    def test_duality_with_subsumes(self, pivot_program):
        comps = [p for p in pivot_program.rules[0].heads if isinstance(p, Comprehension)]
        for a in map(atom, ("data(a,7)", "data(a,3)", "data(b,2)", "swap(a,b,5)")):
            blocked = any(_subsumed(a, m, self.THETA) for m in comps)
            assert self.residual(pivot_program, [a]) == (not blocked)


class TestEnumerate:
    def test_pivot_swap_unique_match(self, pivot_program, pivot_store):
        (r,) = pivot_program.rules
        items = list(enumerate(pivot_store))
        (m,) = enumerate_matches(r, labeled(items))
        assert m.theta["Xs"] == mset(Int(7))
        assert m.theta["Ys"] == mset(Int(2))
        assert m.theta["P"] == Int(5)

    def test_missing_atom_head_no_match(self, pivot_program):
        (r,) = pivot_program.rules
        items = list(enumerate(parse_store("data(a,7), data(b,2).")))
        assert enumerate_matches(r, labeled(items)) == []

    def test_maximality_excludes_submatches(self, relabel_program):
        (r,) = relabel_program.rules
        items = list(enumerate(parse_store("a(1), a(2).")))
        matches = enumerate_matches(r, labeled(items))
        assert len(matches) == 1
        assert matches[0].theta["Xs"] == mset(Int(1), Int(2))
        relaxed = enumerate_matches(r, labeled(items), maximal=False)
        assert {m.theta["Xs"] for m in relaxed} == {
            mset(),
            mset(Int(1)),
            mset(Int(2)),
            mset(Int(1), Int(2)),
        }

    def test_anchor_restricts_blocks(self, relabel_program):
        (r,) = relabel_program.rules
        items = list(enumerate(parse_store("a(1), a(2), b(9).")))
        anchored = enumerate_matches(r, labeled(items), anchor=(0, 1))
        assert len(anchored) == 1
        assert 1 in anchored[0].blocks[0]
        # anchoring at an id outside any possible block yields nothing
        assert enumerate_matches(r, labeled(items), anchor=(0, 2)) == []

    def test_empty_block_allowed_when_nothing_subsumable(self, pivot_program):
        (r,) = pivot_program.rules
        st = parse_store("swap(a,b,5), data(a,7).")
        (m,) = enumerate_matches(r, labeled(enumerate(st)))
        assert m.theta["Xs"] == mset(Int(7))
        assert m.theta["Ys"] == mset()

    def test_overlapping_comprehensions_enumerate_assignments(self):
        (r,) = parse_program(
            "r @ {p(X)}#{X in Xs}, {p(Y)}#{Y in Ys} <=> q(Xs, Ys)."
        ).rules
        items = list(enumerate(parse_store("p(1), p(2).")))
        matches = enumerate_matches(r, labeled(items))
        splits = {(m.theta["Xs"], m.theta["Ys"]) for m in matches}
        # every way of dividing both constraints between the two absorbers
        assert splits == {
            (mset(), mset(Int(1), Int(2))),
            (mset(Int(1)), mset(Int(2))),
            (mset(Int(2)), mset(Int(1))),
            (mset(Int(1), Int(2)), mset()),
        }

    def test_rule_var_bound_inside_comprehension(self):
        (r,) = parse_program("r @ g(X), {p(X, D)}#{D in Ds} <=> q(X, Ds).").rules
        items = list(enumerate(parse_store("g(1), g(2), p(1, 5), p(2, 6).")))
        matches = enumerate_matches(r, labeled(items))
        got = {(m.theta["X"], m.theta["Ds"]) for m in matches}
        assert got == {(Int(1), mset(Int(5))), (Int(2), mset(Int(6)))}

    def test_deterministic_order(self, relabel_program):
        (r,) = relabel_program.rules
        items = list(enumerate(parse_store("a(1), a(2).")))
        runs = [tuple(m.blocks for m in enumerate_matches(r, labeled(items), maximal=False)) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        assert list(runs[0]) == sorted(runs[0])


@pytest.fixture(scope="module")
def random_searches():
    """Every rule of `generate_random` seeds 0..199, with no anchor and
    every anchor, maximality on and off: (case, rule, store, anchor,
    relaxed, full enumeration)."""
    searches = []
    for seed in range(200):
        program, init = generate_random(seed)
        store = labeled(enumerate(init, 1))
        for rule in program.rules:
            anchors = [None] + [(h, n) for h in range(len(rule.heads)) for n, _ in store.items()]
            for relaxed in (False, True):
                for anchor in anchors:
                    full = enumerate_matches(rule, store, anchor, maximal=not relaxed)
                    searches.append(((seed, rule.name, anchor, relaxed), rule, store, anchor, relaxed, full))
    return searches


class TestNoGarbage:
    @pytest.mark.parametrize(
        "rule_text, store_text, options",
        [
            ("r @ a(X), b(X, Y) <=> c(Y).", "a(1), b(1, 2), b(1, 3).", {}),
            ("r @ a(X), b(X, Y) <=> c(Y).", "a(1), b(1, 2), b(1, 3).", {"limit": 1}),
            ("r @ a(X), b(X, Y) ==> c(Y).", "a(1), b(1, 2), b(1, 3).", {"exclude": {("never",)}}),
            ("r @ go, {a(X)}#{X in Xs} <=> l(Xs).", "go, a(1), a(2).", {}),
        ],
    )
    def test_search_leaves_no_cycle(self, rule_text, store_text, options):
        """A search frees what it built as it returns, with no reference
        cycle left for the collector."""
        (rule,) = parse_program(rule_text).rules
        store = labeled(enumerate(parse_store(store_text), 1))
        assert enumerate_matches(rule, store, **options)
        gc.collect()
        gc.disable()
        try:
            enumerate_matches(rule, store, **options)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLimit:
    def test_limit_returns_the_least_matches(self, random_searches):
        """`limit=k` is the first k of full enumeration, with and without an
        anchor and with maximality on or off."""
        longer = 0
        for case, rule, store, anchor, relaxed, full in random_searches:
            for k in (1, 2, 3):
                got = enumerate_matches(rule, store, anchor, maximal=not relaxed, limit=k)
                assert got == full[:k], case + (k,)
                longer += len(full) > k
        assert longer >= 100  # enough cases where the limit drops matches

    def test_exclude_drops_keys_before_the_limit(self, random_searches):
        """`limit=k, exclude=E` is the first k of full enumeration without
        the matches whose instance key is in E. E is a prefix of the full
        key list (the first 1 to 4 keys, all but the last, all) or one
        random subset of it. An empty E is the test above."""
        rng = random.Random(0)
        changed = 0
        for case, rule, store, anchor, relaxed, full in random_searches:
            head_vars = normalize_rule(rule).head_vars()
            keys = [m.instance_key(head_vars) for m in full]
            lengths = {1, 2, 3, 4, len(keys) - 1, len(keys)}
            subsets = [frozenset(keys[:i]) for i in sorted(lengths) if i >= 0]
            subsets.append(frozenset(key for key in keys if rng.random() < 0.5))
            for exclude in dict.fromkeys(e for e in subsets if e):
                kept = [m for m, key in zip(full, keys) if key not in exclude]
                for k in (1, 2, 3):
                    got = enumerate_matches(rule, store, anchor, maximal=not relaxed, limit=k, exclude=exclude)
                    assert got == kept[:k], case + (k, sorted(exclude))
                    changed += kept[:k] != full[:k]
        assert changed >= 100  # enough cases where the exclusion moves the result

    def test_limit_below_one_is_an_error(self, relabel_program):
        (r,) = relabel_program.rules
        with pytest.raises(ChrcpError):
            enumerate_matches(r, labeled([]), limit=0)

    def test_contested_split_validates_one_match(self, monkeypatch):
        """On the contested rule every a could go to either comprehension
        (2^12 matches); the least match puts them all in the second, and
        the bound cuts every other branch before validation."""
        validated = []
        real = match.matches_exactly

        def spy(*args):
            validated.append(1)
            return real(*args)

        monkeypatch.setattr(match, "matches_exactly", spy)
        pw = annotate(parse_program("split @ go, {a(X)}#{X in Xs}, {a(Y)}#{Y in Ys} <=> l(Xs), r(Ys)."))
        run = run_operational(pw, parse_store("go, " + ", ".join(f"a({i})" for i in range(12)) + "."))
        assert [kind for kind, _ in run.trace].count("act-simpa-1") == 1
        assert correspondence(run.state) == (atom("l([])"), atom(f"r({list(range(12))})"))
        assert len(validated) <= 2 * 12

    @pytest.mark.parametrize(
        "program, validated_per_firing",
        [
            (corpus_program("pair_prop"), 0),
            (parse_program("pairs @ p(X), p(Y), {w(Z)}#{Z in Zs} ==> q(X, Y, Zs)."), 1),
        ],
        ids=["pair_prop", "with-comprehension"],
    )
    def test_prop_validates_one_block_per_firing(self, monkeypatch, program, validated_per_firing):
        """A propagation goal's search skips its history before validation,
        and only comprehension blocks are validated. Over 16 distinct p's
        both rules fire 240 times: `pair_prop`, whose heads are atoms,
        validates nothing, and the rule with an (empty) comprehension head
        validates one block per firing. Validating a fired instance again
        would add to the count of every firing after the first."""
        validated = []
        real = match.matches_exactly

        def spy(*args):
            validated.append(1)
            return real(*args)

        monkeypatch.setattr(match, "matches_exactly", spy)
        run = run_operational(annotate(program), parse_store(", ".join(f"p({i})" for i in range(16)) + "."))
        assert [kind for kind, _ in run.trace].count("prop-prop") == 240
        assert len(validated) == 240 * validated_per_firing

    def test_prop_matches_two_atoms_per_firing(self, monkeypatch):
        """Over 16 distinct p's `pair_prop` fires 240 times from 32
        propagation goals. Each search matches the active constraint, then
        the one partner it fires with: a fired instance is skipped before
        its partner atom is matched. So 2 atom matches per firing, and 1 per
        goal for the search that finds its history complete; a search that
        solved every fired partner again would make some 2,500."""
        calls = []
        real = match._match_atom

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(match, "_match_atom", spy)
        run = run_operational(annotate(corpus_program("pair_prop")), parse_store(", ".join(f"p({i})" for i in range(16)) + "."))
        assert [kind for kind, _ in run.trace].count("prop-prop") == 240
        assert len(calls) == 2 * 240 + 32


class TestOracleEquivalence:
    def test_handpicked_cases(self):
        cases = [
            ("r @ p(X), q(X) <=> s(X).", "p(1), q(1), q(2)."),
            ("r @ {p(X) | X > 1}#{X in Xs} <=> true.", "p(1), p(2), p(3)."),
            ("r @ g(A) \\ {p(A, D)}#{D in Ds} <=> q(Ds).", "g(1), p(1, 4), p(1, 5), p(2, 6)."),
            ("r @ {p(X)}#{X in Xs}, {p(Y) | Y > 2}#{Y in Ys} <=> true.", "p(1), p(3)."),
            # comprehension guard readable only after the rule guard binds W:
            # absorption is undecidable element-by-element, so maximality has
            # to be settled by the final residual pass
            ("r @ t(N) \\ {p(D) | D >= W}#{D in Ds} <=> W = N + 1 | q(Ds).", "t(1), p(1), p(2), p(3)."),
            # ill-typed arithmetic fails the conjunct, not the search: only
            # p(5) fits, in a guard test, a guard binding and a comprehension
            ("r @ p(X) <=> X + 1 > 2 | q(X).", "p(a), p(5)."),
            ("r @ p(X) <=> Y = X + 1 | q(Y).", "p(a), p(5)."),
            ("r @ {p(X) | X + 1 > 2}#{X in Xs} <=> q(Xs).", "p(a), p(5)."),
            # a comprehension guard ill-typed once the rule is instantiated
            # (`a + 1`) absorbs nothing: the match takes an empty block
            ("r @ t(W), {p(D) | D >= W + 1}#{D in Ds} <=> q(Ds).", "t(a), p(1), p(5)."),
            ("r @ t(W) \\ {p(D) | D >= W + 1}#{D in Ds} <=> q(Ds).", "t(a), p(1), p(5)."),
            # the rule guard reads the whole domain, so only the strict solve
            # at the end of the search can reject the match
            ("r @ {p(X)}#{X in Xs} <=> reduce(count, 0, Xs) > 2 | q(Xs).", "p(1), p(2)."),
            # an atom head binds the domain first: g([1]) cannot take both p's
            ("r @ g(Xs), {p(X)}#{X in Xs} <=> true.", "g([1]), g([1, 2]), p(1), p(2)."),
            # an equation on a binder or a rule variable in a comprehension
            # guard is a test: only b(1) is absorbed
            ("r @ a(Y), {b(X) | X = 1}#{X in Xs} <=> c(Xs).", "a(1), b(1), b(2)."),
            ("r @ a(Y), {b(X) | Y = X}#{X in Xs} <=> c(Xs).", "a(1), b(1), b(2)."),
            ("r @ a(Y), {b(X) | X = Y}#{X in Xs} <=> c(Xs).", "a(1), b(1), b(2)."),
            # a binding of a fresh variable holds per element
            ("r @ go, {b(X) | Z = X + 1, Z > 2}#{X in Xs} <=> c(Xs).", "go, b(1), b(2), b(3)."),
            # a binder named like a rule variable is the comprehension's
            # own: it neither reads nor erases p's X
            ("r @ p(X), {q(X)}#{X in Xs} <=> s(X, Xs).", "p(1), q(1), q(2)."),
            ("r @ p(X), {q(X, D) | D >= X}#{X, D in Xs} <=> s(Xs).", "p(1), q(1, 0), q(1, 1), q(2, 3), q(0, 1)."),
            ("r @ p(X), {q(Y, X) | Y = X}#{X, Y in Xs} <=> s(Xs).", "p(1), q(1, 1), q(2, 2), q(1, 2)."),
            ("r @ p(X) \\ {q(X)}#{X in Xs} <=> X > 0 | s(X, Xs).", "p(1), q(1), q(2)."),
        ]
        for ptext, stext in cases:
            (rule,) = parse_program(ptext, check=False).rules
            items = list(enumerate(parse_store(stext)))
            assert production_match_keys(rule, items) == oracle_match_keys(rule, items), ptext

    def test_late_bound_comprehension_guard(self):
        (rule,) = parse_program(
            "r @ t(N) \\ {p(D) | D >= W}#{D in Ds} <=> W = N + 1 | q(Ds)."
        ).rules
        items = list(enumerate(parse_store("t(1), p(1), p(2), p(3).")))
        (m,) = enumerate_matches(rule, labeled(items))
        assert m.theta["W"] == Int(2)
        assert m.theta["Ds"] == mset(Int(2), Int(3))  # p(1) fails 1 >= 2

    def test_random_rules_match_oracle(self):
        checked = 0
        for seed in range(150):
            program, init = generate_random(seed)
            store = init[: 6]
            items = list(enumerate(store))
            for rule in program.rules:
                assert production_match_keys(rule, items) == oracle_match_keys(
                    rule, items
                ), f"seed {seed}, rule {rule.name}"
                checked += 1
        assert checked >= 150


class TestPinnedHeads:
    """Comprehension heads whose guard pins an argument position read their
    candidates from the store's argument index. The matches, maximal or
    not, with no anchor and with every (head, label) anchor, must be the
    brute-force oracle's."""

    CASES = [
        # a rule variable (`pivot_swap`): two comprehensions on one
        # predicate, each pinned by its own agent, and a third agent, c,
        # whose data no lookup holds
        (
            "r @ swap(X, Y, P), {data(X, D) | D >= P}#{D in Xs}, {data(Y, D) | D < P}#{D in Ys} <=> true.",
            "swap(a, b, 5), swap(b, a, 5), data(a, 3), data(a, 7), data(b, 2), data(b, 9), data(c, 1), data(c, 8).",
        ),
        # `A in T` with T ground (`remove_non_min`): one lookup per distinct
        # element; a T that is not a multiset leaves nothing to absorb
        (
            "r @ remove(Gs), {edge(X, Y, W) | X in Gs}#{X, Y, W in Es} <=> true.",
            "remove([a, a, b]), remove([c]), remove(5), edge(a, b, 3), edge(b, c, 1), edge(c, a, 2), edge(d, a, 4).",
        ),
        # a ground second argument; an atom with no second argument is not
        # indexed there, and one of another arity is indexed but rejected
        ("r @ go, {p(D, a)}#{D in Ds} <=> true.", "go, p(1, a), p(2, b), p(a, 3), p(a), p(4, a, 5), p(5, a)."),
        # a pinned and an unpinned comprehension contest the pinned one's items
        (
            "r @ g(X), {p(X, D)}#{D in Ds}, {p(Y, E) | E > 2}#{Y, E in Es} <=> true.",
            "g(a), p(a, 1), p(a, 3), p(b, 4), p(c, 2).",
        ),
        # a variable bound only by the rule guard pins nothing: the bucket walk
        ("r @ t(N), {p(K, D)}#{D in Ds} <=> K = N + 1 | true.", "t(1), p(2, 5), p(1, 6), p(2, 7)."),
    ]

    @pytest.mark.parametrize("maximal", [True, False], ids=["maximal", "non-maximal"])
    @pytest.mark.parametrize("ptext, stext", CASES)
    def test_pinned_heads_match_oracle(self, ptext, stext, maximal):
        (rule,) = parse_program(ptext, check=False).rules
        items = list(enumerate(parse_store(stext)))
        anchors = [None] + [(h, n) for h in range(len(rule.heads)) for n, _ in items]
        found = 0
        for anchor in anchors:
            got = production_match_keys(rule, items, maximal, anchor)
            assert got == oracle_match_keys(rule, items, maximal, anchor), (anchor, maximal)
            found += len(got)
        assert found

    def test_anchored_item_outside_its_lookup_has_no_match(self, pivot_program):
        (rule,) = pivot_program.rules
        items = list(enumerate(parse_store("swap(a, b, 5), data(a, 7), data(b, 2), data(c, 8).")))
        assert enumerate_matches(rule, labeled(items), (1, 1))  # data(a, 7) in a's lookup
        assert not enumerate_matches(rule, labeled(items), (1, 2))  # data(b, 2) is b's
        assert not enumerate_matches(rule, labeled(items), (1, 3), maximal=False)  # c's: in no lookup


class TestPlannedValidation:
    """`finish` judges each comprehension block under the match's
    substitution through the head's planned filter, substituting nothing
    into the head. Each verdict must be that of the head with the
    substitution put in (`oracles.substitute`), an error counting as a
    failed match."""

    @staticmethod
    def verdict(judge) -> bool:
        try:
            return judge()
        except (TermTypeError, NonGroundError, RebindError):
            return False

    def test_planned_verdicts_are_the_substituted_verdicts(self, monkeypatch):
        real = match.matches_exactly
        verdicts = []

        def spy(patterns, store, env=None, filters=()):
            if env is None:
                return real(patterns, store)
            got = self.verdict(lambda: real(patterns, store, env, filters))
            want = self.verdict(lambda: real([substitute(env, p) for p in patterns], store))
            assert got == want, (patterns, store, env)
            verdicts.append(got)
            return got

        monkeypatch.setattr(match, "matches_exactly", spy)
        runs = [generate_random(seed) for seed in range(200)]
        runs += [
            (parse_program("split @ go, {a(X)}#{X in Xs}, {a(Y)}#{Y in Ys} <=> l(Xs), r(Ys)."),
             parse_store("go, " + ", ".join(f"a({i})" for i in range(8)) + ".")),
            (corpus_program("pivot_swap"), corpus_store("pivot_swap")),
            (corpus_program("remove_non_min"), corpus_store("remove_non_min")),
            (parse_program("r @ a(Y), {b(X) | X = 1}#{X in Xs} <=> c(Xs)."), parse_store("a(1), b(1), b(2).")),
            (parse_program("r @ go, {b(X) | Z = X + 1, Z > 2}#{X in Xs} <=> c(Xs)."),
             parse_store("go, b(1), b(2), b(3).")),
            # a guard only the rule guard makes readable: absorption keeps
            # p(1), and validation rejects that block
            (parse_program("r @ t(N) \\ {p(D) | D >= W}#{D in Ds} <=> W = N + 1 | q(Ds)."),
             parse_store("t(1), p(1), p(2), p(3).")),
        ]
        for program, init in runs:
            run_operational(annotate(program), init, max_steps=80)
        assert verdicts.count(True) >= 100 and False in verdicts

    def test_bind_on_a_bound_variable_raises(self):
        # A Bind left in a filter on a variable the substitution binds (the
        # parser's and `normalize_rule`'s make such an equation a test).
        guard = conj(Rel("=", Var("V"), Var("X")), Bind(("Y",), Var("X")))
        c = Comprehension(Atom("b", (Var("V"),)), guard, ("X",), Var("Xs"), ("V",))
        env = {"Y": Int(1), "Xs": mset(Int(1))}
        with pytest.raises(RebindError):
            matches_exactly([c], [atom("b(1)")], env, [comp_filter(c)])


class TestGuardBind:
    def test_wrong_tuple_shape_fails_the_conjunct(self):
        (rule,) = parse_program("r @ p(X) <=> (A, B) = X | q(A).").rules
        items = list(enumerate(parse_store("p((1, 2)), p(3), p((4, 5, 6)).")))
        assert production_match_keys(rule, items) == oracle_match_keys(rule, items)
        (m,) = enumerate_matches(rule, labeled(items))
        assert m.blocks == ((0,),) and m.theta["A"] == Int(1)

    def test_rebind_raises(self):
        # The parser turns such a Bind into an equality; a hand-built rule keeps it.
        rule = Rule("r", (), (Atom("p", (Var("X"),)),), Bind(("X",), Int(1)), ())
        with pytest.raises(RebindError):
            enumerate_matches(rule, labeled(enumerate(parse_store("p(1)."))))


class TestNestedConjunctiveComprehension:
    """A guard comprehension whose body is itself a guard comprehension."""

    PROGRAM = "r @ p(X) <=> {{X > 0}#{Y in [1]}}#{Z in [1]} | q(X)."

    def final(self, store_text):
        run = run_operational(annotate(parse_program(self.PROGRAM)), parse_store(store_text))
        return correspondence(run.state)

    def test_guard_holds(self):
        assert self.final("p(1).") == (atom("q(1)"),)

    def test_guard_fails(self):
        assert self.final("p(0).") == (atom("p(0)"),)

    def test_check_passes(self):
        rep = check_soundness(parse_program(self.PROGRAM), parse_store("p(1)."))
        assert rep.ok and rep.steps == 7 and rep.counts()[ABSTRACT] == 1
