"""Concrete syntax: lexer, parser and pretty printer.

Grammar sketch (full EBNF in docs/grammar.md):

    rule     ::= name '@' heads ('\\' heads)? ('<=>' | '==>') [guard '|'] body '.'
    pattern  ::= atom | '{' atom ['|' guard] '}' '#' '{' binders 'in' term '}'
    guard    ::= conjunct (',' conjunct)*
    term     ::= arithmetic over ints/vars/syms, tuples '(a, b)',
                 multisets '[a, b]' and '[x | Rest]', 'infty',
                 'reduce(fn, unit, m)', term comprehensions '{t | g}#{x in m}'

Variables start upper-case, symbols and predicates lower-case; '%' comments
run to end of line. Stores are comma-separated ground atoms ending in '.'.

The lexer reads the text in one pass of one pattern, and each token keeps
only its offset: a line and column are computed from it when an error is
raised. One parser serves programs and stores. A term argument that is a
lone integer or symbol is built without the descent through the operator
levels, and a store atom whose arguments are all literals is ground and
normal as parsed; any other store atom is checked and normalized, and an
error there names the atom's `path:line:col`.
"""

from __future__ import annotations

import re
from pathlib import Path

from .errors import ChrcpError, NonGroundError, ParseError, RebindError, ScopeError, TermTypeError
from .rules import (
    Atom,
    Comprehension,
    Pattern,
    Program,
    Rule,
    check_program,
    classify_binds,
    ground_atom,
    is_literal_atom,
    patterns_free_vars,
)
from .terms import (
    Bind,
    Bool,
    ConjComp,
    GTrue,
    GUARD_TRUE,
    Guard,
    Inf,
    Int,
    MSet,
    MSetUnion,
    PrimApp,
    REDUCE_FNS,
    Reduce,
    Rel,
    Sym,
    Term,
    TermComp,
    TupleTerm,
    Var,
    conj,
    pretty_binders,
    pretty_guard,
    pretty_term,
)


KEYWORDS = {"in", "true", "false", "infty", "reduce"}

# Deepest term or guard nesting accepted; every operator, unary minus, bracket
# and guard is a level. It keeps the recursive passes over accepted terms far
# inside the interpreter's recursion limit.
MAX_NESTING = 100

# One match per token: the whitespace and comments before it, then the
# token. `eof` matches at the end of the text, and `bad` at any character
# that starts no token, so consecutive matches cover the text without gaps
# and the leading skip is never backtracked into.
_TOKEN_RE = re.compile(
    r"""(?:\s+|%[^\n]*)*
      (?:
        (?P<int>\d+)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<sym>[a-z][A-Za-z0-9_]*)
      | (?P<punct><=>|==>|!=|<=|>=|\\|@|\||\#|\{|\}|\(|\)|\[|\]|,|\.|=|<|>|\+|-|\*)
      | (?P<eof>\Z)
      | (?P<bad>.)
      )
    """,
    re.VERBOSE,
)


class Token:
    """One token: its kind (int | var | sym | keyword | punct | eof), its
    text, and the offset of its first character in the source."""

    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind, self.text, self.offset = kind, text, offset


def position(text: str, offset: int) -> tuple[int, int]:
    """The (line, column) of `offset` in `text`, both counted from 1; a
    column counts characters."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str, path: str = "<input>") -> list[Token]:
    """The tokens of `text`, ending in one `eof` token; `ParseError` at the
    first character that starts no token."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        chunk = m[kind]
        offset = m.end() - len(chunk)
        if kind == "sym" and chunk in KEYWORDS:
            kind = "keyword"
        elif kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", *position(text, offset), path)
        tokens.append(Token(kind, chunk, offset))
        if kind == "eof":  # text ending in a skip matches `eof` twice
            break
    return tokens


# The tokens that can follow a term argument that is a lone literal.
_LITERAL_END = frozenset((",", ")", "]", "}", "|", "."))


class _Parser:
    def __init__(self, text: str, path: str):
        self.text = text
        self.tokens = tokenize(text, path)
        self.pos = 0  # never past the `eof` token
        self.path = path
        self.depth = 0

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("punct", "keyword")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            self.fail(f"expected {text!r}, found {t.text!r}" if t.text else f"expected {text!r}")
        return self.next()

    def fail(self, message: str):
        raise ParseError(message, *position(self.text, self.peek().offset), self.path)

    def descend(self) -> None:  # callers restore `depth` on return
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")

    # -- programs

    def parse_program(self) -> Program:
        rules: list[Rule] = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule())
        return Program(tuple(rules))

    def parse_rule(self) -> Rule:
        name_tok = self.peek()
        if name_tok.kind != "sym":
            self.fail("expected a rule name")
        name = self.next().text
        self.expect("@")
        first = self.parse_pattern_list()
        second: list[Pattern] | None = None
        if self.accept("\\"):
            second = self.parse_pattern_list()
        if self.accept("<=>"):
            arrow = "<=>"
        elif self.accept("==>"):
            arrow = "==>"
        else:
            self.fail("expected '<=>' or '==>'")
        if arrow == "==>":
            if second is not None:
                self.fail("'\\' cannot be used with a propagation arrow")
            propagated, simplified = tuple(first), ()
        elif second is not None:
            propagated, simplified = tuple(first), tuple(second)
        else:
            propagated, simplified = (), tuple(first)

        guard = GUARD_TRUE
        if self.guard_ahead():
            guard = self.parse_guard()
            self.expect("|")
        body = self.parse_body()
        self.expect(".")
        guard = classify_binds(guard, patterns_free_vars(propagated + simplified))
        return Rule(name, propagated, simplified, guard, tuple(body))

    def guard_ahead(self) -> bool:
        """Is there a top-level '|' before the terminating '.'?"""
        depth = 0
        i = self.pos
        while i < len(self.tokens):
            t = self.tokens[i]
            if t.kind == "punct":
                if t.text in "([{":
                    depth += 1
                elif t.text in ")]}":
                    depth -= 1
                elif t.text == "|" and depth == 0:
                    return True
                elif t.text == "." and depth == 0:
                    return False
            if t.kind == "eof":
                return False
            i += 1
        return False

    def parse_pattern_list(self) -> list[Pattern]:
        out = [self.parse_pattern()]
        while self.accept(","):
            out.append(self.parse_pattern())
        return out

    def parse_pattern(self) -> Pattern:
        if self.at("{"):
            return self.parse_comprehension()
        return self.parse_atom()

    def parse_atom(self) -> Atom:
        t = self.peek()
        if t.kind != "sym":
            self.fail("expected a predicate name")
        pred = self.next().text
        args: list[Term] = []
        if self.accept("("):
            if not self.at(")"):
                args.append(self.parse_term())
                while self.accept(","):
                    args.append(self.parse_term())
            self.expect(")")
        return Atom(pred, tuple(args))

    def parse_comprehension(self) -> Comprehension:
        self.expect("{")
        atom = self.parse_atom()
        guard = GUARD_TRUE
        if self.accept("|"):
            guard = self.parse_guard()
        self.expect("}")
        binders, domain = self.parse_binder_clause()
        return Comprehension(atom, guard, binders, domain)

    def parse_binder_clause(self) -> tuple[tuple[str, ...], Term]:
        self.expect("#")
        self.expect("{")
        binders = [self.parse_var_name()]
        while self.accept(","):
            binders.append(self.parse_var_name())
        self.expect("in")
        domain = self.parse_term()
        self.expect("}")
        return tuple(binders), domain

    def parse_var_name(self) -> str:
        t = self.peek()
        if t.kind != "var":
            self.fail("expected a variable")
        return self.next().text

    def parse_body(self) -> list[Pattern]:
        if self.peek().kind == "keyword" and self.peek().text == "true":
            self.next()
            return []
        return self.parse_pattern_list()

    # -- guards

    def parse_guard(self) -> Guard:
        depth = self.depth
        self.descend()
        items = [self.parse_guard_conjunct()]
        while self.accept(","):
            items.append(self.parse_guard_conjunct())
        self.depth = depth
        return conj(*items)

    def parse_guard_conjunct(self) -> Guard:
        if self.at("{"):
            # Distinguish a conjunctive comprehension from a term
            # comprehension on the left of a relation by looking at what
            # follows the closing brace pair: a relation means term context.
            save = self.pos, self.depth
            try:
                g = self.parse_conj_comp()
                if self.peek().kind == "punct" and self.peek().text in (
                    "=", "!=", "<", "<=", ">", ">=",
                ) or (self.peek().kind == "keyword" and self.peek().text == "in"):
                    self.pos, self.depth = save
                else:
                    return g
            except ParseError:
                self.pos, self.depth = save
        if self.peek().kind == "keyword" and self.peek().text == "true":
            self.next()
            return GUARD_TRUE
        lhs = self.parse_term()
        t = self.peek()
        rel = None
        if t.kind == "punct" and t.text in ("=", "!=", "<", "<=", ">", ">="):
            rel = self.next().text
        elif t.kind == "keyword" and t.text == "in":
            self.next()
            rel = "in"
        if rel is None:
            self.fail("expected a relation in guard")
        rhs = self.parse_term()
        if rel == "=":
            names = _var_tuple_names(lhs)
            if names is not None:
                return Bind(names, rhs)
        return Rel(rel, lhs, rhs)

    def parse_conj_comp(self) -> ConjComp:
        self.expect("{")
        body = self.parse_guard()
        self.expect("}")
        binders, domain = self.parse_binder_clause()
        return ConjComp(binders, domain, body)

    # -- terms

    def parse_term(self) -> Term:
        t = self.tokens[self.pos]
        if (
            (t.kind == "int" or t.kind == "sym")
            and self.tokens[self.pos + 1].text in _LITERAL_END
            and self.depth < MAX_NESTING
        ):
            # A lone integer or symbol: what the descent below builds for it,
            # short of the level it would add, which `descend` would reject.
            self.pos += 1
            return Int(int(t.text)) if t.kind == "int" else Sym(t.text)
        depth = self.depth
        self.descend()
        t = self.parse_mult()
        while self.at("+") or self.at("-"):
            op = self.next().text
            self.descend()
            t = PrimApp(op, (t, self.parse_mult()))
        self.depth = depth
        return t

    def parse_mult(self) -> Term:
        depth = self.depth
        t = self.parse_unary()
        while self.at("*"):
            self.next()
            self.descend()
            t = PrimApp("*", (t, self.parse_unary()))
        self.depth = depth
        return t

    def parse_unary(self) -> Term:
        if self.at("-"):
            self.next()
            self.descend()
            inner = self.parse_unary()
            self.depth -= 1
            if isinstance(inner, Int):
                return Int(-inner.value)
            return PrimApp("-", (Int(0), inner))
        return self.parse_primary()

    def parse_primary(self) -> Term:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Int(int(t.text))
        if t.kind == "var":
            self.next()
            return Var(t.text)
        if t.kind == "keyword":
            if t.text == "infty":
                self.next()
                return Inf()
            if t.text == "true":
                self.next()
                return Bool(True)
            if t.text == "false":
                self.next()
                return Bool(False)
            if t.text == "reduce":
                self.next()
                self.expect("(")
                fn_tok = self.peek()
                if fn_tok.kind != "sym":
                    self.fail("expected a reduce function name")
                if fn_tok.text not in REDUCE_FNS:
                    self.fail(f"unknown reduce function {fn_tok.text!r}: expected one of {', '.join(REDUCE_FNS)}")
                fn = self.next().text
                self.expect(",")
                unit = self.parse_term()
                self.expect(",")
                domain = self.parse_term()
                self.expect(")")
                return Reduce(fn, unit, domain)
            self.fail(f"unexpected keyword {t.text!r} in term")
        if t.kind == "sym":
            if t.text in ("min", "max") and self.tokens[self.pos + 1].text == "(":
                op = self.next().text
                self.expect("(")
                a = self.parse_term()
                self.expect(",")
                b = self.parse_term()
                self.expect(")")
                return PrimApp(op, (a, b))
            self.next()
            return Sym(t.text)
        if self.accept("("):
            items = [self.parse_term()]
            while self.accept(","):
                items.append(self.parse_term())
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return TupleTerm(tuple(items))
        if self.accept("["):
            items: list[Term] = []
            rest: Term | None = None
            if not self.at("]"):
                if not self.at("|"):
                    items.append(self.parse_term())
                    while self.accept(","):
                        items.append(self.parse_term())
                if self.accept("|"):
                    rest = self.parse_term()
            self.expect("]")
            literal = MSet(tuple(items))
            if rest is None:
                return literal
            return MSetUnion(literal, rest)
        if self.at("{"):
            self.next()
            template = self.parse_term()
            guard = GUARD_TRUE
            if self.accept("|"):
                guard = self.parse_guard()
            self.expect("}")
            binders, domain = self.parse_binder_clause()
            return TermComp(template, guard, binders, domain)
        self.fail(f"unexpected token {t.text!r}" if t.text else "unexpected end of input")
        raise AssertionError  # self.fail always raises

    # -- stores

    def parse_store(self) -> tuple[Atom, ...]:
        """The store's atoms, ground and normal. A literal atom is so as
        parsed; the others are checked and normalized after the whole text
        has parsed, one at a time in text order, and the first that fails
        names its position in the error."""
        atoms: list[Atom] = []
        others: list[tuple[int, int]] = []  # (index, offset) of each atom not literal
        if self.peek().kind != "eof" and not self.at("."):
            while True:
                offset = self.peek().offset
                atom = self.parse_atom()
                if not is_literal_atom(atom):
                    others.append((len(atoms), offset))
                atoms.append(atom)
                if not self.accept(","):
                    break
        self.accept(".")
        if self.peek().kind != "eof":
            self.fail("trailing input after store")
        for i, offset in others:
            try:
                if atoms[i].free_vars():
                    raise NonGroundError(f"store constraint {pretty_pattern(atoms[i])} is not ground")
                atoms[i] = ground_atom(atoms[i])
            except (TermTypeError, NonGroundError, RebindError) as exc:
                raise type(exc)(f"{self.where(offset)}: {exc}") from None
        return tuple(atoms)

    def where(self, offset: int) -> str:
        """`path:line:col` of `offset`, the prefix of every located error."""
        return "{}:{}:{}".format(self.path, *position(self.text, offset))


def _var_tuple_names(t: Term) -> tuple[str, ...] | None:
    """Names when the term is a bare variable or tuple of distinct variables."""
    if isinstance(t, Var):
        return (t.name,)
    if isinstance(t, TupleTerm) and all(isinstance(i, Var) for i in t.items):
        names = tuple(i.name for i in t.items)  # type: ignore[union-attr]
        if len(set(names)) == len(names):
            return names
    return None


# ---------------------------------------------------------------------------
# Entry points


def parse_program(text: str, path: str = "<input>", check: bool = True) -> Program:
    parser = _Parser(text, path)
    program = parser.parse_program()
    if check:
        diagnostics = check_program(program)
        if diagnostics:
            raise ScopeError(diagnostics)
    return program


def parse_store(text: str, path: str = "<input>") -> tuple[Atom, ...]:
    parser = _Parser(text, path)
    return parser.parse_store()


def load_source(path: str | Path, kind: str) -> str:
    """The UTF-8 text of a file; `kind` ("program" or "store") names it in errors."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ChrcpError(f"{p}: cannot read {kind}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ChrcpError(f"{p}: {kind} is not UTF-8 text (byte {exc.start})") from None


def load_program(path: str | Path) -> Program:
    return parse_program(load_source(path, "program"), str(Path(path)))


def load_store(path: str | Path) -> tuple[Atom, ...]:
    return parse_store(load_source(path, "store"), str(Path(path)))


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through the parser)


def pretty_pattern(p: Pattern) -> str:
    if isinstance(p, Atom):
        if not p.args:
            return p.pred
        return p.pred + "(" + ", ".join(pretty_term(a) for a in p.args) + ")"
    inner = pretty_pattern(p.atom)
    if not isinstance(p.guard, GTrue):
        inner += " | " + pretty_guard(p.guard)
    return "{" + inner + "}" + pretty_binders(p.binders, p.domain)


def pretty_rule(r: Rule) -> str:
    if r.is_propagation:
        heads = ", ".join(pretty_pattern(p) for p in r.propagated)
        arrow = "==>"
    elif r.propagated:
        heads = (
            ", ".join(pretty_pattern(p) for p in r.propagated)
            + " \\ "
            + ", ".join(pretty_pattern(p) for p in r.simplified)
        )
        arrow = "<=>"
    else:
        heads = ", ".join(pretty_pattern(p) for p in r.simplified)
        arrow = "<=>"
    guard = "" if isinstance(r.guard, GTrue) else pretty_guard(r.guard) + " | "
    body = ", ".join(pretty_pattern(p) for p in r.body) if r.body else "true"
    return f"{r.name} @ {heads} {arrow} {guard}{body}."


def pretty_program(p: Program) -> str:
    return "\n".join(pretty_rule(r) for r in p.rules) + ("\n" if p.rules else "")


def pretty_store(atoms) -> str:
    atoms = tuple(atoms)
    if not atoms:
        return ""
    return ", ".join(pretty_pattern(a) for a in atoms) + "."
