"""Exception types shared across the package."""

from __future__ import annotations

import sys
from contextlib import contextmanager


class ChrcpError(Exception):
    """Base class for all errors raised by this package."""


class NonGroundError(ChrcpError):
    """A free variable survived where a ground value was required."""


class TermTypeError(ChrcpError):
    """An operator met an argument outside its domain."""


class RebindError(ChrcpError):
    """A guard equation tried to re-bind an already bound variable."""


class ScopeError(ChrcpError):
    """A program failed its well-formedness checks."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        detail = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"ill-formed program: {detail}")


class BudgetError(ChrcpError):
    """A configured search bound was exceeded."""


class ParseError(ChrcpError):
    def __init__(self, message: str, line: int, col: int, path: str = "<input>"):
        self.line = line
        self.col = col
        self.path = path
        super().__init__(f"{path}:{line}:{col}: {message}")


@contextmanager
def recursion_guard():
    """Turn a `RecursionError` raised in the block, e.g. by comparing terms
    that a run nested ever deeper, into a `ChrcpError` that names the
    interpreter's recursion limit."""
    try:
        yield
    except RecursionError:
        limit = sys.getrecursionlimit()
        raise ChrcpError(f"nesting exceeds the interpreter's recursion limit ({limit})") from None
