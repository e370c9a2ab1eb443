"""Invariant checks in the package must survive `python -O`, which strips
every `assert` statement, so the package has none."""

import ast
from pathlib import Path

import chrcp

SOURCES = sorted(Path(chrcp.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []
