"""Every top-level function and class of the package, and every method, is
used: referenced in the package outside its own definition, or exported by
`__init__.py`. A definition left behind by a change with no caller is dead
weight, as an unused import is (`test_no_unused_imports.py`). Special
methods (`__eq__` and the like) are called by the language and exempt."""

import ast
from pathlib import Path

import chrcp

PACKAGE = Path(chrcp.__file__).parent
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


def references(node: ast.AST) -> list[str]:
    """The names `node` reads: bare names, attribute names, and strings
    that name one (`getattr(obj, "name")`)."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.append(n.value)
    return out


def definitions() -> list[tuple[str, ast.AST]]:
    """(module, node) for each top-level function and class and each method."""
    out = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((module, node))
            if isinstance(node, ast.ClassDef):
                out += [(module, item) for item in node.body if isinstance(item, ast.FunctionDef)]
    return out


def exported() -> set[str]:
    return {a.asname or a.name for n in TREES["__init__.py"].body if isinstance(n, ast.ImportFrom) for a in n.names}


def test_every_definition_is_used():
    everywhere: dict[str, int] = {}
    for module, tree in TREES.items():
        if module != "__init__.py":
            for name in references(tree):
                everywhere[name] = everywhere.get(name, 0) + 1
    exports = exported()
    unused = [
        f"{module}: {node.name}"
        for module, node in definitions()
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exports
        and everywhere.get(node.name, 0) == references(node).count(node.name)
    ]
    assert len(TREES) > 10
    assert unused == []
