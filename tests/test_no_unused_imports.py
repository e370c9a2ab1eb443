"""Every name a package module imports is used in it: an import left behind
by a change is dead weight and hides which modules depend on which.
`__init__.py`, which imports to re-export, is exempt."""

import ast
from pathlib import Path

import chrcp

SOURCES = sorted(p for p in Path(chrcp.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_use_every_name_they_import():
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(SOURCES) > 10
    assert found == []
