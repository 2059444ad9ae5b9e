"""Every name a module of ``src/powerdex`` imports is used in that module.

Stdlib only.  An import whose first line carries ``# noqa: F401`` is
exempt (a re-export), and so is ``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "powerdex"
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            # ``import a.b`` binds ``a``
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and every string listed in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}"
            for name, line in imported_names(tree, source.splitlines())
            if name not in used]


def test_the_scan_sees_the_package():
    assert SRC / "evaluables.py" in MODULES


def test_the_scan_flags_an_unused_import_and_honours_the_exemptions():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Callable, Sequence\n"
              "from json import (dumps,  # noqa: F401\n"
              "                  loads)\n"
              "def f(x: Sequence) -> None:\n"
              "    return os.getcwd()\n")
    assert unused_imports(source) == ["line 3: Callable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
