"""Every name a package module imports is used in that module, and every
private name it defines at module level is read there.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.  Dunders are exempt from the private-name check.
"""

import ast
from pathlib import Path

import pytest

import gclstream

SRC = Path(gclstream.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom .a import b as c, d\n"
              "def f() -> d:\n    return os.sep\n")
    assert unused_imports(source) == ["c (line 3)", "sys (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def unread_private_names(source: str) -> list[str]:
    """Private names a module binds at its top level (functions, classes,
    assignments) and never reads as a name."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound.update((name.id, node.lineno) for name in ast.walk(node)
                         if isinstance(name, ast.Name)
                         and isinstance(name.ctx, ast.Store))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_the_check_sees_an_unread_private_name():
    source = ("_TILE = 64\n_ROWS, pub = 8, 1\n__dunder__ = 0\n"
              "def _helper():\n    return _ROWS\n"
              "class _Unused:\n    _attr = 1\n"
              "def api():\n    _local = 2\n    return _helper()\n")
    assert unread_private_names(source) == ["_TILE (line 1)",
                                            "_Unused (line 6)"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_private_name_is_read(module):
    assert unread_private_names((SRC / module).read_text()) == []
