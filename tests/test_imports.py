"""Every top-level import in the package modules is used (`__init__` re-exports),
and every private function or method is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "z2nsuper"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nc(os)\n") == [(2, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def orphaned_private_functions(sources):
    """(source name, line) of each private `_name` function or method defined
    in sources ({source name: text}) whose name appears nowhere else in them,
    as a name or an attribute."""
    defined, referenced = {}, set()
    for name, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.setdefault(node.name, (name, node.lineno))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(where for fn, where in defined.items() if fn not in referenced)


def test_scanner_flags_an_orphaned_private_function():
    a = (
        "def _used(): pass\n"
        "def _orphan(): pass\n"
        "class C:\n"
        "    def __init__(self): self._method()\n"
        "    def _method(self): pass\n"
        "    def _stale(self): pass\n"
    )
    b = "from a import _used\n_used()\n"
    assert orphaned_private_functions({"a": a, "b": b}) == [("a", 2), ("a", 6)]


def test_no_orphaned_private_functions():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert orphaned_private_functions(sources) == []
