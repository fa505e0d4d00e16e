"""Every top-level import in the package modules is used (`__init__` re-exports),
every private function or method is referenced somewhere in the package,
every name the package exports is used by a demo, a test or the CLI, and
every public function or method is used by the package, a demo or the
benchmark, or else by more than one test file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "z2nsuper"
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


def unused_exports(exports, sources):
    """The names in exports that no source imports from a z2nsuper module
    (or, inside the package, from a relative one) or reads as `z2nsuper.X`."""
    used = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "z2nsuper"
            ):
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "z2nsuper"):
                used.add(node.attr)
    return sorted(set(exports) - used)


def test_scanner_flags_an_unused_export():
    sources = [
        "from z2nsuper import a as z\nimport z2nsuper\nz2nsuper.b\n",
        "from .formats import c\nfrom other import d\ntext.e()\n",
    ]
    assert unused_exports(["e", "d", "c", "b", "a"], sources) == ["d", "e"]


def test_every_export_is_used_by_a_demo_a_test_or_the_cli():
    import z2nsuper

    users = [*ROOT.glob("demos/*.py"), *ROOT.glob("tests/*.py"), PACKAGE / "cli.py"]
    assert unused_exports(z2nsuper.__all__, [p.read_text() for p in users]) == []


def referenced_names(text):
    """The names a source reads: as a name, an attribute or an import, or as a
    string of dotted names (`getattr(m, "f")`, the tracer's "Class.method")."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def used_by_one_test_at_most(package, code, tests):
    """(module, line) of each public function or method, at the top level or
    in a class of a `package` module ({module: text}), whose name no text in
    `code` reads and at most one text in `tests` reads."""
    read = set().union(*map(referenced_names, code))
    readers = [referenced_names(text) for text in tests]
    found = []
    for module, text in sorted(package.items()):
        for node in ast.parse(text).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("_") and fn.name not in read
                        and sum(fn.name in names for names in readers) <= 1):
                    found.append((module, fn.lineno))
    return found


def test_scanner_flags_public_api_that_only_its_own_test_uses():
    package = {"a": (
        "def used(): pass\n"
        "def traced(): pass\n"
        "def tested_twice(): pass\n"
        "def tested_once(): pass\n"
        "class C:\n"
        "    def method(self): pass\n"
        "    def orphan(self): pass\n"
        "    def _private(self): pass\n"
        "    def __eq__(self, other): pass\n"
    )}
    code = ["from a import used\nused(x.method())\n", 'BIND = [("a", "C.traced")]\n']
    tests = ["from a import tested_twice, tested_once\n", "import a\na.tested_twice()\n"]
    assert used_by_one_test_at_most(package, code, tests) == [("a", 4), ("a", 7)]


def test_public_api_is_used_beyond_its_own_test():
    # the package's `__init__` only re-exports, so it is not a user
    package = {p.name: p.read_text() for p in MODULES}
    code = [*package.values(), *(p.read_text() for p in ROOT.glob("demos/*.py")),
            *(p.read_text() for p in ROOT.glob("bench/*.py"))]
    tests = [p.read_text() for p in ROOT.glob("tests/*.py")]
    assert used_by_one_test_at_most(package, code, tests) == []


def hand_built_exponent_vectors(source):
    """Lines of each `v = [0] * ... .nformal` in source whose list v the same
    function then stores into by index (`v[i] = ...`, `v[i] += ...`): an
    exponent vector built by hand instead of by `Signature.formal_unit`."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        made, stored = {}, []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
                if (len(targets) == 1 and isinstance(targets[0], ast.Name)
                        and isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult)
                        and isinstance(value.left, ast.List)
                        and isinstance(value.right, ast.Attribute)
                        and value.right.attr == "nformal"):
                    made.setdefault(targets[0].id, node.lineno)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            stored += [(t.value.id, node.lineno) for t in targets
                       if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)]
        found |= {made[v] for v, line in stored if v in made and line > made[v]}
    return sorted(found)


def test_scanner_flags_a_hand_built_exponent_vector():
    source = (
        "def unit(sig, name):\n"
        "    mu = [0] * sig.nformal\n"
        "    mu[sig.formal_index(name)] = 1\n"
        "    return tuple(mu)\n"
        "def count(self, word):\n"
        "    out = [0] * self.nformal\n"
        "    for i in word:\n"
        "        out[i] += 1\n"
        "def zeros(sig):\n"
        "    zero = [0] * sig.nformal\n"
        "    other = [0, 0]\n"
        "    other[0] = 1\n"
        "    return zero, other\n"
    )
    assert hand_built_exponent_vectors(source) == [2, 6]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "degrees.py"],
                         ids=lambda p: p.name)
def test_exponent_vectors_come_from_formal_unit(path):
    assert hand_built_exponent_vectors(path.read_text()) == []
