"""Every top-level import in the package modules is used (`__init__` re-exports),
every private function or method is referenced somewhere in the package,
every name the package exports is used by a demo, a test or the CLI, and
every public function or method is used by the package, a demo or the
benchmark, or else by more than one test file; exponent vectors come from
`Signature.formal_unit`, only `coeffexpr` builds a `Var` or an `App`, so
every atom is interned, no series sum is built up from `GSeries.zero`
one term at a time instead of by one `gseries.combine` call, and no loop
builds a sum one term at a time (`v = v + ...`) instead of by one
accumulation call; no package function imports, but the two printers
`CoeffExpr.__str__` and `GSeries.__str__`, whose modules the printing
modules import; no package function stores to an attribute of an object
other than `self` or the one its own `__new__` call made; every parameter
default is passed by some call and left out by another; and no package code
reads the process environment.  The statement scanner of
`statement_trace.py`, which holds the unrun statements of a traced test
run against an allow-list, is checked here on a small source."""

import ast
from pathlib import Path

import pytest

from statement_trace import compare, read_allowed, unrun_statements

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


def _functions(node, prefix=""):
    """(qualified name, node) of each function or method under node, outer
    ones first; a name is `f`, `C.m` or `f.inner`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield qual, child
            yield from _functions(child, qual + ".")


def function_level_imports(source):
    """Qualified names of each function or method in source whose own body,
    outside any function nested in it, imports."""
    return [qual for qual, fn in _functions(ast.parse(source))
            if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in _own_nodes(fn))]


def _own_nodes(fn):
    """The nodes of fn's body, not descending into nested functions or classes."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_scanner_flags_a_function_level_import():
    source = (
        "import os\n"
        "def f():\n"
        "    from .a import b\n"
        "    def inner():\n"
        "        import sys\n"
        "    return b\n"
        "def g():\n"
        "    if os.name:\n"
        "        import json\n"
        "def h():\n"
        "    def nested():\n"
        "        from . import c\n"
        "class C:\n"
        "    def __str__(self):\n"
        "        from .p import q\n"
        "    def fine(self):\n"
        "        return os\n"
    )
    assert function_level_imports(source) == ["f", "f.inner", "g", "h.nested", "C.__str__"]


def test_no_function_imports_but_the_two_printers():
    found = [(p.stem, qual) for p in sorted(PACKAGE.glob("*.py"))
             for qual in function_level_imports(p.read_text())]
    assert found == [("coeffexpr", "CoeffExpr.__str__"), ("gseries", "GSeries.__str__")]


def foreign_attribute_stores(source):
    """(qualified name, line) of each store to an attribute (`x.a = ...`,
    `x.a += ...`, a tuple or loop target) in a function or method of source
    whose object is neither `self` nor a name the same function binds to a
    `__new__` call: a function that changes an object it was handed."""
    found = []
    for qual, fn in _functions(ast.parse(source)):
        own = list(_own_nodes(fn))
        made = {t.id for n in own
                if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                and getattr(n.value.func, "attr", None) == "__new__"
                for t in n.targets if isinstance(t, ast.Name)}
        lines = {n.lineno for n in own
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                 and getattr(n.value, "id", None) not in {"self", *made}}
        found += [(qual, line) for line in sorted(lines)]
    return found


def test_scanner_flags_a_store_to_an_attribute_of_an_argument():
    source = (
        "def lower(atlas, k):\n"
        "    atlas.order = k\n"
        "    atlas.meta.order, n = k, 1\n"
        "    return atlas\n"
        "def count(report):\n"
        "    report.n += 1\n"
        "    for report.last in range(3):\n"
        "        pass\n"
        "class C:\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "    def __new__(cls, name):\n"
        "        atom = CACHE[name] = object.__new__(cls)\n"
        "        atom.name = name\n"
        "        return atom\n"
        "    def set(self, other):\n"
        "        def inner(y):\n"
        "            other.x = y\n"
        "        self.x = other.x\n"
    )
    assert foreign_attribute_stores(source) == [
        ("lower", 2), ("lower", 3), ("count", 6), ("count", 7), ("C.set.inner", 18)]


def test_no_package_function_stores_to_an_attribute_of_an_object_it_was_handed():
    # only a new object gets its fields: Var.__new__, App.__new__ and
    # Degree.from_mask set them on the object their `__new__` call made
    found = [(p.stem, qual, line) for p in sorted(PACKAGE.glob("*.py"))
             for qual, line in foreign_attribute_stores(p.read_text())]
    assert found == []


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


def direct_atom_constructions(source):
    """Lines of each call `Var(...)` or `App(...)` in source, by name or as
    an attribute (`coeffexpr.App(...)`): an atom built outside coeffexpr,
    which alone builds atoms, through `CoeffExpr.var` and `CoeffExpr.app`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in ("Var", "App"):
                found.append(node.lineno)
    return sorted(found)


def test_scanner_flags_a_direct_atom_construction():
    source = (
        "from .coeffexpr import App, CoeffExpr, Var\n"
        "def build(x):\n"
        "    a = Var('x')\n"
        "    b = coeffexpr.App('f', (0,), (x,))\n"
        "    c = CoeffExpr.app('f', [x])\n"
        "    return isinstance(a, App), repr(Var), c\n"
    )
    assert direct_atom_constructions(source) == [3, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "coeffexpr.py"],
                         ids=lambda p: p.name)
def test_atoms_are_built_only_in_coeffexpr(path):
    assert direct_atom_constructions(path.read_text()) == []


def _is_zero_series(node):
    """Whether node is a call `GSeries.zero(...)`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "zero" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "GSeries")


def zero_seeded_accumulations(source):
    """Lines of each `v = GSeries.zero(...)`, or `v = {k: GSeries.zero(...)
    for ...}`, whose v the same function then rebinds as `v = v + ...`,
    `v = v - ...`, `v[k] = v[k] +- ...` or `v += ...`: a series sum built up
    one term at a time instead of by one `gseries.combine` call."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        seeded, rebound = {}, []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(target, ast.Name) and (
                        _is_zero_series(value)
                        or isinstance(value, ast.DictComp) and _is_zero_series(value.value)):
                    seeded.setdefault(target.id, node.lineno)
                    continue
                summed = (isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub))
                          and ast.unparse(value.left) == ast.unparse(target))
            elif isinstance(node, ast.AugAssign):
                target, summed = node.target, isinstance(node.op, (ast.Add, ast.Sub))
            else:
                continue
            if isinstance(target, ast.Subscript):
                target = target.value
            if summed and isinstance(target, ast.Name):
                rebound.append((target.id, node.lineno))
        found |= {seeded[v] for v, line in rebound if v in seeded and line > seeded[v]}
    return sorted(found)


def test_scanner_flags_a_zero_seeded_accumulation():
    source = (
        "def total(sig, order, terms):\n"
        "    acc = GSeries.zero(sig, order)\n"
        "    for t in terms:\n"
        "        acc = acc + t\n"
        "    return acc\n"
        "def per_name(sig, order, names, om):\n"
        "    acc = {nm: GSeries.zero(sig, order) for nm in names}\n"
        "    for nm in names:\n"
        "        acc[nm] = acc[nm] - om[nm]\n"
        "    return acc\n"
        "def augmented(sig, order, terms):\n"
        "    out = GSeries.zero(sig, order)\n"
        "    for t in terms:\n"
        "        out += t\n"
        "    return out\n"
        "def fine(sig, order, terms):\n"
        "    zero = GSeries.zero(sig, order)\n"
        "    out = combine(sig, order, [(t, 1) for t in terms])\n"
        "    count = 0\n"
        "    count = count + 1\n"
        "    zero = out - zero\n"
        "    scaled = GSeries.zero(sig, order)\n"
        "    scaled = scaled * 2\n"
        "    return zero, scaled, count\n"
    )
    assert zero_seeded_accumulations(source) == [2, 7, 12]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_series_sums_go_through_combine(path):
    assert zero_seeded_accumulations(path.read_text()) == []


def loop_accumulations(source):
    """Lines of each `v = v + ...` or `v = v - ...` (also as a branch of a
    conditional expression) inside a `for` or `while` loop: a sum built one
    term at a time, each through a fresh canonical form, instead of by one
    `sum_of_products` or `combine` call over the collected terms."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            value, target = node.value, ast.unparse(node.targets[0])
            values = [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
            if any(isinstance(v, ast.BinOp) and isinstance(v.op, (ast.Add, ast.Sub))
                   and ast.unparse(v.left) == target for v in values):
                found.add(node.lineno)
    return sorted(found)


def test_scanner_flags_a_loop_accumulation():
    source = (
        "def parse(tz, term):\n"
        "    e = term(tz)\n"
        "    while tz.more():\n"
        "        op, t = tz.next(), term(tz)\n"
        "        e = e + t if op == '+' else e - t\n"
        "    return e\n"
        "def rule(charts, partition):\n"
        "    out = ONE\n"
        "    for u in charts:\n"
        "        out = out - partition[u]\n"
        "        out = out * 2\n"
        "        count = total + 1\n"
        "    out = out + 1\n"
        "    return out\n"
    )
    assert loop_accumulations(source) == [5, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sums_are_not_built_one_term_at_a_time_in_a_loop(path):
    assert loop_accumulations(path.read_text()) == []


def optional_parameters(source):
    """(qualified name, parameter, position) of each parameter with a default
    in source; position is where a call passes it positionally, not counting
    a method's self or cls, and None for a keyword-only one."""
    tree = ast.parse(source)
    owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(fn))
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        skip = 1 if cls and not static else 0
        qual = "%s.%s" % (cls, fn.name) if cls else fn.name
        args = fn.args.posonlyargs + fn.args.args
        for i in range(len(args) - len(fn.args.defaults), len(args)):
            found.append((qual, args[i].arg, i - skip))
        found += [(qual, a.arg, None)
                  for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def calls_made(source):
    """(callee name, positional count, has *args, keywords) of each call in
    source; the keywords hold None for **kwargs, and `cls(...)` inside a class
    is a call of that class."""
    tree = ast.parse(source)
    owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name == "cls":
                name = owner.get(id(node))
            found.append((name, len(node.args), any(isinstance(a, ast.Starred) for a in node.args),
                          {k.arg for k in node.keywords}))
    return found


def unpassed_optional_parameters(package, users):
    """(module, qualified name, parameter) of each parameter with a default in
    a `package` module ({module: text}) that no call in `users` passes, by
    position or keyword; calls match by name, and `C(...)` calls C.__init__."""
    calls = [c for text in users for c in calls_made(text)]
    found = []
    for module, text in sorted(package.items()):
        for qual, param, pos in optional_parameters(text):
            owner, _, name = qual.rpartition(".")
            callee = owner if name == "__init__" else name
            if not any(n == callee and (star or param in kws or None in kws
                                         or pos is not None and npos > pos)
                       for n, npos, star, kws in calls):
                found.append((module, qual, param))
    return found


def test_scanner_flags_an_optional_parameter_no_call_passes():
    module = (
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(a=0): pass\n"
        "class C:\n"
        "    def __init__(self, x=None, y=None): pass\n"
        "    def m(self, p=1, q=2): pass\n"
        "    @classmethod\n"
        "    def make(cls): return cls(1)\n"
        "    @staticmethod\n"
        "    def s(u=0): pass\n"
    )
    users = [module, "f(1, 2, d=4)\nC().m(5)\nobj.s(0)\ng(*args)\n"]
    assert unpassed_optional_parameters({"a": module}, users) == [
        ("a", "f", "c"), ("a", "f", "e"), ("a", "C.__init__", "y"), ("a", "C.m", "q")]


def test_every_optional_parameter_is_passed():
    package = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    users = [p.read_text() for d in ("src", "demos", "bench", "tests")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert unpassed_optional_parameters(package, users) == []


def overridden_optional_parameters(package, users):
    """(module, qualified name, parameter) of each parameter with a default in
    a `package` module ({module: text}) that some call in `users` reaches and
    every such call passes, by position or keyword: a default no call uses.
    Calls match by name as in `unpassed_optional_parameters`; a call with
    *args or **kwargs may leave the parameter out."""
    calls = [c for text in users for c in calls_made(text)]
    found = []
    for module, text in sorted(package.items()):
        for qual, param, pos in optional_parameters(text):
            owner, _, name = qual.rpartition(".")
            callee = owner if name == "__init__" else name
            passes = [not star and None not in kws
                      and (param in kws or pos is not None and npos > pos)
                      for n, npos, star, kws in calls if n == callee]
            if passes and all(passes):
                found.append((module, qual, param))
    return found


def test_scanner_flags_a_default_every_call_overrides():
    module = (
        "def f(a, b=1, c=2, *, d=3): pass\n"
        "def g(a=0): pass\n"
        "def h(a=0): pass\n"
        "class C:\n"
        "    def __init__(self, x=None, y=None): pass\n"
        "    @classmethod\n"
        "    def make(cls): return cls(1, y=2)\n"
    )
    users = [module, "f(1, 2, d=4)\nf(0, 1, 2, d=5)\ng(*args)\ng(1)\nC(3)\n"]
    assert overridden_optional_parameters({"a": module}, users) == [
        ("a", "f", "b"), ("a", "f", "d"), ("a", "C.__init__", "x")]


def test_no_default_is_overridden_by_every_call():
    package = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    users = [p.read_text() for d in ("src", "demos", "bench", "tests")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert overridden_optional_parameters(package, users) == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """(qualified name, line) of each read of the process environment in
    source: `os.environ`, `os.getenv`, either imported from os, or a name
    `environ` or `getenv`; the qualified name is that of the innermost
    function around it, or "" at module level.  Such a read is a setting
    that no call passes and no caller sees."""
    tree = ast.parse(source)
    spans = [(fn.lineno, fn.end_lineno, qual) for qual, fn in _functions(tree)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names} if node.module == "os" else set()
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        else:
            names = {getattr(node, "id", None)}
        if names & ENVIRONMENT_NAMES:
            around = [qual for first, last, qual in spans if first <= node.lineno <= last]
            found.append((around[-1] if around else "", node.lineno))
    return sorted(found)


def test_scanner_flags_an_environment_read():
    source = (
        "import os\n"
        "from os import getenv\n"
        "HOME = os.environ['HOME']\n"
        "def search_budget():\n"
        "    value = os.environ.get('Z2N_SEARCH_BUDGET')\n"
        "    return value\n"
        "class C:\n"
        "    def level(self):\n"
        "        def inner():\n"
        "            return getenv('LEVEL')\n"
        "        return os.path.join(inner(), self.environment)\n"
    )
    assert environment_reads(source) == [
        ("", 2), ("", 3), ("C.level.inner", 10), ("search_budget", 5)]


def test_no_package_code_reads_the_environment():
    found = [(p.stem, qual, line) for p in sorted(PACKAGE.glob("*.py"))
             for qual, line in environment_reads(p.read_text())]
    assert found == []


def test_statement_scanner_flags_an_unrun_statement():
    source = (
        '"""Docstring."""\n'
        "import os\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    if x:\n"
        "        return os.sep\n"
        "    return (\n"
        "        x)\n"
        "class C:\n"
        "    def m(self):\n"
        "        try:\n"
        "            pass\n"
        "        except ValueError:\n"
        "            raise\n"
    )
    unrun = unrun_statements("a.py", source, {2, 5, 8, 11, 12})
    assert unrun == [(6, ("a.py", "f", "return os.sep")), (14, ("a.py", "C.m", "raise"))]
    allowed = read_allowed(
        "# module | qualname | statement | reason\n"
        "\n"
        "a.py | C.m | raise | only when the pass fails\n"
        "a.py | <module> | import os | it ran\n"
        "a.py | f | return x | it is gone\n"
    )
    assert compare(unrun, allowed) == (
        [(6, ("a.py", "f", "return os.sep"))],
        [("a.py", "<module>", "import os"), ("a.py", "f", "return x")])
