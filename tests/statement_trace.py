"""Run the test suite under a line trace and fail on any statement of
`src/z2nsuper` that no test runs.

    PYTHONPATH=src python tests/statement_trace.py

The trace follows only frames whose file is under `src/z2nsuper`, in every
thread.  After the suite, each statement of each package module that never
ran is listed, leaving out `def` and `class` headers and docstrings, and the
list is held against `unrun_statements.txt` beside this file.  There a line

    module | qualname | statement | reason

allows one unrun statement: `module` is the file name, `qualname` the
enclosing function or class (`<module>` at the top level), `statement` the
statement's stripped first line and `reason` why no test runs it.  Blank
lines and `#` lines are skipped.  The script exits 1 if the suite fails, if
a statement that no entry allows never ran, or if an entry is stale: its
statement ran or is gone.  Code that the tests run in a subprocess is not
traced.  This file has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "z2nsuper"
ALLOWED = Path(__file__).resolve().with_name("unrun_statements.txt")


def statements(source):
    """(qualname, lines, first line) of each statement in source, outside
    `def` and `class` headers and docstrings.  lines are the statement's own
    lines: all of a simple statement, and a compound one's header up to its
    first nested statement."""
    found = []

    def visit(body, qual):
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, node.name if qual == "<module>" else qual + "." + node.name)
                continue
            docstring = (i == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            nested = [child for field in ("body", "orelse", "handlers", "finalbody")
                      for child in getattr(node, field, [])]
            if not docstring:
                last = min([node.end_lineno] + [c.lineno - 1 for c in nested])
                found.append((qual, range(node.lineno, max(last, node.lineno) + 1),
                              source_lines[node.lineno - 1].strip()))
            for child in nested:
                # an except handler is no statement: visit its body
                visit([child] if isinstance(child, ast.stmt) else child.body, qual)

    source_lines = source.splitlines()
    visit(ast.parse(source).body, "<module>")
    return found


def unrun_statements(module, source, hits):
    """(line, key) of each statement in source that no line of hits ran; a
    key is (module, qualname, first line)."""
    return [(lines[0], (module, qual, text)) for qual, lines, text in statements(source)
            if not any(line in hits for line in lines)]


def read_allowed(text):
    """{key: reason} of the entries of an allow-list text; a key is
    (module, qualname, statement)."""
    allowed = {}
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            module, qual, rest = line.split(" | ", 2)
            statement, reason = rest.rsplit(" | ", 1)
            allowed[(module, qual, statement)] = reason
    return allowed


def compare(unrun, allowed):
    """The unrun (line, key) pairs that allowed does not list, and the keys
    of allowed that are stale: their statement ran or is gone."""
    keys = {key for _, key in unrun}
    unlisted = [(line, key) for line, key in unrun if key not in allowed]
    stale = [key for key in allowed if key not in keys]
    return unlisted, stale


def trace_suite():
    """Run the test suite with the line trace on; (pytest's exit code,
    {file path: set of lines run})."""
    prefix = str(PACKAGE) + "/"
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main():
    code, hits = trace_suite()
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        unrun += unrun_statements(path.name, path.read_text(), hits.get(str(path), set()))
    unlisted, stale = compare(unrun, read_allowed(ALLOWED.read_text()))
    for line, (module, qual, text) in unlisted:
        print("unrun statement %s:%d in %s: %s" % (module, line, qual, text))
    for module, qual, text in stale:
        print("stale entry in %s: %s | %s | %s" % (ALLOWED.name, module, qual, text))
    print("%d statements unrun, %d allowed, %d unlisted, %d stale"
          % (len(unrun), len(unrun) - len(unlisted), len(unlisted), len(stale)))
    if code != 0:
        print("the test suite failed (pytest exit code %d)" % code)
    return 1 if code != 0 or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
