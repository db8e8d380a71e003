"""No library code that only tests reach: every function, class and
method defined at module or class level in the package is read somewhere
in the package, the benchmark or the tools.  The benchmark's own tests
(perfbench/tests) are tests and do not count."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "albertlab", "*.py")))
READERS = PACKAGE + sorted(
    p for p in glob.glob(os.path.join(ROOT, "perfbench", "**", "*.py"),
                         recursive=True)
    if os.path.join("perfbench", "tests") not in p) + sorted(
    glob.glob(os.path.join(ROOT, "tools", "**", "*.py"), recursive=True))

# kept for the curve certificates (ROADMAP item 3), which compose maps
KEPT = {("isotopy.py", "compose")}


def definitions(source):
    """The names of the functions and classes defined at module level, and
    of the methods and classes defined in their class bodies; dunder
    methods, which Python calls itself, are left out."""
    out = []
    for node in ast.parse(source).body:
        body = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node] + body:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not (
                    d.name.startswith("__") and d.name.endswith("__")):
                out.append(d.name)
    return out


def reads(source):
    """Every name and attribute that `source` reads."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_no_library_code_only_tests_reach():
    read = set()
    for path in READERS:
        with open(path) as fh:
            read |= reads(fh.read())
    unread = []
    for path in PACKAGE:
        with open(path) as fh:
            names = definitions(fh.read())
        unread += [(os.path.basename(path), n) for n in names
                   if n not in read]
    assert sorted(set(unread) - KEPT) == []
    # the exceptions are still unread, so the scan saw the package
    assert KEPT <= set(unread)
