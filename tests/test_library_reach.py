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
    """(name, in_class) for the functions and classes defined at module
    level (in_class False) and the methods and classes defined in their
    class bodies (in_class True); dunder methods, which Python calls
    itself, are left out."""
    out = []
    for node in ast.parse(source).body:
        body = node.body if isinstance(node, ast.ClassDef) else []
        for d, in_class in [(node, False)] + [(b, True) for b in body]:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not (
                    d.name.startswith("__") and d.name.endswith("__")):
                out.append((d.name, in_class))
    return out


def reads(source):
    """(names, attributes): the bare names and the attribute names that
    `source` reads."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def unread(defined, readers):
    """The names of the definitions in `defined` (a source) that no
    source of `readers` reads.  A module-level function or class is read
    by a bare name or an attribute of that name; a member of a class
    body only by an attribute (x.name), so that a bare name such as an
    imported module named like a method does not count."""
    names, attributes = set(), set()
    for source in readers:
        n, a = reads(source)
        names |= n
        attributes |= a
    return [n for n, in_class in definitions(defined)
            if n not in attributes and (in_class or n not in names)]


def test_no_library_code_only_tests_reach():
    readers = []
    for path in READERS:
        with open(path) as fh:
            readers.append(fh.read())
    missing = []
    for path in PACKAGE:
        with open(path) as fh:
            missing += [(os.path.basename(path), n)
                        for n in unread(fh.read(), readers)]
    assert sorted(set(missing) - KEPT) == []
    # the exceptions are still unread, so the scan saw the package
    assert KEPT <= set(missing)


def test_a_member_is_read_only_through_an_attribute():
    # a module imported under a method's name reads no method, and a bare
    # name still reads a module-level function
    defined = ("class A:\n    def random(self):\n        pass\n"
               "    def draw(self):\n        pass\n"
               "def helper():\n    pass\n")
    reader = "import random\nrandom.seed(1)\nhelper()\nA().draw()\n"
    assert unread(defined, [reader]) == ["random"]
