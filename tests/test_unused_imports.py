"""Every imported name in the package modules, the tests and the tools is
read."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = sorted(
    [p for p in glob.glob(os.path.join(ROOT, "src", "albertlab", "*.py"))
     if os.path.basename(p) != "__init__.py"]
    + glob.glob(os.path.join(ROOT, "tests", "*.py"))
    + glob.glob(os.path.join(ROOT, "tools", "*.py")))


def unused_imports(source):
    """The names that `source` imports and never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.append(name)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    unused = {}
    for path in FILES:
        with open(path) as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}
