"""The package's modules form layers: each imports only from modules in
the layers below its own, so the coefficient algebras (associative)
never reach up into the cubic norm structures built on them."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "albertlab")
LAYERS = ("errors", "rng", "scalars", "poly", "linalg", "fields",
          "associative", "cubic", "tits", "isotopy", "galois", "search",
          "config", "runner", "cli")


def upward_imports(module, source):
    """(module, target) for each relative import in `source` of a module
    that is not below `module` in LAYERS."""
    rank = LAYERS.index(module)
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else \
                [alias.name for alias in node.names]
            out += [(module, t) for t in targets
                    if LAYERS.index(t.split(".")[0]) >= rank]
    return out


def test_every_module_has_a_layer():
    names = {os.path.basename(p)[:-3]
             for p in glob.glob(os.path.join(PACKAGE, "*.py"))}
    assert names - {"__init__"} == set(LAYERS)


def test_imports_point_down():
    upward = []
    for module in LAYERS:
        with open(os.path.join(PACKAGE, module + ".py")) as fh:
            upward += upward_imports(module, fh.read())
    assert upward == []
    # the scan sees both import forms
    assert upward_imports("associative", "from .cubic import x\n"
                          "from . import tits\n") == \
        [("associative", "cubic"), ("associative", "tits")]
