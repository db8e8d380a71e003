"""JSON configuration: field towers, constructions, task lists.

Scalars appear in configs as strings ("2", "-3/5") or integers and are
parsed by the ground field, so rational coefficients survive the trip
through JSON exactly.  Field and algebra elements are coordinate arrays
in the documented bases.  See docs/schema.md for the full format.
"""

import json

from .associative import (CommutativeCubic, CyclicAlgebra, GroundCenter,
                          MatrixAlgebra, UnitaryInvolution)
from .errors import ConfigError, NotInvertible
from .fields import Elem, FieldTower, cyclic_cubic, quadratic_etale
from .scalars import PrimeField, RationalField
from . import tits, isotopy

SCHEMA_VERSION = 1


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read config: %s" % e)
    except json.JSONDecodeError as e:
        raise ConfigError("config is not valid JSON: %s" % e)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = as_int(cfg.get("schema_version", SCHEMA_VERSION),
                     "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("unsupported schema_version %r" % (version,))
    tasks = cfg.get("tasks", [])
    if not isinstance(tasks, list):
        raise ConfigError("'tasks' must be a list, got %r" % (tasks,))
    for t in tasks:
        if not isinstance(t, dict) or "task" not in t:
            raise ConfigError("each task needs a 'task' field")
        if not isinstance(t["task"], str):
            raise ConfigError("task name must be a string, got %r"
                              % (t["task"],))
    if "construction" not in cfg:
        raise ConfigError("config needs a 'construction' section")
    return cfg


# integer task fields and their least values
_TASK_COUNTS = (("budget", 0), ("corrupt_coord", 0))
SEARCH_MODES = ("random", "exhaustive")


def check_run(tasks, table, budget=None):
    """Reject what a run cannot honour before any task starts: a task name
    not in `table` (the runner's task table), a field that the task's
    entry does not list, a missing `v` (the one field without a default),
    a field of _TASK_COUNTS that is not an integer of at least its least
    value, a mode not in SEARCH_MODES and a budget override below 0."""
    for t in tasks:
        name = t["task"]
        if name not in table:
            raise ConfigError("unknown task %r" % (name,))
        fields = table[name].fields
        for key in t:
            if key != "task" and key not in fields:
                raise ConfigError("task %s reads no field %r" % (name, key))
        if "v" in fields:
            _need(t, "v", "task %s" % name)
        for key, least in _TASK_COUNTS:
            if key in t:
                at_least(t[key], least, "%s %s" % (name, key))
        if "mode" in t and t["mode"] not in SEARCH_MODES:
            raise ConfigError("%s mode must be one of %s, got %r"
                              % (name, ", ".join(SEARCH_MODES), t["mode"]))
    if budget is not None:
        at_least(budget, 0, "budget")


def _need(node, key, what):
    """node[key], or a ConfigError saying that `what` lacks it."""
    if not isinstance(node, dict) or key not in node:
        raise ConfigError("%s has no %r field" % (what, key))
    return node[key]


def _object(node, what):
    """node, or a ConfigError when it is not a JSON object."""
    if not isinstance(node, dict):
        raise ConfigError("%s must be a JSON object, got %r" % (what, node))
    return node


def as_int(value, what):
    """value when it is an integer, or a ConfigError naming `what`; JSON
    true, false, strings and numbers with a fraction or exponent part are
    refused, not converted."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError("%s must be an integer, got %r" % (what, value))


def at_least(value, least, what):
    n = as_int(value, what)
    if n < least:
        raise ConfigError("%s must be at least %d, got %d"
                          % (what, least, n))


# ---------------------------------------------------------------------------
# field towers

def ground_field(node):
    """The ground field of a `base` node: "Q" (the default) or {"p": p}."""
    if node in ("Q", "rationals", None):
        return RationalField()
    if isinstance(node, dict) and "p" in node:
        try:
            p = as_int(node["p"], "prime")
        except ConfigError:
            raise ConfigError("bad prime %r" % (node["p"],)) from None
        return PrimeField(p)
    raise ConfigError("bad base field %r (use \"Q\" or {\"p\": prime})"
                      % (node,))


def _split_flag(node):
    """A tower's `split` field: the JSON value true or false."""
    split = node.get("split", False)
    if not isinstance(split, bool):
        raise ConfigError("tower 'split' must be true or false, got %r"
                          % (split,))
    return split


def _tower_scalar(ground, value, what):
    """ground.parse(value), or a ConfigError naming `what`."""
    try:
        return ground.parse(value)
    except (ConfigError, NotInvertible) as e:
        raise ConfigError("%s: %s" % (what, e)) from None


def _coeff_list(ground, node, key, what):
    """The coefficient list node[key], parsed by the ground field."""
    value = _need(node, key, what)
    if not isinstance(value, list):
        raise ConfigError("%s %r must be a list of coefficients, got %r"
                          % (what, key, value))
    return [_tower_scalar(ground, c, "%s %s" % (what, key)) for c in value]


def tower(node):
    """The FieldTower of a tower node: K for a "quadratic" node, L for a
    "cubic" one, both for a "composite" one, over the node's `base`."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError("tower needs a 'kind'")
    ground = ground_field(node.get("base"))
    kind = node["kind"]
    if kind not in ("quadratic", "cubic", "composite"):
        raise ConfigError("unknown tower kind %r" % (kind,))
    what = "%s tower" % kind
    K = L = None
    if kind != "quadratic":
        L = cyclic_cubic(ground, _coeff_list(ground, node, "f", what),
                         _coeff_list(ground, node, "rho", what))
    if kind != "cubic":
        split = _split_flag(node)
        if split and "d" in node:
            raise ConfigError("%s: 'split': true and 'd' both name K; "
                              "give one" % what)
        d = ground.one if split else \
            _tower_scalar(ground, _need(node, "d", what), what + " d")
        K = quadratic_etale(ground, d)
    return FieldTower(ground, K, L)


# ---------------------------------------------------------------------------
# building

class BuildContext:
    """The tower, coefficient algebra and structure built from a config."""

    def __init__(self, cfg):
        """A top-level `base` next to a `tower` must name the tower's
        base."""
        node = cfg.get("tower")
        self.tower = None if node is None else tower(node)
        self.ground = ground_field(cfg.get("base"))
        if self.tower is not None:
            if "base" in cfg and self.ground != self.tower.ground:
                raise ConfigError("base %r differs from the tower's base %r"
                                  % (self.ground, self.tower.ground))
            self.ground = self.tower.ground
        self.j = self._construction(cfg["construction"])

    # -- pieces ------------------------------------------------------------

    def _construction(self, node):
        """The structure of a construction node.  A parameter that the
        construction must invert and cannot (a cyclic algebra's a, u, a
        sigma twist, an isotope's v) is a ConfigError naming the node."""
        ctype = _object(node, "construction").get("type")
        try:
            if ctype == "first_tits":
                return self._first(node)
            if ctype == "second_tits":
                return self._second(node)
            if ctype == "isotope_of":
                base = self._construction(_need(node, "base", ctype))
                return isotopy.isotope(
                    base, self._carrier_point(base, _need(node, "v", ctype)))
        except NotInvertible as e:
            what = "isotope_of v" if ctype == "isotope_of" else ctype
            raise ConfigError("%s: %s" % (what, e))
        raise ConfigError("unknown construction type %r" % (ctype,))

    def _first(self, node):
        g = self.ground
        alg_node = _object(node.get("algebra", {"kind": "matrix"}),
                           "first_tits algebra")
        kind = alg_node.get("kind")
        if kind == "matrix":
            d_alg = MatrixAlgebra(GroundCenter(g))
        elif kind == "cyclic":
            if self.tower is None or self.tower.L is None:
                raise ConfigError("cyclic algebra needs a cubic tower")
            d_alg = CyclicAlgebra(self.tower,
                                  g.parse(_need(alg_node, "a", "cyclic")))
        elif kind == "cubic_etale":
            if self.tower is None or self.tower.L is None:
                raise ConfigError("cubic etale algebra needs a cubic tower")
            d_alg = CommutativeCubic.over_L(self.tower)
        else:
            raise ConfigError("unknown first-construction algebra %r"
                              % (kind,))
        lam = g.parse(_need(node, "lambda", "first_tits"))
        return tits.first_tits(d_alg, lam)

    def _second(self, node):
        if self.tower is None or self.tower.K is None:
            raise ConfigError("second construction needs a tower with K")
        alg_node = _object(node.get("algebra", {"kind": "lk"}),
                           "second_tits algebra")
        kind = alg_node.get("kind")
        if kind == "lk":
            if self.tower.L is None:
                raise ConfigError("algebra 'lk' needs a composite tower")
            b_alg = CommutativeCubic.over_LK(self.tower)
        elif kind == "matrix":
            b_alg = MatrixAlgebra(self.tower.K)
        else:
            raise ConfigError("unknown second-construction algebra %r"
                              % (kind,))
        sigma = UnitaryInvolution(b_alg)
        u_node = node.get("u", "unit")
        if u_node == "unit":
            u = b_alg.unit()
        else:
            u = b_alg.from_k_coords(self._scalars(u_node, b_alg.k_dim))
        mu_node = _need(node, "mu", "second_tits")
        mu = Elem(self.tower.K, self._scalars(mu_node, 2))
        twist = node.get("sigma_twist")
        if twist is not None:
            try:
                sigma = sigma.twisted(
                    b_alg.from_k_coords(self._scalars(twist, b_alg.k_dim)))
            except NotInvertible as e:
                raise ConfigError("second_tits sigma_twist: %s" % e)
        try:
            return tits.second_tits(b_alg, sigma, u, mu)
        except NotInvertible as e:      # u is the one element it inverts
            raise ConfigError("second_tits u: %s" % e)

    # -- element parsing -----------------------------------------------------

    def _scalars(self, node, expect):
        g = self.ground
        if not isinstance(node, list) or len(node) != expect:
            raise ConfigError("expected %d coordinates, got %r"
                              % (expect, node))
        return [g.parse(c) for c in node]

    def _carrier_point(self, j, node):
        return tuple(self._scalars(node, j.dim))

    def carrier_point(self, node):
        return self._carrier_point(self.j, node)

    def algebra_element(self, node):
        """Element of the coefficient algebra D or B, by k-coordinates."""
        alg = self.j.meta.get("algebra")
        if alg is None:
            raise ConfigError("construction has no coefficient algebra")
        return alg.from_k_coords(self._scalars(node, alg.k_dim))
