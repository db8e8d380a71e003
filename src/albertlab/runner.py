"""Task orchestration and deterministic report assembly.

A report is a plain dict rendered as sorted-key JSON; with a fixed
config and seed it is byte-identical across runs.  Timing fields are
only added when explicitly requested, so they never break report
comparisons.
"""

import time
from collections import namedtuple

from . import galois, isotopy, search
from .config import SCHEMA_VERSION, BuildContext, as_int, check_run
from .cubic import corrupt_sharp
from .errors import ConfigError, NotInvertible, VerificationFailure
from .poly import dump_cubic_form, dump_quad_map
from .rng import Stream


def _coords_str(g, coords):
    return [g.to_str(c) for c in coords]


def run_config(cfg, seed=None, budget=None, mode=None, timing=False,
               tasks=None):
    """Build the configured structure and execute its task list.

    Returns (report, exit_code): 0 all verification tasks passed
    (search exhaustion is not failure), 1 verification failure,
    2 config errors (raised as ConfigError for the CLI to map).
    """
    task_list = tasks if tasks is not None else cfg.get("tasks", [
        {"task": name} for name, t in TASKS.items()
        if t.command == "check" and t.default])
    check_run(cfg.get("tasks", []) + (tasks or []), TASKS, budget=budget)
    cfg_seed = as_int(cfg.get("seed", 0), "seed")
    seed = cfg_seed if seed is None else seed
    ctx = BuildContext(cfg)
    j = ctx.j
    g = j.ground
    given = {k: v for k, v in (("budget", budget), ("mode", mode))
             if v is not None}
    task_args = [_arguments(ctx, node["task"], dict(node, **given))
                 for node in task_list]

    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "label": j.label,
        "dim": j.dim,
        "ground": repr(g),
        "base_point": _coords_str(g, j.unit),
        "tasks": [],
    }
    for pos, (node, args) in enumerate(zip(task_list, task_args)):
        name = node["task"]
        t0 = time.monotonic()
        entry = {"task": name}
        tseed = Stream(seed).derive("task:%d:%s" % (pos, name)).seed
        TASKS[name].handler(ctx, args, entry, tseed, timing)
        if timing:
            entry["elapsed_s"] = round(time.monotonic() - t0, 3)
        report["tasks"].append(entry)
    failed = any(t.get("status") == "fail" for t in report["tasks"])
    report["status"] = "fail" if failed else "ok"
    return report, (1 if failed else 0)


def _arguments(ctx, name, node):
    """The task's arguments: each field of its entry that `node` (the
    task node with the given CLI overrides merged in) holds, prepared."""
    return {k: prep(ctx, name, node[k]) if prep else node[k]
            for k, prep in TASKS[name].fields.items() if k in node}


# field preparations, run before the first task: (ctx, task, value) ->
# the value the handler reads

def _coord(ctx, task, i):
    if i >= ctx.j.dim:
        raise ConfigError("%s corrupt_coord must be below %d, got %s"
                          % (task, ctx.j.dim, i))
    return i


def _scan_mode(ctx, task, mode):
    if mode == "exhaustive" and not ctx.j.ground.is_finite:
        raise ConfigError("%s exhaustive mode needs a finite ground field, "
                          "not %r" % (task, ctx.j.ground))
    return mode


def _parsed(parse):
    """parse(ctx, v), with NotInvertible a ConfigError naming the task."""
    def prepare(ctx, task, v):
        try:
            return parse(ctx, v)
        except NotInvertible as e:
            raise ConfigError("%s v: %s" % (task, e))
    return prepare


# ---------------------------------------------------------------------------
# task handlers: (ctx, prepared arguments, report entry, task seed, timing)

def _t_axioms(ctx, args, entry, tseed, timing):
    j = ctx.j
    suite = dict(args)
    corrupt = suite.pop("corrupt_coord", None)
    if corrupt is not None:
        # mutation self-test: perturb one adjoint coefficient and let the
        # suite prove it notices (the task is then expected to fail)
        j = corrupt_sharp(j, corrupt)
        entry["corrupted_coord"] = corrupt
    rep = j.axiom_suite(seed=tseed, **suite)
    entry["status"] = "pass" if rep.all_passed else "fail"
    entry["checks"] = [
        {"name": c.name, "passed": c.passed, "mode": c.mode,
         **({"witness": c.witness} if c.witness else {}),
         **({"elapsed_s": round(c.elapsed_s, 3)} if timing else {})}
        for c in rep.checks]


def _scan(lookup):
    """The handler of a witness scan.  lookup() returns the scan at each
    call, so that wrappers installed on the search module are seen."""
    def run(ctx, args, entry, tseed, timing):
        res = lookup()(ctx.j, seed=tseed, **args)
        entry["status"] = res.status
        if res.found:
            entry["witness"] = _coords_str(ctx.j.ground, res.witness)
            entry["index"] = res.index
            if res.detail:
                entry["detail"] = res.detail
    return run


def _t_isotope(ctx, args, entry, tseed, timing):
    j = ctx.j
    g = j.ground
    suite = dict(args)
    v = suite.pop("v")
    try:
        jv = isotopy.isotope(j, v)
    except NotInvertible as e:
        raise ConfigError("%s v: %s" % (entry["task"], e))
    rep = jv.axiom_suite(seed=tseed, **suite)
    u_wit = isotopy.u_isotope_identity(j, jv, v)
    base_ok = tuple(jv.unit) == j.inverse(v)
    ok = rep.all_passed and u_wit is None and base_ok
    entry["status"] = "pass" if ok else "fail"
    entry["axioms"] = "pass" if rep.all_passed else \
        "fail: %s" % [c.name for c in rep.failed()]
    entry["u_operator_identity"] = "pass" if u_wit is None else \
        "fail: %s" % u_wit
    entry["base_point_is_v_inverse"] = base_ok
    entry["base_point"] = _coords_str(g, jv.unit)


def _t_iso_verify(ctx, args, entry, tseed, timing):
    try:
        f = isotopy.second_tits_isotope_iso(ctx.j, args["v"])
    except NotInvertible as e:
        raise ConfigError("%s v: %s" % (entry["task"], e))
    except VerificationFailure as e:
        entry["status"] = "fail"
        entry["error"] = str(e)
        return
    entry["status"] = "pass"
    entry["certificate"] = f.certificate
    entry["matrix"] = f.serialize()


def _t_galois(ctx, args, entry, tseed, timing):
    j = ctx.j
    g = j.ground
    f = galois.extend_rho(j)
    basis, closure = galois.fixed_subspace(f, j)
    entry["status"] = "pass" if all(closure.values()) else "fail"
    entry["certificate"] = f.certificate
    entry["order_3"] = True            # extend_rho raises otherwise
    entry["fixed_dimension"] = len(basis)
    entry["fixed_basis"] = [_coords_str(g, b) for b in basis]
    entry["closure"] = closure


def _t_dump(ctx, args, entry, tseed, timing):
    j = ctx.j
    n_poly, sharp_polys = j.expand_symbolic()
    entry["status"] = "pass"
    entry["norm_form"] = dump_cubic_form(n_poly, j.ground)
    entry["adjoint_map"] = dump_quad_map(sharp_polys, j.ground)


# The task table, the one definition of each task: its handler; the node
# fields it reads, each with its preparation or None; the subcommand that
# runs it (check also runs every configured task); and whether that
# subcommand runs it when the config lists none of the subcommand's tasks.
Task = namedtuple("Task", "handler fields command default")

_SCAN = {"budget": None, "mode": _scan_mode}
TASKS = {
    "axioms": Task(_t_axioms, {"corrupt_coord": _coord, "points": None},
                   "check", True),
    "div_falsify": Task(_scan(lambda: search.division_falsify), _SCAN,
                        "search", True),
    "norm_zero": Task(_scan(lambda: search.find_norm_zero), _SCAN,
                      "search", False),
    "nilpotent_search": Task(_scan(lambda: search.find_nilpotent),
                             {"budget": None}, "search", True),
    "isotope": Task(_t_isotope, {"v": _parsed(BuildContext.carrier_point),
                                 "points": None}, "isotope", False),
    "iso_verify": Task(_t_iso_verify,
                       {"v": _parsed(BuildContext.algebra_element)},
                       "isotope", False),
    "galois_ext": Task(_t_galois, {}, "galois", True),
    "dump_forms": Task(_t_dump, {}, "dump", True),
}
