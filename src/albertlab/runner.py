"""Task orchestration and deterministic report assembly.

A report is a plain dict rendered as sorted-key JSON; with a fixed
config and seed it is byte-identical across runs.  Timing fields are
only added when explicitly requested, so they never break report
comparisons.
"""

import time

from . import galois, isotopy, search
from .config import SCHEMA_VERSION, BuildContext, as_int, check_run
from .errors import ConfigError, NotInvertible, VerificationFailure
from .poly import dump_cubic_form, dump_quad_map
from .rng import Stream


def _coords_str(g, coords):
    return [g.to_str(c) for c in coords]


def _task_seed(seed, label, position):
    return Stream(seed).derive("task:%d:%s" % (position, label)).seed


def run_config(cfg, seed=None, budget=None, mode=None, timing=False,
               tasks=None):
    """Build the configured structure and execute its task list.

    Returns (report, exit_code): 0 all verification tasks passed
    (search exhaustion is not failure), 1 verification failure,
    2 config errors (raised as ConfigError for the CLI to map).
    """
    task_list = tasks if tasks is not None else \
        cfg.get("tasks", [{"task": "axioms"}])
    check_run(cfg.get("tasks", []) + (tasks or []), _HANDLERS,
              budget=budget)
    cfg_seed = as_int(cfg.get("seed", 0), "seed")
    if seed is None:
        seed = cfg_seed
    ctx = BuildContext(cfg)
    j = ctx.j
    g = j.ground
    for node in task_list:
        corrupt = node.get("corrupt_coord")
        if corrupt is not None and int(corrupt) >= j.dim:
            raise ConfigError("%s corrupt_coord must be below %d, got %s"
                              % (node["task"], j.dim, corrupt))
        if node["task"] in _NORM_ZERO_SCANS and not g.is_finite and \
                (mode or node.get("mode")) == "exhaustive":
            raise ConfigError("%s exhaustive mode needs a finite ground "
                              "field, not %r" % (node["task"], g))

    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "label": j.label,
        "dim": j.dim,
        "ground": repr(g),
        "base_point": _coords_str(g, j.unit),
        "tasks": [],
    }
    failed = False
    for pos, node in enumerate(task_list):
        name = node["task"]
        t0 = time.monotonic()
        entry = {"task": name}
        tseed = _task_seed(seed, name, pos)
        _HANDLERS[name](ctx, node, entry, tseed, budget=budget, mode=mode)
        if timing:
            entry["elapsed_s"] = round(time.monotonic() - t0, 3)
        report["tasks"].append(entry)
        if entry.get("status") == "fail":
            failed = True
    report["status"] = "fail" if failed else "ok"
    return report, (1 if failed else 0)


# ---------------------------------------------------------------------------
# task handlers

def _t_axioms(ctx, node, entry, tseed, **kw):
    j = ctx.j
    corrupt = node.get("corrupt_coord")
    if corrupt is not None:
        # mutation self-test: perturb one adjoint coefficient and let the
        # suite prove it notices (the task is then expected to fail)
        from .cubic import corrupt_sharp
        corrupt = int(corrupt)
        j = corrupt_sharp(j, corrupt)
        entry["corrupted_coord"] = corrupt
    rep = j.axiom_suite(seed=tseed, points=int(node.get("points", 100)))
    entry["status"] = "pass" if rep.all_passed else "fail"
    entry["checks"] = [
        {"name": c.name, "passed": c.passed, "mode": c.mode,
         **({"witness": c.witness} if c.witness else {})}
        for c in rep.checks]


def _search_entry(entry, g, res):
    entry["status"] = res.status
    if res.found:
        entry["witness"] = _coords_str(g, res.witness)
        entry["index"] = res.index
        if res.detail:
            entry["detail"] = res.detail


def _t_div_falsify(ctx, node, entry, tseed, budget=None, mode=None):
    b = budget if budget is not None else int(node.get("budget", 10000))
    m = mode if mode is not None else node.get("mode", "random")
    res = search.division_falsify(ctx.j, budget=b, mode=m, seed=tseed)
    _search_entry(entry, ctx.j.ground, res)


def _t_norm_zero(ctx, node, entry, tseed, budget=None, mode=None):
    b = budget if budget is not None else int(node.get("budget", 10000))
    m = mode if mode is not None else node.get("mode", "random")
    res = search.find_norm_zero(ctx.j, budget=b, mode=m, seed=tseed)
    _search_entry(entry, ctx.j.ground, res)


def _t_nilpotent(ctx, node, entry, tseed, budget=None, **kw):
    b = budget if budget is not None else int(node.get("budget", 100000))
    res = search.find_nilpotent(ctx.j, budget=b, seed=tseed)
    _search_entry(entry, ctx.j.ground, res)


def _t_isotope(ctx, node, entry, tseed, **kw):
    j = ctx.j
    g = j.ground
    v = ctx.carrier_point(node["v"])
    try:
        jv = isotopy.isotope(j, v)
    except NotInvertible as e:
        raise ConfigError("isotope v: %s" % e)
    rep = jv.axiom_suite(seed=tseed, points=int(node.get("points", 100)))
    u_wit = isotopy.u_isotope_identity(j, jv, v, Stream(tseed).derive("u_id"),
                                       points=int(node.get("u_points", 50)))
    base_ok = tuple(jv.unit) == j.inverse(v)
    ok = rep.all_passed and u_wit is None and base_ok
    entry["status"] = "pass" if ok else "fail"
    entry["axioms"] = "pass" if rep.all_passed else \
        "fail: %s" % [c.name for c in rep.failed()]
    entry["u_operator_identity"] = "pass" if u_wit is None else \
        "fail at x = %s" % _coords_str(g, u_wit)
    entry["base_point_is_v_inverse"] = base_ok
    entry["base_point"] = _coords_str(g, jv.unit)


def _t_iso_verify(ctx, node, entry, tseed, **kw):
    v = ctx.algebra_element(node["v"])
    try:
        f = isotopy.second_tits_isotope_iso(ctx.j, v)
    except NotInvertible as e:
        raise ConfigError("iso_verify v: %s" % e)
    except VerificationFailure as e:
        entry["status"] = "fail"
        entry["error"] = str(e)
        return
    entry["status"] = "pass"
    entry["certificate"] = f.certificate
    entry["matrix"] = f.serialize()


def _t_galois(ctx, node, entry, tseed, **kw):
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


def _t_dump(ctx, node, entry, tseed, **kw):
    j = ctx.j
    n_poly, sharp_polys = j.expand_symbolic()
    entry["status"] = "pass"
    entry["norm_form"] = dump_cubic_form(n_poly, j.ground)
    entry["adjoint_map"] = dump_quad_map(sharp_polys, j.ground)


# the tasks whose mode may be "exhaustive"
_NORM_ZERO_SCANS = ("div_falsify", "norm_zero")

_HANDLERS = {
    "axioms": _t_axioms,
    "div_falsify": _t_div_falsify,
    "norm_zero": _t_norm_zero,
    "nilpotent_search": _t_nilpotent,
    "isotope": _t_isotope,
    "iso_verify": _t_iso_verify,
    "galois_ext": _t_galois,
    "dump_forms": _t_dump,
}
