"""One benchmark process: set up a workload, run whole rounds, check them.

Run by run.py in a fresh interpreter from the root of a checkout, so
that set-up time includes interpreter start and import, and peak RSS is
that of a process which ran only this workload.  Prints one JSON object.

A round is the workload's full list of operations on structures built
afresh for that round, so every round does the same work, symbolic
expansion at first use included.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import albertlab  # noqa: E402
from albertlab import config, galois, isotopy, runner, search  # noqa: E402

import oracle  # noqa: E402
from hostspeed import HostClock  # noqa: E402

CONFIGS = ("m3_f5_first", "m3_q_first", "lk_q_second", "lk_f5_second",
           "cyclic_q_first")

# search: worker threads per scan, nproc of the 2-vCPU reference host
JOBS = 2
SEARCH_SEEDS = 12
DIV_BUDGET = 100       # J(cyclic, 3) is a division algebra: always exhausted
NORM_ZERO_BUDGET = 1000
NILPOTENT_BUDGET = 10   # small: seed-dependent early hits decide little

# certify: seeded invertible a per structure for U_a certificates
U_POINTS = (("m3_q_first", 3), ("cyclic_q_first", 1), ("m3_f5_first", 3))


class Op:
    """One operation: `run` calls the program, `check` its output.

    `exhausted_candidates` is the number of candidates a search op must
    scan when it finds no witness (None for other ops)."""

    def __init__(self, label, run, check, exhausted_candidates=None):
        self.label = label
        self.run = run
        self.check = check
        self.exhausted_candidates = exhausted_candidates


class Fresh:
    """Structures for one round, each built at its first use."""

    def __init__(self, cfgs):
        self.cfgs = cfgs
        self._ctx = {}

    def __call__(self, name):
        if name not in self._ctx:
            self._ctx[name] = config.BuildContext(self.cfgs[name])
        return self._ctx[name]


def _draw_invertible(j, rng):
    g = j.ground
    ar = oracle.Arith(g)
    while True:
        a = tuple(g.from_fraction(c) for c in ar.point(rng, j.dim))
        if j.eval_norm(list(a)):
            return a


# -- workloads: inputs from the seed, then the operations of one round --------

def axioms_inputs(cfgs, ctxs, rng):
    return {name: rng.randrange(2 ** 32) for name in CONFIGS}


def axioms_ops(cfgs, seeds, fresh):
    ops = []
    for name in CONFIGS:
        s = seeds[name]
        ops.append(Op(
            "axioms " + name,
            lambda name=name, s=s: runner.run_config(
                cfgs[name], seed=s,
                tasks=[{"task": "axioms"}, {"task": "dump_forms"}])[0],
            lambda rep, s=s: oracle.check_axioms(rep, s)))
    return ops


def certify_inputs(cfgs, ctxs, rng):
    points = [(name, _draw_invertible(ctxs[name].j, rng), rng.randrange(2 ** 32))
              for name, n in U_POINTS for _ in range(n)]
    return {"u": points, "seed": rng.randrange(2 ** 32)}


def certify_ops(cfgs, inputs, fresh):
    ops = []
    for name, a, s in inputs["u"]:
        def run(name=name, a=a):
            j = fresh(name).j
            m = j.u_matrix(a)
            nu, wit = isotopy.verify_norm_similarity(
                isotopy.LinearMap(j, j, m))
            return j, m, nu, wit

        ops.append(Op("similarity U_a " + name, run,
                      lambda out, a=a, s=s: oracle.check_similarity(
                          out[0], a, out[1], out[2], out[3], s)))
    s = inputs["seed"]
    node = next(t for t in cfgs["m3_q_first"]["tasks"]
                if t["task"] == "isotope")
    ops.append(Op(
        "isotope m3_q_first",
        lambda: runner.run_config(cfgs["m3_q_first"], seed=s,
                                  tasks=[node, {"task": "dump_forms"}])[0],
        lambda rep: oracle.check_isotope(rep, node["v"])))
    for name in ("lk_q_second", "lk_f5_second"):
        def rho(name=name):
            j = fresh(name).j
            f = galois.extend_rho(j)
            return (j, f) + galois.fixed_subspace(f, j)

        def iso(name=name):
            ctx = fresh(name)
            node = next(t for t in cfgs[name]["tasks"]
                        if t["task"] == "iso_verify")
            return isotopy.second_tits_isotope_iso(
                ctx.j, ctx.algebra_element(node["v"]))

        ops.append(Op("galois_ext " + name, rho,
                      lambda out: oracle.check_galois(*out)))
        ops.append(Op("iso_verify " + name, iso,
                      lambda f, s=s: oracle.check_isomorphism(f, s)))
    return ops


def search_inputs(cfgs, ctxs, rng):
    return [rng.randrange(2 ** 32) for _ in range(SEARCH_SEEDS)]


def search_ops(cfgs, seeds, fresh):
    ops = []
    for s in seeds:
        def op(fn, name, check, budget, exhausted):
            def run():
                j = fresh(name).j
                # looked up at call time, so a traced round sees the wrapper
                find = getattr(search, fn)
                return j, find(j, budget=budget, seed=s, jobs=JOBS)
            ops.append(Op("%s %s" % (fn, name), run,
                          lambda out: check(*out), exhausted))

        op("division_falsify", "cyclic_q_first", oracle.check_norm_zero,
           DIV_BUDGET, DIV_BUDGET // 2 + DIV_BUDGET)
        for name in ("m3_f5_first", "lk_f5_second"):
            op("find_norm_zero", name, oracle.check_norm_zero,
               NORM_ZERO_BUDGET, NORM_ZERO_BUDGET)
            op("find_nilpotent", name, oracle.check_nilpotent,
               NILPOTENT_BUDGET, NILPOTENT_BUDGET)
    return ops


WORKLOADS = {
    # (configs used, inputs from the seed, ops of a round, timer sampling)
    "axioms": (CONFIGS, axioms_inputs, axioms_ops, True),
    "certify": (CONFIGS, certify_inputs, certify_ops, True),
    "search": (("cyclic_q_first", "m3_f5_first", "lk_f5_second"),
               search_inputs, search_ops, False),
}


# -- rounds ------------------------------------------------------------------------

def run_round(ops, clock, timer, tracer=None):
    """Run every op once; returns (round log, errors, problems).

    An op that raises is failed (its traceback is an error); an op whose
    output a check rejects is a problem, and the run is not correct."""
    errors = []
    problems = []
    found = {}
    clock.sample()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    if timer:
        clock.start_timer()
    for op in ops:
        scanned = tracer.counts["search.candidates"] if tracer else 0
        try:
            out = op.run()
        except Exception:
            errors.append("%s raised:\n%s" % (op.label,
                                               traceback.format_exc()))
            continue
        problems += ["%s: %s" % (op.label, p) for p in op.check(out)]
        if op.exhausted_candidates is not None:
            found.setdefault(op.label, []).append(out[1].status)
            if tracer is not None and out[1].status == "exhausted":
                n = tracer.counts["search.candidates"] - scanned
                if n != op.exhausted_candidates:
                    problems.append("%s: exhausted after %d candidates, "
                                    "budget %d" % (op.label, n,
                                                   op.exhausted_candidates))
        if not timer:
            clock.maybe_sample()
    clock.stop_timer()
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    clock.sample()
    work, norm, samples = clock.interval(t0, t1)
    log = {"wall_s": t1 - t0, "work_s": work, "normalised_s": norm,
           "factor": work / norm, "reference_samples": samples,
           "search_status": found,
           "samples": [(s - t0, e - s, r) for s, e, r in clock.samples
                       if t0 - 1 <= s <= t1 + 1]}
    return log, errors, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([src, albertlab.__file__]) != src:
        sys.exit("perfbench: albertlab imported from %s, not %s"
                 % (albertlab.__file__, src))
    names, make_inputs, make_ops, timer = WORKLOADS[args.workload]
    cfgs = {n: config.load_config(os.path.join(ROOT, "configs", n + ".json"))
            for n in names}
    ctxs = {n: config.BuildContext(cfgs[n]) for n in names}
    inputs = make_inputs(cfgs, ctxs, random.Random(
        "%s:%d" % (args.workload, args.seed)))
    ready = time.monotonic()

    clock = HostClock(cpus=None if timer else os.sched_getaffinity(0))
    for _ in range(3):
        clock.sample()
    result = {"setup_raw_s": ready - args.spawned_at}
    if args.setup_only:
        result["reference_s"] = [r for _, _, r in clock.samples]
        print(json.dumps(result))
        return

    rounds = []
    errors = []
    problems = []
    attempted = 0

    def one(tracer=None):
        nonlocal attempted
        ops = make_ops(cfgs, inputs, Fresh(cfgs))
        log, e, p = run_round(ops, clock, timer, tracer)
        rounds.append(log)
        attempted += len(ops)
        errors.extend(e)
        problems.extend(p)

    if args.trace:
        # one untraced round, then the same round traced
        from tracing import Tracer
        tracer = Tracer()
        one()
        one(tracer)
        overhead = rounds[1]["normalised_s"] / rounds[0]["normalised_s"]
        result["per_layer"] = tracer.metrics(
            rounds[1]["factor"], overhead,
            [(s, e) for s, e, _ in clock.samples])
        result["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            one()
    result.update({
        "rounds": rounds,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "verdict_s": statistics.median(r["normalised_s"] for r in rounds),
        "verdict_raw_s": statistics.median(r["work_s"] for r in rounds),
    })
    result["reference_s"] = [r for _, _, r in clock.samples]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
