"""Run the perfbench workloads and write one BENCH JSON file.

    python3 tools/bench.py --out BENCH_N.json [--baseline DIR]

Run from the root of a checkout.  Each of the three workloads (axioms,
certify, search) gets PAIRS = 10 runs of
`python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0`
(the run length perfbench/README.md fixes), run i with seed
FIRST_SEED + i; the last output line of each run is parsed for the
end-to-end metrics (setup_s, verdict_s, peak_rss_mb) and the attempted
and failed operation counts.

With --baseline DIR (another checkout, e.g. the parent commit) every
pair runs both checkouts with the same seed, alternating which goes
first, and the file records for each metric both sides' medians and
quartiles and how many pairs the checkout won (ties count for neither
side), and per end-to-end metric its relative change (the checkout's
median minus the baseline's, over the baseline's) next to the bound
that the checkout's BENCHMARK.json gives for it, so a regression past
the bound reads straight off the file.  The file also records the CPU
count, the Python version and the git commit of each checkout.

A checkout holding a __pycache__ directory under src/ or perfbench/ is
refused before any run: a compiled cache shortens the import that
setup_s measures, so a cache on one side only skews the comparison.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("axioms", "certify", "search")
PAIRS = 10
SECONDS = 20
FIRST_SEED = 11
METRICS = ("setup_s", "verdict_s", "peak_rss_mb")   # all lower-is-better


def _git_sha(root):
    """The commit of the checkout at root, with "+dirty" when its tracked
    files differ from it; None outside a git checkout."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "-uno"],
                               cwd=root, capture_output=True, text=True,
                               check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def bytecode_cache(root):
    """The first __pycache__ directory under root's src/ or perfbench/,
    or None."""
    for top in ("src", "perfbench"):
        for dirpath, dirnames, _ in sorted(os.walk(os.path.join(root, top))):
            if "__pycache__" in dirnames:
                return os.path.join(dirpath, "__pycache__")
    return None


def run_once(root, workload, seed):
    """One perfbench run in the checkout at root: the parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("bench: perfbench failed in %s (%s, seed %d)"
                         % (root, workload, seed))
    out = json.loads(lines[-1])
    return {"seed": seed, "correct": out["correct"],
            "attempted": out["attempted"], "failed": out["failed"],
            **{m: out["metrics"][m]["value"] for m in METRICS}}


def bounds(root):
    """The bound of each end-to-end metric in root's BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {e["name"]: e["bound"] for e in json.load(fh)["end_to_end"]}


def summary(values):
    """Median and quartiles of a list of run values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def bench_workload(workload, roots):
    """PAIRS rounds over the checkouts in roots (name -> path), the order
    alternating from one round to the next."""
    names = list(roots)
    runs = {name: [] for name in names}
    for i in range(PAIRS):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            r = run_once(roots[name], workload, FIRST_SEED + i)
            runs[name].append(r)
            print("%s %s seed %d: verdict_s %.3f" % (
                workload, name, FIRST_SEED + i, r["verdict_s"]),
                file=sys.stderr)
    out = {"runs": runs,
           "summary": {name: {m: summary([r[m] for r in runs[name]])
                              for m in METRICS} for name in names}}
    if "baseline" in roots:
        out["pairs_won"] = {
            m: sum(c[m] < b[m] for c, b in zip(runs["checkout"],
                                               runs["baseline"]))
            for m in METRICS}
        bound = bounds(roots["checkout"])
        new, old = out["summary"]["checkout"], out["summary"]["baseline"]
        out["against_baseline"] = {
            m: {"relative_change": (new[m]["median"] - old[m]["median"])
                / old[m]["median"], "bound": bound[m]}
            for m in METRICS}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--baseline", default=None,
                    help="another checkout to run in alternating pairs")
    args = ap.parse_args(argv)

    roots = {"checkout": os.getcwd()}
    if args.baseline:
        roots["baseline"] = os.path.abspath(args.baseline)
    for root in roots.values():
        if not os.path.exists(os.path.join(root, "perfbench", "run.py")):
            ap.error("%s is not an albertlab checkout" % root)
        cache = bytecode_cache(root)
        if cache:
            raise SystemExit("bench: bytecode cache %s; delete it before "
                             "benchmarking" % cache)

    report = {
        "host": {"cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "commits": {name: _git_sha(root) for name, root in roots.items()},
        "settings": {"pairs": PAIRS, "seconds": SECONDS,
                     "first_seed": FIRST_SEED, "trace": 0},
        "workloads": {w: bench_workload(w, roots) for w in WORKLOADS},
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
