"""Time-to-verdict benchmark for albertlab.

    python3 perfbench/run.py --workload {axioms,certify,search} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts fresh interpreters
(perfbench/worker.py): several that only set up, to time set-up, and one
that runs whole rounds of the workload for at least S seconds and checks
every output.  Every time is wall seconds divided by a host-speed factor
sampled throughout the run (see hostspeed.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of one traced round with --trace 1.  The full log of the run is
written to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from hostspeed import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("axioms", "certify", "search")
SETUP_PROBES = 5
DEADLINE_S = 170


def _spawn(args, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += extra + ["--spawned-at", repr(time.monotonic())]
    # a fixed string hash keeps dict and set layouts the same in every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("perfbench: worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    missing = [p for p in ("src/albertlab/__init__.py", "configs")
               if not os.path.exists(os.path.join(root, p))]
    if missing:
        sys.exit("perfbench: run from the root of an albertlab checkout "
                 "(%s not found)" % ", ".join(missing))
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    probes = [_spawn(args, ["--setup-only"], deadline)
              for _ in range(SETUP_PROBES)]
    extra = []
    if args.trace:
        extra = ["--trace-out", os.path.join(out_dir, stem + ".spans.jsonl")]
    run = _spawn(args, extra, deadline)

    # set-up lasts ~0.1 s, shorter than the host's speed swings, so it is
    # normalised by the median speed over every reference sample of the run
    setups = [p["setup_raw_s"] for p in probes + [run]]
    factor = statistics.median(
        d for p in probes + [run] for d in p["reference_s"]) / NOMINAL_S
    correct = not run["problems"]
    if args.trace:
        metrics = run["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups) / factor,
                        "unit": "s"},
            "verdict_s": {"value": run["verdict_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    log = dict(run, setups_raw_s=setups, run_factor=factor,
               metrics=metrics, correct=correct,
               workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(log, fh, indent=1)
    for p in run["errors"] + run["problems"]:
        sys.stderr.write(p + "\n")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
