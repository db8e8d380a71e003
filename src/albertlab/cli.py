"""Command line interface.

Subcommands select which tasks run against the configured structure:

  build    construct only, report carrier facts
  check    run the config's task list (default: axioms)
  search   run the search tasks (division falsification, norm zeros,
           nilpotents)
  isotope  run the isotope and isotope-isomorphism tasks
  galois   extend the cubic Galois generator and report its fixed space
  dump     emit the sparse norm form and adjoint map

Exit codes: 0 all verification passed (search exhaustion included),
1 verification failure, 2 configuration error.
"""

import argparse
import json
import sys

from .config import SEARCH_MODES, at_least, load_config
from .errors import ConfigError, VerificationFailure
from .runner import run_config

SEARCH_TASKS = ("div_falsify", "norm_zero", "nilpotent_search")
ISOTOPE_TASKS = ("isotope", "iso_verify")


def _parser():
    p = argparse.ArgumentParser(
        prog="albertlab",
        description="Exact constructions and verification of degree-3 "
                    "Jordan algebras (Tits constructions, isotopes, "
                    "Galois automorphisms).")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("build", "check", "search", "isotope", "galois", "dump"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--budget", type=int, default=None,
                        help="override search budgets")
        sp.add_argument("--mode", choices=SEARCH_MODES,
                        default=None, help="override search mode")
        sp.add_argument("--out", default=None,
                        help="write the JSON report here instead of stdout")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and checked to be "
                             "at least 1; searches run in one sequential "
                             "scan")
        sp.add_argument("--timing", action="store_true",
                        help="include timing fields in the report "
                             "(breaks byte-for-byte comparability)")
    return p


def _select_tasks(command, cfg):
    configured = cfg.get("tasks", [{"task": "axioms"}])
    if command == "build":
        return []
    if command == "check":
        return configured
    if command == "search":
        picked = [t for t in configured if t["task"] in SEARCH_TASKS]
        return picked or [{"task": "div_falsify"},
                          {"task": "nilpotent_search"}]
    if command == "isotope":
        picked = [t for t in configured if t["task"] in ISOTOPE_TASKS]
        if not picked:
            raise ConfigError("config has no isotope/iso_verify tasks")
        return picked
    if command == "galois":
        return [{"task": "galois_ext"}]
    if command == "dump":
        return [{"task": "dump_forms"}]
    raise ConfigError("unknown command %r" % (command,))


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        tasks = _select_tasks(args.command, cfg)
        at_least(args.jobs, 1, "jobs")
        report, code = run_config(
            cfg, seed=args.seed, budget=args.budget, mode=args.mode,
            timing=args.timing, tasks=tasks)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except VerificationFailure as e:
        print("verification failure: %s" % e, file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
