"""Command line interface.

`build` constructs the configured structure and reports carrier facts,
`check` runs the config's task list, and each other subcommand runs the
configured tasks whose runner.TASKS entry names it, or else the ones the
table marks as its default (the isotope subcommand has none).

Exit codes: 0 all verification passed (search exhaustion included),
1 verification failure, 2 configuration error.
"""

import argparse
import json
import sys

from .config import SEARCH_MODES, at_least, load_config
from .errors import ConfigError, VerificationFailure
from .runner import TASKS, run_config

# build, then the subcommands of the task table in its order
COMMANDS = ("build",) + tuple(dict.fromkeys(t.command
                                            for t in TASKS.values()))


def _parser():
    p = argparse.ArgumentParser(
        prog="albertlab",
        description="Exact constructions and verification of degree-3 "
                    "Jordan algebras (Tits constructions, isotopes, "
                    "Galois automorphisms).")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--budget", type=int, default=None,
                        help="replace the budget of each task that reads "
                             "one")
        sp.add_argument("--mode", choices=SEARCH_MODES, default=None,
                        help="replace the mode of each task that reads one")
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
    """None, the config's task list, for check; for any other subcommand
    the configured tasks whose TASKS entry names it, or else its default
    tasks (build names no task and runs none)."""
    if command == "check":
        return None
    names = [name for name, t in TASKS.items() if t.command == command]
    picked = [t for t in cfg.get("tasks", []) if t["task"] in names] or \
        [{"task": name} for name in names if TASKS[name].default]
    if names and not picked:
        raise ConfigError("config has no %s tasks" % "/".join(names))
    return picked


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        tasks = _select_tasks(args.command, cfg)
        at_least(args.jobs, 1, "jobs")
        report, code = run_config(
            cfg, seed=args.seed, budget=args.budget, mode=args.mode,
            timing=args.timing, tasks=tasks)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as e:
                raise ConfigError("cannot write report: %s" % e)
        else:
            sys.stdout.write(text)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except VerificationFailure as e:
        print("verification failure: %s" % e, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
