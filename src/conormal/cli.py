"""Command-line surface: verify-example61, conjecture, analyze,
criteria-table, stretched-suite, selftest.

Exit codes encode the verdict: 0 CM-consistent / all checks pass,
1 NotCM / a check failed, 2 Inconclusive (budget exhausted).
The reduction-step budget can be set with --budget or the
CONORMAL_STEP_BUDGET environment variable.
"""

import argparse
import os
import sys

from .groebner import DEFAULT_STEP_BUDGET
from .poly import ParseError
from .harness import (
    DEFAULT_PRIME,
    EXIT_NOT_CM,
    ExperimentConfig,
    analyze_command,
    conjecture_experiment,
    criteria_table,
    selftest,
    stretched_suite,
    verify_example61,
)


def _env_budget():
    raw = os.environ.get("CONORMAL_STEP_BUDGET")
    if raw is None:
        return DEFAULT_STEP_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"CONORMAL_STEP_BUDGET={raw!r} is not an integer")


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--trials", type=int, default=5, help="random linear forms per verdict (default 5)")
    sub.add_argument("--budget", type=int, default=None, help="reduction step budget")
    sub.add_argument("--p", type=int, default=DEFAULT_PRIME, help=f"field characteristic (default {DEFAULT_PRIME})")
    sub.add_argument("--output", help="also write the report to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conormal",
        description="Groebner-based invariants of point ideals and Cohen-Macaulayness of their squares",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify-example61", help="check the five published facts of the built-in benchmark ideal")
    _add_common(sub)

    sub = subs.add_parser("conjecture", help="test the conjectured counterexample count in P^c")
    sub.add_argument("--c", type=int, required=True, help="projective dimension (at least 5)")
    sub.add_argument("--n", type=int, default=None, help="override the point count")
    sub.add_argument("--allow-long", action="store_true", help="enable the long runs (c at least 7)")
    _add_common(sub)

    sub = subs.add_parser("analyze", help="analyze an ideal file or a random point set")
    sub.add_argument("path", nargs="?", default=None, help="ideal file (header: ring p=<prime> vars=<list>)")
    sub.add_argument("--points", default=None, metavar="c,n", help="analyze n certified-general points in P^c")
    _add_common(sub)

    sub = subs.add_parser("criteria-table", help="exact margin table, verdict windows and conjectured counts")
    sub.add_argument("--cmax", type=int, default=8)
    sub.add_argument("--smax", type=int, default=8)
    _add_common(sub)

    sub = subs.add_parser("stretched-suite", help="the stretched-quotient grid with all containment laws")
    sub.add_argument("--cmax", type=int, default=5)
    sub.add_argument("--smax", type=int, default=4)
    _add_common(sub)

    sub = subs.add_parser("selftest", help="fast sanity run across every module")
    _add_common(sub)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    budget = args.budget if args.budget is not None else _env_budget()
    config = ExperimentConfig(
        command=args.command,
        c=getattr(args, "c", None),
        n=getattr(args, "n", None),
        p=args.p,
        seed=args.seed,
        trials=args.trials,
        budget=budget,
        cmax=getattr(args, "cmax", 5),
        smax=getattr(args, "smax", 4),
        allow_long=getattr(args, "allow_long", False),
        output=args.output,
    )
    try:
        if args.command == "verify-example61":
            text, code = verify_example61(config)
        elif args.command == "conjecture":
            text, code = conjecture_experiment(config)
        elif args.command == "analyze":
            path = args.path
            if path is not None and args.points is not None:
                raise ValueError("analyze takes a file path or --points c,n, not both")
            if path is None and args.points is not None:
                try:
                    c, n = (int(v) for v in args.points.split(","))
                except ValueError:
                    raise ValueError(f"--points needs c,n, got {args.points!r}") from None
                config = ExperimentConfig(**{**config.__dict__, "c": c, "n": n})
            elif path is None:
                raise SystemExit("analyze needs a file path or --points c,n")
            text, code = analyze_command(config, path)
        elif args.command == "criteria-table":
            text, code = criteria_table(config)
        elif args.command == "stretched-suite":
            text, code = stretched_suite(config)
        elif args.command == "selftest":
            text, code = selftest(config)
        else:  # pragma: no cover
            raise SystemExit(f"unknown command {args.command}")
        sys.stdout.write(text)
        if config.output:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_NOT_CM
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CM
    return code


if __name__ == "__main__":
    sys.exit(main())
