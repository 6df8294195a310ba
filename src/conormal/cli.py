"""Command-line surface: verify-example61, conjecture, analyze,
criteria-table, stretched-suite, selftest.

Exit codes encode the verdict: 0 CM-consistent / all checks pass,
1 NotCM / a check failed / an input error, 2 Inconclusive (the step
budget ran out, in any verb).  The reduction-step budget can be set with
--budget or the CONORMAL_STEP_BUDGET environment variable; it must be at
least 0.  `main` parses the arguments into one ExperimentConfig and hands
it to `harness.run`.
"""

import argparse
import os
import sys

from .cm import DEFAULT_TRIALS
from .groebner import DEFAULT_STEP_BUDGET
from .poly import ParseError
from .harness import DEFAULT_PRIME, EXIT_NOT_CM, ExperimentConfig, run


def _env_budget():
    raw = os.environ.get("CONORMAL_STEP_BUDGET")
    if raw is None:
        return DEFAULT_STEP_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CONORMAL_STEP_BUDGET={raw!r} is not an integer") from None


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help=f"most random linear forms drawn to find a parameter (default {DEFAULT_TRIALS})")
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
    path, points = getattr(args, "path", None), getattr(args, "points", None)
    try:
        budget = args.budget if args.budget is not None else _env_budget()
        if budget < 0:
            raise ValueError(f"the step budget must be at least 0, got {budget}")
        c, n = getattr(args, "c", None), getattr(args, "n", None)
        if points is not None:
            try:
                c, n = (int(v) for v in points.split(","))
            except ValueError:
                raise ValueError(f"--points needs c,n, got {points!r}") from None
        config = ExperimentConfig(
            command=args.command,
            c=c,
            n=n,
            p=args.p,
            seed=args.seed,
            trials=args.trials,
            budget=budget,
            cmax=getattr(args, "cmax", 5),
            smax=getattr(args, "smax", 4),
            allow_long=getattr(args, "allow_long", False),
        )
        text, code = run(config, path)
        sys.stdout.write(text)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
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
