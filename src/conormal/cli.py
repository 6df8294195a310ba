"""Command-line surface: verify-example61, conjecture, analyze,
criteria-table, stretched-suite.

Exit codes encode the verdict: 0 CM-consistent / all checks pass,
1 NotCM / a check failed / an input error, 2 Inconclusive (the step
budget ran out, in any verb).  The reduction-step budget can be set with
--budget or the CONORMAL_STEP_BUDGET environment variable; it must be at
least 0.  A usage error (a missing or malformed argument) is an input
error too, reported like every other one; --help exits 0.  An integer, in
an option, in --points or in the environment, is ASCII digits after an
optional '-', as the numbers of an ideal file are; any other spelling is
an input error, and so is a --p that is not an odd prime below 2**31,
in every verb.  `main` parses the arguments into one ExperimentConfig
and hands it to `harness.run`.
"""

import argparse
import os
import sys

from .cm import DEFAULT_TRIALS
from .field import PrimeField
from .groebner import DEFAULT_STEP_BUDGET
from .poly import _DIGITS, ParseError
from .harness import DEFAULT_PRIME, EXIT_NOT_CM, ExperimentConfig, run


def _integer(text, name):
    """The integer `text` spells: ASCII digits after an optional '-'.
    ValueError naming `name` for any other spelling."""
    digits = text[1:] if text.startswith("-") else text
    if not digits or any(ch not in _DIGITS for ch in digits):
        raise ValueError(f"{name}={text!r} is not an integer")
    return int(text)


def _option(args, name, default=None):
    """The integer given as --name, or `default` when the verb has no such
    option or it was not given."""
    text = getattr(args, name, None)
    return default if text is None else _integer(text, f"--{name}")


def _env_budget():
    raw = os.environ.get("CONORMAL_STEP_BUDGET")
    if raw is None:
        return DEFAULT_STEP_BUDGET
    return _integer(raw, "CONORMAL_STEP_BUDGET")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, so that `main`
    reports them as input errors (exit 1) and not with argparse's exit 2,
    the code of an Inconclusive verdict.  Its subparsers are of this class."""

    def error(self, message):
        raise ValueError(message)


# integer options are read as text and parsed by `_integer` inside `main`
def _add_common(sub):
    sub.add_argument("--seed", default="0", help="master seed (default 0)")
    sub.add_argument("--trials", default=str(DEFAULT_TRIALS), help=f"most random linear forms drawn to find a parameter (default {DEFAULT_TRIALS})")
    sub.add_argument("--budget", default=None, help="reduction step budget")
    sub.add_argument("--p", default=str(DEFAULT_PRIME), help=f"field characteristic (default {DEFAULT_PRIME})")
    sub.add_argument("--output", help="also write the report to this path")


def build_parser():
    parser = _Parser(
        prog="conormal",
        description="Groebner-based invariants of point ideals and Cohen-Macaulayness of their squares",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify-example61", help="check the five published facts of the built-in benchmark ideal")
    _add_common(sub)

    sub = subs.add_parser("conjecture", help="test the conjectured counterexample count in P^c")
    sub.add_argument("--c", required=True, help="projective dimension (at least 5)")
    sub.add_argument("--n", default=None, help="override the point count")
    sub.add_argument("--allow-long", action="store_true", help="enable the long runs (c at least 7)")
    _add_common(sub)

    sub = subs.add_parser("analyze", help="analyze an ideal file or a random point set")
    sub.add_argument("path", nargs="?", default=None, help="ideal file (header: ring p=<prime> vars=<list>)")
    sub.add_argument("--points", default=None, metavar="c,n", help="analyze n certified-general points in P^c")
    _add_common(sub)

    sub = subs.add_parser("criteria-table", help="exact margin table, verdict windows and conjectured counts")
    sub.add_argument("--cmax", default="8")
    sub.add_argument("--smax", default="8")
    _add_common(sub)

    sub = subs.add_parser("stretched-suite", help="the stretched-quotient grid with all containment laws")
    sub.add_argument("--cmax", default="5")
    sub.add_argument("--smax", default="4")
    _add_common(sub)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        path, points = getattr(args, "path", None), getattr(args, "points", None)
        budget = _option(args, "budget")
        if budget is None:
            budget = _env_budget()
        if budget < 0:
            raise ValueError(f"the step budget must be at least 0, got {budget}")
        c, n = _option(args, "c"), _option(args, "n")
        if points is not None:
            try:
                c, n = (_integer(v, "--points") for v in points.split(","))
            except ValueError:
                raise ValueError(f"--points needs c,n, got {points!r}") from None
        p = _option(args, "p")
        try:
            PrimeField(p)
        except ValueError as exc:
            raise ValueError(f"--p={p}: {exc}") from None
        config = ExperimentConfig(
            command=args.command,
            c=c,
            n=n,
            p=p,
            seed=_option(args, "seed"),
            trials=_option(args, "trials"),
            budget=budget,
            cmax=_option(args, "cmax", 5),
            smax=_option(args, "smax", 4),
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
