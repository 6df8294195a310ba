"""Deterministic experiment harness behind the CLI verbs.

Every experiment takes an ExperimentConfig and returns (report text, exit
code); a config plus the package version determines every output byte.
Exit codes follow the CM verdict: 0 CM-consistent, 1 NotCM, 2 Inconclusive.
`run` dispatches a verb by name and turns an exhausted step budget, in any
verb, into an Inconclusive report: the config echo and the reason.  The
analysing verbs share one route for points, `_analysis`: a point set
certified general, drawn at random or the frozen points of Example 6.1,
keeps its Buchberger-Moller pass, and `cm.analyze` takes that pass, the
basis of the vanishing ideal with the Hilbert function of its points.
Only an ideal file goes through Buchberger before `cm.analyze`.
"""

import dataclasses
import random
from dataclasses import dataclass
from math import comb

from . import __version__
from .field import PrimeField, derive_seed
from .poly import PolynomialRing
from .groebner import (
    DEFAULT_STEP_BUDGET,
    BudgetExceededError,
    buchberger,
    contains,
    ideal_square,
)
from .invariants import classify, length
from .points import _certified_general, general_points
from .cm import DEFAULT_TRIALS, analyze
from .io import parse_ideal_file
from . import criteria as crit
from .constructions import (
    EXAMPLE61_PRIME,
    StretchedSpec,
    example61_points,
    ideal_L,
    stretched_ideal,
)

DEFAULT_PRIME = 31991

EXIT_OK = 0
EXIT_NOT_CM = 1
EXIT_INCONCLUSIVE = 2


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    c: int = None
    n: int = None
    p: int = DEFAULT_PRIME
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    budget: int = DEFAULT_STEP_BUDGET
    cmax: int = 5
    smax: int = 4
    allow_long: bool = False

    def echo_lines(self):
        lines = [f"command: {self.command}", f"version: {__version__}"]
        for name in ("c", "n", "p", "seed", "trials", "budget"):
            value = getattr(self, name)
            if value is not None:
                lines.append(f"{name}: {value}")
        return lines


def _report_text(config: ExperimentConfig, body_lines) -> str:
    return "\n".join(config.echo_lines() + list(body_lines)) + "\n"


def _analysis(config: ExperimentConfig, ps, source=None):
    """`analyze` of the Buchberger-Moller pass that the certified-general
    point set `ps` kept, named by `source` or else by the points' shape."""
    if source is None:
        source = f"{ps.n} general points in P^{ps.c} over GF({ps.p})"
    return analyze(
        ps.bm, seed=config.seed, trials=config.trials, budget=config.budget, source=source
    )


def verify_example61(config: ExperimentConfig):
    """Certify the frozen points of Example 6.1 general and assert the five
    published facts of their vanishing ideal."""
    if config.p != EXAMPLE61_PRIME:
        raise ValueError(
            f"the benchmark ideal is defined over GF({EXAMPLE61_PRIME}); --p cannot change it"
        )
    ps = _certified_general(example61_points(), config.budget)
    if ps is None:
        raise ValueError("the frozen points of Example 6.1 are not in general position")
    report = _analysis(config, ps, "builtin benchmark: 10 general points in P^5")
    inv = report.invariants
    cm = report.cm_square
    facts = [
        ("h-vector (1, 5, 4)", inv.hf.values == (1, 5, 4)),
        ("type 4", inv.tau == 4),
        ("level", inv.level),
        ("not Gorenstein", not inv.gorenstein),
        (
            "square Cohen-Macaulay with reduction length 60",
            cm is not None and cm.status == "CM" and cm.lambda_min == 60,
        ),
    ]
    body = [report.to_text(), ""]
    ok = True
    for name, holds in facts:
        body.append(f"fact {name}: {'ok' if holds else 'FAILED'}")
        ok = ok and holds
    body.append(f"verdict: {'all facts hold' if ok else 'FACTS FAILED'}")
    return _report_text(config, body), (EXIT_OK if ok else EXIT_NOT_CM)


def conjecture_experiment(config: ExperimentConfig):
    """Random certified-general points at the conjectured count (or an
    override): does the square stay Cohen-Macaulay without Gorenstein?"""
    c = config.c
    if c is None or c < 5:
        raise ValueError("the experiment needs --c at least 5")
    if c >= 7 and not config.allow_long:
        raise ValueError(
            f"c={c} is a long run; pass --allow-long (and consider a larger budget)"
        )
    n = config.n if config.n is not None else crit.conjectured_counterexample_points(c)
    ps, redraws = general_points(
        c, n, config.p, config.seed, max_redraws=10, budget=config.budget
    )
    report = _analysis(config, ps)
    counterexample = (
        report.cm_square is not None
        and report.cm_square.status == "CM"
        and not report.invariants.gorenstein
    )
    body = [
        f"points: {n}",
        f"redraws: {redraws}",
        report.to_text(),
        f"counterexample: {str(counterexample).lower()}",
    ]
    return _report_text(config, body), report.cm_square.exit_code


def analyze_command(config: ExperimentConfig, path: str = None):
    """Analyze an ideal file, or n certified-general points in P^c given
    as config.c and config.n.  The echo of a file's analysis gives the
    modulus of its header, which the analysis runs over, as `p`, also when
    the step budget runs out."""
    if path is not None and (config.c is not None or config.n is not None):
        raise ValueError("analyze takes a file path or --points c,n, not both")
    if path is not None:
        ideal = parse_ideal_file(path)
        config = dataclasses.replace(config, p=ideal.ring.field.p)
        try:
            gb = buchberger(ideal, budget=config.budget)
            report = analyze(
                gb, seed=config.seed, trials=config.trials, budget=config.budget,
                source=str(path),
            )
        except BudgetExceededError as exc:
            return _inconclusive(config, exc)
    elif config.c is None or config.n is None:
        raise ValueError("analyze needs a file path or --points c,n")
    else:
        ps, _ = general_points(
            config.c, config.n, config.p, config.seed, max_redraws=10, budget=config.budget
        )
        report = _analysis(config, ps)
    code = EXIT_OK if report.cm_square is None else report.cm_square.exit_code
    return _report_text(config, [report.to_text()]), code


def _stretched_cell(config, ring, c, s, r, unit_seeds):
    """Run one (c, s, r) grid cell over the given unit draws; returns
    (line, ok).  Invariants checked: Hilbert function, type, containment of
    the square in the comparison ideal, the equality dichotomy at r <= c-3,
    the +2 length gap otherwise, the length target overshoot for c >= 4, and
    for every later draw of the units the same invariant report, lengths,
    containment and equality as the first."""
    p = ring.field.p
    # the comparison ideal does not depend on the units
    comparison = ideal_L(c, s, ring)
    gb_l = buchberger(comparison, budget=config.budget)
    lam_l = length(gb_l)
    results = []
    for useed in unit_seeds:
        rng = random.Random(useed)
        units = tuple([rng.randrange(1, p) for _ in range(max(c - 1 - r, 0))])
        spec = StretchedSpec(c, s, r, units)
        ideal = stretched_ideal(spec, ring)
        gb = buchberger(ideal, budget=config.budget)
        rep = classify(gb, config.budget)
        sq = ideal_square(ideal)
        gb_sq = buchberger(sq, budget=config.budget)
        lam_sq = length(gb_sq)
        contained = all(contains(gb_l, g, config.budget) for g in sq.generators)
        # both are m-primary: inside L and of the same length means equal
        equal = contained and lam_sq == lam_l
        results.append((rep, lam_sq, lam_l, contained, equal))
    rep, lam_sq, lam_l, contained, equal = results[0]
    expected_hf = (1, c) + (1,) * (s - 1)
    checks = {
        "hf": rep.hf.values == expected_hf,
        "tau": rep.tau == r + 1,
        "lambda": rep.length == c + s,
        "contained": contained,
        "dichotomy": equal == (r <= c - 3),
        "gap": (r <= c - 3) or lam_sq >= lam_l + 2,
        "target": (c < 4) or lam_sq > (c + 1) * (c + s),
        "unit-independent": all(other == results[0] for other in results[1:]),
    }
    ok = all(checks.values())
    failed = " ".join(k for k, v in checks.items() if not v)
    line = (
        f"c={c} s={s} r={r} hf={','.join(str(v) for v in rep.hf.values)} "
        f"tau={rep.tau} lam2={lam_sq} lamL={lam_l} equal={str(equal).lower()} "
        f"{'ok' if ok else 'FAILED ' + failed}"
    )
    return line, ok


def stretched_suite(config: ExperimentConfig):
    """The full grid of stretched quotients: one line per (c, s, r)."""
    if config.cmax < 3 or config.smax < 2:
        raise ValueError("the grid starts at c=3, s=2")
    body = []
    all_ok = True
    for c in range(3, config.cmax + 1):
        ring = PolynomialRing(PrimeField(config.p), [f"x{i + 1}" for i in range(c)])
        for s in range(2, config.smax + 1):
            for r in range(c):
                draws = 3 if r < c - 1 else 1
                unit_seeds = [
                    derive_seed(config.seed, "units", c, s, r, k) for k in range(draws)
                ]
                line, ok = _stretched_cell(config, ring, c, s, r, unit_seeds)
                body.append(line)
                all_ok = all_ok and ok
    body.append(f"suite: {'ok' if all_ok else 'FAILED'}")
    return _report_text(config, body), (EXIT_OK if all_ok else EXIT_NOT_CM)


def criteria_table(config: ExperimentConfig):
    """Exact margin table, socle-degree-2 verdict windows, and conjectured
    point counts over configurable ranges."""
    if config.cmax < 1 or config.smax < 1:
        raise ValueError("the margin table starts at c=1, s=1")
    body = ["margin table (rows c, columns s):"]
    header = "c\\s " + " ".join(f"{s:>8}" for s in range(1, config.smax + 1))
    body.append(header)
    for c in range(1, config.cmax + 1):
        row = [f"{c:>3} "]
        for s in range(1, config.smax + 1):
            value = crit.short_margin(c, s)
            row.append(f"{str(value):>8}")
        body.append(" ".join(row))
    body.append("")
    body.append("socle-degree-2 verdicts (undecided quadric counts per codimension):")
    for c in range(3, max(config.cmax, 3) + 1):
        undecided = crit.undecided_quadric_counts(c)
        body.append(
            f"c={c}: undecided q in {undecided if undecided else 'none'} "
            f"(range 0..{comb(c + 1, 2) - 1})"
        )
    body.append("")
    body.append("conjectured counterexample point counts:")
    for c in range(5, max(config.cmax, 9) + 1):
        body.append(f"c={c}: {crit.conjectured_counterexample_points(c)} points")
    return _report_text(config, body), EXIT_OK


# The verbs by name.  `run` calls what is bound to the verb function's name
# when it runs, so that a wrapper bound there (a tracer, a test's stub) is
# the one called.
_VERBS = {
    "verify-example61": verify_example61,
    "conjecture": conjecture_experiment,
    "analyze": analyze_command,
    "criteria-table": criteria_table,
    "stretched-suite": stretched_suite,
}


def run(config: ExperimentConfig, path: str = None):
    """Run the verb `config.command` (`path` is the file of `analyze`) and
    return (report text, exit code).  An exhausted step budget, anywhere in
    any verb, gives the config echo and `inconclusive: <reason>`, exit 2."""
    verb = globals()[_VERBS[config.command].__name__]
    try:
        return verb(config) if path is None else verb(config, path)
    except BudgetExceededError as exc:
        return _inconclusive(config, exc)


def _inconclusive(config: ExperimentConfig, exc: BudgetExceededError):
    return _report_text(config, [f"inconclusive: {exc}"]), EXIT_INCONCLUSIVE
