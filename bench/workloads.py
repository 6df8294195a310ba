"""Workload definitions: the items of one pass, the call that runs one item
through the public API of conormal, and the check of its output.

A pass is a fixed, seed-derived list of items.  The benchmark hands the
program only the generated configurations (dimensions, point counts, seeds,
units); every check below is recomputed here from the program's outputs and
holds for any seed.
"""

import hashlib
import random
from itertools import combinations_with_replacement
from math import ceil, comb
from typing import Callable, NamedTuple

from conormal import constructions, groebner, harness, invariants, points
from conormal.field import PrimeField
from conormal.poly import PolynomialRing

P = harness.DEFAULT_PRIME


def derive(*parts) -> int:
    """Deterministic sub-seed for a labelled part of a run."""
    data = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def conjectured_count(c: int) -> int:
    """1 + c + ceil(c(c-1)/6): the point count the paper conjectures for P^c."""
    return 1 + c + ceil(c * (c - 1) / 6)


# -- items: a program call, timed, and a check of its output, untimed ---------
# Each check returns (report text, names of the violated laws).


def _report_fields(text):
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields


def call_conjecture(c, n, seed):
    return harness.conjecture_experiment(harness.ExperimentConfig("conjecture", c=c, n=n, seed=seed))


def check_conjecture(out, c, n, seed):
    text, code = out
    f = _report_fields(text)
    status = f.get("cm_square")
    if status not in ("CM", "NotCM"):
        return text, [f"verdict {status!r}"]
    try:
        e, lam, e_expected = (int(f[k]) for k in ("e", "cm_lambda_min", "cm_e_expected"))
    except (KeyError, ValueError):
        return text, ["malformed report"]
    target = (c + 1) * e
    laws = {
        "agreement": f.get("agreement") == "true",
        "e = n": e == n,
        "lambda_min >= (c+1)e": lam >= target,
        "e_expected = (c+1)e": e_expected == target,
        "CM => lambda_min = (c+1)e": status != "CM" or lam == target,
        "(c+1)n < C(c+3,3) => NotCM": (c + 1) * n >= comb(c + 3, 3) or status == "NotCM",
        "exit code": code == (0 if status == "CM" else 1),
    }
    return text, [name for name, holds in laws.items() if not holds]


def call_example61(seed):
    return harness.verify_example61(harness.ExperimentConfig("verify-example61", seed=seed))


def check_example61(out, seed):
    text, code = out
    ok = code == 0 and text.rstrip().endswith("verdict: all facts hold")
    return text, [] if ok else ["example 6.1 facts"]


def call_stretched_cell(c, s, r, unit_draws):
    """One cell of the stretched suite, once per draw of the units."""
    ring = PolynomialRing(PrimeField(P), [f"x{i + 1}" for i in range(c)])
    results = []
    for units in unit_draws:
        ideal = constructions.stretched_ideal(constructions.StretchedSpec(c, s, r, units), ring)
        rep = invariants.classify(groebner.buchberger(ideal))
        sq = groebner.ideal_square(ideal)
        gb_sq = groebner.buchberger(sq)
        comparison = constructions.ideal_L(c, s, ring)
        gb_l = groebner.buchberger(comparison)
        contained = all(groebner.contains(gb_l, g) for g in sq.generators)
        equal = contained and all(groebner.contains(gb_sq, g) for g in comparison.generators)
        results.append((rep.hf.values, rep.tau, rep.length,
                        invariants.length(gb_sq), invariants.length(gb_l), contained, equal))
    return results


def check_stretched_cell(results, c, s, r, unit_draws):
    """The suite's laws: Hilbert function (1, c, 1, ..., 1), type r+1, length
    c+s, the square inside the comparison ideal L, equality with L exactly
    when r <= c-3, a length gap of at least 2 otherwise, the (c+1)(c+s)
    overshoot for c >= 4, and the same answers for every draw of the units."""
    hf, tau, lam, lam_sq, lam_l, contained, equal = results[0]
    laws = {
        "hf": hf == (1, c) + (1,) * (s - 1),
        "tau": tau == r + 1,
        "lambda": lam == c + s,
        "contained": contained,
        "dichotomy": equal == (r <= c - 3),
        "gap": r <= c - 3 or lam_sq >= lam_l + 2,
        "target": c < 4 or lam_sq > (c + 1) * (c + s),
        "unit-independent": all(other == results[0] for other in results[1:]),
    }
    text = (f"c={c} s={s} r={r} hf={','.join(map(str, hf))} tau={tau} "
            f"lam2={lam_sq} lamL={lam_l} equal={str(equal).lower()}\n")
    return text, [name for name, holds in laws.items() if not holds]


def call_points(c, n, seed):
    ps, redraws = points.general_points(c, n, P, seed, max_redraws=10)
    return ps, redraws, points.vanishing_ideal(ps)


def _generic_hf_holds(gb, c, n):
    """Count standard monomials of the leading-term ideal in each degree up
    to one past the first degree that reaches n, against min(C(c+d, d), n)."""
    lts = [gb.ring.unpack(m) for m in gb.leading_monomials()]
    top = next(d for d in range(n + 1) if comb(c + d, d) >= n) + 1
    for d in range(top + 1):
        standard = 0
        for combo in combinations_with_replacement(range(c + 1), d):
            exps = [0] * (c + 1)
            for j in combo:
                exps[j] += 1
            if not any(all(a <= b for a, b in zip(lt, exps)) for lt in lts):
                standard += 1
        if standard != min(comb(c + d, d), n):
            return False
    return True


def check_points(out, c, n, seed):
    """general_points raises unless the general-position certificate holds;
    here the point count and the generic Hilbert function are re-checked."""
    ps, redraws, gb = out
    laws = {
        "point count": ps.n == n and len(set(ps.points)) == n,
        "generic hilbert function": _generic_hf_holds(gb, c, n),
    }
    return f"P^{c} n={n} redraws={redraws}\n{gb.to_text()}\n", [
        name for name, holds in laws.items() if not holds
    ]


CONJECTURE = (call_conjecture, check_conjecture)
EXAMPLE61 = (call_example61, check_example61)
STRETCHED = (call_stretched_cell, check_stretched_cell)
POINTS = (call_points, check_points)


# -- passes ---------------------------------------------------------------------


def _conjecture_cm(seed):
    items = [("conjecture c=5 n=10", CONJECTURE, (5, 10, derive(seed, "c5", i)))
             for i in range(6)]
    items.insert(3, ("conjecture c=6 n=12", CONJECTURE, (6, 12, derive(seed, "c6"))))
    items.append(("verify-example61", EXAMPLE61, (derive(seed, "ex61"),)))
    return items


def _conjecture_notcm(seed):
    return [(f"conjecture c=5 n={n}", CONJECTURE, (5, n, derive(seed, "n", n)))
            for n in (8, 9, 11, 12)]


def _stretched_grid(seed):
    items = []
    for c in range(3, 6):
        for s in range(2, 5):
            for r in range(c):
                draws = []
                for d in range(3 if r < c - 1 else 1):
                    rng = random.Random(derive(seed, c, s, r, d))
                    draws.append(tuple(rng.randrange(1, P) for _ in range(max(c - 1 - r, 0))))
                items.append((f"stretched c={c} s={s} r={r}", STRETCHED, (c, s, r, draws)))
    return items


def _points_ideal(seed):
    return [(f"points c={c} n={conjectured_count(c)}", POINTS,
             (c, conjectured_count(c), derive(seed, "pts", c)))
            for c in range(9, 14)]


class Workload(NamedTuple):
    make_pass: Callable  # seed -> list of items, run once per round
    warmup: tuple  # one small item, run before the loop as part of set-up


WORKLOADS = {
    "conjecture-cm": Workload(_conjecture_cm, ("verify-example61", EXAMPLE61, (0,))),
    "conjecture-notcm": Workload(_conjecture_notcm, ("verify-example61", EXAMPLE61, (0,))),
    "stretched-grid": Workload(_stretched_grid, ("stretched c=3 s=3 r=0", STRETCHED, (3, 3, 0, [(1, 1)]))),
    "points-ideal": Workload(_points_ideal, ("points c=8 n=19", POINTS, (8, 19, 0))),
}
