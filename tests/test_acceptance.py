"""Acceptance suite: one criterion per test, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5's c=7 half, the optional c in {7, 8, 9, 10} conjecture
confirmations and the pinned c=11 conjecture report are long runs, gated
behind CONORMAL_LONG_TESTS=1.
"""

import os
import random
import time
from fractions import Fraction
from math import comb

import pytest

from conormal import (
    DEGLEX,
    DEGREVLEX,
    Ideal,
    PolynomialRing,
    PrimeField,
    buchberger,
    contains,
    ideal_square,
)
from conormal.invariants import classify, length
from conormal.criteria import (
    NOT_CM,
    UNDECIDED,
    conjectured_counterexample_points,
    quadric_count_verdict,
    short_margin,
    short_margin_monotonic,
)
from conormal.cm import analyze, derive_seed
from conormal.constructions import StretchedSpec, ideal_L, stretched_ideal
from conormal.points import bm_result, general_points, random_points, vanishing_ideal
from conormal.harness import ExperimentConfig, verify_example61
from conftest import (
    count_standard_of_degree,
    oneshot_vanishing_kernels,
    seeded_quadrics,
    sweep_square_gap,
)

LONG_RUNS = os.environ.get("CONORMAL_LONG_TESTS") == "1"


def _announce(criterion, ok=True):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_benchmark_reproduction():
    started = time.monotonic()
    text, code = verify_example61(ExperimentConfig(command="verify-example61"))
    elapsed = time.monotonic() - started
    assert code == 0, text
    assert "fact h-vector (1, 5, 4): ok" in text
    assert "fact type 4: ok" in text
    assert "fact level: ok" in text
    assert "fact not Gorenstein: ok" in text
    assert "fact square Cohen-Macaulay with reduction length 60: ok" in text
    assert "cm_lambda_min: 60" in text and "cm_e_expected: 60" in text
    assert elapsed <= 60.0, f"benchmark run took {elapsed:.1f}s, limit 60s"
    _announce("1 (benchmark ideal reproduction, "
              f"{elapsed:.2f}s of the 60s budget)")


def test_criterion_2_margin_table_exactness():
    assert short_margin(5, 4) == 6
    assert short_margin(4, 5) == 17
    assert short_margin(3, 6) == 7
    assert short_margin(2, 8) == Fraction(1, 3)
    assert short_margin(3, 5) == -1
    assert short_margin(3, 4) == -5
    assert short_margin_monotonic(12, 12)
    _announce("2 (exact margin values and 12-grid monotonicity)")


def test_criterion_3_quadric_windows():
    for q in range(comb(6, 2)):
        expected = UNDECIDED if q == 11 else NOT_CM
        assert quadric_count_verdict(5, q).outcome == expected, (5, q)
    for q in range(comb(7, 2)):
        expected = UNDECIDED if q == 16 else NOT_CM
        assert quadric_count_verdict(6, q).outcome == expected, (6, q)
    _announce("3 (socle-degree-2 windows: unique undecided q=11 at c=5, "
              "q=16 at c=6)")


@pytest.mark.parametrize("c,n", [(5, 10), (6, 12)])
def test_criterion_4_conjecture_counterexamples(c, n):
    assert conjectured_counterexample_points(c) == n
    for seed in (1, 2, 3):
        started = time.monotonic()
        ps, redraws = general_points(c, n, 31991, seed=seed, max_redraws=10)
        assert redraws <= 10
        report = analyze(bm_result(ps), seed=seed, source=f"{n} points in P^{c}")
        elapsed = time.monotonic() - started
        assert report.cm_square.status == "CM", (c, seed)
        assert not report.invariants.gorenstein, (c, seed)
        assert report.cm_square.lambda_min == (c + 1) * n
        assert elapsed <= 600.0, f"(c={c}, seed={seed}) took {elapsed:.0f}s"
    _announce(f"4 (c={c}: square CM and non-Gorenstein on 3 seeds)")


def test_criterion_5_negative_control_c5():
    started = time.monotonic()
    ps, _ = general_points(5, 9, 31991, seed=3, max_redraws=10)
    report = analyze(bm_result(ps), seed=3, source="9 points in P^5")
    elapsed = time.monotonic() - started
    assert report.cm_square.status == "NotCM"
    assert report.q == 12
    fired = dict(report.criteria)["quadric-count"]
    assert fired.outcome == NOT_CM and fired.rule == "excess-quadrics"
    assert elapsed <= 300.0, f"control took {elapsed:.0f}s, limit 300s"
    _announce(f"5a (9 points in P^5: NotCM with excess-quadrics agreement, "
              f"{elapsed:.1f}s of the 300s budget)")


@pytest.mark.skipif(not LONG_RUNS, reason="gated long run (CONORMAL_LONG_TESTS=1)")
def test_criterion_5_negative_control_c7():
    from conormal.harness import conjecture_experiment

    config = ExperimentConfig(
        command="conjecture", c=7, n=14, seed=1,
        budget=100_000_000, allow_long=True,
    )
    text, code = conjecture_experiment(config)
    assert code == 1, text  # NotCM
    assert "counterexample: false" in text
    _announce("5b (14 points in P^7 is not a counterexample)")


@pytest.mark.skipif(not LONG_RUNS, reason="gated long run (CONORMAL_LONG_TESTS=1)")
@pytest.mark.parametrize("c", [7, 8, 9, 10])
def test_optional_conjecture_high_codimension(c):
    n = conjectured_counterexample_points(c)
    ps, _ = general_points(c, n, 31991, seed=1, max_redraws=10)
    report = analyze(bm_result(ps), seed=1, source=f"{n} points in P^{c}",
                     budget=500_000_000)
    assert report.cm_square.status == "CM"
    assert not report.invariants.gorenstein
    _announce(f"optional (c={c}: conjectured count {n} confirmed)")


@pytest.mark.skipif(not LONG_RUNS, reason="gated long run (CONORMAL_LONG_TESTS=1)")
def test_conjecture_c11_report_is_pinned(monkeypatch, capsys):
    # c = 11 is the first codimension where a large degree 5 of the square
    # follows a degree 4 that does not fill: CM with lambda = 372 = 12 * 31,
    # and its whole stdout at seed 0 is pinned byte for byte
    import hashlib

    from conormal.cli import main

    monkeypatch.delenv("CONORMAL_STEP_BUDGET", raising=False)
    assert main(["conjecture", "--c", "11", "--allow-long"]) == 0
    out = capsys.readouterr().out
    assert "cm_square: CM\ncm_lambda_min: 372\ncm_e_expected: 372\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8fa31e835b514da4160d00015b6f9211bb551ef5f82174caf4995066e8e1c585"
    )
    _announce("optional (c=11: the conjectured count 31 is CM, stdout pinned)")


def test_criterion_6_stretched_grid():
    p = PrimeField(31991)
    for c in (3, 4, 5):
        ring = PolynomialRing(p, [f"x{i + 1}" for i in range(c)])
        gb_l_cache = {}
        for s in (2, 3, 4):
            for r in range(c):
                draws = 3 if r < c - 1 else 1
                observed = []
                for k in range(draws):
                    rng = random.Random(derive_seed("acceptance6", c, s, r, k))
                    units = tuple(
                        rng.randrange(1, p.p) for _ in range(c - 1 - r)
                    )
                    ideal = stretched_ideal(StretchedSpec(c, s, r, units), ring)
                    report = classify(buchberger(ideal))
                    assert report.hf.values == (1, c) + (1,) * (s - 1), (c, s, r)
                    assert report.tau == r + 1, (c, s, r)
                    assert report.length == c + s
                    sq = ideal_square(ideal)
                    if (c, s) not in gb_l_cache:
                        gb_l_cache[(c, s)] = buchberger(ideal_L(c, s, ring))
                    gb_l = gb_l_cache[(c, s)]
                    assert all(contains(gb_l, g) for g in sq.generators), (c, s, r)
                    gb_sq = buchberger(sq)
                    lam_sq = length(gb_sq)
                    lam_l = length(gb_l)
                    equal = all(
                        contains(gb_sq, g) for g in gb_l.elements
                    )
                    assert equal == (r <= c - 3), (c, s, r)
                    if r >= c - 2:
                        assert lam_sq >= lam_l + 2, (c, s, r)
                    if c >= 4:
                        assert lam_sq > (c + 1) * (c + s), (c, s, r)
                    observed.append((report.length, report.tau, lam_sq, lam_l))
                assert len(set(observed)) == 1, f"unit dependence at {(c, s, r)}"
    _announce("6 (stretched grid: Hilbert functions, types, containment "
              "dichotomy and length laws)")


def test_criterion_7_square_of_variables():
    for c in range(2, 7):
        ring = PolynomialRing(PrimeField(31991), [f"x{i}" for i in range(c)])
        ideal = Ideal(ring, ring.gens())
        gb = buchberger(ideal_square(ideal))
        assert length(gb) == c + 1
        assert length(buchberger(ideal)) == 1  # e(R/I) = 1
    _announce("7 (square of the variable ideal has colength c+1, c=2..6)")


def test_criterion_8_vanishing_ideal_oracle_equivalence():
    rng = random.Random(20240608)
    seeds = [rng.randrange(10 ** 9) for _ in range(20)]
    for seed in seeds:
        for c in (1, 2, 3):
            for n in range(1, 9):
                ps = random_points(c, n, 31991, seed=(seed, c, n))
                gb = vanishing_ideal(ps)
                top = max(int(g.degree) for g in gb.elements) + 1
                kernels = oneshot_vanishing_kernels(ps, top)
                for d, polys in kernels.items():
                    total = comb(c + d, d)
                    assert total - count_standard_of_degree(gb, d) == len(polys)
                    for f in polys:
                        assert contains(gb, f)
    _announce("8a (vanishing ideal matches the one-shot oracle: "
              "c <= 3, n <= 8, 20 seeds)")


def test_criterion_8_order_independent_counts():
    rng = random.Random(77)
    field = PrimeField(31991)
    done = 0
    while done < 50:
        nvars = rng.randrange(2, 4)
        ring = PolynomialRing(field, [f"x{i}" for i in range(nvars)], DEGREVLEX)
        gens = [ring.var(v) ** rng.randrange(1, 4) for v in ring.vars]
        for _ in range(2):
            f = ring.poly(
                {
                    tuple(rng.randrange(3) for _ in range(nvars)): rng.randrange(field.p)
                    for _ in range(3)
                }
            )
            if not f.is_zero():
                gens.append(f)
        ideal = Ideal(ring, gens)
        n1 = length(buchberger(ideal, DEGREVLEX))
        n2 = length(buchberger(ideal, DEGLEX))
        assert n1 == n2
        done += 1
    _announce("8b (standard-monomial counts match under degrevlex and deglex, "
              "50 ideals)")


def test_criterion_9_eight_quadrics():
    hits = 0
    for k in range(25):
        assert sweep_square_gap(*seeded_quadrics(("acceptance9", k), 31991))
        hits += 1
    assert hits == 25
    _announce("9 (25/25 random eight-quadric squares miss a degree-4 monomial)")
