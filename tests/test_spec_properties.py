"""Cross-module laws: socle degree structure of stretched quotients, the
short classification of generic point reductions, and the criteria-agreement
hard failure."""

from math import comb

import pytest

from conormal import Ideal, PolynomialRing, PrimeField, buchberger
from conormal.invariants import classify, length
from conormal.constructions import StretchedSpec, stretched_ideal
from conormal.points import bm_result, general_points, vanishing_ideal
from conormal import cm as cm_module
from conormal.cm import CriteriaAgreementError, analyze
from conormal.criteria import NOT_CM, POSITIVE, CriteriaVerdict


def test_stretched_socle_degrees_split_between_one_and_top():
    # a socle element below the top degree must sit in degree exactly 1:
    # the multiset of socle degrees is r ones plus the single top degree
    p = PrimeField(31991)
    for c in (3, 4):
        ring = PolynomialRing(p, [f"x{i + 1}" for i in range(c)])
        for s in (2, 3, 4):
            for r in range(c):
                ideal = stretched_ideal(StretchedSpec(c, s, r), ring)
                report = classify(buchberger(ideal))
                assert report.socle_degrees == tuple(sorted([1] * r + [s])), (c, s, r)


def test_generic_point_reductions_are_short_with_socle_degree_two():
    # any generic count strictly between c+1 and 1+c+C(c+1,2) gives a short
    # reduction with socle degree 2
    for c, n_values in ((2, (4, 5, 6)), (3, (5, 7, 10))):
        top = 1 + c + comb(c + 1, 2)
        for n in n_values:
            assert 1 + c < n <= top
            ps, _ = general_points(c, n, 31991, seed=(c, n))
            report = analyze(bm_result(ps), seed=1).invariants
            assert report.short, (c, n)
            assert report.s == 2, (c, n)
            assert report.hf.values == (1, c, n - c - 1), (c, n)


def test_collinear_points_need_a_high_degree_generator():
    # eight points on a coordinate line: the ideal is the line plus one
    # degree-8 form, found only because the evaluation loop keeps going
    # until a degree contributes nothing new
    from conormal.points import make_point_set

    pts = [(1, t, 0) for t in range(7)] + [(0, 1, 0)]
    ps = make_point_set(2, 31991, pts)
    gb = vanishing_ideal(ps)
    assert sorted(int(g.degree) for g in gb.elements) == [1, 8]
    from conftest import oneshot_vanishing_kernels, count_standard_of_degree
    from conormal import contains

    kernels = oneshot_vanishing_kernels(ps, 9)
    for d, polys in kernels.items():
        assert comb(2 + d, d) - count_standard_of_degree(gb, d) == len(polys)
        for f in polys:
            assert contains(gb, f)


def test_square_multiplicity_law_on_a_non_cm_example():
    # e(R/I^2) = (ht+1) e(R/I) holds whether or not the square is CM: the
    # Hilbert function of the square of the 9-points ideal stabilizes at
    # 54 = 6*9, strictly below every Artinian reduction length (>= 56)
    from conormal import ideal_square
    from conormal.cm import artinian_reduction, is_cm_square
    from conftest import count_standard_of_degree

    ps, _ = general_points(5, 9, 31991, seed=3)
    gb = vanishing_ideal(ps)
    sq_gb = buchberger(ideal_square(gb.as_ideal()))
    assert [count_standard_of_degree(sq_gb, d) for d in (8, 10, 12)] == [54, 54, 54]
    verdict = is_cm_square(gb, artinian_reduction(gb, 3, 3))
    assert verdict.status == "NotCM" and verdict.lambda_min >= 56


def test_vanishing_ideal_under_deglex():
    from conormal import DEGLEX
    from conormal.points import make_point_set

    ps = make_point_set(2, 31991, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    gb = vanishing_ideal(ps, DEGLEX)
    assert gb.ring.order == DEGLEX
    assert sorted(str(g) for g in gb.elements) == ["x0*x1", "x0*x2", "x1*x2"]


def test_groebner_stress_across_orders():
    # random small ideals: verified bases and order-independent lengths,
    # lex included
    import random
    from conormal import DEGLEX, LEX, verify_groebner

    rng = random.Random(4242)
    field = PrimeField(101)
    for _ in range(15):
        nvars = rng.randrange(2, 4)
        ring = PolynomialRing(field, [f"x{i}" for i in range(nvars)])
        gens = [ring.var(v) ** rng.randrange(1, 4) for v in ring.vars]
        for _ in range(2):
            f = ring.poly(
                {
                    tuple(rng.randrange(3) for _ in range(nvars)): rng.randrange(101)
                    for _ in range(3)
                }
            )
            if not f.is_zero():
                gens.append(f)
        ideal = Ideal(ring, gens)
        counts = set()
        for order in (None, DEGLEX, LEX):
            gb = buchberger(ideal, order)
            assert verify_groebner(gb)
            counts.add(length(gb))
        assert len(counts) == 1


def test_h_vector_is_the_difference_of_the_coordinate_hilbert_function():
    # reduced point schemes are always CM, so the reduction's h-vector must
    # equal the first difference of the evaluation-computed Hilbert
    # function; this ties the two independent computation paths together
    import random as _random
    from conormal.points import make_point_set, random_points

    rng = _random.Random(6)
    configs = [random_points(rng.randrange(1, 4), rng.randrange(2, 9), 31991,
                             seed=rng.randrange(10 ** 6)) for _ in range(8)]
    collinear = make_point_set(2, 31991, [(1, t, 0) for t in range(7)] + [(0, 1, 0)])
    for ps in configs + [collinear]:
        coord_hf = bm_result(ps).hf
        diffs = [1] + [
            coord_hf[i] - coord_hf[i - 1] for i in range(1, len(coord_hf))
        ]
        while diffs and diffs[-1] == 0:
            diffs.pop()
        gb = vanishing_ideal(ps)
        # the route without the points, where nothing checks this equality
        report = analyze(gb, seed=11)
        assert report.invariants.hf.values == tuple(diffs), ps.points


def test_agreement_violation_is_a_hard_failure(monkeypatch):
    # force a bogus NotCM criterion against the benchmark's certified CM
    def bogus(c, e):
        return CriteriaVerdict(NOT_CM, "forced-for-test", {"c": c, "e": e})

    monkeypatch.setattr(cm_module.crit, "low_multiplicity_verdict", bogus)
    from conftest import example61_ideal

    gb = buchberger(example61_ideal())
    with pytest.raises(CriteriaAgreementError):
        analyze(gb, seed=0)


def test_positive_answer_on_a_non_gorenstein_cm_square_is_a_hard_failure(monkeypatch):
    # the benchmark ring is level, not Gorenstein, and its square is
    # certified CM; a forged "a CM square forces Gorenstein" answer
    # contradicts that certificate
    def forged(c, e):
        return CriteriaVerdict(POSITIVE, "forced-for-test", {"c": c, "e": e})

    monkeypatch.setattr(cm_module.crit, "low_multiplicity_verdict", forged)
    from conftest import example61_ideal

    gb = buchberger(example61_ideal())
    with pytest.raises(CriteriaAgreementError, match="forces Gorenstein"):
        analyze(gb, seed=0)


def test_positive_answer_on_a_gorenstein_cm_square_is_accepted():
    # three points on P^1: the ideal is principal, its square is CM and the
    # reduction k[t]/(t^3) is Gorenstein, so the codim-at-most-2 answers agree
    from conormal.points import make_point_set

    ps = make_point_set(1, 31991, [(1, 0), (0, 1), (1, 1)])
    report = analyze(bm_result(ps), seed=0)
    assert report.cm_square.status == "CM" and report.invariants.gorenstein
    assert report.criteria
    assert all(v.outcome == POSITIVE for _, v in report.criteria)
    assert report.agreement
