from fractions import Fraction
from math import comb

import pytest

from conormal.criteria import (
    MAX_GRID,
    NOT_CM,
    POSITIVE,
    UNDECIDED,
    CriteriaVerdict,
    conjectured_counterexample_points,
    curve_degree_verdict,
    low_multiplicity_verdict,
    min_codim_forcing_not_cm,
    monomial_count,
    monomial_count_plus,
    quadric_count_verdict,
    short_margin,
    short_margin_monotonic,
    short_socle_verdict,
    stretched_verdict,
    undecided_quadric_counts,
)


def test_margin_reported_values():
    assert short_margin(5, 4) == 6
    assert short_margin(4, 5) == 17
    assert short_margin(3, 6) == 7
    assert short_margin(2, 8) == Fraction(1, 3)
    assert short_margin(3, 5) == -1
    assert short_margin(3, 4) == -5


def test_margin_single_variable():
    for s in range(1, 13):
        assert short_margin(1, s) == -1


def test_margin_monotonicity_on_the_grid():
    assert short_margin_monotonic(12, 12)
    assert short_margin_monotonic(10, 10)
    # the guard is necessary: the raw inequality fails where the margin is
    # negative
    assert short_margin(2, 2) < short_margin(2, 1)
    assert short_margin(3, 3) < short_margin(2, 3)


def test_margin_chains_from_the_examples():
    assert short_margin(3, 4) <= short_margin(3, 5) <= short_margin(3, 6)
    assert short_margin(2, 8) <= short_margin(3, 8)


def test_margin_positivity_propagates_from_the_anchors():
    anchors = [(5, 4), (4, 5), (3, 6), (2, 8)]
    for c in range(1, 13):
        for s in range(1, 13):
            if any(c >= ca and s >= sa for ca, sa in anchors):
                assert short_margin(c, s) > 0, (c, s)


def test_counting_table_partial_sums():
    # sum_{i<=s} n_i == N_s: a monomial in c+1 variables of degree s is one in
    # c variables of degree at most s times a power of the last variable
    for c in range(1, 13):
        total = 0
        for s in range(13):
            total += monomial_count(c, s)
            assert total == monomial_count_plus(c, s), (c, s)
    assert monomial_count(3, 2) == 6
    assert monomial_count_plus(3, 2) == 10


def test_quadric_verdict_excess():
    verdict = quadric_count_verdict(5, 12)
    assert verdict.outcome == NOT_CM and verdict.rule == "excess-quadrics"


def test_quadric_verdict_quartic_window():
    verdict = quadric_count_verdict(5, 10)
    assert verdict.outcome == NOT_CM and verdict.rule == "quartic-window"
    assert verdict.numbers["window4_K"] == 121  # exact square: window (0, 11)


def test_quadric_verdict_boundaries_are_exact():
    # the window (0, 11) at c=5 is open: q=0 must not fire rule b, q=11 never
    v0 = quadric_count_verdict(5, 0)
    assert v0.rule != "quartic-window"
    assert quadric_count_verdict(5, 11).outcome == UNDECIDED


def test_unique_undecided_counts():
    assert undecided_quadric_counts(5) == [11]
    assert undecided_quadric_counts(6) == [16]
    for q in range(comb(6 + 1, 2)):
        expected = UNDECIDED if q == 16 else NOT_CM
        assert quadric_count_verdict(6, q).outcome == expected


def test_codim6_boundary_rule_is_isolated():
    assert quadric_count_verdict(6, 15).rule == "codim6-boundary"
    assert quadric_count_verdict(6, 14).rule == "quartic-window"
    assert quadric_count_verdict(6, 17).rule == "excess-quadrics"


def test_small_codim_special_cases_need_the_flag():
    assert quadric_count_verdict(3, 5).outcome == UNDECIDED
    assert quadric_count_verdict(3, 5, gorenstein=False).outcome == NOT_CM
    assert quadric_count_verdict(3, 5, gorenstein=False).rule == "codim3-non-gorenstein"
    assert quadric_count_verdict(3, 5, gorenstein=True).outcome == UNDECIDED
    assert quadric_count_verdict(4, 8).outcome == UNDECIDED
    assert quadric_count_verdict(4, 8, gorenstein=True).rule == "codim4-eight-quadrics"
    assert quadric_count_verdict(4, 8, gorenstein=False).rule == "codim4-eight-quadrics"


def test_quadric_verdict_range_errors():
    with pytest.raises(ValueError):
        quadric_count_verdict(5, 15)
    with pytest.raises(ValueError):
        quadric_count_verdict(5, -1)
    with pytest.raises(ValueError):
        quadric_count_verdict(2, 1)


def test_conjectured_counts():
    assert conjectured_counterexample_points(5) == 10
    assert conjectured_counterexample_points(6) == 12
    assert conjectured_counterexample_points(7) == 15


def test_conjectured_count_consistent_with_windows():
    for c in range(5, 10):
        undecided = undecided_quadric_counts(c)
        assert undecided, f"no undecided window at c={c}"
        gap = conjectured_counterexample_points(c) - (1 + c)
        assert gap == -(-(c * (c - 1)) // 6)  # ceil
        assert gap >= comb(c + 1, 2) - max(undecided)


def test_min_codim_bound():
    assert min_codim_forcing_not_cm(1) == 2
    assert min_codim_forcing_not_cm(2) == 4
    assert min_codim_forcing_not_cm(5) == 6


def test_min_codim_bound_is_the_count_of_the_cubes():
    # the square verdict proves NotCM by counting exactly when
    # (c+1)e < C(c+3, 3), e = c + t; the criterion must say the same on the
    # whole grid
    for t in range(1, MAX_GRID + 1):
        for c in range(1, MAX_GRID + 1):
            assert (c >= min_codim_forcing_not_cm(t)) == ((c + 1) * (c + t) < comb(c + 3, 3))


def test_curve_verdicts():
    assert curve_degree_verdict((3, 4, 5)).outcome == POSITIVE
    assert curve_degree_verdict((9, 10, 11)).outcome == UNDECIDED
    with pytest.raises(ValueError):
        curve_degree_verdict((4,))
    with pytest.raises(ValueError):
        curve_degree_verdict((0, 3))


def test_low_multiplicity_verdicts():
    assert low_multiplicity_verdict(5, 9).outcome == POSITIVE
    assert low_multiplicity_verdict(5, 10).outcome == UNDECIDED
    assert low_multiplicity_verdict(2, 100).outcome == POSITIVE
    with pytest.raises(ValueError):
        low_multiplicity_verdict(5, 5)


def test_stretched_and_short_verdicts():
    assert stretched_verdict(4, True).outcome == NOT_CM
    assert stretched_verdict(3, False).outcome == NOT_CM
    assert stretched_verdict(3, True).outcome == UNDECIDED
    assert stretched_verdict(2, False).outcome == POSITIVE
    assert short_socle_verdict(5, 3).outcome == NOT_CM
    assert short_socle_verdict(5, 2).outcome == UNDECIDED
    assert short_socle_verdict(1, 9).outcome == UNDECIDED


def test_verdict_validation():
    with pytest.raises(ValueError):
        CriteriaVerdict("Maybe", "none")
    text = quadric_count_verdict(5, 12).to_text()
    assert text.startswith("NotCM [excess-quadrics]")
