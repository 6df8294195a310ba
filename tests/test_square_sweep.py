"""Differential tests of the square verdict's degree sweep and of the
reduction's Macaulay basis.

The oracle of the sweep is the route it replaced: a full Buchberger run on
I + l and on I^2 + l for every trial form, with the lengths read off the
standard monomials.  Every form with R/(I + l) Artinian must give the same
lengths, and so the same verdict, which is what lets the first such form
decide; the sweep of that one form must agree with them.

The oracle of the reduction (the Hilbert function of S/IS, S = R/(l),
from the standard monomials of the basis of I, and the basis of IS from
Macaulay matrices) is Buchberger in S on the images of the basis of I,
for every trial form: a form is skipped iff that basis is not
zero-dimensional, and otherwise the two reduced bases agree.  On points
the Hilbert function walked off the basis must be the first difference of
the points' one, and the analysis of the points' Buchberger-Moller pass
must print the report of the analysis of its basis.  The reduction's
basis must be the reduced basis of I + l in R, less its element led by
the leading variable of l, moved to S.

The oracle of the eight-quadrics check (the rank of the square in degree
4) is the route it replaced: a Groebner basis of the square and the normal
form of every degree-4 monomial.

The oracle of the sweep's sparse generators (the reduction's reduced basis
of IS) is the square multiplied out from the raw images of the basis of
I: the same pivots in every degree, the same length.

The count that proves NotCM with no sweep (C(c+3, 3) > (c+1)e for I in
m^2) is checked against the sweep's own length on both sides of its
boundary.
"""

import dataclasses
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conormal import Ideal, PolynomialRing, PrimeField, buchberger
from conormal.cm import (
    DEFAULT_TRIALS,
    CmVerdict,
    _basis_and_delta,
    _hf_difference,
    _macaulay_basis,
    _products,
    _sweep,
    analyze,
    artinian_reduction,
    _square_length,
    _trial_forms,
    eight_quadrics_square_gap,
    is_cm_square,
)
from conormal.field import derive_seed
from conormal.groebner import (
    DEFAULT_STEP_BUDGET,
    BudgetExceededError,
    _Budget,
    ideal_square,
    is_zero_dimensional,
    normal_form,
    standard_monomials_packed,
    verify_groebner,
)
from conormal.invariants import length, linear_substitution
from conormal.points import (
    bm_result,
    general_points,
    make_point_set,
    random_points,
    vanishing_ideal,
)
from conormal.poly import substitute_all

from conftest import example61_ideal

P = 31991


def counting_detail(gb, e):
    """The detail of a NotCM proven by counting, or "": I in m^2 and
    (c+1)e < C(c+3, 3), in the integers, with no criterion."""
    c = gb.ring.nvars - 1
    bound = comb(c + 3, 3)
    if min(g.degree for g in gb.elements) < 2 or (c + 1) * e >= bound:
        return ""
    return f"counting: (c+1)e = {(c + 1) * e} < {bound} = C({c + 3},3)"


def oracle_verdict(gb, seed, trials):
    """The square verdict with one Buchberger run on I + l and one on
    I^2 + l for every trial form: (the verdict of the first form with
    R/(I + l) Artinian, or None if no form has one; the pairs (length of
    R/(I + l), length of R/(I^2 + l)) of all such forms).  Where the count
    proves NotCM the verdict carries its detail, and its length is still
    the computed one."""
    ring = gb.ring
    sq = ideal_square(gb.as_ideal())
    first, lengths = None, []
    for drawn, ell in enumerate(_trial_forms(ring, seed, trials), 1):
        reduced = buchberger(Ideal(ring, list(gb.elements) + [ell]))
        if not is_zero_dimensional(reduced):
            continue
        square = buchberger(Ideal(ring, list(sq.generators) + [ell]))
        lengths.append((length(reduced), length(square)))
        if first is None:
            first = ell, drawn
    if first is None:
        return None, lengths
    (e, lam), (ell, drawn) = lengths[0], first
    e_expected = ring.nvars * e  # (c + 1) * e
    if lam == e_expected:
        return CmVerdict("CM", ell, drawn, lam, e_expected), lengths
    detail = counting_detail(gb, e)
    return CmVerdict("NotCM", None, drawn, lam, e_expected, detail), lengths


def assert_same_verdict(gb, seed, trials):
    """Every trial form with R/(I + l) Artinian gives the same two lengths,
    and the one-form verdict is the oracle's."""
    got = is_cm_square(gb, artinian_reduction(gb, seed, trials))
    want, lengths = oracle_verdict(gb, seed, trials)
    assert len(set(lengths)) == 1, lengths
    assert (got.status, got.trials, got.lambda_min, got.e_expected, got.detail) == (
        want.status, want.trials, want.lambda_min, want.e_expected, want.detail
    )
    assert str(got.witness) == str(want.witness)
    return got


def conjectured_grid():
    """c = 3..5 around the conjectured count 1 + c + ceil(c(c-1)/6), on both
    sides of the CM threshold, at seeds 0 and 1, with the default trials."""
    for c in (3, 4, 5):
        count = 1 + c + -(-c * (c - 1) // 6)
        for n in (count - 1, count, count + 1):
            for seed in (0, 1):
                yield c, n, seed, DEFAULT_TRIALS


@pytest.mark.parametrize(
    "c, n, seed, trials",
    [
        (2, 4, 0, 3), (2, 5, 1, 3), (3, 5, 2, 3), (3, 7, 3, 3),
        (4, 6, 4, 3), (4, 9, 5, 3), (5, 7, 6, 3), (6, 7, 7, 2),
        *conjectured_grid(),
    ],
)
def test_general_points_match_buchberger(c, n, seed, trials):
    # every form that misses the points gives one length of R/(I^2 + l), so
    # the first decides, with the points or without them
    ps, _ = general_points(c, n, P, seed)
    gb = vanishing_ideal(ps)
    got = assert_same_verdict(gb, seed, trials)
    assert got.e_expected == (c + 1) * n
    assert analyze(bm_result(ps), seed, trials).cm_square == got


@pytest.mark.parametrize(
    "variables, gens",
    [
        # (x) meet (x^2, y): R/I is not CM
        (["x", "y"], ["x^2", "x*y"]),
        # (x, y)^2, a fat point: not a generic complete intersection
        (["x", "y", "z"], ["x^2", "x*y", "y^2"]),
    ],
)
def test_inputs_outside_the_hypotheses_do_not_depend_on_the_form(variables, gens):
    # these inputs break the paper's hypotheses, so their verdicts are not
    # certified; but no other form could have changed them: R/(x^2, xy)
    # is refused at every seed before a form is drawn, as its Hilbert
    # function 1, 2, 1 falls, and for the fat point every form gives the
    # same e and the same length of R/(I^2 + l)
    ring = PolynomialRing(PrimeField(P), variables)
    gb = buchberger(Ideal(ring, [ring.parse(g) for g in gens]))
    if len(variables) == 2:
        for seed in range(3):
            with pytest.raises(ValueError, match="falls from 2 in degree 1 to 1"):
                artinian_reduction(gb, seed)
        return
    for seed in range(3):
        verdict = assert_same_verdict(gb, seed, DEFAULT_TRIALS)
        # (x, y)^2 lies in m^2 with e = 3 and c = 2: the count proves the
        # same NotCM as the sweep, 10 > 9
        assert (verdict.status, verdict.lambda_min) == ("NotCM", 10)
        assert verdict.detail == "counting: (c+1)e = 9 < 10 = C(5,3)"


def points_with_a_point_on_the_first_form(seed):
    """Five general points in P^3 and a sixth on the first trial form."""
    ps, _ = general_points(3, 5, P, seed)
    ring = vanishing_ideal(ps).ring
    ell = next(_trial_forms(ring, seed, 1))
    a = [ell.coefficient(tuple(int(i == j) for i in range(4))) for j in range(4)]
    # a point on the hyperplane a . x = 0: solve for the first coordinate
    rest = (1, 2, 3)
    x0 = -sum(ai * xi for ai, xi in zip(a[1:], rest)) * pow(a[0], -1, P) % P
    return make_point_set(3, P, list(ps.points) + [(x0,) + rest])


def images_in_s(gb, ell):
    """S = R/(l) and the nonzero images in S of the basis of I: they
    generate IS."""
    smaller, assignment = linear_substitution(gb.ring, [ell])
    return smaller, [f for f in substitute_all(gb.elements, assignment) if not f.is_zero()]


def assert_reductions_are_i_plus_l_in_s(monkeypatch, gb, seed, trials):
    """For every trial form that is a parameter: the reduced basis of I + l
    in R, less its element led by the leading variable of l and moved to S,
    is the reduction's basis.  Returns the number of forms checked."""
    import conormal.cm as cm

    ring = gb.ring
    checked = 0
    for ell in _trial_forms(ring, seed, trials):
        in_r = buchberger(Ideal(ring, list(gb.elements) + [ell]))
        if not is_zero_dimensional(in_r):
            continue
        lead = ell.terms[0][1]
        rest = [f for f in in_r.elements if f.terms[0][1] != lead]
        assert len(rest) == len(in_r.elements) - 1
        smaller, assignment = linear_substitution(ring, [ell])
        want = substitute_all(rest, assignment)
        monkeypatch.setattr(cm, "_trial_forms", lambda ring, seed, trials, ell=ell: [ell])
        reduction = artinian_reduction(gb, seed, 1)
        assert reduction.form == ell and reduction.basis.ring == smaller
        assert list(reduction.basis.elements) == want
        checked += 1
    monkeypatch.undo()
    return checked


def test_reductions_are_i_plus_l_in_s_on_example61(monkeypatch):
    gb = buchberger(example61_ideal())
    assert assert_reductions_are_i_plus_l_in_s(monkeypatch, gb, 0, DEFAULT_TRIALS) == 5


def test_reductions_are_i_plus_l_in_s_with_a_form_through_a_point(monkeypatch):
    # the first form vanishes at a point and is no parameter; the other two
    # are checked
    gb = vanishing_ideal(points_with_a_point_on_the_first_form(11))
    assert assert_reductions_are_i_plus_l_in_s(monkeypatch, gb, 11, 3) == 2


def test_a_form_whose_images_are_all_zero_is_no_parameter(monkeypatch):
    # I = (x) in k[x, y]: the form x maps every generator to zero, so S/IS
    # is S, nonzero in degree 1, and the next form is drawn
    import conormal.cm as cm

    ring = PolynomialRing(PrimeField(P), ["x", "y"])
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [x]))
    monkeypatch.setattr(cm, "_trial_forms", lambda ring, seed, trials: [x * 2, x + y][:trials])
    reduction = artinian_reduction(gb, 0, 2)
    assert reduction.drawn == 2 and reduction.hf == (1,)
    with pytest.raises(RuntimeError, match=r"no Artinian reduction in 1 form drawn over GF\(31991\)"):
        artinian_reduction(gb, 0, 1)


def test_form_through_a_point_is_skipped():
    # the first trial form vanishes at the last point, so that trial is
    # degenerate on both routes and the second form decides
    seed = 11
    gb = vanishing_ideal(points_with_a_point_on_the_first_form(seed))
    assert assert_same_verdict(gb, seed, 3).trials == 2


def first_difference(hf):
    """The first difference of a Hilbert function, without its trailing
    zeros."""
    delta = [hf[0]] + [hf[d] - hf[d - 1] for d in range(1, len(hf))]
    while delta[-1] == 0:
        delta.pop()
    return tuple(delta)


def assert_points_path_matches_buchberger(ps, seed, trials):
    """The Hilbert function walked off the basis against the first
    difference of the points' one, which the points route reads; for each
    trial form, the Macaulay basis against Buchberger in S on the images
    (None iff that basis is not zero-dimensional, the form vanishing at a
    point); then the reduction against the first zero-dimensional oracle,
    and the analysis of the points' pass against that of its basis, byte
    for byte."""
    bm = bm_result(ps)
    gb = bm.basis
    delta = _hf_difference(gb)
    assert delta == first_difference(bm.hf) == _basis_and_delta(bm)[1]
    first = None
    for drawn, ell in enumerate(_trial_forms(gb.ring, seed, trials), 1):
        smaller, images = images_in_s(gb, ell)
        oracle = buchberger(Ideal(smaller, images))
        basis = _macaulay_basis(smaller, images, delta, 10 ** 7)
        if not is_zero_dimensional(oracle):
            assert basis is None, ps.points
            continue
        assert len(delta) == len(standard_monomials_packed(oracle))
        assert basis.elements == oracle.elements
        if first is None:
            first = drawn, oracle
    reduction = artinian_reduction(gb, seed, trials)
    assert (reduction.drawn, reduction.basis.elements) == (first[0], first[1].elements)
    assert reduction.hf == delta and reduction.length == ps.n
    again = artinian_reduction(bm, seed, trials)
    assert (again.drawn, again.hf, again.basis.elements) == (
        reduction.drawn, reduction.hf, reduction.basis.elements
    )
    assert analyze(bm, seed, trials).to_text() == analyze(gb, seed, trials).to_text()
    return reduction


@pytest.mark.parametrize(
    "c, n, seed", [(2, 4, 0), (3, 7, 3), (4, 9, 5), (5, 10, 1), (5, 12, 2), (6, 12, 0)],
)
def test_points_path_matches_buchberger_on_general_points(c, n, seed):
    ps, _ = general_points(c, n, P, seed)
    assert_points_path_matches_buchberger(ps, seed, 3)


def test_points_path_matches_buchberger_with_a_form_through_a_point():
    reduction = assert_points_path_matches_buchberger(
        points_with_a_point_on_the_first_form(11), 11, 3
    )
    assert reduction.drawn == 2


def test_points_path_matches_buchberger_on_a_single_point():
    # s = 0: the reduction is the field itself, and the form is still regular
    for c in (2, 3, 5):
        ps = make_point_set(c, P, [tuple(range(1, c + 2))])
        reduction = assert_points_path_matches_buchberger(ps, 3, 2)
        assert (reduction.socle_degree, reduction.drawn) == (0, 1)


def special_points(c, kind, n, extra, seed):
    """n points on a line ("line") or on a conic ("conic") in P^c, or n
    random ones ("random"), plus `extra` random points."""
    if kind == "random":
        return random_points(c, n + extra, P, seed)
    ts = random.Random(seed).sample(range(1, P), n)
    if kind == "line":
        pts = [(1, t) + (0,) * (c - 1) for t in ts]
    else:
        pts = [(1, t, t * t % P) + (0,) * (c - 2) for t in ts]
    if extra:
        pts += random_points(c, extra, P, seed).points
    return make_point_set(c, P, pts)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    c=st.integers(min_value=2, max_value=5),
    kind=st.sampled_from(["random", "line", "conic"]),
    n=st.integers(min_value=2, max_value=6),
    extra=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_points_path_matches_buchberger_on_special_point_sets(c, kind, n, extra, seed):
    ps = special_points(c, kind, n, extra, seed)
    assert_points_path_matches_buchberger(ps, seed, 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    c=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(["general", "random", "line", "conic", "on the first form"]),
    n=st.integers(min_value=1, max_value=12),
    extra=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hilbert_function_from_the_basis_is_that_of_the_points(c, kind, n, extra, seed):
    # the walk of the standard monomials of the basis stops where the
    # points' Hilbert function does, and its first difference is the same
    if kind == "general":
        ps, _ = general_points(c, n, P, seed)
    elif kind == "on the first form":
        ps = points_with_a_point_on_the_first_form(seed)
    elif kind == "random" or c >= 2:
        ps = special_points(c, kind, n, extra, seed)
    else:
        ps = random_points(c, n, P, seed)
    bm = bm_result(ps)
    assert _hf_difference(bm.basis) == first_difference(bm.hf)


def test_single_point_ideals_keep_their_linear_generators():
    for c in (2, 3, 4):
        ps = make_point_set(c, P, [tuple(range(1, c + 2))])
        gb = vanishing_ideal(ps)
        assert min(g.degree for g in gb.elements) == 1
        verdict = assert_same_verdict(gb, 3, 2)
        assert verdict.status == "CM" and verdict.lambda_min == c + 1


def test_example61_length_is_sixty():
    gb = buchberger(example61_ideal())
    verdict = assert_same_verdict(gb, 0, 5)
    assert verdict.status == "CM" and verdict.lambda_min == 60


def test_budget_exhausted_inside_the_sweep():
    # one point in P^5: the reduction's sweep of the five linear images in
    # S, charged per row, takes 9 steps, and its basis is the five
    # variables of S; the 15 products of the verdict's sweep, one step
    # each, do not fit in 11
    ps = make_point_set(5, P, [(1, 2, 3, 4, 5, 6)])
    gb = vanishing_ideal(ps)
    with pytest.raises(BudgetExceededError):
        artinian_reduction(gb, 3, budget=8)
    reduction = artinian_reduction(gb, 3, budget=9)
    budget = 11
    assert reduction.basis.elements == tuple(reversed(reduction.basis.ring.gens()))
    verdict = is_cm_square(gb, reduction, budget)
    assert verdict.status == "Inconclusive"
    assert verdict.detail == f"reduction step budget of {budget} exceeded"
    assert verdict.trials == 1 and verdict.lambda_min is None
    assert is_cm_square(gb, reduction, 14).status == "Inconclusive"
    assert is_cm_square(gb, reduction, 15).status == "CM"


def boundary_cases():
    """c = 2..6 and n one below, at and one above the largest n with
    (c+1)n < C(c+3, 3), at two seeds."""
    for c in range(2, 7):
        top = (comb(c + 3, 3) - 1) // (c + 1)
        for n in (top - 1, top, top + 1):
            for seed in (0, 1):
                yield c, n, seed


@pytest.mark.parametrize("c, n, seed", list(boundary_cases()))
def test_counting_proves_not_cm_exactly_where_the_count_does(c, n, seed):
    # both ways: where n > c puts I in m^2 and (c+1)n < C(c+3, 3), the
    # verdict is NotCM by counting, with the bound as its length, and the
    # sweep's own length is at least that bound; elsewhere the verdict is
    # the sweep's, with no detail
    ps, _ = general_points(c, n, P, seed)
    gb = vanishing_ideal(ps)
    reduction = artinian_reduction(gb, seed)
    verdict = is_cm_square(gb, reduction)
    smaller, images = images_in_s(gb, reduction.form)
    lam = _square_length(smaller, images, 2 * reduction.socle_degree + 2, _Budget(10 ** 7))
    bound, target = comb(c + 3, 3), (c + 1) * n
    assert verdict.e_expected == target
    if n > c and target < bound:
        assert (verdict.status, verdict.lambda_min) == ("NotCM", bound)
        assert verdict.detail == f"counting: (c+1)e = {target} < {bound} = C({c + 3},3)"
        assert lam >= bound > target
    else:
        assert verdict.detail == ""
        assert verdict.lambda_min == lam


def test_a_multiplicity_past_the_criteria_grid_is_swept():
    # 67 points in P^2: t = e - c = 65 lies past the grid the criteria
    # accept, and c = 2 is far below the codimension the count needs, so
    # the verdict is the sweep's
    ps, _ = general_points(2, 67, P, 0)
    gb = vanishing_ideal(ps)
    verdict = is_cm_square(gb, artinian_reduction(gb, 0))
    assert verdict.detail == "" and verdict.lambda_min > verdict.e_expected == 201


def test_a_counting_verdict_runs_no_sweep(monkeypatch):
    import conormal.cm as cm

    def no_sweep(*args, **kwargs):
        raise AssertionError("the square verdict ran a sweep")

    reductions = {}
    for n in (8, 10):
        ps, _ = general_points(5, n, P, 0)
        gb = vanishing_ideal(ps)
        reductions[n] = gb, artinian_reduction(gb, 0)
    monkeypatch.setattr(cm, "_sweep", no_sweep)
    # 8 points in P^5: 6 * 8 < 56 = C(8, 3)
    verdict = is_cm_square(*reductions[8])
    assert (verdict.status, verdict.lambda_min) == ("NotCM", 56)
    # 10 points: 60 >= 56, so the verdict needs its sweep
    with pytest.raises(AssertionError, match="ran a sweep"):
        is_cm_square(*reductions[10])


def test_passes_are_charged_by_their_row_updates():
    # 6 general points in P^3: a row costs one step plus one per echelon row
    # subtracted from it, so the sweep of the squares of the reduction's
    # basis (four quadrics and two cubics of IS, swept as they stand) costs
    # 60 steps; a verdict that runs out still reports the form drawn
    ps, _ = general_points(3, 6, P, 0)
    gb = vanishing_ideal(ps)
    reduction = artinian_reduction(gb, 0)
    assert [f.degree for f in reduction.basis.elements] == [2, 2, 2, 2, 3, 3]
    for budget in (5, 59):
        verdict = is_cm_square(gb, reduction, budget)
        assert verdict.status == "Inconclusive"
        assert verdict.detail == f"reduction step budget of {budget} exceeded"
        assert verdict.trials == 1 and verdict.lambda_min is None
    assert is_cm_square(gb, reduction, 60).status == "NotCM"


def test_macaulay_basis_is_charged_by_its_row_updates():
    # 6 general points in P^3 and the first trial form, which is regular:
    # the basis of IS takes 28 steps, one per row plus one per echelon row
    # subtracted from it; the back-substitution is not charged
    ps, _ = general_points(3, 6, P, 0)
    gb = vanishing_ideal(ps)
    delta = _hf_difference(gb)
    ell = next(_trial_forms(gb.ring, 0, 1))
    smaller, images = images_in_s(gb, ell)
    want = buchberger(Ideal(smaller, images)).elements
    assert _macaulay_basis(smaller, images, delta, 28).elements == want
    with pytest.raises(BudgetExceededError):
        _macaulay_basis(smaller, images, delta, 27)


def oracle_square_gap(ring, quadrics):
    """Some degree-4 monomial is not in the square of the quadrics: its
    normal form modulo a Groebner basis of the square is nonzero."""
    gb = buchberger(ideal_square(Ideal(ring, quadrics)))
    return any(
        not normal_form(ring.monomial(m), gb).is_zero() for m in ring.monomials_of_degree(4)
    )


def sweep_square_gap(ring, quadrics):
    """The rank of the square in degree 4 is below dim S_4."""
    *_, (d, pos, ech, _) = _sweep(ring, 4, _Budget(DEFAULT_STEP_BUDGET), _products(ring, quadrics))
    assert d == 4
    return len(ech.pivots) < len(pos)


def seeded_quadrics(seed, p):
    """The eight quadrics `eight_quadrics_square_gap` draws for a seed."""
    ring = PolynomialRing(PrimeField(p), ["x1", "x2", "x3", "x4"])
    rng = random.Random(derive_seed(seed, "quadrics"))
    quadrics = []
    while len(quadrics) < 8:
        f = ring.poly({m: rng.randrange(p) for m in ring.monomials_of_degree(2)})
        if not f.is_zero():
            quadrics.append(f)
    return ring, quadrics


@pytest.mark.parametrize("p", [7, P])
def test_eight_quadrics_check_matches_the_normal_forms(p):
    for seed in range(10):
        ring, quadrics = seeded_quadrics(seed, p)
        want = oracle_square_gap(ring, quadrics)
        assert sweep_square_gap(ring, quadrics) == want
        assert eight_quadrics_square_gap(seed, p) == want


def test_squares_of_the_quadric_monomials_fill_degree_four():
    # the ten quadric monomials generate m^2, whose square m^4 is all of
    # S_4: the sweep reaches rank 35 and no normal form survives
    ring = PolynomialRing(PrimeField(7), ["x1", "x2", "x3", "x4"])
    quadrics = [ring.monomial(m) for m in ring.monomials_of_degree(2)]
    assert len(quadrics) == 10
    assert not oracle_square_gap(ring, quadrics)
    assert not sweep_square_gap(ring, quadrics)


def test_sweep_of_the_maximal_ideal():
    ring = PolynomialRing(PrimeField(7), ["x", "y", "z"])
    # S/m^2 has length 1 + 3
    assert _square_length(ring, ring.gens(), 2, _Budget(100)) == 4


def test_sweep_past_the_cap_is_an_internal_error():
    ring = PolynomialRing(PrimeField(7), ["x", "y"])
    with pytest.raises(RuntimeError, match="internal inconsistency"):
        _square_length(ring, ring.gens(), 1, _Budget(100))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    c=st.integers(min_value=2, max_value=4),
    extra=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_random_point_sets_give_the_same_lengths(c, extra, seed):
    ps, _ = general_points(c, c + 1 + extra, P, seed)
    gb = vanishing_ideal(ps)
    assert assert_same_verdict(gb, seed, 2).e_expected == (c + 1) * ps.n


def square_sweep(ring, gens, cap):
    """(length of S/J, pivots of J_d for each degree the sweep reached) for J
    the square of the ideal of the gens, every product of two gens formed
    as they stand."""
    lam, pivots = 1, []
    for _, pos, ech, _ in _sweep(ring, cap, _Budget(10 ** 7), _products(ring, gens)):
        pivots.append(sorted(ech.pivots))
        hf = len(pos) - len(ech.pivots)
        if hf == 0:
            return lam, pivots
        lam += hf
    raise AssertionError("the sweep passed its cap")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    c=st.integers(min_value=2, max_value=6),
    extra=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_echelon_generators_leave_the_square_unchanged(c, extra, seed):
    # for every trial form that passes the reduction's sweep: its basis of
    # IS is reduced, so in each degree it is one element per leading
    # monomial in reduced echelon form; the square of the raw images of the
    # basis of I has the same pivots in every degree and the same length as
    # the square of that basis
    ps, _ = general_points(c, c + 1 + extra, P, seed)
    gb = vanishing_ideal(ps)
    delta = _hf_difference(gb)
    cap = 2 * (len(delta) - 1) + 2
    for ell in _trial_forms(gb.ring, seed, DEFAULT_TRIALS):
        smaller, images = images_in_s(gb, ell)
        basis = _macaulay_basis(smaller, images, delta, 10 ** 7)
        if basis is None:
            continue
        assert verify_groebner(basis)
        lam, pivots = square_sweep(smaller, images, cap)
        assert square_sweep(smaller, basis.elements, cap) == (lam, pivots)
        assert _square_length(smaller, basis.elements, cap, _Budget(10 ** 7)) == lam
        assert lam >= (c + 1) * ps.n
