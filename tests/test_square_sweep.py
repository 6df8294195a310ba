"""Differential tests of the square verdict's degree sweep and of the
reduction's Macaulay basis.

The oracle of the sweep is the route it replaced: a full Buchberger run on
I + l and on I^2 + l for the witness l the reduction returns and for every
trial form, with the lengths read off the standard monomials.  Every form
with R/(I + l) Artinian must give the same lengths, and so the same
verdict, which is what lets one such form decide; the sweep of the
witness must agree with them.  The witness is the last variable x_c when
R/(I + x_c) is Artinian, else the first trial form with that property.

The oracle of the reduction (the Hilbert function of S/IS, S = R/(l),
from the standard monomials of the basis of I, and the basis of IS from
Macaulay matrices, or the basis of I with x_c = 0) is Buchberger in S on
the images of the basis of I, for x_c and for every trial form: a form is
skipped iff that basis is not zero-dimensional, and otherwise the two
reduced bases agree.  On points the Hilbert function walked off the basis
must be the first difference of the points' one, and the analysis of the
points' Buchberger-Moller pass must print the report of the analysis of
its basis.  The reduction's basis must be the reduced basis of I + l in
R, less its element led by the leading variable of l, moved to S.  Both
routes must give the same analysis, but for the witness.

The oracle of the eight-quadrics check (the rank of the square in degree
4) is the route it replaced: a Groebner basis of the square and the normal
form of every degree-4 monomial.

The oracle of the sweep's sparse generators (the reduction's reduced basis
of IS) is the square multiplied out from the raw images of the basis of
I: the same standard monomials in every degree, the same length.

The oracle of the sweep itself, degree by degree in its border
coordinates, is a Groebner basis of the square of random generators: the
standard monomials, the new leading monomials and the normal form of
every leading monomial.  The last-variable route's projection is checked
against the substitution x_c = 0 expanded term by term.

The count that proves NotCM with no sweep (C(c+3, 3) > (c+1)e for I in
m^2) is checked against the sweep's own length on both sides of its
boundary.
"""

import dataclasses
import random
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conormal import Ideal, PolynomialRing, PrimeField, buchberger
from conormal.cm import (
    DEFAULT_TRIALS,
    CmVerdict,
    _basis_and_delta,
    _hf_difference,
    _last_variable_is_regular,
    _macaulay_basis,
    _products,
    _sweep,
    analyze,
    artinian_reduction,
    _square_length,
    _trial_forms,
    is_cm_square,
)
from conormal.groebner import (
    BudgetExceededError,
    GroebnerBasis,
    _Budget,
    _standard_levels,
    ideal_square,
    is_zero_dimensional,
    normal_form,
)
from conormal.invariants import length
from conormal.points import (
    bm_result,
    general_points,
    make_point_set,
    random_points,
    vanishing_ideal,
)
from conormal.poly import DEGLEX, quotient_by_linear_form

from conftest import (
    example61_ideal,
    quotient_term_by_term,
    seeded_quadrics,
    sweep_square_gap,
    verify_groebner,
)

P = 31991


def counting_detail(gb, e):
    """The detail of a NotCM proven by counting, or "": I in m^2 and
    (c+1)e < C(c+3, 3), in the integers, with no criterion."""
    c = gb.ring.nvars - 1
    bound = comb(c + 3, 3)
    if min(g.degree for g in gb.elements) < 2 or (c + 1) * e >= bound:
        return ""
    return f"counting: (c+1)e = {(c + 1) * e} < {bound} = C({c + 3},3)"


def oracle_lengths(gb, square, ell):
    """(length of R/(I + l), length of R/(I^2 + l)) from one Buchberger run
    on each, or None when R/(I + l) is not Artinian; `square` is the ideal
    I^2."""
    ring = gb.ring
    reduced = buchberger(Ideal(ring, list(gb.elements) + [ell]))
    if not is_zero_dimensional(reduced):
        return None
    return length(reduced), length(buchberger(Ideal(ring, list(square.generators) + [ell])))


def oracle_verdict(gb, square, ell, drawn):
    """The square verdict from Buchberger on I + l and I^2 + l for the form
    l, drawn as the `drawn`-th form, and the two lengths.  Where the count
    proves NotCM the verdict carries its detail, and its length is still the
    computed one."""
    e, lam = oracle_lengths(gb, square, ell)
    e_expected = gb.ring.nvars * e  # (c + 1) * e
    if lam == e_expected:
        return CmVerdict("CM", ell, drawn, lam, e_expected), (e, lam)
    return CmVerdict("NotCM", None, drawn, lam, e_expected, counting_detail(gb, e)), (e, lam)


def last_variable_is_a_parameter(gb):
    """R/(I + x_c) is Artinian, by Buchberger: on a Cohen-Macaulay R/I of
    dimension 1 that is x_c regular, so the reduction takes x_c."""
    x_c = gb.ring.gens()[-1]
    return is_zero_dimensional(buchberger(Ideal(gb.ring, list(gb.elements) + [x_c])))


def assert_same_verdict(gb, seed, trials):
    """The verdict against Buchberger on I + l and I^2 + l for the witness
    l the reduction returns: x_c, drawn as the one form, when it is a
    parameter, else the first trial form that is one.  Every trial form
    with R/(I + l) Artinian gives the same two lengths as l."""
    ring = gb.ring
    reduction = artinian_reduction(gb, seed, trials)
    got = is_cm_square(reduction)
    square = ideal_square(gb.as_ideal())
    others = [oracle_lengths(gb, square, ell) for ell in _trial_forms(ring, seed, trials)]
    if last_variable_is_a_parameter(gb):
        form, drawn = ring.gens()[-1], 1
    else:
        drawn = next(k for k, lengths in enumerate(others, 1) if lengths is not None)
        form = list(_trial_forms(ring, seed, drawn))[-1]
    assert (reduction.form, reduction.drawn) == (form, drawn)
    want, lengths = oracle_verdict(gb, square, form, drawn)
    assert all(other in (None, lengths) for other in others), (lengths, others)
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
    """Five general points in P^3 and a sixth on the first trial form, with
    last coordinate 0: x_3 vanishes there, so the reduction draws its
    seeded forms, and the first is no parameter."""
    ps, _ = general_points(3, 5, P, seed)
    ring = vanishing_ideal(ps).ring
    ell = next(_trial_forms(ring, seed, 1))
    a = [ell.coefficient(tuple(int(i == j) for i in range(4))) for j in range(4)]
    # a point on the hyperplane a . x = 0: solve for the first coordinate
    rest = (1, 2, 0)
    x0 = -sum(ai * xi for ai, xi in zip(a[1:], rest)) * pow(a[0], -1, P) % P
    return make_point_set(3, P, list(ps.points) + [(x0,) + rest])


def images_in_s(gb, ell):
    """S = R/(l) and the nonzero images in S of the basis of I: they
    generate IS."""
    smaller, images = quotient_by_linear_form(gb.elements, ell)
    return smaller, [f for f in images if not f.is_zero()]


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
        smaller, want = quotient_by_linear_form(rest, ell)
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
    # I = (y) in k[x, y], whose leading monomial is the last variable, so
    # the reduction draws forms: the form y maps every generator to zero,
    # so S/IS is S, nonzero in degree 1, and the next form is drawn
    import conormal.cm as cm

    ring = PolynomialRing(PrimeField(P), ["x", "y"])
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [y]))
    monkeypatch.setattr(cm, "_trial_forms", lambda ring, seed, trials: [y * 2, x + y][:trials])
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


def without_witness(report):
    return [line for line in report.to_text().splitlines() if not line.startswith("cm_witness:")]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    c=st.integers(min_value=2, max_value=6),
    extra=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_the_last_variable_and_a_seeded_form_give_the_same_analysis(c, extra, seed):
    # general points where x_c vanishes at none of them: the reduction takes
    # x_c, and its basis is the reduced basis of I + (x_c) with x_c = 0;
    # drawing the seeded forms instead, in degrevlex or under deglex, where
    # the last variable is not looked at, gives the same e, q, invariants,
    # verdict and length, and the reports differ only in their witness
    import conormal.cm as cm

    ps, _ = general_points(c, c + 1 + extra, P, seed)
    assume(all(point[-1] for point in ps.points))
    bm = bm_result(ps)
    ring = bm.basis.ring
    x_c = ring.gens()[-1]
    reduction = artinian_reduction(bm, seed)
    assert (reduction.form, reduction.drawn) == (x_c, 1)
    in_r = buchberger(Ideal(ring, list(bm.basis.elements) + [x_c]))
    smaller, want = quotient_by_linear_form([f for f in in_r.elements if f != x_c], x_c)
    assert reduction.basis.ring == smaller and list(reduction.basis.elements) == want
    fast = analyze(bm, seed)
    with mock.patch.object(cm, "_last_variable_is_regular", lambda gb: False):
        seeded_form = artinian_reduction(bm, seed).form
        seeded = analyze(bm, seed)
    assert str(seeded_form) != str(x_c)
    assert str(artinian_reduction(bm_result(ps, DEGLEX), seed).form) == str(seeded_form)
    under_deglex = analyze(bm_result(ps, DEGLEX), seed)
    # the witnesses print alike but live in rings of different orders
    assert dataclasses.replace(under_deglex.cm_square, witness=None) == dataclasses.replace(
        seeded.cm_square, witness=None
    )
    assert str(under_deglex.cm_square.witness) == str(seeded.cm_square.witness)
    for other in (seeded, under_deglex):
        assert (other.e, other.q, other.invariants) == (fast.e, fast.q, fast.invariants)
        assert (other.cm_square.status, other.cm_square.lambda_min) == (
            fast.cm_square.status, fast.cm_square.lambda_min
        )
        assert without_witness(other) == without_witness(fast)


@pytest.mark.parametrize("p", [7, P])
def test_the_last_variable_route_substitutes_zero(p):
    # on random degrevlex bases with x_c in no leading monomial, the route's
    # projection (each element's terms free of x_c, moved to S) gives the
    # ring and the elements of substituting x_c = 0 term by term; the bases
    # met include elements with terms in x_c, which both maps drop
    checked = dropped = 0
    for nvars in range(2, 6):
        for seed in range(15):
            ring, gens = random_homogeneous_gens(nvars, p, seed, most=nvars - 1 or 1)
            gb = buchberger(Ideal(ring, gens))
            if not _last_variable_is_regular(gb):
                continue
            x_c = ring.gens()[-1]
            got = GroebnerBasis(*quotient_by_linear_form(gb.elements, x_c))
            smaller, want = quotient_term_by_term(gb.elements, x_c)
            assert got.ring == smaller
            assert list(got.elements) == want
            checked += 1
            dropped += sum(len(f.terms) for f in gb.elements) > sum(
                len(f.terms) for f in got.elements
            )
    assert checked >= 20 and dropped >= 5, (checked, dropped)


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
    point); then the reduction against Buchberger in S for x_c when x_c
    vanishes at none of the points, else against the first
    zero-dimensional oracle; and the analysis of the points' pass against
    that of its basis, byte for byte."""
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
        assert len(delta) == len(list(_standard_levels(oracle)))
        assert basis.elements == oracle.elements
        if first is None:
            first = drawn, oracle
    reduction = artinian_reduction(gb, seed, trials)
    if all(point[-1] for point in ps.points):
        # x_c vanishes at none of the points: it is the form, and its basis
        # is Buchberger's in S on the images
        assert (reduction.form, reduction.drawn) == (gb.ring.gens()[-1], 1)
        smaller, images = images_in_s(gb, reduction.form)
        assert reduction.basis.elements == buchberger(Ideal(smaller, images)).elements
    else:
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
    # one point in P^5 on the hyperplane x5 = 0, so the reduction draws a
    # form: its sweep of the five linear images in S, charged per row,
    # takes 9 steps, and its basis is the five variables of S; the 15
    # products of the verdict's sweep, one step each, do not fit in 11
    ps = make_point_set(5, P, [(1, 2, 3, 4, 5, 0)])
    gb = vanishing_ideal(ps)
    with pytest.raises(BudgetExceededError):
        artinian_reduction(gb, 3, budget=8)
    reduction = artinian_reduction(gb, 3, budget=9)
    budget = 11
    assert reduction.basis.elements == tuple(reversed(reduction.basis.ring.gens()))
    verdict = is_cm_square(reduction, budget)
    assert verdict.status == "Inconclusive"
    assert verdict.detail == f"reduction step budget of {budget} exceeded"
    assert verdict.trials == 1 and verdict.lambda_min is None
    assert is_cm_square(reduction, 14).status == "Inconclusive"
    assert is_cm_square(reduction, 15).status == "CM"


def test_the_last_variable_route_charges_no_step():
    # x5 vanishes at no point, so it is the form: no sweep, no step, and
    # the same basis of the five variables of S; the verdict's sweep costs
    # what it costs after a drawn form
    ps = make_point_set(5, P, [(1, 2, 3, 4, 5, 6)])
    reduction = artinian_reduction(vanishing_ideal(ps), 3, budget=0)
    assert str(reduction.form) == "x5" and reduction.drawn == 1
    assert reduction.basis.elements == tuple(reversed(reduction.basis.ring.gens()))
    assert is_cm_square(reduction, 14).status == "Inconclusive"
    assert is_cm_square(reduction, 15).status == "CM"


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
    verdict = is_cm_square(reduction)
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
    verdict = is_cm_square(artinian_reduction(gb, 0))
    assert verdict.detail == "" and verdict.lambda_min > verdict.e_expected == 201


def test_a_counting_verdict_runs_no_sweep(monkeypatch):
    import conormal.cm as cm

    def no_sweep(*args, **kwargs):
        raise AssertionError("the square verdict ran a sweep")

    reductions = {}
    for n in (8, 10):
        ps, _ = general_points(5, n, P, 0)
        gb = vanishing_ideal(ps)
        reductions[n] = artinian_reduction(gb, 0)
    monkeypatch.setattr(cm, "_sweep", no_sweep)
    # 8 points in P^5: 6 * 8 < 56 = C(8, 3)
    verdict = is_cm_square(reductions[8])
    assert (verdict.status, verdict.lambda_min) == ("NotCM", 56)
    # 10 points: 60 >= 56, so the verdict needs its sweep
    with pytest.raises(AssertionError, match="ran a sweep"):
        is_cm_square(reductions[10])


def test_passes_are_charged_by_their_row_updates():
    # 6 general points in P^3: a row costs one step plus one per echelon row
    # subtracted from it, so the sweep of the squares of the reduction's
    # basis (four quadrics and two cubics of IS, swept as they stand) costs
    # 59 steps: 14 for the ten products of quadrics over the 15 monomials
    # of degree 4, and 45 in degree 5, over its 9 border columns (the
    # variables times the 5 standard monomials of degree 4): one each for
    # four variables times a leading monomial on the border and three
    # products with a border lead, 38 for five second rules, three of which
    # vanish; a verdict that runs out still reports the form drawn
    ps, _ = general_points(3, 6, P, 0)
    gb = vanishing_ideal(ps)
    reduction = artinian_reduction(gb, 0)
    assert [f.degree for f in reduction.basis.elements] == [2, 2, 2, 2, 3, 3]
    for budget in (5, 58):
        verdict = is_cm_square(reduction, budget)
        assert verdict.status == "Inconclusive"
        assert verdict.detail == f"reduction step budget of {budget} exceeded"
        assert verdict.trials == 1 and verdict.lambda_min is None
    assert is_cm_square(reduction, 59).status == "NotCM"


def test_macaulay_basis_is_charged_by_its_row_updates():
    # 6 general points in P^3 and the first trial form, which is regular:
    # the basis of IS takes 21 steps, one per row plus one per echelon row
    # subtracted from it: 9 for the four quadrics, and 12 for three
    # variables times a quadric's leading monomial on the border and two
    # second rules, which fill degree 3 before either cubic is formed; the
    # tails are not charged
    ps, _ = general_points(3, 6, P, 0)
    gb = vanishing_ideal(ps)
    delta = _hf_difference(gb)
    ell = next(_trial_forms(gb.ring, 0, 1))
    smaller, images = images_in_s(gb, ell)
    want = buchberger(Ideal(smaller, images)).elements
    assert _macaulay_basis(smaller, images, delta, 21).elements == want
    with pytest.raises(BudgetExceededError):
        _macaulay_basis(smaller, images, delta, 20)


def oracle_square_gap(ring, quadrics):
    """Some degree-4 monomial is not in the square of the quadrics: its
    normal form modulo a Groebner basis of the square is nonzero."""
    gb = buchberger(ideal_square(Ideal(ring, quadrics)))
    return any(
        not normal_form(ring.monomial(m), gb).is_zero() for m in ring.monomials_of_degree(4)
    )


@pytest.mark.parametrize("p", [7, P])
def test_eight_quadrics_check_matches_the_normal_forms(p):
    for seed in range(10):
        ring, quadrics = seeded_quadrics(seed, p)
        want = oracle_square_gap(ring, quadrics)
        assert sweep_square_gap(ring, quadrics) == want


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


def random_homogeneous_gens(nvars, p, seed, most=None):
    """1 to `most` (by default nvars + 1) seeded homogeneous forms in nvars
    variables, each of degree 1, 2 or 3 with 1 to 4 terms."""
    rng = random.Random(seed)
    ring = PolynomialRing(PrimeField(p), [f"x{i + 1}" for i in range(nvars)])
    gens = []
    for _ in range(rng.randint(1, nvars + 1 if most is None else most)):
        monos = ring.monomials_of_degree(rng.randint(1, 3))
        picked = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
        gens.append(ring.poly({m: rng.randrange(1, p) for m in picked}))
    return ring, gens


def assert_sweep_matches_buchberger(ring, gens, top):
    """The sweep of the square of the ideal of the gens against a Groebner
    basis of the square, degree by degree up to `top`: the standard
    monomials, the new leading monomials (those of the reduced basis) and
    every tail, L + tail being the element of L with NF(L) = -tail.
    Returns what the degrees exercised: "empty before" (J_(d-1) = 0 below a
    nonzero J_d), "not filled" (0 < HF(d) < dim S_d) and "filled through
    rules" (HF(d) = 0 where a monomial off the border has two variables,
    so two representations x * L, and a product has a term off it)."""
    gb = buchberger(ideal_square(Ideal(ring, gens)))
    lts = set(gb.leading_monomials())
    pairs = _products(gens)
    seen, before, last = set(), [ring._one_mono], 0
    for d, standard, tails, new in _sweep(ring, top, _Budget(10 ** 8), pairs):
        monos = ring.monomials_of_degree(d)
        assert standard == [m for m in monos if not any(ring.mono_divides(lt, m) for lt in lts)]
        assert new == [m for m in monos if m in lts]
        if standard and d < top:
            assert set(tails) == set(monos) - set(standard)
        for lead, tail in tails.items():
            tail = ring._from_packed_dict({u: c for u, c in zip(standard, tail) if c})
            assert (normal_form(ring.monomial(lead), gb) + tail).is_zero()
        border = {u + x for u in before for x in ring._var_monos}
        if len(before) == len(ring.monomials_of_degree(d - 1)) and len(standard) < len(monos):
            seen.add("empty before")
        if 0 < len(standard) < len(monos):
            seen.add("not filled")
        off = [m for m in monos if m not in border]
        if not standard and any(sum(map(bool, ring.unpack(m))) > 1 for m in off) and any(
            a + b not in border for f, g in pairs.get(d, ()) for a, _ in f for b, _ in g
        ):
            seen.add("filled through rules")
        before, last = standard, d
    # the sweep ends with its first filled degree, or at top
    assert last == top or not before
    return seen


@pytest.mark.parametrize("p", [7, P])
def test_sweep_matches_buchberger_on_random_squares(p):
    # random generators in 2-5 variables of degrees 1-3; the cases met
    # include each kind of degree the border coordinates treat apart
    seen = set()
    for nvars in range(2, 6):
        for seed in range(10):
            ring, gens = random_homogeneous_gens(nvars, p, seed)
            seen |= assert_sweep_matches_buchberger(ring, gens, 8)
    assert seen == {"empty before", "not filled", "filled through rules"}


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
    """(length of S/J, standard monomials of J in each degree the sweep
    reached) for J the square of the ideal of the gens, every product of
    two gens formed as they stand."""
    lam, levels = 1, []
    for _, standard, _, _ in _sweep(ring, cap, _Budget(10 ** 7), _products(gens)):
        levels.append(standard)
        if not standard:
            return lam, levels
        lam += len(standard)
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
    # basis of I has the same standard monomials in every degree and the
    # same length as the square of that basis
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
        lam, levels = square_sweep(smaller, images, cap)
        assert square_sweep(smaller, basis.elements, cap) == (lam, levels)
        assert _square_length(smaller, basis.elements, cap, _Budget(10 ** 7)) == lam
        assert lam >= (c + 1) * ps.n
