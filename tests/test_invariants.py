import random

import pytest
from hypothesis import given, settings, strategies as st

from conormal import (
    BudgetExceededError,
    DEGLEX,
    DEGREVLEX,
    LEX,
    Ideal,
    PolynomialRing,
    PrimeField,
    buchberger,
    ideal_square,
    normal_form,
)
from conormal.groebner import DEFAULT_STEP_BUDGET, _Budget, _reduce_terms, _standard_levels
from conormal.invariants import (
    HilbertFunction,
    _filtration_socle,
    _graded_socle,
    _multiplication_columns,
    _times_variable,
    classify,
    eliminate_linear_forms,
    length,
)
from conormal.cm import artinian_reduction
from conormal.constructions import StretchedSpec, example61_points, stretched_ideal
from conormal.points import bm_result, general_points, vanishing_ideal
from conftest import count_standard_of_degree, example61_ideal, monomial_quotient_standard


def graded_counts(gb):
    """Standard monomials per degree, counted by raw filtering, up to the
    first degree with none."""
    counts = []
    while not counts or counts[-1]:
        counts.append(count_standard_of_degree(gb, len(counts)))
    return tuple(counts[:-1])


def test_hilbert_function_basic(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(ideal_square(Ideal(ring_xy, [x, y])))
    assert graded_counts(gb) == classify(gb).hf.values == (1, 2)
    ring1 = PolynomialRing(PrimeField(7), ["x"])
    gb1 = buchberger(Ideal(ring1, [ring1.var("x") ** 3]))
    assert graded_counts(gb1) == classify(gb1).hf.values == (1, 1, 1)


def test_hilbert_function_validation():
    with pytest.raises(ValueError):
        HilbertFunction((2, 1))
    with pytest.raises(ValueError):
        HilbertFunction((1, 0, 1))
    hf = HilbertFunction((1, 3, 1, 1))
    assert hf.socle_degree == 3
    assert hf.length == 6
    assert hf[5] == 0


def test_length_of_squared_maximal_ideal():
    # (x_1, ..., x_c)^2 has colength c + 1 for every c
    for c in range(2, 7):
        ring = PolynomialRing(PrimeField(31991), [f"x{i}" for i in range(c)])
        sq = ideal_square(Ideal(ring, ring.gens()))
        assert length(buchberger(sq)) == c + 1


def test_socle_of_square_of_maximal_ideal(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 2, x * y, y ** 2]))
    report = classify(gb)
    assert report.tau == 2
    assert report.socle_degrees == (1, 1)


def test_socle_of_power_of_one_variable():
    ring = PolynomialRing(PrimeField(7), ["x"])
    x = ring.var("x")
    gb = buchberger(Ideal(ring, [x ** 4]))
    report = classify(gb)
    assert report.socle_degrees == (3,)
    assert report.gorenstein and report.tau == 1


def test_classify_stretched_hf():
    ring = PolynomialRing(PrimeField(31991), ["x1", "x2", "x3"])
    ideal = stretched_ideal(StretchedSpec(3, 3, 2), ring)
    report = classify(buchberger(ideal))
    assert report.hf.values == (1, 3, 1, 1)
    assert report.stretched
    assert report.c == 3 and report.s == 3
    assert report.length == 6 == report.c + report.s


def test_classify_short_truncation():
    # m^4 in four variables: full polynomial growth then zero
    ring = PolynomialRing(PrimeField(7), ["x", "y", "z", "w"])
    gens = [ring.monomial(m) for m in ring.monomials_of_degree(4)]
    report = classify(buchberger(Ideal(ring, gens)))
    assert report.hf.values == (1, 4, 10, 20)
    assert report.short and not report.stretched
    assert report.level


def test_classify_consistency_lambda(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 3, x * y, y ** 2]))
    report = classify(gb)
    assert report.length == report.hf.length == length(gb)
    assert report.tau >= 1
    assert report.gorenstein == (report.tau == 1)


def test_local_vs_graded_hilbert_function():
    # the leading-term ideal of an inhomogeneous stretched ideal overstates
    # degree 2: classify must report the local values
    ring = PolynomialRing(PrimeField(31991), ["x1", "x2", "x3"])
    ideal = stretched_ideal(StretchedSpec(3, 3, 0), ring)
    gb = buchberger(ideal)
    assert graded_counts(gb) == (1, 3, 2)  # graded std-monomial counts
    assert classify(gb).hf.values == (1, 3, 1, 1)  # local filtration counts
    assert sum(graded_counts(gb)) == classify(gb).hf.length == 6


def test_filtration_matches_graded_for_homogeneous():
    rng = random.Random(31)
    field = PrimeField(7)
    for _ in range(15):
        nvars = rng.randrange(2, 4)
        ring = PolynomialRing(field, [f"x{i}" for i in range(nvars)])
        gens = [ring.var(n) ** rng.randrange(2, 4) for n in ring.vars]
        d = rng.randrange(1, 3)
        extra = ring.poly(
            {
                m: rng.randrange(7)
                for m in ring.monomials_of_degree(d)
            }
        )
        if not extra.is_zero():
            gens.append(extra)
        gb = buchberger(Ideal(ring, gens))
        assert classify(gb).hf.values == graded_counts(gb)


def test_gorenstein_stretched_socle_is_level():
    # type 1 stretched quotient: single socle element of top local degree
    ring = PolynomialRing(PrimeField(31991), ["x1", "x2", "x3"])
    ideal = stretched_ideal(StretchedSpec(3, 3, 0), ring)
    report = classify(buchberger(ideal))
    assert report.tau == 1 and report.gorenstein
    assert report.socle_degrees == (3,)
    assert report.level


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nvars=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=10_000))
def test_socle_of_a_monomial_ideal_is_spanned_by_its_corners(nvars, seed):
    # for a monomial ideal the socle is spanned by the standard monomials
    # whose every variable multiple lies in the ideal, and the Hilbert
    # function counts standard monomials per degree; the expected values
    # come from divisibility alone, with no Groebner or linear algebra
    rng = random.Random(seed)
    ring = PolynomialRing(PrimeField(31991), [f"x{i}" for i in range(nvars)])
    gens = [tuple(rng.randrange(1, 5) if j == i else 0 for j in range(nvars)) for i in range(nvars)]
    gens += [tuple(rng.randrange(3) for _ in range(nvars)) for _ in range(rng.randrange(4))]
    gens = [e for e in gens if any(e)]
    std = set(monomial_quotient_standard(gens, nvars))
    corners = [
        e for e in std
        if all(tuple(a + (i == j) for i, a in enumerate(e)) not in std for j in range(nvars))
    ]
    top = max(sum(e) for e in std)
    report = classify(buchberger(Ideal(ring, [ring.monomial(e) for e in gens])))
    assert report.socle_degrees == tuple(sorted(sum(e) for e in corners))
    assert report.tau == len(corners)
    assert report.hf.values == tuple(sum(1 for e in std if sum(e) == d) for d in range(top + 1))


def test_eliminate_linear_forms(ring_xyz):
    x, y, z = ring_xyz.gens()
    smaller, count = eliminate_linear_forms(Ideal(ring_xyz, [x, y ** 2 + z ** 2]))
    assert count == 1
    assert smaller.ring.vars == ("y", "z")
    assert [str(g) for g in smaller.generators] == ["y^2 + z^2"]


def test_eliminate_without_linear_forms(ring_xyz):
    x, y, z = ring_xyz.gens()
    ideal = Ideal(ring_xyz, [x * y, z ** 2])
    same, count = eliminate_linear_forms(ideal)
    assert count == 0 and same is ideal


def test_eliminate_substitutes_into_higher_degrees(ring_xyz):
    x, y, z = ring_xyz.gens()
    smaller, count = eliminate_linear_forms(Ideal(ring_xyz, [x - y, x * z]))
    assert count == 1
    gb = buchberger(smaller)
    assert normal_form(smaller.ring.parse("y*z"), gb).is_zero()


@pytest.mark.parametrize("p, minus_three", [(7, 4), (31991, 31988)])
def test_eliminate_skips_a_dependent_form_and_pivots_in_the_middle(p, minus_three):
    # x + y pivots at x, 2x + 2y maps to zero and is skipped, y - z pivots
    # at y: x = -z and y = z in k[w, z]; the generators as the RREF route
    # gave them
    ring = PolynomialRing(PrimeField(p), ["w", "x", "y", "z"])
    w, x, y, z = ring.gens()
    ideal = Ideal(ring, [x + y, w ** 3 + x * y * z, 2 * x + 2 * y,
                         x ** 2 * z - 3 * w * y ** 2, y - z, z ** 3 - w * x * y])
    smaller, count = eliminate_linear_forms(ideal)
    assert count == 2 and smaller.ring.vars == ("w", "z")
    assert [str(g) for g in smaller.generators] == [
        f"w^3 + {p - 1}*z^3", f"{minus_three}*w*z^2 + z^3", "w*z^2 + z^3"
    ]


def test_eliminate_everything_is_rejected(ring_xy):
    x, y = ring_xy.gens()
    with pytest.raises(ValueError):
        eliminate_linear_forms(Ideal(ring_xy, [x + y, x - y]))


def test_eliminate_needs_homogeneous(ring_xy):
    x, y = ring_xy.gens()
    with pytest.raises(ValueError):
        eliminate_linear_forms(Ideal(ring_xy, [x + y ** 2]))


def test_classify_rejects_a_quotient_that_is_not_local(ring_xy):
    # k[x, y]/(x^2 - x, y) is k x k: x is idempotent, so every power of the
    # maximal ideal has the same nonzero image
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 2 - x, y]))
    with pytest.raises(ValueError, match="not local"):
        classify(gb)
    with pytest.raises(ValueError, match="not local"):
        classify(buchberger(Ideal(ring_xy, [x - 1, y])))


def test_multiplication_has_a_matrix_for_every_variable():
    # x = -y - z in the quotient: its matrix is a combination of the other
    # two and changes no span; with x - 1, x is a unit and its matrix makes
    # the locality check fail
    ring = PolynomialRing(PrimeField(7), ["x", "y", "z"])
    x, y, z = ring.gens()
    gb = buchberger(Ideal(ring, [x + y + z, x ** 2, y ** 2]))
    n, columns = _multiplication_columns(gb, DEFAULT_STEP_BUDGET)
    assert n == 4 and len(columns) == 3
    assert all(len(cols) == n for cols in columns)
    assert classify(gb).hf.values == (1, 2, 1)
    gb = buchberger(Ideal(ring, [x - 1, y, z]))
    with pytest.raises(ValueError, match="not local"):
        classify(gb)


# -- classify reads any presentation: the eliminated ring as the oracle --------


def _quadrics(gb):
    return sum(1 for g in gb.elements if g.degree == 2)


def _assert_presentations_agree(gb):
    eliminated = buchberger(eliminate_linear_forms(gb.as_ideal())[0])
    assert classify(gb).to_text() == classify(eliminated).to_text()
    assert _quadrics(gb) == _quadrics(eliminated)


def _i_plus_l(gb, seed):
    """The reduced basis of I + l in R, for the form l the reduction draws;
    and the reduction's own basis of IS in S = R/(l)."""
    reduction = artinian_reduction(gb, seed)
    return buchberger(Ideal(gb.ring, list(gb.elements) + [reduction.form])), reduction.basis


def test_presentations_agree_on_fixed_cases():
    ring = PolynomialRing(PrimeField(31991), ["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    gbs = [
        buchberger(Ideal(ring, [x + 2 * y - z, z ** 2, y * w, w ** 3 - y ** 3, y ** 2 * z])),
        buchberger(Ideal(ring, [x - y, z + w, y ** 2, z * w, w ** 3])),
    ]
    # the I + l bases of example 6.1 and of six points in P^4, whose
    # eliminated presentations are the reductions' bases in S
    for gb, seed in ((buchberger(example61_ideal()), 0),
                     (vanishing_ideal(general_points(4, 6, 31991, 2)[0]), 2)):
        in_r, in_s = _i_plus_l(gb, seed)
        assert classify(in_r).to_text() == classify(in_s).to_text()
        assert _quadrics(in_r) == _quadrics(in_s)
        gbs.append(in_r)
    for gb in gbs:
        assert any(g.degree == 1 for g in gb.elements)
        _assert_presentations_agree(gb)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    nvars=st.integers(min_value=2, max_value=4),
    nlinear=st.integers(min_value=1, max_value=3),
    order=st.sampled_from([DEGREVLEX, DEGLEX, LEX]),
    p=st.sampled_from([7, 31991]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_presentations_agree_on_random_artinian_ideals(nvars, nlinear, order, p, seed):
    # powers of every variable make the quotient Artinian; random linear
    # forms (fewer than the variables) and forms of degree 2 and 3 shape it
    rng = random.Random(seed)
    ring = PolynomialRing(PrimeField(p), [f"x{i}" for i in range(nvars)], order)

    def form(d):
        return ring.poly({m: rng.randrange(p) for m in ring.monomials_of_degree(d)})

    linear = [form(1) for _ in range(min(nlinear, nvars - 1))]
    powers = [ring.var(v) ** rng.randrange(2, 5) for v in ring.vars]
    others = [form(rng.randrange(2, 4)) for _ in range(rng.randrange(3))]
    gb = buchberger(Ideal(ring, linear + powers + others))
    _assert_presentations_agree(gb)


# -- a homogeneous basis: the graded route against the filtration route ------


def _routes(gb):
    """(hf, socle) by the graded route, after checking that the basis is
    homogeneous and that the filtration route gives the same."""
    assert all(g.is_homogeneous() for g in gb.elements)
    graded = _graded_socle(gb, DEFAULT_STEP_BUDGET)
    assert graded == _filtration_socle(gb, DEFAULT_STEP_BUDGET)
    return graded


def test_routes_agree_on_the_reductions_of_points():
    # Example 6.1 (h = 1 5 4, level of type 4) and the conjecture items at
    # c = 5, n = 8..12 and c = 6, n = 12
    reduction = artinian_reduction(bm_result(example61_points()), 0)
    assert _routes(reduction.basis) == ([1, 5, 4], [0, 0, 4])
    for c, n in [(5, 8), (5, 9), (5, 10), (5, 11), (5, 12), (6, 12)]:
        ps, _ = general_points(c, n, 31991, seed=0)
        hf, socle = _routes(artinian_reduction(bm_result(ps), 0).basis)
        assert sum(hf) == n and hf[:2] == [1, c]


def test_routes_agree_on_fixed_graded_quotients(ring_xy):
    ring = PolynomialRing(PrimeField(31991), ["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    stretched = stretched_ideal(StretchedSpec(4, 2, 1), ring)
    assert stretched.is_homogeneous()
    assert _routes(buchberger(stretched)) == ([1, 4, 1], [0, 1, 1])
    a, b = ring_xy.gens()
    # not level: x is killed by both variables in degree 1, y^2 in degree 2
    assert _routes(buchberger(Ideal(ring_xy, [a ** 2, a * b, b ** 3]))) == ([1, 2, 1], [0, 1, 1])
    # a complete intersection of three quadrics, Gorenstein, in LEX order
    lex = PolynomialRing(PrimeField(31991), ["x", "y", "z"], LEX)
    u, v, t = lex.gens()
    gb = buchberger(Ideal(lex, [u ** 2 - v * t, v ** 2 + 3 * u * t, t ** 2 - u * v]))
    assert gb.order.kind == "lex"
    assert _routes(gb) == ([1, 3, 3, 1], [0, 0, 0, 1])
    linear = buchberger(Ideal(ring, [x + 2 * y - z, z ** 2, y * w, w ** 3 - y ** 3, y ** 2 * z]))
    assert any(g.degree == 1 for g in linear.elements)
    _routes(linear)
    # the maximal ideal itself: A = k, all socle in degree 0
    assert _routes(buchberger(Ideal(ring, ring.gens()))) == ([1], [1])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    nvars=st.integers(min_value=1, max_value=4),
    order=st.sampled_from([DEGREVLEX, DEGLEX, LEX]),
    p=st.sampled_from([7, 31991]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_routes_agree_on_random_graded_quotients(nvars, order, p, seed):
    # powers of every variable make the quotient Artinian; random forms of
    # degree 1 to 3 shape it
    rng = random.Random(seed)
    ring = PolynomialRing(PrimeField(p), [f"x{i}" for i in range(nvars)], order)
    powers = [ring.var(v) ** rng.randrange(2, 5) for v in ring.vars]
    forms = [ring.poly({m: rng.randrange(p) for m in ring.monomials_of_degree(rng.randrange(1, 4))})
             for _ in range(rng.randrange(4))]
    _routes(buchberger(Ideal(ring, powers + forms)))


def test_a_product_with_a_variable_is_its_full_normal_form():
    # the shortcuts for a standard monomial and a leading monomial give what
    # `_reduce_terms` gives and charge what it charges, on graded and local
    # quotients, so the filtration route is unchanged by them
    ring = PolynomialRing(PrimeField(31991), ["x1", "x2", "x3"])
    lex = PolynomialRing(PrimeField(7), ["x", "y", "z"], LEX)
    u, v, t = lex.gens()
    gbs = [
        artinian_reduction(bm_result(example61_points()), 0).basis,
        buchberger(stretched_ideal(StretchedSpec(3, 3, 0), ring)),
        buchberger(stretched_ideal(StretchedSpec(3, 2, 1), ring)),
        buchberger(Ideal(lex, [u ** 2 - v * t, v ** 2 + 3 * u * t, t ** 2 - u * v])),
    ]
    kinds = set()
    for gb in gbs:
        ring, index = gb.ring, gb.index()
        standard = {m for level in _standard_levels(gb) for m in level}
        for s in standard:
            for x in ring._var_monos:
                mm = s + x
                kinds.add("standard" if mm in standard else
                          "leading" if mm in index.reducers else "reduced")
                steps, ref_steps = _Budget(DEFAULT_STEP_BUDGET), _Budget(DEFAULT_STEP_BUDGET)
                got = _times_variable(ring, mm, standard, index, steps)
                assert got == _reduce_terms(ring, [(ring.key(mm), mm, 1)], index, ref_steps)
                assert steps.remaining == ref_steps.remaining
    assert kinds == {"standard", "leading", "reduced"}


def test_the_graded_route_charges_its_products_and_rows(ring_xy):
    # (x^2, xy, y^3): degree 0 is one row of standard monomials (1 step);
    # degree 1 takes x^2, xy and yx to minus their empty tails (1 step
    # each) and y^2 as it stands, in two rows (1 step each); the top
    # degree forms no product
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 2, x * y, y ** 3]))
    assert classify(gb, 6).socle_degrees == (1, 2)
    for budget in (0, 5):
        with pytest.raises(BudgetExceededError):
            classify(gb, budget)
