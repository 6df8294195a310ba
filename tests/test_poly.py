import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conormal import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    ParseError,
    PolynomialRing,
    PrimeField,
    random_linear_form,
)
from conormal.poly import quotient_by_linear_form
from conftest import (
    exponents_up_to,
    mono_deg,
    mono_divides,
    oracle_compare,
    quotient_term_by_term,
)


def test_product_of_sum_and_difference(ring_xy):
    x, y = ring_xy.gens()
    assert (x + y) * (x - y) == x * x - y * y


def test_multiplication_by_zero(ring_xy):
    x, y = ring_xy.gens()
    f = 3 * x * y + y ** 2
    assert (f * ring_xy.zero).is_zero()


def test_square_over_large_prime():
    ring = PolynomialRing(PrimeField(31991), ["x", "y"])
    x, y = ring.gens()
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2


def test_mixed_rings_rejected(ring_xy, ring_xyz):
    with pytest.raises(ValueError):
        ring_xy.var("x") + ring_xyz.var("x")
    other = PolynomialRing(PrimeField(11), ["x", "y"])
    with pytest.raises(ValueError):
        ring_xy.var("x") * other.var("y")


def test_zero_polynomial_degree_sentinel(ring_xy):
    assert ring_xy.zero.degree == float("-inf")
    assert ring_xy.one.degree == 0


def _random_poly(ring, rng, max_degree=3, terms=4):
    acc = {}
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(ring.nvars)] += 1
        acc[tuple(exps)] = rng.randrange(ring.field.p)
    return ring.poly(acc)


def test_ring_axioms_randomized(ring_xyz):
    rng = random.Random(7)
    for _ in range(200):
        f = _random_poly(ring_xyz, rng)
        g = _random_poly(ring_xyz, rng)
        h = _random_poly(ring_xyz, rng)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_degree_additivity_over_a_domain(ring_xyz):
    rng = random.Random(8)
    for _ in range(200):
        f = _random_poly(ring_xyz, rng)
        g = _random_poly(ring_xyz, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree == f.degree + g.degree


def test_degrevlex_tie_break_example():
    # xz vs y^2 in x > y > z, derived from the definition-level oracle
    assert oracle_compare((1, 0, 1), (0, 2, 0), "degrevlex") == -1
    assert oracle_compare((0, 2, 0), (1, 0, 1), "degrevlex") == 1


def test_compare_reflexive_and_degree_refinement():
    assert oracle_compare((1, 2, 0), (1, 2, 0), "degrevlex") == 0
    assert oracle_compare((0, 0, 3), (2, 0, 0), "deglex") == 1


def test_orders_agree_with_oracle_on_small_monomials():
    # the packed sort keys order every monomial of degree at most 4 as the
    # definitions do
    for nvars in (1, 2, 3, 4):
        monos = exponents_up_to(nvars, 4)
        for order in (DEGREVLEX, DEGLEX, LEX):
            ring = PolynomialRing(PrimeField(7), [f"x{i}" for i in range(nvars)], order)
            via_keys = sorted(monos, key=lambda e: ring.key(ring.pack(e)))
            via_oracle = sorted(
                monos,
                key=functools.cmp_to_key(lambda a, b: oracle_compare(a, b, order.kind)),
            )
            assert via_keys == via_oracle


def test_packed_keys_agree_with_compare():
    rng = random.Random(5)
    for order in (DEGREVLEX, DEGLEX, LEX):
        ring = PolynomialRing(PrimeField(7), ["x", "y", "z", "w"], order)
        for _ in range(400):
            a = tuple(rng.randrange(5) for _ in range(4))
            b = tuple(rng.randrange(5) for _ in range(4))
            cmp = oracle_compare(a, b, order.kind)
            ka, kb = ring.key(ring.pack(a)), ring.key(ring.pack(b))
            assert cmp == (ka > kb) - (ka < kb)


def test_terms_strictly_decreasing(ring_xyz):
    rng = random.Random(11)
    for _ in range(100):
        f = _random_poly(ring_xyz, rng)
        keys = [k for k, _, _ in f.terms]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)
        assert all(c for _, _, c in f.terms)


def test_parse_and_format_round_trip(ring_xyz):
    rng = random.Random(13)
    for _ in range(50):
        f = _random_poly(ring_xyz, rng)
        if f.is_zero():
            continue
        assert ring_xyz.parse(str(f)) == f


def test_parse_errors_carry_position(ring_xy):
    with pytest.raises(ParseError) as err:
        ring_xy.parse("x^2 + + y", line=3)
    assert err.value.line == 3
    assert err.value.column == 7
    with pytest.raises(ParseError):
        ring_xy.parse("x + q")
    with pytest.raises(ParseError):
        ring_xy.parse("")
    with pytest.raises(ParseError):
        ring_xy.parse("x +")


def test_parse_coefficients_reduce_mod_p(ring_xy):
    assert ring_xy.parse("8*x") == ring_xy.var("x")
    assert ring_xy.parse("-1") == ring_xy.constant(6)
    assert ring_xy.parse("x*x") == ring_xy.var("x") ** 2


def _form_with_lead(ring, rng, lead, bare):
    """A linear form whose first nonzero coefficient is at variable `lead`:
    a multiple of that variable when `bare`, else random after it."""
    p = ring.field.p
    coeffs = [0] * ring.nvars
    coeffs[lead] = rng.randrange(1, p)
    if not bare:
        for k in range(lead + 1, ring.nvars):
            coeffs[k] = rng.randrange(p)
    return ring.poly({tuple(int(i == k) for i in range(ring.nvars)): a for k, a in enumerate(coeffs)})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    p=st.sampled_from([7, 31991]),
    order=st.sampled_from([DEGREVLEX, DEGLEX, LEX]),
    lead=st.integers(min_value=0, max_value=3),
    bare=st.booleans(),
)
@example(seed=0, p=31991, order=DEGREVLEX, lead=3, bare=True)
@example(seed=1, p=7, order=LEX, lead=1, bare=False)
def test_quotient_by_linear_form_matches_term_by_term_expansion(seed, p, order, lead, bare):
    # each image must be the canonical polynomial of the term-by-term
    # expansion of x_j -> x_j - l/a_j, the ring that of the other
    # variables; a bare variable keeps each image's terms free of x_j
    rng = random.Random(seed)
    ring = PolynomialRing(PrimeField(p), ["a", "b", "c", "d"], order)
    ell = _form_with_lead(ring, rng, lead, bare)
    polys = [ell, ring.zero]
    for _ in range(4):
        polys.append(ring.poly({
            tuple(rng.randrange(4) for _ in range(4)): rng.randrange(p) for _ in range(6)
        }))
    smaller, images = quotient_by_linear_form(polys, ell)
    target, want = quotient_term_by_term(polys, ell)
    assert smaller == target and smaller.vars == ring.vars[:lead] + ring.vars[lead + 1:]
    assert images == want and images[0].is_zero()
    assert [f.terms for f in images] == [f.terms for f in want]
    if bare:
        for f, image in zip(polys, images):
            free = [(m, c) for _, m, c in f.terms if not ring.unpack(m)[lead]]
            assert [c for _, c in free] == [c for _, _, c in image.terms]


def test_quotient_by_linear_form_checks_its_input(ring_xy):
    x, y = ring_xy.gens()
    other = PolynomialRing(PrimeField(31991), ["x", "y"])
    smaller, images = quotient_by_linear_form([], x + y)
    assert smaller.vars == ("y",) and images == []
    with pytest.raises(ValueError, match="mixed rings"):
        quotient_by_linear_form([x, other.var("x")], x + y)
    for ell in (ring_xy.zero, ring_xy.one, x + 1, x * y, x + y ** 2, x ** 2):
        with pytest.raises(ValueError, match="not a nonzero linear form"):
            quotient_by_linear_form([x], ell)


def test_random_linear_form_determinism():
    ring = PolynomialRing(PrimeField(31991), list("abcdef"))
    f1 = random_linear_form(ring, 99)
    f2 = random_linear_form(ring, 99)
    assert f1 == f2
    assert f1.degree == 1
    assert f1.is_homogeneous()
    assert not f1.is_zero()


def test_random_linear_form_coefficient_count():
    ring = PolynomialRing(PrimeField(31991), list("abcdef"))
    f = random_linear_form(ring, 3)
    assert all(0 < c < 31991 for _, _, c in f.terms)
    assert len(f.terms) <= 6


def test_random_linear_forms_differ_across_seeds():
    ring = PolynomialRing(PrimeField(31991), list("abcdef"))
    distinct = 0
    for k in range(100):
        if random_linear_form(ring, (1, k)) != random_linear_form(ring, (2, k)):
            distinct += 1
    assert distinct == 100


def test_ring_validation():
    with pytest.raises(ValueError):
        PolynomialRing(PrimeField(7), [])
    with pytest.raises(ValueError):
        PolynomialRing(PrimeField(7), ["x", "x"])
    with pytest.raises(ValueError):
        PolynomialRing(PrimeField(7), ["x y"])
    with pytest.raises(ValueError):
        PolynomialRing(PrimeField(7), ["x"]).pack((200,))


@pytest.mark.parametrize("a, b", [(60, 59), (60, 60), (60, 61), (64, 64)])
def test_product_degree_limit(a, b):
    ring = PolynomialRing(PrimeField(31991), ["x", "y"])
    x, y = ring.gens()
    if a + b <= 120:
        assert [ring.unpack(m) for _, m, _ in (x ** a * x ** b).terms] == [(a + b, 0)]
        assert (x ** a * y ** b).degree == a + b
    else:
        for f, g in ((x ** a, x ** b), (x ** a, y ** b), (x ** a + y, x ** b)):
            with pytest.raises(ValueError, match=f"total degree {a + b} exceeds"):
                f * g


def test_power_past_the_degree_limit_is_an_error():
    # packed in 8-bit fields x^300 would read as x^44*y
    ring = PolynomialRing(PrimeField(31991), ["x", "y"])
    x, _ = ring.gens()
    assert (x ** 40) ** 3 == x ** 120
    with pytest.raises(ValueError):
        x ** 100 * x ** 100 * x ** 100
    with pytest.raises(ValueError):
        (x ** 43) ** 3


def test_lex_degree_is_the_top_degree_of_any_term():
    ring = PolynomialRing(PrimeField(31991), ["x", "y"], LEX)
    x, y = ring.gens()
    f = x + y ** 5
    assert f.terms[0][1] == ring.pack((1, 0))
    assert f.degree == 5


# -- packed primitives against their per-field definitions ---------------------


@st.composite
def _monomial_pair(draw):
    """A ring of 1 to 14 variables (P^13 in the points workload) under one of
    the three orders, and two exponent tuples of total degree at most 120."""
    v = draw(st.integers(min_value=1, max_value=14))
    order = draw(st.sampled_from([DEGREVLEX, DEGLEX, LEX]))

    def exponents():
        out = []
        for _ in range(v):
            out.append(draw(st.integers(min_value=0, max_value=120 - sum(out))))
        return tuple(draw(st.permutations(out)))

    return v, order, exponents(), exponents()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_monomial_pair())
@example((2, DEGREVLEX, (120, 0), (0, 120)))  # the lcm reaches total degree 240
@example((14, LEX, (120,) + (0,) * 13, (0,) * 13 + (120,)))
def test_mono_lcm_and_divides_agree_with_the_fields(case):
    v, order, a, b = case
    ring = PolynomialRing(PrimeField(31991), [f"x{i}" for i in range(v)], order)
    pa, pb = ring.pack(a), ring.pack(b)
    top = tuple(max(x, y) for x, y in zip(a, b))
    lcm = ring.mono_lcm(pa, pb)
    assert ring.unpack(lcm) == top and mono_deg(ring, lcm) == sum(top)
    assert ring.mono_lcm(pb, pa) == lcm
    if sum(top) <= 120:
        assert lcm == ring.pack(top)
    assert mono_divides(ring, pa, pb) == all(x <= y for x, y in zip(a, b))
    assert mono_divides(ring, pb, pa) == all(y <= x for x, y in zip(a, b))
    assert mono_divides(ring, pa, pa)
    # also past degree 127, where the lcm's degree field fills its top bit
    assert mono_divides(ring, pa, lcm) and mono_divides(ring, pb, lcm)
    assert mono_divides(ring, lcm, pa) == (lcm == pa)


# -- products: the monomial fast path and the ring checks ----------------------


@pytest.mark.parametrize("order", [DEGREVLEX, DEGLEX, LEX])
def test_monomial_product_matches_the_definition(order):
    p = 31991
    ring = PolynomialRing(PrimeField(p), ["x", "y", "z"], order)
    rng = random.Random(11)
    for _ in range(200):
        ea = tuple(rng.randint(0, 20) for _ in range(3))
        eb = tuple(rng.randint(0, 20) for _ in range(3))
        ca, cb = rng.randrange(1, p), rng.randrange(1, p)
        got = ring.monomial(ea, ca) * ring.monomial(eb, cb)
        want = ring.poly({tuple(x + y for x, y in zip(ea, eb)): ca * cb})
        assert got == want and got.terms == want.terms
    # coefficients whose product wraps mod p
    f = ring.monomial((1, 0, 2), p - 1) * ring.monomial((0, 3, 0), p - 1)
    assert f.terms == ring.monomial((1, 3, 2), 1).terms
    g = ring.monomial((0, 0, 1), 2) * ring.monomial((1, 0, 0), (p + 1) // 2)
    assert g.terms == ring.monomial((1, 0, 1)).terms


@pytest.mark.parametrize("order", [DEGREVLEX, DEGLEX, LEX])
def test_monomial_product_past_the_degree_limit(order):
    ring = PolynomialRing(PrimeField(31991), ["x", "y"], order)
    x, y = ring.gens()
    assert (x ** 60 * y ** 60).degree == 120
    with pytest.raises(ValueError, match="product of total degree 121 exceeds the 120 limit"):
        x ** 60 * (3 * y ** 61)


@pytest.mark.parametrize("order", [DEGREVLEX, DEGLEX, LEX])
def test_products_across_ring_objects(order):
    ring = PolynomialRing(PrimeField(31991), ["x", "y"], order)
    twin = PolynomialRing(PrimeField(31991), ["x", "y"], order)
    assert twin is not ring and twin == ring
    x, y = ring.gens()
    u, v = twin.gens()
    assert x * v == ring.monomial((1, 1))
    assert (x + y) * (u - v) == x ** 2 - y ** 2
    for other in (
        PolynomialRing(PrimeField(31991), ["x", "z"], order),
        PolynomialRing(PrimeField(7), ["x", "y"], order),
        PolynomialRing(PrimeField(31991), ["x", "y"], LEX if order != LEX else DEGREVLEX),
    ):
        with pytest.raises(ValueError, match="mixed rings"):
            x * other.var("x")
        with pytest.raises(ValueError, match="mixed rings"):
            (x + y) * other.var("x")
