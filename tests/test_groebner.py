import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from conormal import (
    BudgetExceededError,
    DEFAULT_STEP_BUDGET,
    DEGLEX,
    DEGREVLEX,
    LEX,
    Ideal,
    PolynomialRing,
    PrimeField,
    buchberger,
    contains,
    ideal_square,
    is_zero_dimensional,
    normal_form,
    verify_groebner,
)
from conormal.constructions import StretchedSpec, ideal_L, stretched_ideal
from conormal.groebner import (
    GroebnerBasis,
    _Budget,
    _LtIndex,
    _standard_levels,
)
from conormal.invariants import length

from conftest import (
    example61_ideal,
    ideal_product,
    monomial_quotient_standard,
    successors_by_divisor_scan,
)


def test_ideal_construction_drops_zeros(ring_xy, ring_xyz):
    x, y = ring_xy.gens()
    ideal = Ideal(ring_xy, [x, ring_xy.zero, y])
    assert len(ideal.generators) == 2
    # a repeat is dropped, keyed by its terms: the first one stays, in order
    twice = x * y
    ideal = Ideal(ring_xy, [twice, y, x + y, x * y, y, x])
    assert ideal.generators == (twice, y, x + y, x)
    assert ideal.generators[0] is twice
    with pytest.raises(ValueError):
        Ideal(ring_xy, [ring_xy.zero])
    with pytest.raises(ValueError):
        Ideal(ring_xy, [])
    with pytest.raises(TypeError, match="is not a Polynomial"):
        Ideal(ring_xy, [x, 1])
    with pytest.raises(ValueError, match="expected"):
        Ideal(ring_xy, [x, ring_xyz.gens()[0]])


def test_already_a_basis(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x, y]))
    assert sorted(str(g) for g in gb.elements) == ["x", "y"]
    assert verify_groebner(gb)


def test_spolynomial_worked_example(ring_xy):
    # x*(xy + y^2) - y*x^2 reduces to y^3, so the reduced basis gains it
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 2, x * y + y ** 2]))
    assert sorted(str(g) for g in gb.elements) == ["x*y + y^2", "x^2", "y^3"]
    assert verify_groebner(gb)


def test_monomial_ideal_is_its_own_basis(ring_xyz):
    x, y, z = ring_xyz.gens()
    gb = buchberger(Ideal(ring_xyz, [x * y, x * z, y * z]))
    assert sorted(str(g) for g in gb.elements) == ["x*y", "x*z", "y*z"]
    assert verify_groebner(gb)


def test_normal_form_examples(ring_xy):
    x, y = ring_xy.gens()
    gb_x = buchberger(Ideal(ring_xy, [x]))
    assert normal_form(x ** 2, gb_x).is_zero()
    gb = buchberger(Ideal(ring_xy, [x ** 2, x * y + y ** 2]))
    assert normal_form(y ** 3 + x, gb) == x


def test_normal_form_idempotent(ring_xyz):
    rng = random.Random(3)
    x, y, z = ring_xyz.gens()
    gb = buchberger(Ideal(ring_xyz, [x * y - z ** 2, y ** 2 - x * z]))
    for _ in range(40):
        f = ring_xyz.poly(
            {
                tuple(rng.randrange(3) for _ in range(3)): rng.randrange(7)
                for _ in range(4)
            }
        )
        once = normal_form(f, gb)
        assert normal_form(once, gb) == once


def test_membership(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x]))
    assert contains(gb, x * y)
    assert not contains(gb, y)


def test_generators_contained_in_own_basis(ring_xyz):
    rng = random.Random(17)
    for _ in range(20):
        gens = []
        for _ in range(3):
            f = ring_xyz.poly(
                {
                    tuple(rng.randrange(3) for _ in range(3)): rng.randrange(7)
                    for _ in range(3)
                }
            )
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        ideal = Ideal(ring_xyz, gens)
        gb = buchberger(ideal)
        assert all(contains(gb, g) for g in ideal.generators)
        assert verify_groebner(gb)


def test_ideal_square_of_two_variables(ring_xy):
    x, y = ring_xy.gens()
    sq = ideal_square(Ideal(ring_xy, [x, y]))
    assert sorted(str(g) for g in sq.generators) == ["x*y", "x^2", "y^2"]


def test_square_equals_product(ring_xyz):
    x, y, z = ring_xyz.gens()
    ideal = Ideal(ring_xyz, [x * y - z ** 2, x + y, z ** 2])
    sq = ideal_square(ideal)
    prod = ideal_product(ideal, ideal)
    gb_sq = buchberger(sq)
    gb_prod = buchberger(prod)
    assert all(contains(gb_prod, g) for g in sq.generators)
    assert all(contains(gb_sq, g) for g in prod.generators)


def test_benchmark_square_has_120_generators():
    sq = ideal_square(example61_ideal())
    assert len(sq.generators) == 120  # C(15, 2) + 15, all distinct


def test_zero_dimensionality(ring_xy):
    x, y = ring_xy.gens()
    assert is_zero_dimensional(buchberger(Ideal(ring_xy, [x ** 2, y ** 2])))
    assert not is_zero_dimensional(buchberger(Ideal(ring_xy, [x * y])))


def test_benchmark_ideal_is_one_dimensional():
    gb = buchberger(example61_ideal())
    assert not is_zero_dimensional(gb)


def standard_exponents(gb):
    """The standard monomials of gb as exponent tuples, in increasing degree."""
    ring = gb.ring
    return [
        ring.unpack(m)
        for level in _standard_levels(gb)
        for m in sorted(level, key=ring.key, reverse=True)
    ]


def test_standard_monomials_examples(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 2, y ** 2]))
    assert standard_exponents(gb) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    sq = buchberger(ideal_square(Ideal(ring_xy, [x, y])))
    assert standard_exponents(sq) == [(0, 0), (1, 0), (0, 1)]


def test_standard_monomials_need_zero_dimensional(ring_xy):
    x, y = ring_xy.gens()
    with pytest.raises(ValueError):
        length(buchberger(Ideal(ring_xy, [x * y])))


def test_standard_levels_walk_each_degree_once(ring_xy):
    x, y = ring_xy.gens()
    # R/(x^3, xy): the levels are 1, 2, 2, 1, 1, ... and never end
    walk = _standard_levels(buchberger(Ideal(ring_xy, [x ** 3, x * y])))
    assert [len(next(walk)) for _ in range(6)] == [1, 2, 2, 1, 1, 1]
    # an Artinian quotient stops at its first empty level
    gb = buchberger(Ideal(ring_xy, [x ** 2, x * y, y ** 3]))
    assert [sorted(map(ring_xy.unpack, level)) for level in _standard_levels(gb)] == [
        [(0, 0)], [(0, 1), (1, 0)], [(0, 2)]
    ]
    # 1 in the ideal: no level at all
    assert list(_standard_levels(buchberger(Ideal(ring_xy, [x, ring_xy.one])))) == []


def _random_zero_dim_ideal(ring, rng):
    gens = [ring.var(name) ** rng.randrange(1, 4) for name in ring.vars]
    for _ in range(2):
        f = ring.poly(
            {
                tuple(rng.randrange(3) for _ in range(ring.nvars)): rng.randrange(
                    ring.field.p
                )
                for _ in range(3)
            }
        )
        if not f.is_zero():
            gens.append(f)
    return Ideal(ring, gens)


def test_standard_monomial_count_is_order_independent():
    rng = random.Random(23)
    field = PrimeField(7)
    for _ in range(25):
        nvars = rng.randrange(2, 4)
        ring = PolynomialRing(field, [f"x{i}" for i in range(nvars)], DEGREVLEX)
        ideal = _random_zero_dim_ideal(ring, rng)
        n1 = length(buchberger(ideal, DEGREVLEX))
        n2 = length(buchberger(ideal, DEGLEX))
        assert n1 == n2


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    nvars=st.integers(min_value=2, max_value=4),
    order=st.sampled_from([DEGREVLEX, DEGLEX, LEX]),
    kind=st.sampled_from(["monomial", "polynomial", "unit"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_standard_monomials_match_the_monomial_oracle(nvars, order, kind, seed):
    # powers of every variable make the ideal zero-dimensional; the extra
    # generators are monomials, inhomogeneous polynomials, or a pair whose
    # difference is a unit
    rng = random.Random(seed)
    ring = PolynomialRing(PrimeField(7), [f"x{i}" for i in range(nvars)], order)

    def exps():
        return tuple(rng.randrange(3) for _ in range(nvars))

    gens = [ring.var(name) ** rng.randrange(1, 5) for name in ring.vars]
    for _ in range(rng.randrange(1, 4)):
        if kind == "monomial":
            gens.append(ring.monomial(exps()))
        else:
            f = ring.poly({exps(): rng.randrange(1, 7) for _ in range(3)})
            if not f.is_zero():
                gens.append(f)
    if kind == "unit":
        g = ring.monomial(exps())
        gens += [g + 1, g]
    gb = buchberger(Ideal(ring, gens))
    assert verify_groebner(gb)
    lts = [ring.unpack(m) for m in gb.leading_monomials()]
    assert sorted(standard_exponents(gb)) == sorted(monomial_quotient_standard(lts, nvars))
    if kind == "unit":
        assert standard_exponents(gb) == []


def test_budget_exceeded_is_distinguishable():
    ideal = example61_ideal()
    with pytest.raises(BudgetExceededError):
        buchberger(ideal_square(ideal), budget=10)


def test_determinism(ring_xyz):
    x, y, z = ring_xyz.gens()
    ideal = Ideal(ring_xyz, [x * y - z ** 2, y ** 2 - x * z, x ** 3 - y * z ** 2])
    gb1 = buchberger(ideal)
    gb2 = buchberger(ideal)
    assert [g.terms for g in gb1.elements] == [g.terms for g in gb2.elements]


def test_reducedness_of_larger_basis():
    gb = buchberger(example61_ideal())
    assert verify_groebner(gb)  # 15 elements: exhaustive S-pair check
    for f in gb.elements:
        assert f.leading_coefficient() == 1


def test_reduced_basis_is_presentation_independent():
    # the reduced basis is unique: shuffled generators, the basis itself,
    # and the square-free-of-duplicates presentation all land on it
    import random as _random

    ideal = example61_ideal()
    gb = buchberger(ideal)
    shuffled = list(ideal.generators)
    _random.Random(5).shuffle(shuffled)
    gb_shuffled = buchberger(Ideal(ideal.ring, shuffled))
    assert [g.terms for g in gb_shuffled.elements] == [g.terms for g in gb.elements]
    gb_again = buchberger(gb.as_ideal())
    assert [g.terms for g in gb_again.elements] == [g.terms for g in gb.elements]


def test_reduced_basis_unique_on_random_ideals(ring_xyz):
    import random as _random

    rng = _random.Random(99)
    for _ in range(10):
        gens = []
        for _ in range(3):
            f = ring_xyz.poly(
                {
                    tuple(rng.randrange(3) for _ in range(3)): rng.randrange(7)
                    for _ in range(3)
                }
            )
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        ideal = Ideal(ring_xyz, gens)
        gb = buchberger(ideal)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        multiplied = [g * 3 for g in shuffled]  # unit multiples, same ideal
        gb2 = buchberger(Ideal(ring_xyz, multiplied))
        assert [g.terms for g in gb.elements] == [g.terms for g in gb2.elements]


def test_basis_serialization_round_trip(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 2, x * y + y ** 2]))
    text = gb.to_text()
    lines = text.splitlines()
    assert lines[0] == "order degrevlex"
    parsed = [ring_xy.parse(ln) for ln in lines[1:]]
    assert parsed == list(gb.elements)


def test_packed_overflow_in_a_product_is_an_error():
    # x^140 would set the divisibility guard bit and miss its divisor x^65
    ring = PolynomialRing(PrimeField(31991), ["x", "y"])
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [x ** 65, y]))
    with pytest.raises(ValueError, match="exceeds the 120 limit"):
        contains(gb, (x ** 70) ** 2)


@pytest.mark.parametrize("degree, fits", [(119, True), (120, True), (121, False), (128, False)])
def test_spolynomial_shift_past_the_degree_limit(degree, fits):
    # x^a (y + z) and y^b (y + z): the one S-pair has lcm x^a y^(b+1) of
    # degree a + b + 1, and its shifted tails lie in that degree too
    ring = PolynomialRing(PrimeField(31991), ["x", "y", "z"])
    x, y, z = ring.gens()
    a = 60
    b = degree - 1 - a
    ideal = Ideal(ring, [x ** a * (y + z), y ** b * (y + z)])
    if fits:
        gb = buchberger(ideal)
        assert len(gb) == 2 and verify_groebner(gb)
    else:
        with pytest.raises(ValueError, match=f"total degree {degree} exceeds"):
            buchberger(ideal)


@pytest.mark.parametrize("k, j, fits", [(59, 1, True), (60, 0, True), (60, 1, False), (60, 8, False)])
def test_lex_reduction_shift_past_the_degree_limit(k, j, fits):
    # under LEX the tail y^k of x - y^k lies above its leading term, so
    # reducing x^2 y^j by it climbs to y^(2k + j)
    ring = PolynomialRing(PrimeField(31991), ["x", "y"], LEX)
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [x - y ** k]))
    f = x ** 2 * y ** j
    if fits:
        assert normal_form(f, gb) == y ** (2 * k + j)
    else:
        with pytest.raises(ValueError, match=f"total degree {2 * k + j} exceeds"):
            normal_form(f, gb)


def test_verify_groebner_checks_every_pair_of_a_large_set():
    # 62 degree-2 monomials in a..k and two cubics in x, y, z whose one
    # S-pair does not reduce to zero; they sort last, so that pair is the
    # last of 2016, a pair a stride-2 sample of the pairs would skip
    ring = PolynomialRing(PrimeField(31991), list("abcdefghijk") + ["x", "y", "z"])
    x, y, z = ring.gens()[-3:]
    monos = [f * g for i, f in enumerate(ring.gens()[:11]) for g in ring.gens()[i:11]][:62]
    f, g = x ** 3 - y, x ** 2 * y - z
    gb = GroebnerBasis(ring, monos + [f, g])
    assert len(gb) == 64 and set(gb.elements[-2:]) == {f, g}
    assert not verify_groebner(gb)
    assert verify_groebner(GroebnerBasis(ring, monos + [f]))


def test_pair_criteria_see_divisors_of_lcms_past_degree_127():
    # lt x^60 of the last generator meets xy and y^70 z: the lcm x^60 y
    # divides x^60 y^70 z (degree 131), so criterion M must drop that pair
    # before its S-polynomial passes the degree limit
    ring = PolynomialRing(PrimeField(31991), ["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    gens = [x * y + w, y ** 70 * z + w, x ** 60 + w ** 2]
    gb = buchberger(Ideal(ring, gens))
    assert len(gb) == 118 and max(f.degree for f in gb.elements) == 71
    assert all(contains(gb, g) for g in gens)


def test_verify_groebner_skips_pairs_past_the_degree_limit():
    # the same 118-element basis: reducing every one of its 6,903 pairs
    # passes total degree 120, but the coprime and strict chain criteria
    # leave only pairs that fit
    ring = PolynomialRing(PrimeField(31991), ["x", "y", "z", "w"])
    x, y, z, w = ring.gens()
    gb = buchberger(Ideal(ring, [x * y + w, y ** 70 * z + w, x ** 60 + w ** 2]))
    assert len(gb) == 118
    assert verify_groebner(gb)


@pytest.mark.parametrize(
    "c, s, r, steps, square_steps",
    [(4, 3, 1, 13, 51), (5, 2, 0, 20, 145)],
)
def test_stretched_step_counts_are_pinned(c, s, r, steps, square_steps):
    # the smallest budgets that suffice; the Gebauer-Moller criteria decide
    # which S-pairs get reduced, so pruning other pairs moves these counts,
    # and so does squaring a smaller generating set
    ring = PolynomialRing(PrimeField(31991), [f"x{i + 1}" for i in range(c)])
    ideal = stretched_ideal(StretchedSpec(c, s, r), ring)
    for target, n in ((ideal, steps), (ideal_square(ideal), square_steps)):
        buchberger(target, budget=n)
        with pytest.raises(BudgetExceededError):
            buchberger(target, budget=n - 1)


# Buchberger steps of each stretched cell (default units) and of its square,
# by r = 0, 1, ...: the Gebauer-Moller criteria decide which S-pairs get
# reduced, so a pair the update adds or drops moves a count
_STRETCHED_STEPS = {
    (3, 2): [(6, 33), (3, 15), (0, 0)],
    (3, 3): [(11, 36), (2, 13), (0, 0)],
    (3, 4): [(11, 36), (2, 13), (0, 0)],
    (4, 2): [(12, 76), (8, 48), (4, 23), (0, 0)],
    (4, 3): [(31, 83), (13, 51), (3, 21), (0, 0)],
    (4, 4): [(29, 83), (13, 51), (3, 21), (0, 0)],
    (5, 2): [(20, 145), (15, 104), (10, 67), (5, 33), (0, 0)],
    (5, 3): [(62, 157), (34, 111), (15, 70), (4, 31), (0, 0)],
    (5, 4): [(56, 157), (32, 111), (15, 70), (4, 31), (0, 0)],
}


@pytest.mark.parametrize(
    "c, s, r, steps, square_steps",
    [(c, s, r, *counts) for (c, s), cells in _STRETCHED_STEPS.items() for r, counts in enumerate(cells)],
)
def test_every_stretched_cell_takes_its_pinned_steps(c, s, r, steps, square_steps, monkeypatch):
    charged = []
    charge = _Budget.charge

    def counted(self, n=1):
        charged.append(n)
        return charge(self, n)

    monkeypatch.setattr(_Budget, "charge", counted)
    ring = PolynomialRing(PrimeField(31991), [f"x{i + 1}" for i in range(c)])
    ideal = stretched_ideal(StretchedSpec(c, s, r), ring)
    for target, n in ((ideal, steps), (ideal_square(ideal), square_steps)):
        charged.clear()
        gb = buchberger(target)
        assert sum(charged) == n
        assert verify_groebner(gb)


@pytest.mark.parametrize("c, s, r, gens, square_gens", [(4, 3, 1, 44, 73), (5, 2, 0, 49, 180)])
def test_square_of_a_stretched_cell_drops_divisible_monomials(c, s, r, gens, square_gens):
    # the truncation m^(s+1) is mostly divisible by the quadric monomials;
    # squaring every generator would give 356 and 566 products
    ring = PolynomialRing(PrimeField(31991), [f"x{i + 1}" for i in range(c)])
    ideal = stretched_ideal(StretchedSpec(c, s, r), ring)
    assert len(ideal.generators) == gens
    sq = ideal_square(ideal)
    assert len(sq.generators) == square_gens
    assert buchberger(sq).elements == buchberger(ideal_product(ideal, ideal)).elements


def test_ideal_square_keeps_the_order_of_what_remains(ring_xy):
    x, y = ring_xy.gens()
    sq = ideal_square(Ideal(ring_xy, [x * y, x, y ** 2 + x, x ** 2]))
    assert sq.generators == (x ** 2, x * (y ** 2 + x), (y ** 2 + x) ** 2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    nvars=st.integers(min_value=2, max_value=3),
    order=st.sampled_from([DEGREVLEX, DEGLEX, LEX]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_pruned_square_matches_the_full_product(nvars, order, seed):
    # monomials, some of them multiples of others, plus binomials; the
    # product of every pair of generators is the route with no pruning
    rng = random.Random(seed)
    ring = PolynomialRing(PrimeField(31991), [f"x{i}" for i in range(nvars)], order)

    def exps():
        return tuple(rng.randrange(3) for _ in range(nvars))

    monos = [ring.monomial(exps()) for _ in range(rng.randrange(1, 4))]
    monos += [m * ring.monomial(exps()) * rng.randrange(1, 5) for m in monos if rng.random() < 0.7]
    binomials = [
        ring.poly({exps(): rng.randrange(1, 31991), exps(): rng.randrange(1, 31991)})
        for _ in range(rng.randrange(3))
    ]
    gens = monos + binomials
    rng.shuffle(gens)
    ideal = Ideal(ring, gens)
    gb_sq = buchberger(ideal_square(ideal))
    assert verify_groebner(gb_sq)
    assert gb_sq.elements == buchberger(ideal_product(ideal, ideal)).elements


def test_monomial_input_whose_interreduction_is_not_minimal():
    # interreduction keeps x^2 and y^3, then reduces x^2 + y to y, which
    # divides y^3: a set of monomials that is not the reduced basis
    ring = PolynomialRing(PrimeField(31991), ["x", "y"], DEGREVLEX)
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, [y ** 3, x ** 2, x ** 2 + y]))
    assert [str(g) for g in gb.elements] == ["y", "x^2"]
    assert verify_groebner(gb)


def test_monomial_ideal_basis_is_its_minimal_monic_generators():
    ring = PolynomialRing(PrimeField(31991), [f"x{i + 1}" for i in range(5)])
    # ideal_L's generators, made non-monic, plus multiples of some of them
    gens = [3 * g for g in ideal_L(5, 4, ring).generators]
    gens += [ring.gens()[0] * g for g in gens[::7]]
    lts = [g.terms[0][1] for g in gens]
    minimal = {
        a for a in lts if not any(b != a and ring.mono_divides(b, a) for b in lts)
    }
    assert len(minimal) < len(gens)
    for budget in (DEFAULT_STEP_BUDGET, 0):
        gb = buchberger(Ideal(ring, gens), budget=budget)
        assert set(gb.leading_monomials()) == minimal
        assert all(g.is_monomial() and g.terms[0][2] == 1 for g in gb.elements)
        assert verify_groebner(gb)


def _random_exponents(rng, nvars, top=120):
    """A random exponent vector of total degree at most `top`."""
    d = rng.randrange(top + 1)
    cuts = sorted(rng.randrange(d + 1) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    nvars=st.integers(min_value=1, max_value=4),
    order=st.sampled_from([DEGREVLEX, DEGLEX, LEX]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_lt_index_find_is_the_first_divisor_in_ascending_packed_order(nvars, order, seed):
    rng = random.Random(seed)
    ring = PolynomialRing(PrimeField(31991), [f"x{i}" for i in range(nvars)], order)
    index = _LtIndex(ring)
    reducers = {}
    for _ in range(rng.randrange(1, 12)):
        terms = {_random_exponents(rng, nvars): rng.randrange(1, 31991) for _ in range(rng.randrange(1, 4))}
        f = ring.poly(terms).monic()
        if f.is_zero() or f.terms[0][1] == 0 or f.terms[0][1] in reducers:
            continue
        index.add(f)
        tail = tuple((m, c) for _, m, c in f.terms[1:])
        rise = 0
        if tail:
            rise = max(0, max(ring.mono_deg(m) for m, _ in tail) - ring.mono_deg(f.terms[0][1]))
        reducers[f.terms[0][1]] = (f.terms[0][1], tail, rise)
    if not reducers:
        return
    lowest = min(ring.mono_deg(lt) for lt in reducers)
    below = ring.pack(_random_exponents(rng, nvars, lowest - 1)) if lowest else None
    queries = [0, below] + [ring.pack(_random_exponents(rng, nvars)) for _ in range(30)]
    # multiples of the leading terms, so that most queries have a divisor
    for lt in reducers:
        e = [a + b for a, b in zip(ring.unpack(lt), _random_exponents(rng, nvars, 10))]
        if sum(e) <= 120:
            queries.append(ring.pack(e))
    for m in queries:
        if m is None:
            continue
        expected = next((reducers[lt] for lt in sorted(reducers) if ring.mono_divides(lt, m)), None)
        assert index.find(m) == expected
    if below is not None:
        assert index.find(below) is None
    assert index.find(0) is None


def test_lt_index_rejects_a_second_reducer_with_the_same_leading_term(ring_xy):
    x, y = ring_xy.gens()
    index = _LtIndex(ring_xy)
    index.add(x ** 2 + y)
    with pytest.raises(ValueError):
        index.add(x ** 2 + 2 * y)


def test_pair_work_of_a_stretched_square_is_pinned(monkeypatch):
    # a new monomial forms lcms only with the elements that have a tail, and
    # criterion F forms them for old pairs only when the new leading term
    # divides the pair's lcm; 2,060 lcms when each element after the leading
    # run of monomials formed one with every element before it
    ring = PolynomialRing(PrimeField(31991), [f"x{i + 1}" for i in range(5)])
    square = ideal_square(stretched_ideal(StretchedSpec(5, 2, 0), ring))
    calls = []
    mono_lcm = PolynomialRing.mono_lcm

    def counted(self, a, b):
        calls.append((a, b))
        return mono_lcm(self, a, b)

    monkeypatch.setattr(PolynomialRing, "mono_lcm", counted)
    gb = buchberger(square)
    assert len(calls) == 204
    assert len(gb) == 70


@pytest.mark.parametrize("order", [DEGREVLEX, DEGLEX, LEX], ids=lambda order: order.kind)
@pytest.mark.parametrize("p", [7, 31991])
def test_standard_levels_match_a_divisor_scan(order, p):
    # each level is the variable multiples of the level below that no
    # leading monomial divides, though the walk tests a multiple only
    # against its divisors one degree down and the leading monomials
    rng = random.Random(p)
    for _ in range(20):
        nvars = rng.randrange(2, 5)
        ring = PolynomialRing(PrimeField(p), [f"x{i}" for i in range(nvars)], order)
        gb = buchberger(_random_zero_dim_ideal(ring, rng))
        lts = gb.leading_monomials()
        # the pure powers, of degree at most 3, leave at most 2 * nvars + 1
        # levels; a walk cut short fails the last comparison
        levels = list(islice(_standard_levels(gb), 2 * nvars + 2))
        assert levels[:1] == ([] if 0 in lts else [{0: None}])
        for level, above in zip(levels, levels[1:] + [{}]):
            assert above == successors_by_divisor_scan(ring, lts, level)
