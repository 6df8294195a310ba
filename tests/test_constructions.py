import pytest

from conormal import (
    PolynomialRing,
    PrimeField,
    buchberger,
    contains,
    ideal_square,
)
from conormal.invariants import classify, length
from conormal.constructions import (
    EXAMPLE61_POINTS,
    EXAMPLE61_PRIME,
    StretchedSpec,
    example61_points,
    ideal_L,
    stretched_ideal,
    truncation,
)
from conormal import constructions
from conormal.points import vanishing_ideal
from conftest import example61_ideal, monomial_quotient_standard


def _ring(c, p=31991):
    return PolynomialRing(PrimeField(p), [f"x{i + 1}" for i in range(c)])


def test_spec_validation():
    with pytest.raises(ValueError):
        StretchedSpec(3, 1, 0)
    with pytest.raises(ValueError):
        StretchedSpec(3, 2, 3)
    with pytest.raises(ValueError):
        StretchedSpec(3, 2, -1)
    with pytest.raises(ValueError):
        StretchedSpec(3, 2, 0, units=(1,))
    assert StretchedSpec(3, 2, 0).units == (1, 1)
    assert StretchedSpec(3, 2, 2).units == ()


def test_stretched_top_type():
    ring = _ring(3)
    ideal = stretched_ideal(StretchedSpec(3, 3, 2), ring)
    x1, x2, x3 = ring.gens()
    for needed in (x1 * x1, x1 * x2, x1 * x3, x2 * x2, x2 * x3, x3 ** 4):
        assert any(g == needed for g in ideal.generators)
    report = classify(buchberger(ideal))
    assert report.hf.values == (1, 3, 1, 1)
    assert report.tau == 3


def test_stretched_gorenstein_case():
    ring = _ring(3)
    ideal = stretched_ideal(StretchedSpec(3, 2, 0, units=(1, 1)), ring)
    x1, x2, x3 = ring.gens()
    expected = {x1 * x2, x1 * x3, x2 * x3, x3 ** 2 - x1 ** 2, x3 ** 2 - x2 ** 2}
    assert expected.issubset(set(ideal.generators))
    report = classify(buchberger(ideal))
    assert report.gorenstein and report.tau == 1


def test_stretched_type_two():
    ring = _ring(4)
    ideal = stretched_ideal(StretchedSpec(4, 3, 1), ring)
    report = classify(buchberger(ideal))
    assert report.tau == 2
    assert report.length == 7 == 4 + 3


def test_stretched_needs_matching_ring():
    with pytest.raises(ValueError):
        stretched_ideal(StretchedSpec(3, 2, 0), _ring(4))
    with pytest.raises(ValueError):
        stretched_ideal(StretchedSpec(3, 2, 0, units=(31991, 1)), _ring(3))


def test_ideal_L_needs_c_and_s_at_least_2_and_a_matching_ring():
    for c, s, nvars, message in (
        (1, 2, 1, "c must be at least 2, got 1"),
        (2, 1, 2, "s must be at least 2, got 1"),
        (3, 2, 2, "ring has 2 variables, expected 3"),
    ):
        with pytest.raises(ValueError, match=message):
            ideal_L(c, s, _ring(nvars))


def test_ideal_L_smallest_case():
    ring = _ring(2)
    L = ideal_L(2, 2, ring)
    x1, x2 = ring.gens()
    expected = {
        x1 * x1 ** 3, x1 * (x1 ** 2 * x2), x1 * (x1 * x2 ** 2),
        x1 * x2 ** 3, x2 ** 4,
    }
    assert set(L.generators) == {g.monic() for g in expected}


def test_ideal_L_length_against_enumeration_oracle():
    ring = _ring(3)
    L = ideal_L(3, 2, ring)
    gen_exps = [ring.unpack(g.terms[0][1]) for g in L.generators]
    expected = len(monomial_quotient_standard(gen_exps, 3))
    assert length(buchberger(L)) == expected


def test_ideal_L_length_bound_c4_s3():
    ring = _ring(4)
    L = ideal_L(4, 3, ring)
    assert length(buchberger(L)) >= 40


def test_truncation():
    ring2 = _ring(2)
    monos = truncation(ring2, 2)
    assert sorted(str(m) for m in monos) == ["x1*x2", "x1^2", "x2^2"]
    assert len(truncation(_ring(3), 1)) == 3
    assert len(truncation(_ring(6), 3)) == 56
    with pytest.raises(ValueError):
        truncation(ring2, 0)


def test_benchmark_ideal_shape():
    ideal = example61_ideal()
    assert len(ideal.generators) == 15
    degrees = sorted(int(g.degree) for g in ideal.generators)
    assert degrees == [2] * 11 + [3] * 4
    assert all(g.is_homogeneous() for g in ideal.generators)
    assert ideal.ring.field.p == EXAMPLE61_PRIME


def test_benchmark_checksum_guards_the_text(monkeypatch):
    # one coordinate of one frozen point altered
    corrupted = list(EXAMPLE61_POINTS)
    corrupted[7] = (1586, 24082, 8928, 6403, 6598, 1)
    monkeypatch.setattr(constructions, "EXAMPLE61_POINTS", tuple(corrupted))
    with pytest.raises(ValueError, match="checksum"):
        example61_points()


def test_example61_points_reproduce_the_transcribed_ideal():
    # the Buchberger-Moller basis of the ten points is the Buchberger basis
    # of the 15 transcribed generators, term for term, up to the names of
    # the variables (x0..x5 for a..f)
    ps = example61_points()
    assert (ps.c, ps.p, ps.n) == (5, EXAMPLE61_PRIME, 10)
    gb_points = vanishing_ideal(ps)
    gb_text = buchberger(example61_ideal())
    assert gb_points.ring.vars == tuple(f"x{i}" for i in range(6))
    assert [g.terms for g in gb_points.elements] == [g.terms for g in gb_text.elements]


def test_containment_spot_check_c3():
    # square of every stretched ideal sits inside the comparison ideal;
    # equality exactly when r <= c - 3
    ring = _ring(3)
    for r in range(3):
        ideal = stretched_ideal(StretchedSpec(3, 2, r), ring)
        sq = ideal_square(ideal)
        gb_l = buchberger(ideal_L(3, 2, ring))
        assert all(contains(gb_l, g) for g in sq.generators)
        gb_sq = buchberger(sq)
        equal = all(contains(gb_sq, g) for g in gb_l.elements)
        assert equal == (r <= 0)
