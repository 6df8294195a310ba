import hashlib
import random

import pytest

from conormal import DEGREVLEX, DEGLEX, LEX, buchberger, Ideal, random_linear_form, verify_groebner
from conormal import points
from conormal.field import stable_seed
from conormal.groebner import BudgetExceededError
from conormal.invariants import length
from conormal.points import (
    _check_degree_range,
    _in_general_position,
    bm_result,
    general_points,
    make_point_set,
    projective_point_count,
    random_points,
    vanishing_ideal,
)
from conftest import count_standard_of_degree, oneshot_vanishing_kernels, successors_by_divisor_scan


def test_two_points_in_p1():
    ps = make_point_set(1, 7, [(1, 0), (0, 1)])
    gb = vanishing_ideal(ps)
    assert [str(g) for g in gb.elements] == ["x0*x1"]


def test_coordinate_triangle():
    ps = make_point_set(2, 31991, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    gb = vanishing_ideal(ps)
    assert sorted(str(g) for g in gb.elements) == ["x0*x1", "x0*x2", "x1*x2"]
    assert verify_groebner(gb)


def test_ten_general_points_in_p5():
    ps, _ = general_points(5, 10, 31991, seed=1)
    gb = vanishing_ideal(ps)
    degrees = sorted(int(g.degree) for g in gb.elements)
    assert degrees == [2] * 11 + [3] * 4
    hf = bm_result(ps).hf
    assert _in_general_position(ps, hf)
    assert hf[:3] == (1, 6, 10)
    assert all(v == 10 for v in hf[2:])
    assert verify_groebner(gb)


def test_point_normalization_and_distinctness():
    ps = make_point_set(1, 7, [(2, 4), (0, 3)])
    assert ps.points == ((1, 2), (0, 1))
    with pytest.raises(ValueError):
        make_point_set(1, 7, [(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        make_point_set(1, 7, [(0, 0)])
    with pytest.raises(ValueError):
        make_point_set(1, 7, [(1, 1, 1)])
    with pytest.raises(ValueError, match="at least one point"):
        make_point_set(1, 7, [])


def test_random_points_determinism_and_counting():
    a = random_points(5, 10, 31991, seed=1)
    b = random_points(5, 10, 31991, seed=1)
    assert a == b
    assert len(set(a.points)) == 10
    assert random_points(1, 3, 3, seed=0).n == 3  # P^1 over GF(3) has 4 points
    with pytest.raises(ValueError):
        random_points(1, 5, 3, seed=0)
    assert projective_point_count(1, 3) == 4


def test_a_redraw_seed_is_the_hash_of_its_repr():
    # general_points seeds redraw k of `seed` with (seed, k)
    digest = hashlib.sha256(repr(("s", 1)).encode()).digest()
    assert stable_seed(("s", 1)) == int.from_bytes(digest[:8], "big")
    assert random_points(2, 3, 31991, (0, 1)).points == (
        (1, 18479, 18825), (1, 16543, 31251), (1, 8526, 1646)
    )


def test_single_point_always_general():
    ps = random_points(3, 1, 7, seed=2)
    assert _in_general_position(ps, bm_result(ps).hf)


def test_collinear_points_fail_the_certificate():
    # three points on the line x2 = 0 in P^2
    ps = make_point_set(2, 31991, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    hf = bm_result(ps).hf
    assert not _in_general_position(ps, hf)
    assert hf[1] == 2 < 3  # the generic value C(2 + 1, 1)


def test_coordinate_ring_hf_monotone_and_stabilizes():
    rng = random.Random(5)
    for _ in range(10):
        c = rng.randrange(1, 4)
        n = rng.randrange(1, 9)
        ps = random_points(c, n, 31991, seed=rng.randrange(10**6))
        hf = bm_result(ps).hf
        assert all(hf[i] <= hf[i + 1] for i in range(len(hf) - 1))
        assert hf[-1] == n
        assert hf[0] == 1


def test_reduction_length_equals_point_count():
    # the primary oracle cross-check: points rings are one-dimensional CM
    for seed in (1, 2, 3):
        ps, _ = general_points(3, 6, 31991, seed=seed)
        gb = vanishing_ideal(ps)
        ring = gb.ring
        ell = random_linear_form(ring, (seed, "check"))
        red = buchberger(Ideal(ring, list(gb.elements) + [ell]))
        assert length(red) == 6


def test_vanishing_ideal_agrees_with_oneshot_oracle():
    from math import comb

    from conormal import contains

    rng = random.Random(12)
    drawn = [
        random_points(rng.randrange(1, 4), rng.randrange(1, 9), 31991, seed=rng.randrange(10**6))
        for _ in range(6)
    ]
    # five general points in P^2: in degree 2 the value rank fills at the
    # fifth candidate, and the sixth, x0^2, leads the one new element
    five, _ = general_points(2, 5, 31991, 0)
    assert bm_result(five).hf[2] == 5
    quadrics = [g for g in vanishing_ideal(five).elements if g.degree == 2]
    assert [five.ring().unpack(g.leading_monomial()) for g in quadrics] == [(2, 0, 0)]
    # ten general points in P^2: every candidate of degrees 1 to 3 is standard
    ten, _ = general_points(2, 10, 31991, 0)
    assert bm_result(ten).hf[:4] == (1, 3, 6, 10)
    collinear = make_point_set(2, 31991, [(1, t, 5 * t + 7) for t in range(7)])
    twisted_cubic = make_point_set(3, 31991, [(1, t, t * t, t ** 3) for t in range(1, 10)])
    wide = random_points(3, 8, 2**31 - 1, seed=4)  # 128-bit echelon lanes
    for ps in drawn + [five, ten, collinear, twisted_cubic, wide]:
        gb = vanishing_ideal(ps)
        hf = bm_result(ps).hf
        max_deg = max(int(g.degree) for g in gb.elements) + 1
        kernels = oneshot_vanishing_kernels(ps, max_deg)
        for d, polys in kernels.items():
            # dimension agreement: monomials minus standard = kernel size,
            # and the pass's Hilbert function, which stays at n past its end
            total = comb(ps.c + d, d)
            assert total - count_standard_of_degree(gb, d) == len(polys)
            assert total - hf[min(d, len(hf) - 1)] == len(polys)
            for f in polys:
                assert contains(gb, f)


@pytest.mark.parametrize("order", [DEGREVLEX, DEGLEX, LEX], ids=lambda order: order.kind)
@pytest.mark.parametrize("p", [7, 31991])
def test_buchberger_moller_candidates_match_a_divisor_scan(order, p, monkeypatch):
    # the candidates of degree d are the variable multiples of the standard
    # monomials of degree d - 1 that no leading term of lower degree divides;
    # the pass hands the walk no leading terms, all of them lying below d
    walked = []
    honest = points._standard_successors

    def recorded(ring, lts, level):
        out = honest(ring, lts, level)
        walked.append((ring, list(level), out))
        return out

    monkeypatch.setattr(points, "_standard_successors", recorded)
    rng = random.Random(p)
    for _ in range(8):
        c = rng.randrange(1, 5)
        n = rng.randrange(1, min(25, projective_point_count(c, p)) + 1)
        walked.clear()
        basis = bm_result(random_points(c, n, p, rng.randrange(10**6)), order).basis
        assert walked
        for ring, level, candidates in walked:
            d = ring.mono_deg(level[0]) + 1
            below = [lt for lt in basis.leading_monomials() if ring.mono_deg(lt) < d]
            assert candidates == successors_by_divisor_scan(ring, below, level)


def test_all_points_of_p1_over_gf3():
    # the ideal of every point of the projective line over GF(3) is the
    # classical Frobenius form x^3 y - x y^3
    ps = make_point_set(1, 3, [(1, 0), (0, 1), (1, 1), (1, 2)])
    gb = vanishing_ideal(ps)
    ring = gb.ring
    x0, x1 = ring.gens()
    expected = (x0 ** 3 * x1 - x0 * x1 ** 3).monic()
    assert list(gb.elements) == [expected]


def counting_bm_runs(monkeypatch):
    """Patch the Buchberger-Moller pass to record the order of each run."""
    runs = []
    real = points._bm_run

    def counting(ps, order, budget):
        runs.append(order)
        return real(ps, order, budget)

    monkeypatch.setattr(points, "_bm_run", counting)
    return runs


def test_general_points_keep_their_pass_for_the_vanishing_ideal(monkeypatch):
    runs = counting_bm_runs(monkeypatch)
    ps, redraws = general_points(3, 6, 31991, 0)
    assert len(runs) == redraws + 1
    gb = vanishing_ideal(ps)
    assert _in_general_position(ps, bm_result(ps).hf)
    assert len(runs) == redraws + 1
    # the kept basis itself, not a copy sorted again
    assert vanishing_ideal(ps) is gb is bm_result(ps).basis
    # the kept pass takes no part in equality; a point set without it, or
    # another order, runs the pass again
    plain = make_point_set(3, 31991, ps.points, ps.seed)
    assert plain == ps and hash(plain) == hash(ps) and plain.bm is None
    assert vanishing_ideal(plain).elements == gb.elements
    assert len(runs) == redraws + 2
    assert verify_groebner(vanishing_ideal(ps, DEGLEX))
    assert runs[-1] == DEGLEX and len(runs) == redraws + 3


def test_a_conjecture_run_makes_one_buchberger_moller_pass(monkeypatch):
    from conormal.harness import ExperimentConfig, conjecture_experiment

    runs = counting_bm_runs(monkeypatch)
    text, code = conjecture_experiment(ExperimentConfig("conjecture", c=5, seed=0))
    assert code == 0 and "redraws: 0" in text
    assert len(runs) == 1


def test_an_analysis_of_points_without_a_kept_pass_runs_one(monkeypatch):
    # the pass gives the analysis both the basis and the Hilbert function,
    # and the analysis runs no second one
    from conormal.cm import analyze

    ps = make_point_set(2, 31991, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    runs = counting_bm_runs(monkeypatch)
    assert analyze(bm_result(ps), seed=0).e == 4
    assert len(runs) == 1


def test_buchberger_moller_step_counts_are_pinned():
    # one step per candidate row plus one per nonzero multiplier; the
    # multipliers are read at the value columns only
    from conormal.constructions import example61_points

    assert bm_result(example61_points()).steps == 189
    ps, redraws = general_points(13, 40, 31991, 0)
    assert (redraws, ps.bm.steps) == (0, 6870)


def test_vanishing_ideal_is_charged_to_the_step_budget():
    # 6 general points in P^3: 115 steps, one per candidate row plus one per
    # echelon row subtracted from it
    ps, _ = general_points(3, 6, 31991, 0)
    assert [str(g) for g in vanishing_ideal(ps, budget=115).elements] == [
        str(g) for g in vanishing_ideal(ps).elements
    ]
    with pytest.raises(BudgetExceededError):
        vanishing_ideal(ps, budget=114)
    with pytest.raises(BudgetExceededError):
        bm_result(ps, budget=114)
    with pytest.raises(BudgetExceededError):
        general_points(3, 6, 31991, 0, budget=114)


def value_by_pow(exps, point, p):
    v = 1
    for e, x in zip(exps, point):
        v = v * pow(x, e, p) % p
    return v


def test_monomial_values_match_one_pow_per_coordinate():
    rng = random.Random(5)
    ps = random_points(4, 9, 31991, 5)
    exponents = [(0,) * 5] + [tuple(rng.randrange(7) for _ in range(5)) for _ in range(30)]
    want = [[value_by_pow(exps, pt, 31991) for pt in ps.points] for exps in exponents]
    assert points._monomial_values(exponents, ps) == want


def test_point_counts_past_the_degree_limit_fail_before_any_evaluation(monkeypatch):
    # the degree loop runs to at least d0 + 1, d0 the first degree with
    # C(c + d0, d0) >= n: 120 for 120 points on P^1 or C(121, 2) = 7260
    # points in P^2, and one point more takes it past the limit
    _check_degree_range(1, 120)
    _check_degree_range(2, 7260)

    def evaluate(*args):
        raise AssertionError("a point was evaluated")

    # the degree loop starts each degree with the standard-monomial walk,
    # and the closing check evaluates by `_monomial_values`
    monkeypatch.setattr(points, "_standard_successors", evaluate)
    monkeypatch.setattr(points, "_monomial_values", evaluate)
    for c, n in ((1, 121), (2, 7261), (2, 100_000)):
        with pytest.raises(ValueError, match="past total degree 120"):
            general_points(c, n, 31991, 0)
    with pytest.raises(ValueError, match="past total degree 120"):
        vanishing_ideal(random_points(1, 121, 31991, 0))


@pytest.mark.parametrize(
    "c, n, message",
    [
        (0, 2, "projective dimension must be at least 1, got 0"),
        (-1, 5, "projective dimension must be at least 1, got -1"),
        (3, 0, "need at least one point, got 0"),
    ],
)
def test_general_points_check_c_and_n_before_the_degree_range(c, n, message):
    # P^0 has C(d0, d0) = 1 monomial in every degree, so the degree range
    # alone would blame the degree limit for what is a bad dimension
    with pytest.raises(ValueError) as err:
        general_points(c, n, 31991, 0)
    assert str(err.value) == message


def test_points_on_a_line_climb_past_the_degree_limit(monkeypatch):
    # n points on a line in P^2 need an element of degree n, far above the
    # degree d0 + 1 that the count alone asks for; with the limit lowered to
    # 10, ten such points still fit and eleven raise instead of packing
    # monomials past it
    monkeypatch.setattr(points, "MAX_EXPONENT", 10)
    gb = vanishing_ideal(make_point_set(2, 31991, [(1, i, 0) for i in range(10)]))
    assert [g.degree for g in gb.elements] == [1, 10]
    with pytest.raises(ValueError, match="past total degree 10"):
        vanishing_ideal(make_point_set(2, 31991, [(1, i, 0) for i in range(11)]))
