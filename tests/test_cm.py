import dataclasses
import random
import time

import pytest

from conormal import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    Ideal,
    PolynomialRing,
    PrimeField,
    buchberger,
)
from conormal.cm import (
    DEFAULT_TRIALS,
    CmVerdict,
    _hf_difference,
    _trial_forms,
    analyze,
    artinian_reduction,
    derive_seed,
    is_cm_square,
)
from conormal.groebner import contains
from conormal.invariants import length
from conormal.points import (
    bm_result,
    general_points,
    make_point_set,
    random_points,
    vanishing_ideal,
)

from conftest import example61_ideal, seeded_quadrics, sweep_square_gap


def test_reduction_of_coordinate_triangle():
    ps = make_point_set(2, 31991, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    gb = vanishing_ideal(ps)
    assert artinian_reduction(gb, seed=1).length == 3


def test_reduction_of_single_point():
    ps = make_point_set(3, 31991, [(1, 0, 0, 0)])
    gb = vanishing_ideal(ps)
    assert artinian_reduction(gb, seed=1).length == 1


def test_reduction_rejects_artinian_input(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 2, y ** 2]))
    with pytest.raises(ValueError):
        artinian_reduction(gb, seed=0)


@pytest.mark.parametrize("trials", [0, -1])
def test_reduction_needs_a_trial(trials):
    # on either route: random points, where x3 vanishes at none of them, and
    # the same points with the last coordinate of the first set to 0
    ps = random_points(3, 7, 31991, seed=4)
    moved = make_point_set(3, 31991, [ps.points[0][:3] + (0,)] + list(ps.points[1:]))
    for points, last_variable in ((ps, True), (moved, False)):
        gb = vanishing_ideal(points)
        with pytest.raises(ValueError, match="at least 1 trial"):
            artinian_reduction(gb, seed=4, trials=trials)
        assert (str(artinian_reduction(gb, seed=4, trials=1).form) == "x3") == last_variable


def test_the_last_variable_is_the_form_only_in_degrevlex():
    # no leading monomial of a single point's basis involves x2, in any of
    # the three orders; Bayer and Stillman's test holds in degrevlex only,
    # so the other two draw a seeded form
    ps = make_point_set(2, 31991, [(1, 2, 3)])
    for order in (DEGREVLEX, DEGLEX, LEX):
        gb = bm_result(ps, order).basis
        assert all(not gb.ring.unpack(lt)[2] for lt in gb.leading_monomials())
        form = artinian_reduction(bm_result(ps, order), seed=0).form
        assert (str(form) == "x2") == (order == DEGREVLEX)


def test_multiplicity_is_the_point_count():
    ps = random_points(3, 7, 31991, seed=4)
    gb = vanishing_ideal(ps)
    assert artinian_reduction(gb, seed=4).length == 7


def test_multiplicity_of_artinian_quotient(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 2, x * y, y ** 2]))
    assert length(gb) == 3


def test_single_point_square_is_cm():
    # one point: a complete intersection of linear forms; the first form
    # that misses it gives length exactly c + 1
    for c in (2, 3, 4):
        ps = make_point_set(c, 31991, [tuple([1] + [0] * c)])
        gb = vanishing_ideal(ps)
        verdict = is_cm_square(artinian_reduction(gb, 5))
        assert verdict.status == "CM" and verdict.trials == 1
        assert verdict.lambda_min == c + 1 == verdict.e_expected


def test_benchmark_square_is_cm():
    gb = buchberger(example61_ideal())
    verdict = is_cm_square(artinian_reduction(gb, 0))
    assert verdict.status == "CM"
    assert verdict.lambda_min == 60 == verdict.e_expected
    assert verdict.witness is not None


def test_nine_points_in_p5_not_cm():
    ps, _ = general_points(5, 9, 31991, seed=3)
    gb = vanishing_ideal(ps)
    verdict = is_cm_square(artinian_reduction(gb, 3, 3))
    assert verdict.status == "NotCM"
    assert verdict.lambda_min > verdict.e_expected == 54
    # the first form decides NotCM too: the other two are never drawn
    assert verdict.trials == 1


def test_budget_exhaustion_is_inconclusive():
    gb = buchberger(example61_ideal())
    verdict = is_cm_square(artinian_reduction(gb, 0), budget=100)
    assert verdict.status == "Inconclusive"
    assert verdict.detail


def test_verdict_determinism():
    gb = buchberger(example61_ideal())
    v1 = is_cm_square(artinian_reduction(gb, 42))
    v2 = is_cm_square(artinian_reduction(gb, 42))
    assert (v1.status, v1.trials, v1.lambda_min, str(v1.witness)) == (
        v2.status, v2.trials, v2.lambda_min, str(v2.witness)
    )


def test_verdict_invariants():
    with pytest.raises(ValueError):
        CmVerdict("CM", None, 1, 61, 60)
    with pytest.raises(ValueError):
        CmVerdict("NotCM", None, 1, 60, 60)
    with pytest.raises(ValueError):
        CmVerdict("Perhaps", None, 1, 60, 60)


def test_analyze_single_point():
    ps = make_point_set(4, 31991, [(1, 2, 3, 4, 5)])
    report = analyze(bm_result(ps), seed=1, source="one point")
    assert report.invariants.hf.values == (1,)
    assert report.invariants.gorenstein
    assert report.cm_square.status == "CM"
    assert report.e == 1


def test_analyze_benchmark_report():
    gb = buchberger(example61_ideal())
    report = analyze(gb, seed=7, source="benchmark")
    inv = report.invariants
    assert inv.hf.values == (1, 5, 4)
    assert inv.c == 5 and inv.tau == 4
    assert inv.level and not inv.gorenstein
    assert report.e == 10 and report.q == 11
    assert report.cm_square.status == "CM"
    names = [name for name, _ in report.criteria]
    assert "quadric-count" in names and "low-multiplicity" in names
    text = report.to_text()
    assert "cm_square: CM" in text
    assert "agreement: true" in text


def test_analyze_artinian_input(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger(Ideal(ring_xy, [x ** 2, x * y, y ** 2]))
    report = analyze(gb, source="artinian")
    assert report.cm_square is None
    assert report.e == 3
    assert "cm_square: n/a" in report.to_text()


def test_analyze_checks_the_point_count():
    # the points' pass carries the basis of their ideal together with their
    # Hilbert function: e is the point count
    ps, _ = general_points(2, 4, 31991, seed=2)
    assert analyze(bm_result(ps), seed=2).e == 4


def test_derive_seed_stability():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)


def test_eight_quadrics_single_run():
    assert sweep_square_gap(*seeded_quadrics(0, 31991))


def forbid_buchberger(monkeypatch):
    """Make every binding of `buchberger` in the package raise, so an
    analysis that runs it fails."""
    import sys

    def forbidden(*args, **kwargs):
        raise AssertionError("the analysis ran Buchberger")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "conormal" and "buchberger" in vars(module):
            monkeypatch.setattr(module, "buchberger", forbidden)


def count_buchberger(monkeypatch):
    """Wrap every binding of `buchberger` in the package with a counter;
    return the list the wrapped calls append their ideals to."""
    import sys

    runs = []

    def counting(ideal, *args, **kwargs):
        runs.append(ideal)
        return buchberger(ideal, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "conormal" and "buchberger" in vars(module):
            monkeypatch.setattr(module, "buchberger", counting)
    return runs


def test_analysis_runs_buchberger_on_i_plus_l_once(monkeypatch):
    # the first form is a parameter, and it alone decides the NotCM verdict:
    # five trials allowed. The basis of IS = (I + l)/(l) now comes from
    # Macaulay matrices in S = R/(l), so the one run on I + l this test once
    # counted is gone: the analysis of a bare basis runs Buchberger no time
    import conormal.cm as cm

    ps, _ = general_points(5, 8, 31991, seed=0)
    gb = vanishing_ideal(ps)
    assert "buchberger" not in vars(cm)
    runs = count_buchberger(monkeypatch)
    report = analyze(gb, seed=0, trials=5)
    assert report.cm_square.status == "NotCM" and report.cm_square.trials == 1
    assert runs == []


def test_points_analysis_runs_no_buchberger_on_i_plus_l(monkeypatch):
    # the points twin of the test above: the first form misses every point
    # and its basis comes from Macaulay matrices, as without the points
    ps, _ = general_points(5, 8, 31991, seed=0)
    gb = vanishing_ideal(ps)
    forbid_buchberger(monkeypatch)
    report = analyze(bm_result(ps), seed=0, trials=5)
    assert report.cm_square.status == "NotCM" and report.cm_square.trials == 1
    assert report.to_text() == analyze(gb, seed=0, trials=5).to_text()


def test_square_verdict_reuses_a_given_reduction():
    ps, _ = general_points(5, 8, 31991, seed=0)
    gb = vanishing_ideal(ps)
    reduction = artinian_reduction(gb, 4, 3, 10**6)
    assert reduction.drawn == 1
    # the verdict sweeps the form it is given and reports its draws
    verdict = is_cm_square(reduction)
    assert verdict.status == "NotCM" and verdict.e_expected == 6 * reduction.length
    assert verdict.trials == 1
    assert is_cm_square(dataclasses.replace(reduction, drawn=3)).trials == 3
    gb61 = buchberger(example61_ideal())
    reduction61 = artinian_reduction(gb61, 0)
    verdict61 = is_cm_square(reduction61)
    assert verdict61.witness == reduction61.form


def test_analysis_of_a_points_basis_runs_buchberger_only_for_the_trials(monkeypatch):
    # the invariants are read off the chosen basis of IS itself: no
    # elimination. The trials' bases come from Macaulay matrices now, so
    # the runs this test once allowed for them are gone too
    ps, _ = general_points(5, 10, 31991, seed=1)
    gb = vanishing_ideal(ps)
    runs = count_buchberger(monkeypatch)
    report = analyze(gb, seed=1, trials=3)
    assert report.e == 10 and report.invariants.hf.values == (1, 5, 4)
    assert report.cm_square.status == "CM"
    assert runs == []


def test_analysis_of_points_runs_no_buchberger_at_all(monkeypatch):
    # the points twin of the test above: the invariants come from the
    # Macaulay basis of IS, and the analysis runs no Buchberger
    ps, _ = general_points(5, 10, 31991, seed=1)
    forbid_buchberger(monkeypatch)
    report = analyze(bm_result(ps), seed=1, trials=3)
    assert report.e == 10 and report.invariants.hf.values == (1, 5, 4)
    assert report.cm_square.status == "CM"


def test_verify_example61_runs_no_buchberger(monkeypatch):
    # Example 6.1 is its ten frozen points: their vanishing ideal comes
    # from the Buchberger-Moller pass, and the analysis takes the points route
    from conormal.harness import ExperimentConfig, verify_example61

    forbid_buchberger(monkeypatch)
    text, code = verify_example61(ExperimentConfig(command="verify-example61"))
    assert code == 0 and text.endswith("verdict: all facts hold\n")


def test_points_reduction_of_a_degenerate_set_of_forms_raises(monkeypatch):
    # every trial form through a point of the coordinate triangle: S/IS is
    # nonzero in degree s + 1 for each, so no Artinian reduction
    import conormal.cm as cm

    ps = make_point_set(2, 31991, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    gb = vanishing_ideal(ps)
    x0, x1, _ = gb.ring.gens()
    monkeypatch.setattr(cm, "_trial_forms", lambda ring, seed, trials: [x0, x1])
    with pytest.raises(RuntimeError, match="no Artinian reduction in 2 forms drawn"):
        artinian_reduction(gb, 0, 2)


def test_points_reduction_over_a_small_field_blames_the_forms_not_the_dimension():
    # over GF(3) a form misses all of 10 points with probability (2/3)^10:
    # every trial form vanishes at one of them, although the ideal of the
    # points is one-dimensional and CM; the message names the forms, p and
    # both causes
    ps, _ = general_points(5, 10, 3, seed=0)
    gb = vanishing_ideal(ps)
    for ideal in (bm_result(ps), gb):
        with pytest.raises(RuntimeError) as err:
            analyze(ideal, 0)
        assert str(err.value) == (
            "no Artinian reduction in 5 forms drawn over GF(3): R/I is not "
            "Cohen-Macaulay of dimension 1, or each form vanishes at one of the "
            "points of I, as is likely over a small field; a larger --trials or p "
            "may draw one that misses them all"
        )
    with pytest.raises(RuntimeError, match="in 1 form drawn over GF"):
        artinian_reduction(gb, 0, 1)


def test_analysis_of_an_artinian_input_runs_no_buchberger(monkeypatch, ring_xyz):
    x, y, z = ring_xyz.gens()
    gb = buchberger(Ideal(ring_xyz, [x - y, y ** 2, y * z, z ** 3]))
    forbid_buchberger(monkeypatch)
    report = analyze(gb)
    assert report.invariants.hf.values == (1, 2, 1) and report.e == 4
    assert report.cm_square is None and report.q == 2


def no_call(what):
    """A stand-in that fails the test, saying `what`, when it is called."""

    def fail(*args, **kwargs):
        raise AssertionError(what)

    return fail


def parsed_basis(variables, gens):
    ring = PolynomialRing(PrimeField(31991), variables)
    return buchberger(Ideal(ring, [ring.parse(g) for g in gens]))


def quadric_truncation():
    """(I, q) for 12 points on the quadric x0*x3 - x1*x2 in P^3, q the
    quadric of their ideal J and I generated by the x_i*q and the basis
    elements of J of degree at least 3.  I and J agree from degree 3 on,
    so R/I has the Hilbert function 1, 4, 10, 12, 12, ... of a CM ring of
    multiplicity 12; but q is not in I and l*q is, for every linear form l,
    so R/I is not CM and no form is regular on it."""
    rng = random.Random(5)
    pts = set()
    while len(pts) < 12:
        a, b, c, d = (rng.randrange(1, 31991) for _ in range(4))
        pts.add((a * c % 31991, a * d % 31991, b * c % 31991, b * d % 31991))
    j = vanishing_ideal(make_point_set(3, 31991, sorted(pts)))
    (q,) = [g for g in j.elements if g.degree == 2]
    gens = [x * q for x in j.ring.gens()] + [g for g in j.elements if g.degree >= 3]
    return buchberger(Ideal(j.ring, gens)), q


def test_a_quadric_every_form_kills_is_refused():
    # Buchberger on I + l finds S/IS of length 13, not 12, for every form:
    # q survives in degree 2 of 0 :_{R/I} l, and the sweep finds the rank
    # one short of delta in degree 3, so every form is skipped
    gb, q = quadric_truncation()
    assert _hf_difference(gb) == (1, 3, 6, 2)
    assert not contains(gb, q)
    for ell in _trial_forms(gb.ring, 0, DEFAULT_TRIALS):
        assert contains(gb, ell * q)
        assert length(buchberger(Ideal(gb.ring, list(gb.elements) + [ell]))) == 13
    with pytest.raises(RuntimeError, match="no Artinian reduction in 5 forms drawn"):
        analyze(gb, seed=0)


def test_a_surface_is_refused_by_its_hilbert_function_alone(monkeypatch):
    # R/(xy, zw) has dimension 2 and h = 1, 4, 8, 12, 16, ...: still rising
    # in degree c(D-1) + 1 = 4, so the walk refuses it before any sweep
    import conormal.cm as cm

    gb = parsed_basis(["x", "y", "z", "w"], ["x*y", "z*w"])
    monkeypatch.setattr(cm, "_sweep", no_call("the reduction ran a sweep"))
    with pytest.raises(ValueError, match="still rises in degree 4"):
        analyze(gb, seed=0)


def test_the_plateau_walk_refuses_a_late_fall_on_the_file_path_only(monkeypatch):
    # R/(x^3, xy) has h = 1, 2, 2, 1, 1, ...: it levels off at 2 in degree 1
    # and falls in degree 3, within the Taylor bound 2(3-1) + 1 = 5, so the
    # walk refuses it before any form is drawn.  Points bring their own
    # Hilbert function and skip the walk.
    import conormal.cm as cm

    gb = parsed_basis(["x", "y"], ["x^3", "x*y"])
    monkeypatch.setattr(cm, "_trial_forms", no_call("a form was drawn"))
    for run in (artinian_reduction, analyze):
        with pytest.raises(ValueError, match="leaves its plateau 2 in degree 3, at 1"):
            run(gb, seed=0)
    monkeypatch.undo()
    monkeypatch.setattr(cm, "_standard_levels", no_call("the points were walked"))
    ps = make_point_set(2, 31991, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert analyze(bm_result(ps), seed=0).e == 3


def test_an_analysis_walks_a_file_once_and_points_never(monkeypatch):
    # HF(R/I) has one source per analysis: the points' pass on the points
    # route (conjecture, analyze --points, verify-example61), one walk of
    # the standard monomials of the basis otherwise
    import conormal.cm as cm
    from conormal.harness import ExperimentConfig, run

    walks = []
    honest = cm._standard_levels
    monkeypatch.setattr(cm, "_standard_levels", lambda gb: walks.append(gb) or honest(gb))
    for config in (
        ExperimentConfig("analyze", c=3, n=6),
        ExperimentConfig("conjecture", c=5, n=8),
        ExperimentConfig("verify-example61"),
    ):
        text, _ = run(config)
        assert "cm_square: " in text and walks == [], config
    ps, _ = general_points(3, 6, 31991, seed=0)
    gb = vanishing_ideal(ps)
    analyze(bm_result(ps), seed=0)
    assert walks == []
    analyze(gb, seed=0)
    assert walks == [gb]


def test_an_analysis_reduces_through_artinian_reduction(monkeypatch, tmp_path):
    # a tracer that wraps `artinian_reduction` sees every reduction an
    # analysis draws; an Artinian file needs none
    import conormal.cm as cm
    from conormal.harness import ExperimentConfig, conjecture_experiment, run

    calls = []
    honest = cm.artinian_reduction
    monkeypatch.setattr(
        cm, "artinian_reduction", lambda *args: calls.append(args) or honest(*args)
    )
    conjecture_experiment(ExperimentConfig("conjecture", c=5, n=8))
    assert len(calls) == 1
    path = tmp_path / "artinian.txt"
    path.write_text("ring p=31991 vars=x,y\nx^2\ny^2\n")
    text, code = run(ExperimentConfig("analyze"), str(path))
    assert code == 0 and "cm_square: n/a" in text
    assert len(calls) == 1


def test_analyze_refuses_a_reduction_whose_hilbert_function_is_not_the_invariants(monkeypatch):
    # the reduction of Example 6.1 with its Hilbert function stubbed from
    # (1, 5, 4) to (1, 5, 3): unchecked, the verdict would take the target
    # 6 * 9 = 54, below the counting bound C(8, 3) = 56, and report NotCM
    import conormal.cm as cm

    honest = cm.artinian_reduction

    def stubbed(*args):
        reduction = honest(*args)
        assert reduction.hf == (1, 5, 4)
        return dataclasses.replace(reduction, hf=(1, 5, 3))

    gb = buchberger(example61_ideal())
    monkeypatch.setattr(cm, "artinian_reduction", stubbed)
    with pytest.raises(RuntimeError, match=r"\(1, 5, 4\) disagrees with the reduction's \(1, 5, 3\)"):
        analyze(gb, seed=7)


def test_a_walk_past_degree_120_fails_at_once():
    # x^61, y^61 in k[x, y, z]: h rises until degree 120, so its plateau
    # lies past the monomial degree limit
    gb = parsed_basis(["x", "y", "z"], ["x^61", "y^61"])
    started = time.monotonic()
    with pytest.raises(ValueError, match="total degree 121 exceeds the 120 limit"):
        analyze(gb, seed=0)
    assert time.monotonic() - started < 10


def test_reduction_needs_a_homogeneous_basis(ring_xyz):
    x, y, z = ring_xyz.gens()
    gb = buchberger(Ideal(ring_xyz, [x - y * y, y * z]))
    with pytest.raises(ValueError, match="needs a homogeneous ideal"):
        artinian_reduction(gb, seed=0)
