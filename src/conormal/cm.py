"""Artinian reductions by a seeded parameter form, and the
Cohen-Macaulayness verdict for the square of a points ideal.

The verdict logic: let I be a one-dimensional ideal with R/I Cohen-Macaulay
and I generically a complete intersection of height c (a points ideal is
both), M = R/I^2, and l a linear form with R/(I + l) Artinian.  Summing the
graded sequence 0 -> (0 :_M l)(-1) -> M(-1) -> M -> M/lM -> 0 over all
degrees gives length(R/(I^2 + l)) = (c+1)e + length(0 :_M l), e the
multiplicity of R/I, and 0 :_M l is nonzero exactly when M is not CM.  So
the first such form decides: a length equal to (c+1)e certifies CM, a
larger one certifies NotCM.

One seeded form serves the whole analysis.  The reduction draws forms until
one gives an Artinian quotient R/(I + l), and keeps its basis, its length e
and its socle degree s; the verdict needs only l, e and s, and the
invariants are read off that basis as it stands.  Given a basis alone, a
draw costs one Buchberger run on I + l.  Given the points whose ideal it
is, the reduction runs no Buchberger: l is a parameter iff it vanishes at
none of the n points (Abbott, Bigatti, Kreuzer and Robbiano, "Computing
ideals of points", 2000), and then HF(R/(I + l)) is the first difference of
HF(R/I), which the Buchberger-Moller pass already has; so e = n, s is the
last degree where that difference is positive, and the basis of I + l
comes from reduced Macaulay matrices.

The length of R/(I^2 + l) comes from a degree sweep of graded Macaulay
matrices (Lazard 1983): substituting the form away leaves a polynomial ring
S in one variable fewer, and in each degree d the square of the image ideal
spans the variables times its degree d-1 part plus the products of two
generators of degree d.  The generators are first put in reduced echelon
form degree by degree, as F4 does before it multiplies (Faugere 1999):
the products then span the same space, but a reduced generator is its
leading monomial plus standard monomials, so its products have few terms.
One rank per degree gives the Hilbert function, and the sweep ends at its
first zero.  No Groebner basis of the square is computed.  The image ideal
is generated by the images of the reduction's own basis of I + l, so the
verdict sweeps nothing but the square.  The same degree loop, `_sweep`,
also builds the basis of I + l on the points path and ranks the square of
eight quadrics in degree 4; its column tables are built once per ring
shape.

Some NotCM verdicts need no sweep at all.  When I lies in m^2, the image
of I^2 lies in the fourth power of the maximal ideal of S, so the length
of R/(I^2 + l) is at least dim S_(<=3) = C(c+3, 3); when that exceeds
(c+1)e, which with t = e - c is `criteria.min_codim_forcing_not_cm(t) <= c`,
the count alone proves NotCM, under the same hypotheses as the sweep.
"""

import dataclasses
import random
from dataclasses import dataclass
from functools import partial
from math import comb

from . import __version__
from .field import PrimeField, derive_seed
from .linalg import Echelon
from .poly import PolynomialRing, random_linear_form, substitute_all
from .groebner import (
    BudgetExceededError,
    DEFAULT_STEP_BUDGET,
    GroebnerBasis,
    Ideal,
    _Budget,
    buchberger,
    is_zero_dimensional,
    standard_monomials_packed,
)
from .invariants import InvariantReport, classify, linear_substitution
from .points import PointSet, bm_result
from . import criteria as crit

DEFAULT_TRIALS = 5


class CriteriaAgreementError(RuntimeError):
    """A closed-form criterion contradicted a computed CM certificate: a
    NotCM verdict, or a positive answer (a CM square forces Gorenstein) on a
    ring that is not Gorenstein."""


@dataclass(frozen=True)
class CmVerdict:
    """The square's verdict.  `lambda_min` is the length of R/(I^2 + l)
    from the sweep, or on a counting verdict (a `detail` that starts with
    "counting:") the proven lower bound C(c+3, 3) on it; None when the
    sweep did not finish.  `detail` states the count of a NotCM by
    counting, or the exhausted budget of an Inconclusive; it is empty
    otherwise."""

    status: str  # CM | NotCM | Inconclusive
    witness: object  # the certifying linear form when CM
    trials: int  # forms drawn to find the parameter form
    lambda_min: object  # length of R/(I^2 + l) or its counting bound, or None
    e_expected: int
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("CM", "NotCM", "Inconclusive"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "CM" and self.lambda_min != self.e_expected:
            raise ValueError("CM verdict without a length witness")
        if self.status == "NotCM" and not (
            self.lambda_min is not None and self.lambda_min > self.e_expected
        ):
            raise ValueError("NotCM verdict needs a length above the target")

    @property
    def exit_code(self) -> int:
        return {"CM": 0, "NotCM": 1, "Inconclusive": 2}[self.status]


@dataclass(frozen=True)
class AnalysisReport:
    invariants: InvariantReport
    e: int
    q: object  # quadric generator count of the reduction, None if not computed
    cm_square: object  # CmVerdict, or None for an Artinian input
    criteria: tuple  # (name, CriteriaVerdict) pairs
    agreement: bool
    p: int
    seed: object
    trials: int
    budget: int
    source: str
    version: str

    def to_text(self) -> str:
        lines = [
            f"source: {self.source}",
            f"version: {self.version}",
            f"p: {self.p}",
            f"seed: {self.seed}",
            f"trials: {self.trials}",
            f"budget: {self.budget}",
            f"e: {self.e}",
            f"q: {self.q if self.q is not None else 'n/a'}",
        ]
        lines.append(self.invariants.to_text())
        if self.cm_square is None:
            lines.append("cm_square: n/a")
        else:
            v = self.cm_square
            lines.append(f"cm_square: {v.status}")
            lines.append(f"cm_lambda_min: {v.lambda_min}")
            lines.append(f"cm_e_expected: {v.e_expected}")
            lines.append(f"cm_trials: {v.trials}")
            lines.append(f"cm_witness: {v.witness if v.witness is not None else 'n/a'}")
            if v.detail:
                lines.append(f"cm_detail: {v.detail}")
        for name, verdict in self.criteria:
            lines.append(f"criterion {name}: {verdict.to_text()}")
        lines.append(f"agreement: {str(self.agreement).lower()}")
        return "\n".join(lines)


def _trial_forms(ring, seed, trials):
    return (
        random_linear_form(ring, derive_seed(seed, "square", t)) for t in range(trials)
    )


@dataclass(frozen=True)
class Reduction:
    """R/(I + l) for the parameter form l that `artinian_reduction` drew."""

    basis: GroebnerBasis  # reduced basis of I + l
    length: int  # of R/(I + l), which is e(R/I) when R/I is CM
    form: object  # l
    socle_degree: int  # the top degree s of R/(I + l)
    drawn: int  # forms drawn, l the last of them


def artinian_reduction(
    gb: GroebnerBasis,
    seed,
    trials: int = DEFAULT_TRIALS,
    budget: int = DEFAULT_STEP_BUDGET,
    points: PointSet = None,
) -> Reduction:
    """Quotient by the first seeded linear form l, of at most `trials`
    drawn, for which R/(I + l) is Artinian.  For a one-dimensional
    Cohen-Macaulay quotient its length is the multiplicity, whichever such
    form is drawn.

    Without `points` each draw costs one Buchberger run on I + l, and one
    walk of the standard monomials of the first zero-dimensional one gives
    both the length and s.  With `points`, whose vanishing ideal `gb` must
    be (ValueError otherwise), a draw is a parameter iff it vanishes at
    none of the points, and only its basis is built, by `_macaulay_basis`.
    ValueError unless `trials` is at least 1; RuntimeError when no draw
    gives an Artinian quotient: with `points` every form vanished at a
    point, without them the ideal may have dimension above 1.
    """
    if trials < 1:
        raise ValueError(f"an Artinian reduction needs at least 1 trial, got {trials}")
    if is_zero_dimensional(gb):
        raise ValueError("the ideal is already zero-dimensional; nothing to reduce")
    ring = gb.ring
    forms = enumerate(_trial_forms(ring, seed, trials), 1)
    tried = f"{trials} form{'s' * (trials != 1)} drawn"
    if points is not None:
        delta = _points_hf_difference(gb, points, budget)
        for drawn, ell in forms:
            if not _vanishes_at_a_point(ell, points):
                basis = _macaulay_basis(gb, ell, delta, budget)
                return Reduction(basis, points.n, ell, len(delta) - 1, drawn)
        raise RuntimeError(
            f"no Artinian reduction in {tried}: each form vanishes at "
            f"one of the {points.n} points over GF({points.p}); a larger "
            "--trials or p may draw one that misses them all"
        )
    for drawn, ell in forms:
        cand = buchberger(Ideal(ring, list(gb.elements) + [ell]), budget=budget)
        if is_zero_dimensional(cand):
            levels = standard_monomials_packed(cand)
            return Reduction(
                cand, sum(len(level) for level in levels), ell, len(levels) - 1, drawn
            )
    raise RuntimeError(
        f"no Artinian reduction in {tried}; "
        "the ideal may have dimension above 1"
    )


def _points_hf_difference(gb: GroebnerBasis, ps: PointSet, budget: int) -> tuple:
    """The first difference of HF(R/I), I the vanishing ideal of the points,
    without its trailing zeros; ValueError unless `gb` is that ideal's
    basis in its ring."""
    result = bm_result(ps, gb.ring.order, budget)
    if result.elements != gb.elements:
        raise ValueError("the basis is not the vanishing ideal of the given points")
    hf = result.hf
    delta = [hf[0]] + [hf[d] - hf[d - 1] for d in range(1, len(hf))]
    while delta[-1] == 0:
        delta.pop()
    return tuple(delta)


def _vanishes_at_a_point(ell, ps: PointSet) -> bool:
    ring = ell.ring
    coeffs = [0] * ring.nvars
    for _, m, c in ell.terms:
        coeffs[ring.unpack(m).index(1)] = c
    return any(
        sum(a * x for a, x in zip(coeffs, pt)) % ps.p == 0 for pt in ps.points
    )


def _poly_row(f, pos, n):
    """Coordinates of a homogeneous polynomial in the columns `pos` of its
    degree."""
    vec = [0] * n
    for _, m, c in f.terms:
        vec[pos[m]] = c
    return vec


def _product_row(f, g, pos, n, p):
    """Coordinates of f * g in the columns `pos` of its degree, for f and g
    given as (packed monomial, coefficient) lists."""
    vec = [0] * n
    for m1, c1 in f:
        for m2, c2 in g:
            k = pos[m1 + m2]
            vec[k] = (vec[k] + c1 * c2) % p
    return vec


def _shifted_row(row, cols, n):
    """A row of the previous degree multiplied by the variable whose column
    map is `cols`."""
    vec = [0] * n
    for i, v in enumerate(row):
        if v:
            vec[cols[i]] = v
    return vec


_TABLES = {}  # (nvars, order kind, d) -> the tables of `_degree_table`


def _degree_table(ring: PolynomialRing, d: int):
    """(monomials of degree d in decreasing order, their column map `pos`,
    one column map per variable), built once per ring shape and degree.

    The map of variable x lists pos[x*m] for the monomials m of degree
    d - 1 in their order.  Packed monomials and their order depend only on
    the number of variables and the kind of order, so every analysis in
    the process shares the tables of its ring shape; callers must not
    change `pos`.
    """
    key = (ring.nvars, ring.order.kind, d)
    table = _TABLES.get(key)
    if table is None:
        monos = tuple(ring.monomials_of_degree(d))
        pos = {m: i for i, m in enumerate(monos)}
        prev = ring.monomials_of_degree(d - 1)
        shifts = tuple(tuple(pos[m + x.terms[0][1]] for m in prev) for x in ring.gens())
        table = _TABLES[key] = (monos, pos, shifts)
    return table


def _sweep(ring: PolynomialRing, top: int, budget: _Budget, extra=None, reduced=False):
    """The graded Macaulay matrices of a homogeneous ideal J (Lazard 1983):
    yields (d, pos, echelon of J_d, lifted) for d = 1..top.

    `pos` maps the degree-d monomials, in decreasing order, to their
    columns; so the first nonzero entry of a row is its leading monomial,
    and an `Echelon` pivot is a leading monomial too.  J_d is spanned by
    the variables times J_(d-1) and the rows `extra(d, pos, n)` returns as
    (leading column, row maker) pairs, n = len(pos); `lifted` holds the
    leading columns of the multiples.  Rows the caller adds to the yielded
    echelon before asking for the next degree belong to J_d.  With
    `reduced` the echelon is in reduced form.  The column tables come from
    `_degree_table`, shared by every sweep over rings of one shape.

    One row per leading column goes first, in increasing column order:
    those rows are already in echelon form, so each takes the echelon's
    fast path and needs no reduction.  The other rows are reduced in full,
    until J_d is all of degree d.  Each row is charged to the budget by
    `_Budget.charge_row`.
    """
    p = ring.field.p
    prev = Echelon(p)
    for d in range(1, top + 1):
        _, pos, shifts = _degree_table(ring, d)
        n = len(pos)
        candidates = []
        for cols in shifts:
            for pivot, row in zip(prev.pivots, prev.rows):
                candidates.append((cols[pivot], partial(_shifted_row, row, cols, n)))
        lifted = {lead for lead, _ in candidates}
        if extra is not None:
            candidates += extra(d, pos, n)
        first, rest = {}, []
        for lead, make in candidates:
            if lead in first:
                rest.append(make)
            else:
                first[lead] = make
        ech = Echelon(p)
        for make in [first[lead] for lead in sorted(first)] + rest:
            if len(ech.pivots) == n:
                break
            mults, _ = ech.add(make())
            budget.charge_row(mults)
        if reduced:
            ech = ech.reduced()
        yield d, pos, ech, lifted
        prev = ech


def _echelon_generators(ring: PolynomialRing, gens, budget: _Budget):
    """The reduced echelon basis of the span of the homogeneous gens in each
    degree, as (degree, [(packed monomial, coefficient), ...]) pairs in
    increasing degree, each term list in decreasing order.

    A basis element of degree a is its leading monomial, with coefficient
    1, plus monomials of degree a that lead no other element: at most
    1 + dim S_a - rank terms.  Dependent gens are dropped.  Each row is
    charged to the budget by `_Budget.charge_row`; the back-substitution
    is not charged.
    """
    p = ring.field.p
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.degree, []).append(g)
    basis = []
    for a in sorted(by_degree):
        monos, pos, _ = _degree_table(ring, a)
        ech = Echelon(p)
        for g in by_degree[a]:
            mults, _ = ech.add(_poly_row(g, pos, len(pos)))
            budget.charge_row(mults)
        for row in ech.reduced().rows:
            basis.append((a, [(monos[i], c) for i, c in enumerate(row) if c]))
    return basis


def _products(ring: PolynomialRing, gens, budget: _Budget):
    """The `extra` of a sweep of the square of the ideal of the homogeneous
    gens: the products of two elements of `_echelon_generators`, each in
    its degree.

    The products of two bases of the same spans span the same space in
    each degree, so the sweep's ranks and pivots are those of the products
    of the gens themselves.  A reduced element has few terms (a quadric in
    5 variables of an ideal with 13 independent quadrics has 3, against
    up to 15), and a product row costs one column lookup per pair of terms.
    """
    p = ring.field.p
    basis = _echelon_generators(ring, gens, budget)
    by_degree = {}
    for i, (a, f) in enumerate(basis):
        for b, g in basis[i:]:
            by_degree.setdefault(a + b, []).append((f, g))

    def extra(d, pos, n):
        return [
            (pos[f[0][0] + g[0][0]], partial(_product_row, f, g, pos, n, p))
            for f, g in by_degree.get(d, ())
        ]

    return extra


def _macaulay_basis(gb: GroebnerBasis, ell, delta, budget: int) -> GroebnerBasis:
    """Reduced Groebner basis of J = I + l for a form l regular on R/I,
    read off the reduced Macaulay matrices of `_sweep`.

    `delta` is HF(R/J) = ΔHF(R/I), so J_d = R_d from d = s + 1 on, s =
    len(delta) - 1, and every leading monomial of J has degree at most
    s + 1.  For d = 1..s+1, J_d is spanned by the variables times J_(d-1)
    and the elements of degree d of the basis and l.  A row of the reduced
    echelon form is a leading monomial plus standard monomials, and it is
    an element of the reduced basis iff its pivot is not a variable times
    a pivot of degree d - 1.  The sweep is charged to one fresh step
    budget; a rank that disagrees with `delta` is an internal error.
    """
    ring = gb.ring
    gens = {}
    for g in list(gb.elements) + [ell]:
        gens.setdefault(g.degree, []).append(g)

    def extra(d, pos, n):
        return [(pos[g.terms[0][1]], partial(_poly_row, g, pos, n)) for g in gens.get(d, ())]

    top = len(delta)
    elements = []
    for d, pos, ech, lifted in _sweep(ring, top, _Budget(budget), extra, reduced=True):
        expected = delta[d] if d < top else 0
        hf = len(pos) - len(ech.pivots)
        if hf != expected:
            raise RuntimeError(
                f"internal inconsistency: R/(I + l) has dimension {hf} "
                f"in degree {d}, where the points' Hilbert function gives {expected}"
            )
        monos = list(pos)
        for col, row in zip(ech.pivots, ech.rows):
            if col not in lifted:
                elements.append(
                    ring._from_packed_dict({monos[i]: c for i, c in enumerate(row) if c})
                )
    return GroebnerBasis(ring, elements)


def _square_length(ring: PolynomialRing, gens, cap: int, budget: _Budget) -> int:
    """Length of S/J for J the square of the ideal of the homogeneous gens,
    by one Macaulay matrix per degree.

    J_d is spanned by the variables times J_(d-1) and the products of two
    generators of degree d; HF(d) = dim S_d - rank J_d.  The sweep stops at
    the first d > 0 with HF(d) = 0, which is exact because S is generated in
    degree 1.  Passing degree `cap` is an internal error.
    """
    lam = 1
    for _, pos, ech, _ in _sweep(ring, cap, budget, _products(ring, gens, budget)):
        hf = len(pos) - len(ech.pivots)
        if hf == 0:
            return lam
        lam += hf
    raise RuntimeError(
        f"internal inconsistency: the square's Hilbert function is nonzero "
        f"in degree {cap}, where the socle degree of the reduction forces zero"
    )


def _counting_bound(gb: GroebnerBasis, c: int, e: int):
    """C(c+3, 3) when that count alone proves NotCM, else None.

    With I in m^2 (no basis element below degree 2) the image of I^2 in S
    lies in the fourth power of its maximal ideal, so the length of
    R/(I^2 + l) is at least dim S_(<=3) = C(c+3, 3).  That exceeds (c+1)e
    iff 6t < c^2 - c + 6, t = e - c, which is c >= min_codim_forcing_not_cm(t)
    for t >= 1; I in m^2 forces e >= c + 1, so t >= 1, and a t past the
    criteria's grid is left to the sweep.
    """
    t = e - c
    if min(g.degree for g in gb.elements) < 2 or t > crit.MAX_GRID:
        return None
    if c < crit.min_codim_forcing_not_cm(t):
        return None
    return comb(c + 3, 3)


def is_cm_square(
    gb: GroebnerBasis, reduction: Reduction, budget: int = DEFAULT_STEP_BUDGET
) -> CmVerdict:
    """Cohen-Macaulayness of R/I^2 for a one-dimensional homogeneous ideal,
    from `reduction = artinian_reduction(gb, ...)`: its form l, its basis
    of I + l, the multiplicity e and s, the socle degree of R/(I + l).
    Under the hypotheses of the module docstring, a length of R/(I^2 + l)
    equal to (c+1)*e certifies CM and a larger one NotCM.

    The count comes first: when `_counting_bound` proves NotCM, the verdict
    carries that bound as `lambda_min`, says so in `detail`, and sweeps
    nothing.  Otherwise s caps a degree sweep in S = R/(l), as m^(2s+2)
    lies in (I + l)^2: the images of the basis of I + l generate the image
    of I, and the Hilbert function of S modulo its square is one rank per
    degree.  The budget is one fresh cap for the sweep: a row, of the sweep
    or of the reduced echelon form of the images (`_echelon_generators`),
    costs one step plus one per echelon row subtracted from it, and
    exhausting it gives Inconclusive.
    """
    ring = gb.ring
    if is_zero_dimensional(gb):
        raise ValueError("is_cm_square needs a one-dimensional ideal")
    for g in gb.elements:
        if not g.is_homogeneous():
            raise ValueError("is_cm_square needs a homogeneous ideal")
    c = ring.nvars - 1  # height of a points ideal
    ell, drawn = reduction.form, reduction.drawn
    e_expected = (c + 1) * reduction.length
    bound = _counting_bound(gb, c, reduction.length)
    if bound is not None:
        detail = f"counting: (c+1)e = {e_expected} < {bound} = C({c + 3},3)"
        return CmVerdict("NotCM", None, drawn, bound, e_expected, detail)
    smaller, assignment = linear_substitution(ring, [ell])
    images = substitute_all(reduction.basis.elements, assignment)
    try:
        lam = _square_length(
            smaller, [f for f in images if not f.is_zero()],
            2 * reduction.socle_degree + 2, _Budget(budget),
        )
    except BudgetExceededError as exc:
        return CmVerdict("Inconclusive", None, drawn, None, e_expected, str(exc))
    if lam < e_expected:
        raise RuntimeError(
            f"internal inconsistency: reduction length {lam} fell below "
            f"the multiplicity bound {e_expected}"
        )
    if lam == e_expected:
        return CmVerdict("CM", ell, drawn, lam, e_expected)
    return CmVerdict("NotCM", None, drawn, lam, e_expected)


def _quadric_generator_count(art_gb: GroebnerBasis, report: InvariantReport):
    """Degree-2 elements of the reduced basis of the non-degenerate Artinian
    reduction; cross-checked against the Hilbert function when s = 2."""
    count = sum(1 for g in art_gb.elements if g.degree == 2)
    if report.s == 2:
        expected = comb(report.c + 1, 2) - report.hf[2]
        if count != expected:
            raise RuntimeError(
                f"quadric generator count {count} disagrees with the Hilbert "
                f"function prediction {expected}"
            )
    return count


def analyze(
    gb: GroebnerBasis,
    seed=0,
    trials: int = DEFAULT_TRIALS,
    budget: int = DEFAULT_STEP_BUDGET,
    source: str = "",
    points: PointSet = None,
) -> AnalysisReport:
    """Full report: invariants of the Artinian reduction, quadric count,
    CM verdict for the square, and every applicable closed-form criterion,
    with a hard cross-check both ways: no NotCM criterion may meet a CM
    verdict, and no positive answer may meet one on a non-Gorenstein ring.
    The invariants and e come from one Artinian basis, classified as it
    stands: the input when zero-dimensional (then no verdict), otherwise
    the basis of I + l from `artinian_reduction`.

    `points`, when given, are the points whose vanishing ideal `gb` is
    (ValueError otherwise): the reduction then runs no Buchberger, and the
    Hilbert function of the invariants must be the first difference of the
    points' one (so e = n), or RuntimeError.
    """
    ring = gb.ring
    delta = None
    if points is not None:
        # one Buchberger-Moller pass, or the one the points keep, serves
        # the reduction and the check below
        points = dataclasses.replace(points, bm=bm_result(points, ring.order, budget))
        delta = _points_hf_difference(gb, points, budget)
    if is_zero_dimensional(gb):
        art_gb, reduction = gb, None
    else:
        reduction = artinian_reduction(gb, seed, trials, budget, points=points)
        art_gb = reduction.basis
    report = classify(art_gb, budget)
    e = report.length
    if delta is not None and report.hf.values != delta:
        raise RuntimeError(
            f"Hilbert function {report.hf} of the reduction disagrees with "
            f"{delta}, the first difference of that of the {points.n} points"
        )
    cm = None if reduction is None else is_cm_square(gb, reduction, budget)
    q = None
    if all(g.is_homogeneous() for g in art_gb.elements):
        q = _quadric_generator_count(art_gb, report)

    checks = []
    if report.s == 2 and report.c >= 3 and q is not None:
        checks.append(
            ("quadric-count", crit.quadric_count_verdict(report.c, q, report.gorenstein))
        )
    if report.c >= 1 and e > report.c:
        checks.append(("low-multiplicity", crit.low_multiplicity_verdict(report.c, e)))
    if report.stretched:
        checks.append(("stretched", crit.stretched_verdict(report.c, report.gorenstein)))
    if report.short and report.s >= 3:
        checks.append(("short", crit.short_socle_verdict(report.c, report.s)))

    contradiction = cm is not None and cm.status == "CM" and any(
        v.outcome == crit.NOT_CM for _, v in checks
    )
    if contradiction:
        raise CriteriaAgreementError(
            "a closed-form NotCM criterion fired while the computation "
            f"certified CM: {[(n, v.to_text()) for n, v in checks]}"
        )
    if cm is not None and cm.status == "CM" and not report.gorenstein and any(
        v.outcome == crit.POSITIVE for _, v in checks
    ):
        raise CriteriaAgreementError(
            "a closed-form criterion says a CM square forces Gorenstein, while "
            "the computation certified CM on a non-Gorenstein ring: "
            f"{[(n, v.to_text()) for n, v in checks]}"
        )
    return AnalysisReport(
        invariants=report,
        e=e,
        q=q,
        cm_square=cm,
        criteria=tuple(checks),
        agreement=not contradiction,
        p=ring.field.p,
        seed=seed,
        trials=trials,
        budget=budget,
        source=source,
        version=__version__,
    )


def eight_quadrics_square_gap(seed, p: int = 31991) -> bool:
    """True iff the square of 8 seeded random quadrics in 4 variables misses
    some degree-4 monomial (the square never fills degree 4).  The square is
    generated in degree 4, so that is a sweep whose rank there is below
    dim S_4 = 35."""
    ring = PolynomialRing(PrimeField(p), [f"x{i + 1}" for i in range(4)])
    rng = random.Random(derive_seed(seed, "quadrics"))
    quadrics = []
    monos = ring.monomials_of_degree(2)
    while len(quadrics) < 8:
        f = ring.poly({m: rng.randrange(p) for m in monos})
        if not f.is_zero():
            quadrics.append(f)
    budget = _Budget(DEFAULT_STEP_BUDGET)
    *_, (_, pos, ech, _) = _sweep(ring, 4, budget, _products(ring, quadrics, budget))
    return len(ech.pivots) < len(pos)
