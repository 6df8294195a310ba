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

Everything after l is drawn lives in S = R/(l): substituting the form
away leaves a polynomial ring in one variable fewer, R/(I + l) is S/IS, and
R/(I^2 + l) is S/(IS)^2.  One seeded form serves the whole analysis.  The
reduction draws forms until one gives an Artinian S/IS, and keeps the
reduced basis of IS in S and the Hilbert function of S/IS, whose sum is e
and whose top degree is s; the verdict needs only l, that basis and s, and
the invariants are read off that basis as it stands.  For R/I CM of
dimension 1 and l regular on it, HF(S/IS) is the first difference of
HF(R/I), which one walk over the standard monomials of the basis gives,
whatever the input; a basis whose HF falls, or still rises past the degree
any such reduction allows, is refused there.  Without points, whose
Hilbert function certifies R/I, a second walk refuses a HF(R/I) that
leaves e past s, through the Taylor bound on reg(in(I)).  A draw costs
one substitution and one sweep of Macaulay matrices in S: l passes iff the
ranks give that difference through s and fill degree s + 1, and the
reduced basis of IS is read off the same matrices, with no Buchberger run.  On points a form
passes iff it vanishes at none of them (Abbott, Bigatti, Kreuzer and
Robbiano, "Computing ideals of points", 2000), and e = n.

The length of S/(IS)^2 comes from a degree sweep of graded Macaulay
matrices (Lazard 1983): in each degree d the square spans the variables
times its degree d-1 part plus the products of two generators of degree d.
The generators are the reduction's reduced basis, so each is its leading
monomial plus standard monomials, one per leading monomial in each degree,
as F4 makes them before it multiplies (Faugere 1999), and their products
have few terms.  One rank per degree gives the Hilbert function, and the
sweep ends at its first zero.  No Groebner basis of the square is
computed.  The same degree loop, `_sweep`, also builds the basis of IS
and ranks the square of eight quadrics in degree 4; its column tables are
built once per ring shape.

Some NotCM verdicts need no sweep at all.  When I lies in m^2, the image
of I^2 lies in the fourth power of the maximal ideal of S, so the length
of R/(I^2 + l) is at least dim S_(<=3) = C(c+3, 3); when that exceeds
(c+1)e, which with t = e - c is `criteria.min_codim_forcing_not_cm(t) <= c`,
the count alone proves NotCM, under the same hypotheses as the sweep.
"""

import random
from dataclasses import dataclass
from functools import partial
from math import comb

from . import __version__
from .field import PrimeField, derive_seed
from .linalg import Echelon
from .poly import MAX_EXPONENT, PolynomialRing, random_linear_form, substitute_all
from .groebner import (
    BudgetExceededError,
    DEFAULT_STEP_BUDGET,
    GroebnerBasis,
    _Budget,
    _standard_levels,
    is_zero_dimensional,
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
    """R/(I + l) = S/IS, S = R/(l), for the parameter form l that
    `artinian_reduction` drew."""

    basis: GroebnerBasis  # reduced basis of IS, in S
    form: object  # l, in R: the printed witness
    hf: tuple  # Hilbert function of S/IS
    drawn: int  # forms drawn, l the last of them

    @property
    def length(self) -> int:
        """Of S/IS, which is e(R/I) when R/I is CM."""
        return sum(self.hf)

    @property
    def socle_degree(self) -> int:
        """The top degree s of S/IS."""
        return len(self.hf) - 1


def artinian_reduction(
    gb: GroebnerBasis,
    seed,
    trials: int = DEFAULT_TRIALS,
    budget: int = DEFAULT_STEP_BUDGET,
) -> Reduction:
    """S/IS, S = R/(l), for the first seeded linear form l, of at most
    `trials` drawn, whose images pass `_macaulay_basis` against the
    Hilbert function `_hf_difference` reads off the basis once.  For a
    one-dimensional Cohen-Macaulay quotient its length is the multiplicity,
    whichever such form is drawn.  ValueError unless `trials` is at least
    1, for a zero-dimensional basis, and from `_hf_difference`;
    RuntimeError when no form drawn passes.
    """
    if trials < 1:
        raise ValueError(f"an Artinian reduction needs at least 1 trial, got {trials}")
    if is_zero_dimensional(gb):
        raise ValueError("the ideal is already zero-dimensional; nothing to reduce")
    delta = _hf_difference(gb)
    for drawn, ell in enumerate(_trial_forms(gb.ring, seed, trials), 1):
        smaller, assignment = linear_substitution(gb.ring, [ell])
        images = [f for f in substitute_all(gb.elements, assignment) if not f.is_zero()]
        basis = _macaulay_basis(smaller, images, delta, budget)
        if basis is not None:
            return Reduction(basis, ell, delta, drawn)
    raise RuntimeError(
        f"no Artinian reduction in {trials} form{'s' * (trials != 1)} drawn over "
        f"GF({gb.ring.field.p}): R/I is not Cohen-Macaulay of dimension 1, or each "
        "form vanishes at one of the points of I, as is likely over a small "
        "field; a larger --trials or p may draw one that misses them all"
    )


def _hf_difference(gb: GroebnerBasis) -> tuple:
    """(h(0), h(1) - h(0), ..., h(s) - h(s-1)), h = HF(R/I) read off the
    standard monomials of the basis degree by degree, s the first degree
    with h(s+1) <= h(s): HF(S/IS) for every l regular on a CM R/I of
    dimension 1.  ValueError for a basis that is not homogeneous; when h
    falls, which a CM R/I of positive dimension never does (it has a
    regular linear form over the algebraic closure, and HF does not change
    under field extension); when h still rises in degree c(D-1) + 1, D the
    top degree of the basis (an Artinian S/IS generated in degrees <= D
    contains a complete intersection of c forms of degree D, so s <=
    c(D-1)); and when the walk would pass total degree 120.
    """
    if any(not g.is_homogeneous() for g in gb.elements):
        raise ValueError("artinian_reduction needs a homogeneous ideal")
    c, top = gb.ring.nvars - 1, max(g.degree for g in gb.elements)
    cap = c * (top - 1) + 1
    hf = []
    for d, h in _hf_values(gb, cap):
        if hf and h < hf[-1]:
            raise ValueError(f"R/I is not Cohen-Macaulay of positive dimension: its Hilbert "
                             f"function falls from {hf[-1]} in degree {d - 1} to {h}")
        if hf and h == hf[-1]:
            return tuple(b - a for a, b in zip([0] + hf, hf))
        hf.append(h)
    raise ValueError(
        f"R/I is not Cohen-Macaulay of dimension 1, or has dimension above 1: its "
        f"Hilbert function still rises in degree {cap} = c(D-1) + 1, for c = {c} "
        f"and the top degree D = {top} of the basis"
    )


def _hf_values(gb: GroebnerBasis, last: int):
    """(d, HF(R/I)(d)) for d = 0, 1, ..., last, counted off the standard
    monomials of the basis one level at a time; ValueError when the walk
    would pass total degree 120."""
    for d, level in zip(range(last + 1), _standard_levels(gb)):
        if d > MAX_EXPONENT:
            raise ValueError(f"total degree {d} exceeds the {MAX_EXPONENT} limit")
        yield d, len(level)


def _check_plateau(gb: GroebnerBasis, reduction: Reduction):
    """ValueError unless HF(R/I) stays at e = λ(S/IS) from s through
    (c+1)(D-1)+1, D the top degree of the basis: the Taylor bound on
    reg(in(I)) plus one, past which HF(R/I) is its Hilbert polynomial.  With
    the ranks of the reduction's sweep, l is then regular on a CM R/I."""
    top = max(g.degree for g in gb.elements)
    e, s = reduction.length, reduction.socle_degree
    for d, h in _hf_values(gb, gb.ring.nvars * (top - 1) + 1):
        if d > s and h != e:
            raise ValueError(
                f"R/I is not Cohen-Macaulay of dimension 1: its Hilbert function "
                f"leaves its plateau {e} in degree {d}, at {h}"
            )


def _points_hf_difference(gb: GroebnerBasis, ps: PointSet, budget: int) -> tuple:
    """The first difference of HF(R/I), I the vanishing ideal of the points,
    without its trailing zeros; ValueError unless `gb` is that ideal's
    basis in its ring."""
    result = bm_result(ps, gb.ring.order, budget)
    if result.basis.elements != gb.elements:
        raise ValueError("the basis is not the vanishing ideal of the given points")
    hf = result.hf
    delta = [hf[0]] + [hf[d] - hf[d - 1] for d in range(1, len(hf))]
    while delta[-1] == 0:
        delta.pop()
    return tuple(delta)


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


def _products(ring: PolynomialRing, gens):
    """The `extra` of a sweep of the square of the ideal of the homogeneous
    gens: the products of two of them, each in its degree.

    A product row costs one column lookup per pair of terms, so sparse gens
    make cheap rows.  An element of a reduced basis is its leading monomial
    plus standard monomials: a quadric in 5 variables of an ideal with 13
    independent quadrics has 3 terms, against up to 15.
    """
    p = ring.field.p
    terms = [(g.degree, [(m, c) for _, m, c in g.terms]) for g in gens]
    by_degree = {}
    for i, (a, f) in enumerate(terms):
        for b, g in terms[i:]:
            by_degree.setdefault(a + b, []).append((f, g))

    def extra(d, pos, n):
        return [
            (pos[f[0][0] + g[0][0]], partial(_product_row, f, g, pos, n, p))
            for f, g in by_degree.get(d, ())
        ]

    return extra


def _macaulay_basis(ring: PolynomialRing, images, delta, budget: int):
    """Reduced Groebner basis of J = IS in S = R/(l), for the images in S of
    a basis of I, read off the reduced Macaulay matrices of `_sweep`; None
    when HF(S/J) is not `delta` = ΔHF(R/I) in some degree d <= s + 1,
    s = len(delta) - 1.  HF(S/J)(d) = delta(d) + dim (0 :_{R/I} l)_(d-1),
    so a form through a point of I leaves S/J nonzero in degree s + 1; when
    the ranks match, every leading monomial of J has degree at most s + 1.
    J_d is spanned by the variables times J_(d-1) and the images of degree
    d.  A row of the reduced echelon form is a leading monomial plus
    standard monomials, and an element of the reduced basis iff its pivot
    is not a variable times a pivot of degree d - 1.  The sweep is charged
    to one fresh step budget.
    """
    gens = {}
    for g in images:
        gens.setdefault(g.degree, []).append(g)

    def extra(d, pos, n):
        return [(pos[g.terms[0][1]], partial(_poly_row, g, pos, n)) for g in gens.get(d, ())]

    top = len(delta)
    elements = []
    for d, pos, ech, lifted in _sweep(ring, top, _Budget(budget), extra, reduced=True):
        expected = delta[d] if d < top else 0
        hf = len(pos) - len(ech.pivots)
        if hf != expected:
            return None
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
    for _, pos, ech, _ in _sweep(ring, cap, budget, _products(ring, gens)):
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
    from `reduction = artinian_reduction(gb, ...)`, which checks both: its
    form l, its reduced basis of IS in S = R/(l), the multiplicity e and s,
    the socle degree of S/IS.  Under the hypotheses of the module
    docstring, a length of R/(I^2 + l) = S/(IS)^2 equal to (c+1)*e
    certifies CM and a larger one NotCM.

    The count comes first: when `_counting_bound` proves NotCM, the verdict
    carries that bound as `lambda_min`, says so in `detail`, and sweeps
    nothing.  Otherwise s caps a degree sweep in S, as the (2s+2)-th power
    of its maximal ideal lies in (IS)^2: the reduction's basis generates
    IS as it stands, and the Hilbert function of S/(IS)^2 is one rank per
    degree.  The budget is one fresh cap for the sweep: a row costs one
    step plus one per echelon row subtracted from it, and exhausting it
    gives Inconclusive.
    """
    c = gb.ring.nvars - 1  # height of a points ideal
    ell, drawn = reduction.form, reduction.drawn
    e_expected = (c + 1) * reduction.length
    bound = _counting_bound(gb, c, reduction.length)
    if bound is not None:
        detail = f"counting: (c+1)e = {e_expected} < {bound} = C({c + 3},3)"
        return CmVerdict("NotCM", None, drawn, bound, e_expected, detail)
    basis = reduction.basis
    try:
        lam = _square_length(
            basis.ring, basis.elements, 2 * reduction.socle_degree + 2, _Budget(budget)
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
    """Degree-2 elements of the reduced basis of the Artinian reduction;
    cross-checked against the Hilbert function when s = 2."""
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
    the basis of IS from `artinian_reduction`.

    `points`, when given, are the points whose vanishing ideal `gb` is
    (ValueError otherwise, checked first), and the Hilbert function of the
    reduction must be the first difference of the points' one (so e = n),
    or RuntimeError.  Without them `_check_plateau` certifies that R/I is
    Cohen-Macaulay of dimension 1, or raises ValueError.
    """
    ring = gb.ring
    delta = None if points is None else _points_hf_difference(gb, points, budget)
    if is_zero_dimensional(gb):
        art_gb, reduction = gb, None
    else:
        reduction = artinian_reduction(gb, seed, trials, budget)
        art_gb = reduction.basis
        if delta is None:
            _check_plateau(gb, reduction)
        elif reduction.hf != delta:
            raise RuntimeError(
                f"Hilbert function {reduction.hf} of the reduction disagrees with "
                f"{delta}, the first difference of that of the {points.n} points"
            )
    report = classify(art_gb, budget)
    e = report.length
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
    *_, (_, pos, ech, _) = _sweep(ring, 4, _Budget(DEFAULT_STEP_BUDGET), _products(ring, quadrics))
    return len(ech.pivots) < len(pos)
