"""Artinian reductions by a parameter form, the last variable or a seeded
one, and the Cohen-Macaulayness verdict for the square of a points ideal.

The verdict logic: let I be a one-dimensional ideal with R/I Cohen-Macaulay
and I generically a complete intersection of height c (a points ideal is
both), M = R/I^2, and l a linear form with R/(I + l) Artinian.  Summing the
graded sequence 0 -> (0 :_M l)(-1) -> M(-1) -> M -> M/lM -> 0 over all
degrees gives length(R/(I^2 + l)) = (c+1)e + length(0 :_M l), e the
multiplicity of R/I, and 0 :_M l is nonzero exactly when M is not CM.  So
the first such form decides: a length equal to (c+1)e certifies CM, a
larger one certifies NotCM.

Everything after l is chosen lives in S = R/(l): setting the form to zero
with `poly.quotient_by_linear_form`, the one substitution of the package,
leaves a polynomial ring in one variable fewer, R/(I + l) is S/IS, and
R/(I^2 + l) is S/(IS)^2.  One parameter form serves the whole analysis.
The reduction keeps the reduced basis of IS in S and the Hilbert function
of S/IS, whose sum is e and whose top degree is s; the verdict needs only
l, that basis and s, and the invariants are read off that basis as it
stands.  For R/I CM of dimension 1 and l regular on it, HF(S/IS) is the
first difference of HF(R/I), read from one place per analysis.  Points
bring it: their Buchberger-Moller pass counted HF(R/I) up to its plateau
at n, which certifies R/I, and nothing is walked.  A basis of I alone is
walked once over its standard monomials, up to the Taylor bound on
reg(in(I)) plus one; the walk refuses a HF that falls, still rises past
the degree any such reduction allows, or leaves e after s.

The form is the last variable x_c when Bayer and Stillman's test shows it
regular: in degrevlex, x_c is regular on R/I iff no leading monomial of
the reduced basis involves it, and then that basis with x_c = 0 is
already the reduced basis of IS.  That costs one projection, each
element keeping its terms free of x_c, as `quotient_by_linear_form`
does for a bare variable, and no sweep.  On points the test
reads that x_c vanishes at none of them, which random points meet with
probability about 1 - n/p; for a file, the walk's plateau with a regular
x_c certifies R/I CM of dimension 1.  Any other basis draws seeded forms
until one gives an Artinian S/IS.  A draw costs one substitution and one
sweep of Macaulay matrices in S: l passes iff the ranks give that
difference through s and fill degree s + 1, and the reduced basis of IS
is read off the same sweep, with no Buchberger run.  On points a form
passes iff it vanishes at none of them (Abbott, Bigatti, Kreuzer and
Robbiano, "Computing ideals of points", 2000), and e = n.

The length of S/(IS)^2 comes from a degree sweep of graded Macaulay
matrices (Lazard 1983): in each degree d the square spans the variables
times its degree d-1 part plus the products of two generators of degree d.
The generators are the reduction's reduced basis, so each is its leading
monomial plus standard monomials, one per leading monomial in each degree,
as F4 makes them before it multiplies (Faugere 1999), and their products
have few terms.  Each degree works in border coordinates, as F4's symbolic
preprocessing does: its columns are the variables times the standard
monomials of degree d-1, at most c * HF(d-1) of them, and every other
monomial is a variable times a leading monomial of degree d-1, rewritten
by that element's normal form and given no column.  So one rank per
degree, over those columns only, gives the Hilbert function, and the
sweep ends at its first zero.  No Groebner basis of the square is
computed.  The same degree loop, `_sweep`, also builds the basis of IS.

Some NotCM verdicts need no sweep at all.  When I lies in m^2, the image
of I^2 lies in the fourth power of the maximal ideal of S, so the length
of R/(I^2 + l) is at least dim S_(<=3) = C(c+3, 3); when that exceeds
(c+1)e, which with t = e - c is `criteria.min_codim_forcing_not_cm(t) <= c`,
the count alone proves NotCM, under the same hypotheses as the sweep.
"""

from dataclasses import dataclass
from functools import partial
from itertools import chain
from math import comb
from operator import mul

from .field import derive_seed
from .linalg import Echelon
from .poly import (
    MAX_EXPONENT,
    PolynomialRing,
    quotient_by_linear_form,
    random_linear_form,
)
from .groebner import (
    BudgetExceededError,
    DEFAULT_STEP_BUDGET,
    GroebnerBasis,
    _Budget,
    _standard_levels,
    is_zero_dimensional,
)
from .invariants import InvariantReport, classify
from .points import BmResult
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
    """The analysis of one ideal; the run parameters are the config echo's."""

    invariants: InvariantReport
    q: object  # quadric generator count of the reduction, None if not computed
    cm_square: object  # CmVerdict, or None for an Artinian input
    criteria: tuple  # (name, CriteriaVerdict) pairs
    source: str

    @property
    def e(self) -> int:
        """The multiplicity: the length of the Artinian reduction."""
        return self.invariants.length

    def to_text(self) -> str:
        lines = [
            f"source: {self.source}",
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
        lines.append("agreement: true")  # `analyze` raises on any disagreement
        return "\n".join(lines)


def _trial_forms(ring, seed, trials):
    return (
        random_linear_form(ring, derive_seed(seed, "square", t)) for t in range(trials)
    )


@dataclass(frozen=True)
class Reduction:
    """R/(I + l) = S/IS, S = R/(l), for the parameter form l that
    `artinian_reduction` chose."""

    basis: GroebnerBasis  # reduced basis of IS, in S
    form: object  # l, in R: the printed witness
    hf: tuple  # Hilbert function of S/IS
    drawn: int  # forms drawn, l the last of them; 1 for the last variable

    @property
    def length(self) -> int:
        """Of S/IS, which is e(R/I) when R/I is CM."""
        return sum(self.hf)

    @property
    def socle_degree(self) -> int:
        """The top degree s of S/IS."""
        return len(self.hf) - 1


def artinian_reduction(
    ideal,
    seed,
    trials: int = DEFAULT_TRIALS,
    budget: int = DEFAULT_STEP_BUDGET,
) -> Reduction:
    """S/IS, S = R/(l), with hf = ΔHF(R/I) from `_basis_and_delta`;
    `ideal` is a `GroebnerBasis` of I or the `BmResult` of its points.  l
    is the last variable when `_last_variable_is_regular`, drawn as the one
    form, and the images of the basis are the basis of IS: no sweep runs
    and no step is charged.  Otherwise l is the first seeded linear form,
    of at most `trials` drawn, whose images pass `_macaulay_basis` against
    ΔHF(R/I).  For a one-dimensional Cohen-Macaulay quotient the length is
    the multiplicity, whichever regular form l is.  ValueError for a
    zero-dimensional basis, from `_basis_and_delta`, and unless `trials` is
    at least 1, on either route; RuntimeError when no form drawn passes.
    """
    gb, delta = _basis_and_delta(ideal)
    if trials < 1:
        raise ValueError(f"an Artinian reduction needs at least 1 trial, got {trials}")
    if _last_variable_is_regular(gb):
        x_c = gb.ring.gens()[-1]
        return Reduction(GroebnerBasis(*quotient_by_linear_form(gb.elements, x_c)), x_c, delta, 1)
    for drawn, ell in enumerate(_trial_forms(gb.ring, seed, trials), 1):
        smaller, images = quotient_by_linear_form(gb.elements, ell)
        images = [f for f in images if not f.is_zero()]
        basis = _macaulay_basis(smaller, images, delta, budget)
        if basis is not None:
            return Reduction(basis, ell, delta, drawn)
    raise RuntimeError(
        f"no Artinian reduction in {trials} form{'s' * (trials != 1)} drawn over "
        f"GF({gb.ring.field.p}): R/I is not Cohen-Macaulay of dimension 1, or each "
        "form vanishes at one of the points of I, as is likely over a small "
        "field; a larger --trials or p may draw one that misses them all"
    )


def _last_variable_is_regular(gb: GroebnerBasis) -> bool:
    """True for a degrevlex basis none of whose leading monomials involves
    the last variable x_c: then x_c is regular on R/I, and the basis with
    x_c = 0 is the reduced basis of I + (x_c) in S = R/(x_c) (Bayer and
    Stillman, Invent. Math. 87, 1987; Eisenbud, Commutative Algebra,
    Prop. 15.12).  Under degrevlex the converse holds, so on the basis of
    the points pass, which is degrevlex, the test reads that x_c vanishes
    at none of them.  A basis in another order, which only `buchberger` in
    a ring of that order makes, gives False: there a leading monomial free
    of x_c proves nothing."""
    ring = gb.ring
    return ring.order.kind == "degrevlex" and all(
        not ring.unpack(lt)[-1] for lt in gb.leading_monomials()
    )


def _basis_and_delta(ideal) -> tuple:
    """(basis of I, ΔHF(R/I) without its trailing zeros), from a
    `GroebnerBasis` of I, walked once by `_hf_difference`, or from the
    `BmResult` of the points whose ideal I is, whose HF(R/I) up to its
    plateau at n certifies R/I CM of dimension 1.  ValueError for a
    zero-dimensional basis."""
    if isinstance(ideal, BmResult):
        delta = [b - a for a, b in zip((0,) + ideal.hf, ideal.hf)]
        while delta[-1] == 0:
            delta.pop()
        return ideal.basis, tuple(delta)
    if is_zero_dimensional(ideal):
        raise ValueError("the ideal is already zero-dimensional; nothing to reduce")
    return ideal, _hf_difference(ideal)


def _hf_difference(gb: GroebnerBasis) -> tuple:
    """(h(0), h(1) - h(0), ..., h(s) - h(s-1)), h = HF(R/I) read off the
    standard monomials of the basis in one walk, s the first degree with
    h(s+1) <= h(s): HF(S/IS) for every l regular on a CM R/I of dimension 1.
    ValueError for a basis that is not homogeneous; when h falls, which a
    CM R/I of positive dimension never does (it has a regular linear form
    over the algebraic closure, and HF does not change under field
    extension); when h still rises in degree c(D-1) + 1, D the top degree
    of the basis (an Artinian S/IS generated in degrees <= D contains a
    complete intersection of c forms of degree D, so s <= c(D-1)); when h
    leaves e = h(s) by degree (c+1)(D-1) + 1, the Taylor bound on
    reg(in(I)) plus one, past which h is the Hilbert polynomial, so that
    with the ranks of the reduction's sweep l is regular on a CM R/I; and
    when the walk would pass total degree 120.
    """
    if any(not g.is_homogeneous() for g in gb.elements):
        raise ValueError("artinian_reduction needs a homogeneous ideal")
    c, top = gb.ring.nvars - 1, max(g.degree for g in gb.elements)
    cap, last = c * (top - 1) + 1, (c + 1) * (top - 1) + 1
    hf, flat = [], False  # hf: h(0..s); flat once h(s+1) = h(s)
    for d, level in zip(range(last + 1), _standard_levels(gb)):
        if d > MAX_EXPONENT:
            raise ValueError(f"total degree {d} exceeds the {MAX_EXPONENT} limit")
        h = len(level)
        if hf and h == hf[-1]:
            flat = True
        elif flat:
            raise ValueError(
                f"R/I is not Cohen-Macaulay of dimension 1: its Hilbert function "
                f"leaves its plateau {hf[-1]} in degree {d}, at {h}"
            )
        elif hf and h < hf[-1]:
            raise ValueError(f"R/I is not Cohen-Macaulay of positive dimension: its Hilbert "
                             f"function falls from {hf[-1]} in degree {d - 1} to {h}")
        elif d == cap:
            raise ValueError(
                f"R/I is not Cohen-Macaulay of dimension 1, or has dimension above 1: its "
                f"Hilbert function still rises in degree {cap} = c(D-1) + 1, for c = {c} "
                f"and the top degree D = {top} of the basis"
            )
        else:
            hf.append(h)
    return tuple(b - a for a, b in zip([0] + hf, hf))


def _border_row(n, p, units, parts):
    """A row over the n border columns: coefficient a at column j for each
    (j, a) of `units`, plus a times `tail` at the columns `cols` for each
    (a, tail, cols) of `parts`."""
    vec = [0] * n
    for j, a in units:
        vec[j] += a
    for a, tail, cols in parts:
        for j, t in zip(cols, tail):
            vec[j] += a * t
    return [v % p for v in vec]


def _product_row(f, g, col, rules, shifts, n, p):
    """f * g over the border columns `col`, for f and g given as (packed
    monomial, coefficient) lists: a monomial m off the border is rewritten
    by its rule, m = -x * tail(L) modulo J."""
    vec = [0] * n
    off = {}
    for m1, c1 in f:
        for m2, c2 in g:
            m = m1 + m2
            j = col.get(m)
            if j is None:
                off[m] = off.get(m, 0) + c1 * c2
            else:
                vec[j] = (vec[j] + c1 * c2) % p
    for m, a in off.items():
        tail, x = rules[m]
        for j, t in zip(shifts[x], tail):
            vec[j] = (vec[j] - a * t) % p
    return vec


_COLUMNS = {}  # (nvars, order kind, d) -> `_monomial_columns`


def _monomial_columns(ring: PolynomialRing, d: int):
    """(monomials of degree d in decreasing order, their column map), built
    once per ring shape and degree: packed monomials and their order depend
    only on the number of variables and the kind of order.  Callers must
    not change them."""
    key = (ring.nvars, ring.order.kind, d)
    table = _COLUMNS.get(key)
    if table is None:
        monos = tuple(ring.monomials_of_degree(d))
        table = _COLUMNS[key] = monos, {m: j for j, m in enumerate(monos)}
    return table


def _sweep(ring: PolynomialRing, top: int, budget: _Budget, pairs):
    """The graded Macaulay matrices of a homogeneous ideal J (Lazard 1983),
    each degree in border coordinates: yields (d, standard, tails, new) for
    d = 1..top, and ends after the first degree that J fills.

    `standard` is N_d, the standard monomials of J in degree d in
    decreasing order, so HF(S/J, d) = len(standard).  `tails` maps each
    leading monomial L of J_d to the coefficients on `standard` of the
    tail of its element of J_d: L + tail lies in J.  It is empty in the
    last degree and in a degree J fills, where every tail is empty.  `new`
    lists, in decreasing order, the leading monomials of degree d that are
    no variable times one of degree d - 1.

    J_d is spanned by the variables times J_(d-1) and the products f * g
    of the pairs of term lists in `pairs[d]`.  Its columns are the border
    B_d, the variables times N_(d-1).  Every other monomial m of degree d
    is x * L for leading monomials L of J_(d-1); the first such product
    gives its rule m = -x * tail(L) modulo J, and no row, as F4's symbolic
    preprocessing rewrites by the reduced previous degree (Faugere 1999).
    So J_d is the span of the rules plus J_d meet span(B_d), which the rows
    span: every other x * L, as a second rule for its m or, with m in B_d,
    as it stands, and each product rewritten by the rules.  The border
    columns are in decreasing order, so a pivot is a leading monomial, and
    the leading monomials of J_d are the rule monomials and the pivots.

    Rows with distinct leading columns in B_d go first, in increasing
    column order: each takes the echelon's fast path and needs no
    reduction.  The rest, from `_later_rows` and then the other products,
    are made one at a time and reduced in full until the rank reaches
    |B_d|.  Each row is charged to the budget by `_Budget.charge_row`; the
    tails, made by `_tails`, are not charged.
    """
    p, key, xs = ring.field.p, ring.key, ring._var_monos
    standard, tails = [ring._one_mono], {}
    for d in range(1, top + 1):
        if tails:
            border = sorted({u + x for u in standard for x in xs}, key=key, reverse=True)
            col = {m: j for j, m in enumerate(border)}
        else:  # J_(d-1) = 0: the border is all of degree d
            border, col = _monomial_columns(ring, d)
        n = len(border)
        shifts = [[col[u + x] for u in standard] for x in xs] if tails else []
        rules, firsts = {}, {}  # the first x * L at each monomial: (tail(L), x)
        for i, x in enumerate(xs):
            for lead, tail in tails.items():
                m = lead + x
                j = col.get(m)
                if j is None:
                    rules.setdefault(m, (tail, i))
                else:
                    firsts.setdefault(j, (tail, i))
        heads = {
            j: partial(_border_row, n, p, ((j, 1),), ((1, tail, shifts[i]),))
            for j, (tail, i) in firsts.items()
        }
        products = []
        for f, g in pairs.get(d, ()):
            make = partial(_product_row, f, g, col, rules, shifts, n, p)
            j = col.get(f[0][0] + g[0][0])
            if j is None or j in heads:
                products.append(make)
            else:
                heads[j] = make
        rows = chain(
            (heads[j]() for j in sorted(heads)),
            _later_rows(tails, xs, shifts, col, rules, firsts, n, p),
            (make() for make in products),
        )
        ech = Echelon(p, n)
        for row in rows:
            if len(ech.pivots) == n:
                break
            mults, _ = ech.add(row)
            budget.charge_row(mults)
        pivots = set(ech.pivots)
        new = [border[j] for j in sorted(pivots - firsts.keys())]
        standard = [m for j, m in enumerate(border) if j not in pivots]
        tails = _tails(ech, border, rules, shifts) if standard and d < top else {}
        yield d, standard, tails, new
        if not standard:
            return


def _later_rows(tails, xs, shifts, col, rules, firsts, n, p):
    """The rows of the products x * L that are not the first at their
    monomial m, in the order of the first pass, each made only when the
    sweep asks for it: x * L as it stands when m has a border column,
    else x * L minus the first product, its rule."""
    for i, (x, cols) in enumerate(zip(xs, shifts)):
        for lead, tail in tails.items():
            m = lead + x
            j = col.get(m)
            if j is None:
                first, k = rules[m]
                if k != i:
                    yield _border_row(n, p, (), ((1, tail, cols), (-1, first, shifts[k])))
            elif firsts[j][1] != i:
                yield _border_row(n, p, ((j, 1),), ((1, tail, cols),))


def _tails(ech: Echelon, border, rules, shifts):
    """The tail on the standard monomials of every leading monomial of J_d,
    from the echelon of J_d meet span(B_d) over the `border` and the
    degree's rules.

    The standard monomials are the free columns of the echelon.  A pivot's
    tail is its reduced row there, made by `Echelon.back_substitute`, and
    modulo J a border column is its image there.  A rule's tail is
    x * tail(L) taken through those images: one `Lanes` int, each lane at
    most one product below p^2 per standard monomial, read back once, with
    no second elimination.
    """
    lanes, pivot_tails, img = ech.back_substitute()
    tails = {border[j]: tail for j, tail in pivot_tails.items()}
    moved = [[img[j] for j in cols] for cols in shifts]
    for m, (tail, x) in rules.items():
        tails[m] = lanes.unpack(sum(map(mul, tail, moved[x])))
    return tails


def _products(gens):
    """The `pairs` of a sweep of the square of the ideal of the homogeneous
    gens: every two of them, by the degree of their product.

    A product row costs one column lookup per pair of terms, so sparse gens
    make cheap rows.  An element of a reduced basis is its leading monomial
    plus standard monomials: a quadric in 5 variables of an ideal with 13
    independent quadrics has 3 terms, against up to 15.
    """
    terms = [(g.degree, [(m, c) for _, m, c in g.terms]) for g in gens]
    pairs = {}
    for i, (a, f) in enumerate(terms):
        for b, g in terms[i:]:
            pairs.setdefault(a + b, []).append((f, g))
    return pairs


def _macaulay_basis(ring: PolynomialRing, images, delta, budget: int):
    """Reduced Groebner basis of J = IS in S = R/(l), for the images in S of
    a basis of I, read off the degrees of `_sweep`; None when HF(S/J) is
    not `delta` = ΔHF(R/I) in some degree d <= s + 1, s = len(delta) - 1.
    HF(S/J)(d) = delta(d) + dim (0 :_{R/I} l)_(d-1), so a form through a
    point of I leaves S/J nonzero in degree s + 1; when the ranks match,
    every leading monomial of J has degree at most s + 1.  J_d is spanned
    by the variables times J_(d-1) and the images of degree d, each paired
    with the term list of 1.  The reduced basis has one element per new
    leading monomial m of the sweep, a leading monomial that is no variable
    times one of degree d - 1: m plus its tail on the standard monomials.
    The sweep is charged to one fresh step budget.
    """
    one = [(ring._one_mono, 1)]
    pairs = {}
    for g in images:
        pairs.setdefault(g.degree, []).append(([(m, c) for _, m, c in g.terms], one))
    top = len(delta)
    elements = []
    for d, standard, tails, new in _sweep(ring, top, _Budget(budget), pairs):
        if len(standard) != (delta[d] if d < top else 0):
            return None
        for m in new:
            acc = {u: c for u, c in zip(standard, tails.get(m, ())) if c}
            acc[m] = 1
            elements.append(ring._from_packed_dict(acc))
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
    for _, standard, _, _ in _sweep(ring, cap, budget, _products(gens)):
        if not standard:
            return lam
        lam += len(standard)
    raise RuntimeError(
        f"internal inconsistency: the square's Hilbert function is nonzero "
        f"in degree {cap}, where the socle degree of the reduction forces zero"
    )


def _counting_bound(basis: GroebnerBasis, e: int):
    """C(c+3, 3) when that count alone proves NotCM, else None, for the
    reduction's basis of IS in S, c the number of variables of S.

    I lies in m^2 iff the basis of IS has no linear element: (IS)_1 is
    the image of I_1, zero only if I_1 = 0 or l lies in I, and l in I
    would leave S/IS = R/I nonzero in degree s + 1, which the reduction
    refuses.  Then the image of I^2 in S lies in the fourth power of its
    maximal ideal, so the length of R/(I^2 + l) is at least
    dim S_(<=3) = C(c+3, 3).  That exceeds (c+1)e iff 6t < c^2 - c + 6,
    t = e - c, which is c >= min_codim_forcing_not_cm(t) for t >= 1; I in
    m^2 forces e >= c + 1, so t >= 1, and a t past the criteria's grid is
    left to the sweep.
    """
    c = basis.ring.nvars
    t = e - c
    if any(g.degree < 2 for g in basis.elements) or t > crit.MAX_GRID:
        return None
    if c < crit.min_codim_forcing_not_cm(t):
        return None
    return comb(c + 3, 3)


def is_cm_square(reduction: Reduction, budget: int = DEFAULT_STEP_BUDGET) -> CmVerdict:
    """Cohen-Macaulayness of R/I^2 for a one-dimensional homogeneous ideal,
    from `reduction = artinian_reduction(...)` of I, which checks both and
    is all the verdict reads: its form l, its reduced basis of IS in
    S = R/(l), whose c variables give the height c of I, the multiplicity e
    and s, the socle degree of S/IS.  Under the hypotheses of the module
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
    basis, ell, drawn = reduction.basis, reduction.form, reduction.drawn
    c = basis.ring.nvars  # height of a points ideal
    e_expected = (c + 1) * reduction.length
    bound = _counting_bound(basis, reduction.length)
    if bound is not None:
        detail = f"counting: (c+1)e = {e_expected} < {bound} = C({c + 3},3)"
        return CmVerdict("NotCM", None, drawn, bound, e_expected, detail)
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
    ideal,
    seed=0,
    trials: int = DEFAULT_TRIALS,
    budget: int = DEFAULT_STEP_BUDGET,
    source: str = "",
) -> AnalysisReport:
    """Full report: invariants of the Artinian reduction, quadric count,
    CM verdict for the square, and every applicable closed-form criterion,
    with a hard cross-check both ways: no NotCM criterion may meet a CM
    verdict, and no positive answer may meet one on a non-Gorenstein ring.
    `ideal` is a `GroebnerBasis` of I or the `BmResult` of its points, as
    for `artinian_reduction`.  The invariants and e come from one Artinian
    basis, classified as it stands: the basis of I when zero-dimensional
    (then no verdict), otherwise the basis of IS from the reduction, whose
    Hilbert function, computed apart as ΔHF(R/I), must be the invariants'
    (RuntimeError otherwise): its sum e sets the verdict's target (c+1)e.
    """
    if isinstance(ideal, GroebnerBasis) and is_zero_dimensional(ideal):
        art_gb, reduction = ideal, None
    else:
        reduction = artinian_reduction(ideal, seed, trials, budget)
        art_gb = reduction.basis
    report = classify(art_gb, budget)
    if reduction is not None and report.hf.values != reduction.hf:
        raise RuntimeError(
            f"internal inconsistency: the invariants' Hilbert function {report.hf} "
            f"disagrees with the reduction's {reduction.hf}, whose sum the verdict targets"
        )
    e = report.length
    cm = None if reduction is None else is_cm_square(reduction, budget)
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

    if cm is not None and cm.status == "CM" and any(
        v.outcome == crit.NOT_CM for _, v in checks
    ):
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
    return AnalysisReport(report, q, cm, tuple(checks), source)

