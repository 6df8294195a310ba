"""Point configurations in projective space over GF(p): random generation,
with redraws until the points are in general position, and vanishing ideals
via degree-by-degree evaluation.

The vanishing ideal is computed Buchberger-Moller style: in each degree the
candidate monomials are evaluated at the points, smallest first, and each
value vector is reduced against those of the standard monomials found so
far in the degree (Marinari, Moller and Mora, "Groebner bases of ideals
defined by functionals", 1993).  A nonzero remainder makes the candidate
standard; a zero one makes it the leading term of a new reduced basis
element, its other terms the standard monomials below it.  So the echelon
of a degree holds only the rows of standard monomials: a row is the n
values followed by one slot per standard monomial, at most n of them, in
which it records its combination of them, and the slots of a candidate
that reduces to zero are the coefficients of its element.  Once the
echelon has rank n on the values, every later candidate of the degree
reduces to zero, and its slots are solved with no reduction: the rows are
brought to reduced form once, by `Echelon.back_substitute`, and the slots
of a candidate are one packed sum of its values times the images of the
value columns (`_solver`).  The candidates are the variable multiples of
the previous degree's standard monomials that no leading term found so far
divides, which are those whose every divisor one degree down is standard:
one step of the standard-monomial walk of `groebner._standard_levels`,
taken by `groebner._standard_successors` with no leading terms, since
every element found so far lies in a lower degree and so divides a
candidate only through one of those divisors.

Where the pass stops.  When the order is degrevlex and x_c, the last
variable, vanishes at none of the points, x_c is regular on R/I and
in(I) : x_c = in(I) (Bayer and Stillman, Invent. Math. 87, 1987).  So in the
first degree d with HF(d-1) = n the standard monomials are x_c times those
of degree d-1, and in(I) has no minimal generator above degree d: the pass
ends with degree d, which it reads off degree d-1.  A candidate that x_c
divides is standard, with no row.  Every other candidate lies above all of
those in degrevlex, and leads a new element; its values divided point by
point by x_c, its parent's values times the ratio x_j/x_c, are solved
against degree d-1's echelon, of full rank n, and the slots are the
element's coefficients on x_c times degree d-1's standard monomials.  The
read-off starts at degree 2, with an echelon below it, so one point, whose
HF is n from degree 0, runs the loop through degree 1.  Otherwise (another
order, or x_c = 0 at some point, as at the coordinate points of Example
6.1) the loop runs until a degree confirms the Hilbert function at n with
no new generators, one degree past the stabilization required of saturated
point ideals, which also covers special configurations whose initial ideal
acquires late generators.
Either way it reaches at least degree d0 + 1, d0 the first degree with
C(c + d0, d0) >= n, and a point count that puts d0 + 1 past the monomial
degree limit is refused before any evaluation; a configuration that climbs
past the limit anyway, such as many points on a line, raises when it gets
there.  Each pass runs under a step budget like Buchberger's: a reduced
row costs one step plus one per echelon row subtracted from it, and a
solved row one step plus one per nonzero value, the reduced rows it
applies.  A candidate is a variable times a standard monomial of the
previous degree, so its values at the points are that monomial's values
times one coordinate, point by point; the closing check that every
element vanishes, the solved ones and those of the degree read off
included, evaluates each term from scratch, from a table of coordinate
powers.

A point set certified general, drawn by `general_points` or frozen like
the points of Example 6.1, keeps the result of its pass (the basis, the
Hilbert function of the coordinate ring and the steps it took), so
`vanishing_ideal` reads it instead of running the pass again, and
`harness` hands it to `cm.analyze`, which takes the Hilbert function of
R/I from it.
"""

import dataclasses
from dataclasses import dataclass
from math import comb
from operator import mul
import random
from typing import NamedTuple

from .field import PrimeField, stable_seed
from .poly import DEGREVLEX, MAX_EXPONENT, MonomialOrder, Polynomial, PolynomialRing
from .groebner import (
    DEFAULT_STEP_BUDGET,
    BudgetExceededError,
    GroebnerBasis,
    _Budget,
    _standard_successors,
)
from .linalg import Echelon, Lanes


class BmResult(NamedTuple):
    """One Buchberger-Moller pass: the reduced basis of the vanishing ideal,
    the Hilbert function of the coordinate ring by degree up to the degree
    the pass stopped at, and the steps the pass took.  The Hilbert function
    ends at n twice: in the degree read off the one before, when x_c
    vanishes at no point under degrevlex, otherwise in the degree that
    confirmed it (see the module docstring); past its end it stays n."""

    basis: GroebnerBasis
    hf: tuple
    steps: int


@dataclass(frozen=True)
class PointSet:
    """n distinct points in P^c over GF(p), stored with first nonzero
    coordinate normalized to 1.  `bm` is the `BmResult` kept when the set
    was certified general, None otherwise; it takes no part in equality."""

    c: int
    p: int
    points: tuple
    seed: object = None
    bm: BmResult = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.points)

    def ring(self, order: MonomialOrder = DEGREVLEX) -> PolynomialRing:
        names = [f"x{i}" for i in range(self.c + 1)]
        return PolynomialRing(PrimeField(self.p), names, order)


def normalize_point(coords, field: PrimeField):
    coords = [v % field.p for v in coords]
    pivot = next((i for i, v in enumerate(coords) if v), None)
    if pivot is None:
        raise ValueError("the zero vector is not a projective point")
    inv = field.inv(coords[pivot])
    return tuple([v * inv % field.p for v in coords])


def make_point_set(c: int, p: int, raw_points, seed=None) -> PointSet:
    field = PrimeField(p)
    pts = []
    seen = set()
    for coords in raw_points:
        if len(coords) != c + 1:
            raise ValueError(f"a point in P^{c} needs {c + 1} coordinates")
        pt = normalize_point(coords, field)
        if pt in seen:
            raise ValueError(f"duplicate point {pt}")
        seen.add(pt)
        pts.append(pt)
    if not pts:
        raise ValueError("a point set needs at least one point")
    return PointSet(c, p, tuple(pts), seed)


def projective_point_count(c: int, p: int) -> int:
    return (p ** (c + 1) - 1) // (p - 1)


def _check_counts(c: int, n: int):
    if c < 1:
        raise ValueError(f"projective dimension must be at least 1, got {c}")
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")


def random_points(c: int, n: int, p: int, seed) -> PointSet:
    """n distinct uniform points in P^c over GF(p); deterministic per seed."""
    _check_counts(c, n)
    field = PrimeField(p)
    if n > projective_point_count(c, p):
        raise ValueError(
            f"P^{c} over GF({p}) has only {projective_point_count(c, p)} points, "
            f"{n} requested"
        )
    rng = random.Random(stable_seed(seed))
    pts = []
    seen = set()
    while len(pts) < n:
        coords = [rng.randrange(p) for _ in range(c + 1)]
        if not any(coords):
            continue
        pt = normalize_point(coords, field)
        if pt in seen:
            continue
        seen.add(pt)
        pts.append(pt)
    return PointSet(c, p, tuple(pts), seed)


def _monomial_values(exponents, ps: PointSet) -> list:
    """The value vector at the points of each monomial, given by its
    exponents: products of entries of a table of coordinate powers, built
    by multiplication up to the largest exponent, with no `pow`.  A
    monomial starts from its first factor's row of the table, which a pure
    power returns as it stands, so the lists are not to be changed."""
    p, n = ps.p, ps.n
    top = max((max(exps) for exps in exponents), default=0)
    powers = []  # powers[j][k]: coordinate j to the k at every point
    for j in range(ps.c + 1):
        coord = [pt[j] for pt in ps.points]
        table = [[1] * n, coord]
        while len(table) <= top:
            table.append([a * b % p for a, b in zip(table[-1], coord)])
        powers.append(table)
    out = []
    for exps in exponents:
        vals = None
        for j, e in enumerate(exps):
            if e:
                row = powers[j][e]
                vals = row if vals is None else [a * b % p for a, b in zip(vals, row)]
        out.append(powers[0][0] if vals is None else vals)
    return out


def _past_the_degree_limit(c: int, n: int) -> ValueError:
    return ValueError(
        f"the vanishing ideal of {n} points in P^{c} needs monomials "
        f"past total degree {MAX_EXPONENT}"
    )


def _check_degree_range(c: int, n: int):
    """The degree loop of `_bm_run` ends no earlier than degree d0 + 1, d0
    the first degree with C(c + d0, d0) >= n; its monomials must be
    representable."""
    d0 = 0
    while d0 < MAX_EXPONENT and comb(c + d0, d0) < n:
        d0 += 1
    if d0 + 1 > MAX_EXPONENT:
        raise _past_the_degree_limit(c, n)


def _bm_run(ps: PointSet, order: MonomialOrder, budget: int) -> BmResult:
    """One Buchberger-Moller pass.

    Each candidate row is charged to a fresh step budget by
    `_Budget.charge_row`: a solved row with its values as the multipliers.
    """
    _check_degree_range(ps.c, ps.n)
    steps = _Budget(budget)
    ring = ps.ring(order)
    p = ring.field.p
    n = ps.n
    key = ring.key
    coords = [[pt[j] for pt in ps.points] for j in range(ps.c + 1)]

    # x_c is regular on R/I: the last degree is read off (module docstring)
    last_is_regular = order == DEGREVLEX and all(coords[-1])

    elements = []
    hf = [1]
    values = {0: [1] * n}  # standard monomials of the previous degree: values

    degree_cap = n + ps.c + 5
    d = 0
    while True:
        d += 1
        if d > degree_cap:
            raise RuntimeError(
                f"vanishing ideal loop passed degree {degree_cap}; "
                "this contradicts the regularity bound for point ideals"
            )
        # every leading term found so far lies below degree d
        successors = _standard_successors(ring, (), values)
        # ascending, smallest first, with the keys the element terms carry
        candidates = sorted((key(m), m) for m in successors)
        # from degree 2, read off the echelon, solver and std_keys of degree d - 1
        if last_is_regular and d > 1 and hf[d - 1] == n:
            new_gens = _last_degree(
                ring, coords, candidates, successors, values, solve or _solver(echelon, n),
                std_keys, steps,
            )
            if new_gens and d > MAX_EXPONENT:
                raise _past_the_degree_limit(ps.c, n)
            hf.append(len(candidates) - len(new_gens))
            elements.extend(new_gens)
            break
        # a row is the values at the points followed by one slot per standard
        # monomial of this degree (see the module docstring)
        slots = min(n, len(candidates))
        echelon = Echelon(p)
        solve = None  # made by `_solver` for the first candidate past rank n
        new_gens = []
        std_here = {}  # standard monomial of this degree: values
        std_keys = []  # the same monomials, ascending: (key, monomial)
        for k, m in candidates:
            parent, j = successors[m]
            vals = [a * b % p for a, b in zip(values[parent], coords[j])]
            if len(std_keys) == n:
                solve = solve or _solver(echelon, n)
                steps.charge_row(vals)
                slot_values = solve(vals)
            else:
                rem, mults = echelon.reduce(vals + [0] * slots)
                steps.charge_row(mults)
                if any(rem[:n]):
                    rem[n + len(std_keys)] = 1  # the candidate's own slot
                    echelon._append(rem)
                    std_here[m] = vals
                    std_keys.append((k, m))
                    continue
                slot_values = rem[n:n + len(std_keys)]
            tail = zip(reversed(std_keys), reversed(slot_values))
            # sized at once, see PolynomialRing._from_packed_dict
            terms = tuple([(k, m, 1)] + [(kk, mm, c) for (kk, mm), c in tail if c])
            new_gens.append(Polynomial(ring, terms))
        hf.append(len(std_here))
        elements.extend(new_gens)
        values = std_here
        if len(std_here) == n and not new_gens and hf[d - 1] == n:
            break
        if d > MAX_EXPONENT:
            raise _past_the_degree_limit(ps.c, n)
    _check_vanishing(ring, elements, ps)
    return BmResult(GroebnerBasis(ring, elements), tuple(hf), steps.limit - steps.remaining)


def _solver(echelon: Echelon, n: int):
    """The slots of the remainder of a row, n values followed by zero slots,
    against `echelon`, of rank n on the values: a function of the values.

    Each value column is a pivot, so the remainder is the values times the
    images of the value columns, which `Echelon.back_substitute` makes once,
    summed as one packed int and unpacked once; its multipliers against the
    reduced rows are the values themselves.
    """
    lanes, _, img = echelon.back_substitute(len(echelon.rows[0]))
    unpack, images = lanes.unpack, img[:n]
    return lambda vals: unpack(sum(map(mul, vals, images)))


def _last_degree(ring, coords, candidates, successors, values, solve, std_keys, steps):
    """The new elements of the first degree d with HF(d-1) = n when x_c,
    the last variable, vanishes at no point, read off degree d-1: `values`,
    the `_solver` of its echelon and `std_keys`, its standard monomials
    ascending.  A candidate that x_c divides is standard; any other, m = x_j
    times its parent, leads an element on x_c times those standard
    monomials, all below m under degrevlex, whose coefficients are the
    slots that `solve` gives for the values of m / x_c, the parent's times
    x_j / x_c.  Each row is charged by `_Budget.charge_row` with the values
    as its multipliers."""
    p = ring.field.p
    last = ring._var_monos[-1]
    guard = ring._guard
    inverse = [pow(v, -1, p) for v in coords[-1]]
    ratios = [[a * b % p for a, b in zip(col, inverse)] for col in coords]
    key = ring.key
    tail = [(key(m + last), m + last) for _, m in reversed(std_keys)]  # descending
    new_gens = []
    for k, m in candidates:
        # m - x_c borrows into the guard bit of x_c's field iff x_c does not divide m
        if not (m - last) & guard:
            continue
        parent, j = successors[m]
        vals = [a * b % p for a, b in zip(values[parent], ratios[j])]
        steps.charge_row(vals)
        coeffs = reversed(solve(vals))
        terms = tuple([(k, m, 1)] + [(kk, mm, c) for (kk, mm), c in zip(tail, coeffs) if c])
        new_gens.append(Polynomial(ring, terms))
    return new_gens


def _check_vanishing(ring, elements, ps: PointSet):
    """Every element vanishes at every point, evaluated from scratch: each
    distinct monomial once by `_monomial_values`, its values packed into
    lanes, and each element one packed sum of its terms; the points are
    walked only to name one where an element does not vanish."""
    p, n = ring.field.p, ps.n
    longest = max((len(g.terms) for g in elements), default=1)
    lanes = Lanes(p, n, longest * (p - 1) ** 2)
    monos = list(dict.fromkeys([m for g in elements for _, m, _ in g.terms]))
    values = _monomial_values([ring.unpack(m) for m in monos], ps)
    packed = dict(zip(monos, map(lanes.pack, values)))
    for g in elements:
        total = lanes.unpack(sum([c * packed[m] for _, m, c in g.terms]))
        if any(total):
            pt = ps.points[total.index(next(filter(None, total)))]
            raise RuntimeError(
                f"internal error: a vanishing-ideal element does not vanish at {pt}"
            )


def bm_result(
    ps: PointSet, order: MonomialOrder = DEGREVLEX, budget: int = DEFAULT_STEP_BUDGET
) -> BmResult:
    """The Buchberger-Moller result of the points under `order`: the one kept
    on the point set when it has the order, otherwise a fresh pass.  A kept
    result answers to the budget as the pass would have: one that took more
    steps than `budget` raises `BudgetExceededError`."""
    kept = ps.bm
    if kept is None or kept.basis.order != order:
        return _bm_run(ps, order, budget)
    if kept.steps > budget:
        raise BudgetExceededError(budget)
    return kept


def vanishing_ideal(
    ps: PointSet, order: MonomialOrder = DEGREVLEX, budget: int = DEFAULT_STEP_BUDGET
) -> GroebnerBasis:
    """Reduced Groebner basis of the homogeneous ideal of the points; every
    element is re-verified to vanish at every point.  A point set that kept
    its pass under `order` gives the basis it kept, the same object on every
    call."""
    return bm_result(ps, order, budget).basis


def _in_general_position(ps: PointSet, hf) -> bool:
    """Whether the coordinate-ring Hilbert function `hf` is the generic one,
    min(C(c+i, i), n), through its degree range."""
    return hf == tuple(min(comb(ps.c + i, i), ps.n) for i in range(len(hf)))


def _certified_general(ps: PointSet, budget: int):
    """`ps` keeping its degrevlex Buchberger-Moller result, if its coordinate
    ring has the generic Hilbert function; None otherwise."""
    result = _bm_run(ps, DEGREVLEX, budget)
    if not _in_general_position(ps, result.hf):
        return None
    return dataclasses.replace(ps, bm=result)


def general_points(
    c: int, n: int, p: int, seed, max_redraws: int = 10, budget: int = DEFAULT_STEP_BUDGET
):
    """Random points re-drawn until their coordinate ring has the generic
    Hilbert function.

    Returns (point set, number of redraws); the point set keeps the
    degrevlex Buchberger-Moller result that Hilbert function came from.
    Each redraw derives a fresh sub-seed deterministically from the
    previous one.
    """
    _check_counts(c, n)  # before the degree range, which assumes them
    _check_degree_range(c, n)  # before drawing the points
    for attempt in range(max_redraws + 1):
        drawn = random_points(c, n, p, (seed, attempt) if attempt else seed)
        ps = _certified_general(drawn, budget)
        if ps is not None:
            return ps, attempt
    raise RuntimeError(
        f"no general configuration of {n} points in P^{c} over GF({p}) "
        f"after {max_redraws} redraws (seed {seed})"
    )
