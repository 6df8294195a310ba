"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's optimized paths: order
comparison straight from the definitions, standard-monomial counts by raw
divisibility filtering, linear algebra by plain column-by-column
Gauss-Jordan elimination, vanishing ideals by solving the full evaluation
system degree by degree, the product of two ideals over every pair of
generators, setting a linear form to zero by expanding each term on its
own, a Groebner basis checked after the fact by reducing its S-pairs, the
eight seeded quadrics whose square never fills degree 4, with the sweep
that says so, and the 15 transcribed generators of the ideal of Example
6.1, which the vanishing ideal of its ten frozen points must reproduce.
"""

import hashlib
import random

import pytest

from conormal import (
    DEFAULT_STEP_BUDGET,
    DEGREVLEX,
    GroebnerBasis,
    Ideal,
    PolynomialRing,
    PrimeField,
)
from conormal.cm import _products, _sweep
from conormal.constructions import EXAMPLE61_PRIME
from conormal.field import derive_seed
from conormal.groebner import _Budget, _reduce_terms, _spoly_items


@pytest.fixture
def gf7():
    return PrimeField(7)


@pytest.fixture
def ring_xy(gf7):
    return PolynomialRing(gf7, ["x", "y"])


@pytest.fixture
def ring_xyz(gf7):
    return PolynomialRing(gf7, ["x", "y", "z"])


# -- setting a linear form to zero, term by term -------------------------------


def substitute_term_by_term(f, assignment, target):
    """The image of f under the ring map sending each variable to its value
    in `assignment`, a polynomial of `target`, each term expanded on its own."""
    out = target.zero
    for exps, (_, _, c) in zip(f.monomials(), f.terms):
        term = target.constant(c)
        for name, e in zip(f.ring.vars, exps):
            if e:
                term = term * assignment[name] ** e
        out = out + term
    return out


def quotient_term_by_term(polys, ell):
    """(S, images) for S = R/(ell), from the definitions: x_j, the first
    variable with a nonzero coefficient a_j in ell, goes to x_j - ell/a_j
    in the ring S of the other variables, every other variable to itself."""
    ring = ell.ring
    coeffs = [ell.coefficient(tuple(int(i == k) for i in range(ring.nvars))) for k in range(ring.nvars)]
    j = next(k for k, a in enumerate(coeffs) if a)
    target = PolynomialRing(ring.field, ring.vars[:j] + ring.vars[j + 1:], ring.order)
    assignment = {name: target.var(name) for name in target.vars}
    inv = pow(coeffs[j], -1, ring.field.p)
    assignment[ring.vars[j]] = sum(
        (target.var(name) * (-a * inv) for name, a in zip(ring.vars, coeffs) if a and name in assignment),
        target.zero,
    )
    return target, [substitute_term_by_term(f, assignment, target) for f in polys]


# -- order oracle: literal definitions on exponent tuples ----------------------


def oracle_compare(a, b, kind):
    """Definition-level comparison: no packing, no keys."""
    diffs = [x - y for x, y in zip(a, b)]
    if all(d == 0 for d in diffs):
        return 0
    if kind in ("degrevlex", "deglex"):
        da, db = sum(a), sum(b)
        if da != db:
            return 1 if da > db else -1
    if kind == "degrevlex":
        last = next(d for d in reversed(diffs) if d != 0)
        return 1 if last < 0 else -1
    first = next(d for d in diffs if d != 0)
    return 1 if first > 0 else -1


def exponents_up_to(nvars, max_degree):
    """Every exponent tuple of total degree at most max_degree."""
    out = [[]]
    for _ in range(nvars):
        out = [prefix + [e] for prefix in out for e in range(max_degree + 1)]
    return [tuple(t) for t in out if sum(t) <= max_degree]


# -- standard monomial oracle for monomial ideals ------------------------------


def monomial_quotient_standard(gen_exponents, nvars, degree_cap=40):
    """Standard monomials of a monomial ideal by raw divisibility filtering.

    Enumerates degree by degree until a degree is empty; no Groebner
    machinery involved.
    """

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    std = []
    d = 0
    while d <= degree_cap:
        level = [
            e
            for e in exponents_up_to(nvars, d)
            if sum(e) == d and not any(divides(g, e) for g in gen_exponents)
        ]
        if d > 0 and not level:
            return std
        std.extend(level)
        d += 1
    raise AssertionError("monomial quotient oracle ran past the degree cap")


# -- linear algebra oracle: plain Gauss-Jordan elimination over GF(p) -----------


def gauss_jordan(rows, ncols, p):
    """Reduced row echelon form, one column at a time.

    Returns (pivot columns ascending, reduced nonzero rows).
    """
    work = [[c % p for c in r] for r in rows]
    work = [r for r in work if any(r)]
    pivots = []
    reduced = []
    for col in range(ncols):
        pr = next((r for r in work if r[col]), None)
        if pr is None:
            continue
        work.remove(pr)
        inv = pow(pr[col], p - 2, p)
        pr = [c * inv % p for c in pr]
        work = [[(a - r[col] * b) % p for a, b in zip(r, pr)] for r in work]
        work = [r for r in work if any(r)]
        reduced = [[(a - r[col] * b) % p for a, b in zip(r, pr)] for r in reduced]
        pivots.append(col)
        reduced.append(pr)
    return pivots, reduced


class PlainEchelon:
    """The incremental echelon on plain lists, one full-row update per
    pivot with every entry reduced mod p at once: the reference for the
    multipliers and scales of the library's lane-packed `Echelon`."""

    def __init__(self, p):
        self.p = p
        self.pivots = []
        self.rows = []

    def reduce(self, vec):
        p = self.p
        mults = []
        for col, row in zip(self.pivots, self.rows):
            c = vec[col]
            mults.append(c)
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
        return vec, mults

    def add(self, vec):
        p = self.p
        rem, mults = self.reduce(vec)
        col = next((i for i, c in enumerate(rem) if c), None)
        if col is None:
            return mults, None
        scale = pow(rem[col], p - 2, p)
        self.pivots.append(col)
        self.rows.append([c * scale % p for c in rem])
        return mults, scale


def gauss_jordan_nullspace(rows, ncols, p):
    """Right kernel basis: one vector per free column, read off the RREF."""
    pivots, reduced = gauss_jordan(rows, ncols, p)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for col, row in zip(pivots, reduced):
            vec[col] = -row[free] % p
        basis.append(vec)
    return basis


# -- one-shot vanishing ideal oracle --------------------------------------------


def oneshot_vanishing_kernels(ps, max_degree, order=DEGREVLEX):
    """Kernel of the full degree-d evaluation matrix for every d <= max_degree.

    Returns {degree: list of polynomials in the ring of `order`}, computed by
    plain Gaussian elimination on all monomials at once (no candidate
    filtering).
    """
    ring = ps.ring(order)
    p = ring.field.p
    out = {}
    for d in range(1, max_degree + 1):
        monos = ring.monomials_of_degree(d)
        rows = []
        for pt in ps.points:
            row = []
            for m in monos:
                exps = ring.unpack(m)
                v = 1
                for e, x in zip(exps, pt):
                    if e:
                        v = v * pow(x, e, p) % p
                row.append(v)
            rows.append(row)
        kernel = gauss_jordan_nullspace(rows, len(monos), p)
        polys = []
        for vec in kernel:
            polys.append(ring.poly({monos[k]: c for k, c in enumerate(vec) if c}))
        out[d] = polys
    return out


def count_standard_of_degree(gb, d):
    """Degree-d monomials outside the leading-term ideal, by raw filtering
    (works for non-Artinian ideals, unlike the library path)."""
    ring = gb.ring
    lts = [ring.unpack(m) for m in gb.leading_monomials()]

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    count = 0
    for e in exponents_up_to(ring.nvars, d):
        if sum(e) == d and not any(divides(g, e) for g in lts):
            count += 1
    return count


def successors_by_divisor_scan(ring, lts, level):
    """The variable multiples of the monomials of `level` that no monomial
    of `lts` divides, each tested against every one of them on exponent
    tuples; each maps to the first (monomial, variable index), in the order
    of `level`, it is reached from."""
    divisors = [ring.unpack(lt) for lt in lts]
    first = {}
    for m in level:
        e = ring.unpack(m)
        for j in range(ring.nvars):
            first.setdefault(ring.pack(e[:j] + (e[j] + 1,) + e[j + 1:]), (m, j))
    return {
        mm: source
        for mm, source in first.items()
        if not any(all(a <= b for a, b in zip(g, ring.unpack(mm))) for g in divisors)
    }


# -- ideal product oracle: every pair of generators -----------------------------


def ideal_product(a, b):
    """The products of every generator of `a` with every generator of `b`,
    duplicates dropped: the unpruned route that `ideal_square` must match."""
    if a.ring != b.ring:
        raise ValueError("ideal product across different rings")
    gens, seen = [], set()
    for f in a.generators:
        for g in b.generators:
            h = f * g
            if h.terms not in seen:
                seen.add(h.terms)
                gens.append(h)
    return Ideal(a.ring, gens)


# -- Groebner basis oracle: every S-pair reduced after the fact -----------------


def verify_groebner(gb: GroebnerBasis) -> bool:
    """Post-hoc Buchberger criterion: every S-polynomial reduces to zero and the
    basis is reduced.  Skipped: coprime pairs, and a pair whose lcm a third
    leading term divides with both lcms with that term proper divisors of
    it (strict chain criterion; the lcm drops along a chain, so it holds for
    all pairs judged at once)."""
    ring = gb.ring
    els = gb.elements
    for f in els:
        if f.terms[0][2] != 1:
            return False
    lts = [f.terms[0][1] for f in els]
    for i, f in enumerate(els):
        for _, m, _ in f.terms:
            for j, lt in enumerate(lts):
                if ring.mono_divides(lt, m) and not (j == i and m == lts[i]):
                    return False
    guard = ring._guard
    lcms = [[ring.mono_lcm(a, b) for b in lts] for a in lts]
    counter = _Budget(DEFAULT_STEP_BUDGET)
    for i, f in enumerate(els):
        for j in range(i + 1, len(els)):
            l = lcms[i][j]
            if l == lts[i] + lts[j]:
                continue
            lg = l | guard
            if any(
                (lg - lt) & guard == guard and lcms[i][k] != l and lcms[j][k] != l
                for k, lt in enumerate(lts)
            ):
                continue
            if _reduce_terms(ring, _spoly_items(ring, f, els[j]), gb.index(), counter):
                return False
    return True


# -- eight quadrics whose square never fills degree 4 ----------------------------


def seeded_quadrics(seed, p):
    """(ring, quadrics): eight nonzero random quadrics in 4 variables over
    GF(p), drawn from a seed."""
    ring = PolynomialRing(PrimeField(p), ["x1", "x2", "x3", "x4"])
    rng = random.Random(derive_seed(seed, "quadrics"))
    quadrics = []
    while len(quadrics) < 8:
        f = ring.poly({m: rng.randrange(p) for m in ring.monomials_of_degree(2)})
        if not f.is_zero():
            quadrics.append(f)
    return ring, quadrics


def sweep_square_gap(ring, quadrics):
    """The square has a standard monomial in degree 4.  The square is
    generated in degree 4, so that is a sweep whose rank there is below
    dim S_4."""
    *_, (d, standard, _, _) = _sweep(ring, 4, _Budget(DEFAULT_STEP_BUDGET), _products(quadrics))
    assert d == 4
    return bool(standard)


# -- the transcribed ideal of Example 6.1 ---------------------------------------

# The 15 generators of the ideal of 10 general points in P^5 over GF(31991),
# as the paper's example gives them.  The text is frozen; the checksum guards
# the transcription.
EXAMPLE61_VARS = ("a", "b", "c", "d", "e", "f")
EXAMPLE61_TEXT = """\
e^2*f + 2963*b*f^2 + 4964*c*f^2 + 5333*d*f^2 - 13261*e*f^2
a*f - 13894*b*f + 12842*c*f + 4036*d*f - 2985*e*f
d*e + 3056*b*f + 12160*c*f + 971*d*f + 15803*e*f
c*e - 2357*b*f - 14460*c*f + 3040*d*f + 13776*e*f
b*e - 8504*b*f + 1159*c*f - 1581*d*f + 8925*e*f
a*e - 9147*b*f + 1379*c*f + 4167*d*f + 3600*e*f
c*d + 7380*b*f + 5885*c*f + 6255*d*f + 12470*e*f
b*d - 11676*b*f - 2833*c*f - 13277*d*f - 4206*e*f
a*d + 5555*b*f + 2017*c*f + 2100*d*f - 9673*e*f
b*c + 5653*b*f - 6596*c*f - 8208*d*f + 9150*e*f
a*c - 2335*b*f - 10387*c*f + 514*d*f + 12207*e*f
a*b - 8324*b*f - 7688*c*f - 4252*d*f - 11728*e*f
b^2*f + 15536*b*f^2 + 1265*c*f^2 + 9888*d*f^2 + 5301*e*f^2
d^2*f + 10625*b*f^2 - 11725*c*f^2 + 9514*d*f^2 - 8415*e*f^2
c^2*f + 11390*b*f^2 + 7112*c*f^2 - 10319*d*f^2 - 8184*e*f^2"""
EXAMPLE61_TEXT_SHA256 = "1d572928f885a0837a19df46f5584e6a77680e471db74313aaee5914ba26de2f"


def example61_ideal():
    """The transcribed ideal in GF(31991)[a..f], after a checksum check."""
    if hashlib.sha256(EXAMPLE61_TEXT.encode()).hexdigest() != EXAMPLE61_TEXT_SHA256:
        raise AssertionError("the transcribed text of Example 6.1 was altered")
    ring = PolynomialRing(PrimeField(EXAMPLE61_PRIME), EXAMPLE61_VARS, DEGREVLEX)
    gens = [ring.parse(line, line=i + 1) for i, line in enumerate(EXAMPLE61_TEXT.splitlines())]
    return Ideal(ring, gens)
