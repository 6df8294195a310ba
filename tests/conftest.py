"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's optimized paths: order
comparison straight from the definitions, standard-monomial counts by raw
divisibility filtering, linear algebra by plain column-by-column
Gauss-Jordan elimination, vanishing ideals by solving the full evaluation
system degree by degree, the product of two ideals over every pair of
generators, and the 15 transcribed generators of the ideal of Example 6.1,
which the vanishing ideal of its ten frozen points must reproduce.
"""

import hashlib

import pytest

from conormal import DEGREVLEX, Ideal, PrimeField, PolynomialRing
from conormal.constructions import EXAMPLE61_PRIME


@pytest.fixture
def gf7():
    return PrimeField(7)


@pytest.fixture
def ring_xy(gf7):
    return PolynomialRing(gf7, ["x", "y"])


@pytest.fixture
def ring_xyz(gf7):
    return PolynomialRing(gf7, ["x", "y", "z"])


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


def oneshot_vanishing_kernels(ps, max_degree):
    """Kernel of the full degree-d evaluation matrix for every d <= max_degree.

    Returns {degree: list of polynomials}, computed by plain Gaussian
    elimination on all monomials at once (no candidate filtering).
    """
    ring = ps.ring()
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
