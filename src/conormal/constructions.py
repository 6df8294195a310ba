"""Ideal builders: stretched Artinian ideals in their normal form,
the monomial comparison ideal L, power truncations, and the frozen
10-points-in-P5 benchmark ideal over GF(31991).
"""

import hashlib
from dataclasses import dataclass

from .field import PrimeField
from .poly import DEGREVLEX, PolynomialRing
from .groebner import Ideal


@dataclass(frozen=True)
class StretchedSpec:
    """Parameters of a stretched Artinian quotient: embedding codimension c,
    socle degree s, and type r+1; the units enter the binomial generators."""

    c: int
    s: int
    r: int
    units: tuple = ()

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"c must be at least 1, got {self.c}")
        if self.s < 2:
            raise ValueError(f"socle degree must be at least 2, got {self.s}")
        if not 0 <= self.r <= self.c - 1:
            raise ValueError(f"r must lie in [0, {self.c - 1}], got {self.r}")
        expected = max(self.c - 1 - self.r, 0)
        units = self.units if self.units else tuple([1] * expected)
        if len(units) != expected:
            raise ValueError(f"expected {expected} units, got {len(units)}")
        object.__setattr__(self, "units", tuple(units))


def truncation(ring: PolynomialRing, d: int):
    """All monomials of total degree d, as polynomials."""
    if d < 1:
        raise ValueError(f"truncation degree must be positive, got {d}")
    return [ring.monomial(m) for m in ring.monomials_of_degree(d)]


def stretched_ideal(spec: StretchedSpec, ring: PolynomialRing) -> Ideal:
    """The normal-form ideal of a stretched quotient with the given
    invariants, with the full power truncation in degree s+1 adjoined so the
    polynomial quotient is Artinian with the prescribed local invariants."""
    c, s, r = spec.c, spec.s, spec.r
    if ring.nvars != c:
        raise ValueError(f"ring has {ring.nvars} variables, spec needs {c}")
    p = ring.field.p
    units = [u % p for u in spec.units]
    if any(u == 0 for u in units):
        raise ValueError("units must be nonzero in the field")
    x = ring.gens()
    gens = []
    seen = set()

    def push(g):
        if not g.is_zero() and g.terms not in seen:
            seen.add(g.terms)
            gens.append(g)

    for i in range(r):
        for j in range(c):
            push(x[i] * x[j])
    if r < c - 1:
        for i in range(r, c):
            for j in range(i + 1, c):
                push(x[i] * x[j])
        xc_s = x[c - 1] ** s
        for i in range(c - 1 - r):
            push(xc_s - x[r + i] * x[r + i] * units[i])
    else:
        push(x[c - 1] ** (s + 1))
    for t in truncation(ring, s + 1):
        push(t)
    return Ideal(ring, gens)


def ideal_L(c: int, s: int, ring: PolynomialRing) -> Ideal:
    """The monomial comparison ideal containing the square of every stretched
    ideal with these invariants: (x_1..x_{c-1})H + (x_1..x_{c-1})x_c^{s+1}
    + (x_c^{2s}), with H all degree-3 monomials except x_c^3."""
    if c < 2:
        raise ValueError(f"c must be at least 2, got {c}")
    if s < 2:
        raise ValueError(f"s must be at least 2, got {s}")
    if ring.nvars != c:
        raise ValueError(f"ring has {ring.nvars} variables, expected {c}")
    x = ring.gens()
    xc_cubed = (x[c - 1] ** 3).terms
    H = [ring.monomial(m) for m in ring.monomials_of_degree(3)]
    H = [h for h in H if h.terms != xc_cubed]
    gens = []
    seen = set()
    for i in range(c - 1):
        for h in H:
            g = x[i] * h
            if g.terms not in seen:
                seen.add(g.terms)
                gens.append(g)
    xc_s1 = x[c - 1] ** (s + 1)
    for i in range(c - 1):
        g = x[i] * xc_s1
        if g.terms not in seen:
            seen.add(g.terms)
            gens.append(g)
    gens.append(x[c - 1] ** (2 * s))
    return Ideal(ring, gens)


# The 15 generators of the benchmark ideal of 10 general points in P^5 over
# GF(31991).  The text is frozen; the checksum guards the transcription.
EXAMPLE61_PRIME = 31991
EXAMPLE61_VARS = ("a", "b", "c", "d", "e", "f")
_EXAMPLE61_TEXT = """\
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
_EXAMPLE61_SHA256 = "1d572928f885a0837a19df46f5584e6a77680e471db74313aaee5914ba26de2f"


def example61_text_checksum() -> str:
    return hashlib.sha256(_EXAMPLE61_TEXT.encode()).hexdigest()


def example61_ideal(ring: PolynomialRing = None) -> Ideal:
    """The benchmark ideal, parsed from the frozen text after a checksum check."""
    if example61_text_checksum() != _EXAMPLE61_SHA256:
        raise ValueError(
            "benchmark ideal text failed its checksum; the transcription was altered"
        )
    if ring is None:
        ring = PolynomialRing(PrimeField(EXAMPLE61_PRIME), EXAMPLE61_VARS, DEGREVLEX)
    if ring.field.p != EXAMPLE61_PRIME:
        raise ValueError(f"the benchmark ideal lives over GF({EXAMPLE61_PRIME})")
    if ring.vars != EXAMPLE61_VARS:
        raise ValueError(f"the benchmark ideal needs variables {EXAMPLE61_VARS}")
    gens = [
        ring.parse(line, line=i + 1)
        for i, line in enumerate(_EXAMPLE61_TEXT.splitlines())
    ]
    return Ideal(ring, gens)
