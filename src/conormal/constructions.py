"""Ideal builders: stretched Artinian ideals in their normal form, the
monomial comparison ideal L and power truncations; and the ten frozen points
of Example 6.1 in P^5 over GF(31991), whose vanishing ideal is the paper's
homogeneous counterexample.
"""

import hashlib
from dataclasses import dataclass

from .poly import PolynomialRing
from .groebner import Ideal
from .points import PointSet, make_point_set


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
    gens = [x[i] * x[j] for i in range(r) for j in range(c)]
    if r < c - 1:
        gens += [x[i] * x[j] for i in range(r, c) for j in range(i + 1, c)]
        xc_s = x[c - 1] ** s
        gens += [xc_s - x[r + i] * x[r + i] * units[i] for i in range(c - 1 - r)]
    else:
        gens.append(x[c - 1] ** (s + 1))
    return Ideal(ring, gens + truncation(ring, s + 1))


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
    xc_s1 = x[c - 1] ** (s + 1)
    gens = [x[i] * h for i in range(c - 1) for h in H]
    gens += [x[i] * xc_s1 for i in range(c - 1)]
    gens.append(x[c - 1] ** (2 * s))
    return Ideal(ring, gens)


# The ten points of Example 6.1 in P^5 over GF(31991), whose vanishing ideal
# is the paper's level, non-Gorenstein ideal with a Cohen-Macaulay square:
# the six coordinate points, (1, ..., 1) and three more.  The coordinates are
# frozen; the checksum guards the transcription.
EXAMPLE61_PRIME = 31991
EXAMPLE61_POINTS = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (1, 1, 1, 1, 1, 1),
    (1586, 24082, 8928, 6403, 6599, 1),
    (21691, 23911, 14730, 25646, 13626, 1),
    (21724, 11400, 7527, 12406, 15028, 1),
)
_EXAMPLE61_SHA256 = "14f1b8a4f18a4235321ac9587b358f489a8a3e8c4c6cbc627485ba1a46a9e2a7"


def example61_checksum() -> str:
    """SHA-256 of the frozen points, one line of coordinates per point."""
    text = "\n".join(" ".join(map(str, pt)) for pt in EXAMPLE61_POINTS)
    return hashlib.sha256(text.encode()).hexdigest()


def example61_points() -> PointSet:
    """The points of Example 6.1, after a checksum check."""
    if example61_checksum() != _EXAMPLE61_SHA256:
        raise ValueError(
            "the points of Example 6.1 failed their checksum; the transcription was altered"
        )
    return make_point_set(5, EXAMPLE61_PRIME, EXAMPLE61_POINTS)
