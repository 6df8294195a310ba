"""Point configurations in projective space over GF(p): random generation,
vanishing ideals via degree-by-degree evaluation, and general-position
certificates.

The vanishing ideal is computed Buchberger-Moller style: in each degree the
candidate monomials are evaluated at the points; Gaussian elimination splits
them into standard monomials and new reduced basis elements.  The
candidates are the variable multiples of the previous degree's standard
monomials that no leading term found so far divides: the standard-monomial
walk of `groebner.standard_monomials_packed`, run against a leading-term
index that grows with each new element.  The loop runs until a degree
confirms the Hilbert function at n with no new generators, one degree past
the stabilization required of saturated point ideals, which also covers
special configurations whose initial ideal acquires late generators.  So it
reaches at least degree d0 + 1, d0 the first degree with C(c + d0, d0) >= n,
and a point count that puts d0 + 1 past the monomial degree limit is refused
before any evaluation; a configuration that climbs past the limit anyway,
such as many points on a line, raises when it gets there.  Each pass runs
under a step budget like Buchberger's.
"""

from dataclasses import dataclass
from math import comb
import random

from .field import PrimeField, stable_seed
from .poly import DEGREVLEX, MAX_EXPONENT, MonomialOrder, PolynomialRing
from .groebner import DEFAULT_STEP_BUDGET, GroebnerBasis, _Budget, _LtIndex, _standard_successors
from .linalg import Echelon, combine


@dataclass(frozen=True)
class PointSet:
    """n distinct points in P^c over GF(p), stored with first nonzero
    coordinate normalized to 1."""

    c: int
    p: int
    points: tuple
    seed: object = None

    @property
    def n(self) -> int:
        return len(self.points)

    def ring(self, order: MonomialOrder = DEGREVLEX) -> PolynomialRing:
        names = [f"x{i}" for i in range(self.c + 1)]
        return PolynomialRing(PrimeField(self.p), names, order)

    def to_text(self) -> str:
        lines = [f"P {self.c} {self.p} {self.n}"]
        lines.extend(" ".join(str(v) for v in pt) for pt in self.points)
        return "\n".join(lines)


@dataclass(frozen=True)
class GeneralPositionCertificate:
    """Comparison of the coordinate-ring Hilbert function against the generic
    one, min(C(c+i, i), n), through the computed degree range."""

    expected_hf: tuple
    computed_hf: tuple
    achieved: bool


def normalize_point(coords, field: PrimeField):
    coords = [v % field.p for v in coords]
    pivot = next((i for i, v in enumerate(coords) if v), None)
    if pivot is None:
        raise ValueError("the zero vector is not a projective point")
    inv = field.inv(coords[pivot])
    return tuple(v * inv % field.p for v in coords)


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


def random_points(c: int, n: int, p: int, seed) -> PointSet:
    """n distinct uniform points in P^c over GF(p); deterministic per seed."""
    if c < 1:
        raise ValueError(f"projective dimension must be at least 1, got {c}")
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
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


def _evaluate(monomial_exps, point, p):
    v = 1
    for e, x in zip(monomial_exps, point):
        if e:
            v = v * pow(x, e, p) % p
    return v


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


def _bm_run(ps: PointSet, order: MonomialOrder, budget: int):
    """Shared core: (ring, reduced basis elements, Hilbert function values).

    Each candidate row is charged to a fresh step budget by
    `_Budget.charge_row`.
    """
    _check_degree_range(ps.c, ps.n)
    steps = _Budget(budget)
    ring = ps.ring(order)
    p = ring.field.p
    n = ps.n
    key = ring.key

    index = _LtIndex(ring)  # leading terms of the elements found so far
    elements = []
    hf = [1]
    std_prev = [0]  # packed monomials, degree 0

    degree_cap = n + ps.c + 5
    d = 0
    while True:
        d += 1
        if d > degree_cap:
            raise RuntimeError(
                f"vanishing ideal loop passed degree {degree_cap}; "
                "this contradicts the regularity bound for point ideals"
            )
        # ascending: smallest first
        candidates = sorted(_standard_successors(ring, index, std_prev), key=key)
        # a row is the values at the points followed by its combination of
        # the candidates, the largest candidate first: the echelon keeps the
        # combinations, and when the values reduce to zero the first nonzero
        # entry is the candidate's own 1, so the row is a new basis element
        echelon = Echelon(p)
        new_gens = []
        std_here = []
        for k, m in enumerate(candidates):
            exps = ring.unpack(m)
            vec = [_evaluate(exps, pt, p) for pt in ps.points] + [0] * len(candidates)
            vec[-1 - k] = 1
            mults, _ = echelon.add(vec)
            steps.charge_row(mults)
            if echelon.pivots[-1] < n:
                std_here.append(m)
            else:
                combo = zip(reversed(candidates), echelon.rows[-1][n:])
                new_gens.append(ring.poly({mm: c for mm, c in combo if c}))
        hf.append(len(std_here))
        for g in new_gens:
            index.add(g)
            elements.append(g)
        std_prev = std_here
        if len(std_here) == n and not new_gens and hf[d - 1] == n:
            break
        if d > MAX_EXPONENT:
            raise _past_the_degree_limit(ps.c, n)
    # each distinct monomial is evaluated at the points once
    values = {}
    for g in elements:
        for _, m, _ in g.terms:
            if m not in values:
                exps = ring.unpack(m)
                values[m] = [_evaluate(exps, pt, p) for pt in ps.points]
    for g in elements:
        total = combine([cc for _, _, cc in g.terms], [values[m] for _, m, _ in g.terms], n, p)
        for pt, value in zip(ps.points, total):
            if value:
                raise RuntimeError(
                    "internal error: a vanishing-ideal element does not vanish "
                    f"at {pt}"
                )
    return ring, elements, tuple(hf)


def vanishing_ideal(
    ps: PointSet, order: MonomialOrder = DEGREVLEX, budget: int = DEFAULT_STEP_BUDGET
) -> GroebnerBasis:
    """Reduced Groebner basis of the homogeneous ideal of the points; every
    element is re-verified to vanish at every point."""
    ring, elements, _ = _bm_run(ps, order, budget)
    return GroebnerBasis(ring, elements)


def general_position_check(
    ps: PointSet, order: MonomialOrder = DEGREVLEX, budget: int = DEFAULT_STEP_BUDGET
) -> GeneralPositionCertificate:
    """Certify that the configuration achieves the generic Hilbert function."""
    _, _, hf = _bm_run(ps, order, budget)
    expected = tuple(min(comb(ps.c + i, i), ps.n) for i in range(len(hf)))
    return GeneralPositionCertificate(expected, hf, hf == expected)


def general_points(
    c: int, n: int, p: int, seed, max_redraws: int = 10, budget: int = DEFAULT_STEP_BUDGET
):
    """Random points re-drawn until the general-position certificate holds.

    Returns (point set, number of redraws).  Each redraw derives a fresh
    sub-seed deterministically from the previous one.
    """
    _check_degree_range(c, n)  # before drawing the points
    for attempt in range(max_redraws + 1):
        ps = random_points(c, n, p, (seed, attempt) if attempt else seed)
        if general_position_check(ps, budget=budget).achieved:
            return ps, attempt
    raise RuntimeError(
        f"no general configuration of {n} points in P^{c} over GF({p}) "
        f"after {max_redraws} redraws (seed {seed})"
    )


def parse_point_file(text: str) -> PointSet:
    """Parse the `P <c> <p> <n>` header plus one point per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty point file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "P":
        raise ValueError(f"malformed point header: {lines[0]!r}")
    c, p, n = int(header[1]), int(header[2]), int(header[3])
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} points, found {len(lines) - 1}")
    pts = []
    for ln in lines[1:]:
        coords = [int(tok) for tok in ln.split()]
        pts.append(coords)
    return make_point_set(c, p, pts)
