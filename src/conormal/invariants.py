"""Hilbert functions, socles, lengths, types and the Gorenstein / level /
stretched / short classification of Artinian quotients.

The classification works through the filtration by powers of the maximal
ideal, computed with multiplication matrices on the standard-monomial
basis.  For homogeneous ideals this agrees with the graded Hilbert
function; for the inhomogeneous truncated ideals built by the
constructions module it yields the correct local invariants, which the
leading-term ideal alone does not (a high-degree leading term can hide a
low-degree initial form).
"""

from dataclasses import dataclass
from math import comb

from .linalg import Echelon, Lanes
from .poly import quotient_by_linear_form
from .groebner import (
    DEFAULT_STEP_BUDGET,
    GroebnerBasis,
    Ideal,
    _Budget,
    _reduce_terms,
    _standard_levels,
    is_zero_dimensional,
)


@dataclass(frozen=True)
class HilbertFunction:
    """Hilbert function values (HF(0), ..., HF(s)) of an Artinian quotient."""

    values: tuple

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValueError(f"Hilbert function must start with 1, got {self.values}")
        if any(v <= 0 for v in self.values):
            raise ValueError(f"Hilbert function has a nonpositive entry: {self.values}")

    @property
    def socle_degree(self) -> int:
        return len(self.values) - 1

    @property
    def length(self) -> int:
        return sum(self.values)

    @property
    def embedding_dimension(self) -> int:
        return self.values[1] if len(self.values) > 1 else 0

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i] if 0 <= i < len(self.values) else 0

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


@dataclass(frozen=True)
class InvariantReport:
    hf: HilbertFunction
    length: int
    c: int
    s: int
    tau: int
    gorenstein: bool
    level: bool
    stretched: bool
    short: bool
    socle_degrees: tuple  # sorted multiset

    def to_text(self) -> str:
        lines = [
            f"hf: {' '.join(str(v) for v in self.hf.values)}",
            f"lambda: {self.length}",
            f"c: {self.c}",
            f"s: {self.s}",
            f"tau: {self.tau}",
            f"gorenstein: {str(self.gorenstein).lower()}",
            f"level: {str(self.level).lower()}",
            f"stretched: {str(self.stretched).lower()}",
            f"short: {str(self.short).lower()}",
            f"socle_degrees: {' '.join(str(d) for d in self.socle_degrees)}",
        ]
        return "\n".join(lines)


# -- the filtration engine -----------------------------------------------------


def _multiplication_columns(gb: GroebnerBasis, budget: int):
    """(n, columns): the dimension n of the quotient and its multiplication
    matrices on the standard-monomial basis, one per variable, each a list
    of n columns."""
    if not is_zero_dimensional(gb):
        raise ValueError("the quotient is not Artinian (ideal not zero-dimensional)")
    ring = gb.ring
    basis = [m for level in _standard_levels(gb) for m in sorted(level, key=ring.key)]
    if not basis:
        raise ValueError("the quotient is the zero ring")
    n = len(basis)
    pos = {m: i for i, m in enumerate(basis)}
    steps = _Budget(budget)
    index = gb.index()
    columns = []
    for unit in ring._var_monos:
        cols = []
        for s in basis:
            mm = s + unit
            red = _reduce_terms(ring, [(ring.key(mm), mm, 1)], index, steps)
            vec = [0] * n
            for m, c in red.items():
                vec[pos[m]] = c
            cols.append(vec)
        columns.append(cols)
    return n, columns


# -- public operations ----------------------------------------------------------


def length(gb: GroebnerBasis) -> int:
    """Length of the Artinian quotient, i.e. the standard-monomial count."""
    if not is_zero_dimensional(gb):
        raise ValueError("standard monomials require a zero-dimensional ideal")
    return sum(len(level) for level in _standard_levels(gb))


def classify(gb: GroebnerBasis, budget: int = DEFAULT_STEP_BUDGET) -> InvariantReport:
    """Full invariant report of an Artinian quotient A in any presentation
    (linear generators need no elimination); ValueError unless it is local.

    Every invariant is a dimension, read from ranks in one pass over the
    images m^d in A of the powers of the maximal ideal, from m^0 = A.  For
    each basis vector u of m^d the pass forms x_1 u, ..., x_v u, whose span
    is m^(d+1); so hf(d) = dim m^d - dim m^(d+1).  The socle inside m^d is
    the kernel of u -> (x_1 u, ..., x_v u) on m^d: its dimension is dim m^d
    less the rank of the concatenated images, and tau is that at d = 0.  In
    a socle basis adapted to the filtration the degree d occurs
    dim(soc & m^d) - dim(soc & m^(d+1)) times.  When a nonzero m^d has an
    m^(d+1) as large, the quotient is not local.
    """
    n, columns = _multiplication_columns(gb, budget)
    p = gb.ring.field.p
    # x_j u is one packed sum of columns of x_j, each adding at most (p-1)^2
    lanes = Lanes(p, n, n * (p - 1) ** 2)
    packed = [[lanes.pack(col) for col in cols] for cols in columns]
    dims, socle = [], []  # dim m^d and dim(soc & m^d), d = 0, 1, ...
    images = [[cols[i] for cols in columns] for i in range(n)]  # of the unit vectors of A
    while images:
        dim = len(images)
        relations, power = Echelon(p), Echelon(p)
        for row in images:
            relations.add([c for vec in row for c in vec])
            for vec in row:
                power.add(vec)
        if len(power.rows) == dim:
            raise ValueError(f"the quotient is not local: powers of m stop at dimension {dim}")
        dims.append(dim)
        socle.append(dim - len(relations.rows))
        images = [[lanes.unpack(sum(a * col for a, col in zip(u, cols) if a)) for cols in packed]
                  for u in power.rows]
    dims.append(0)
    socle.append(0)
    hf = HilbertFunction(tuple(dims[d] - dims[d + 1] for d in range(len(dims) - 1)))
    degrees = tuple(d for d in range(len(socle) - 1) for _ in range(socle[d] - socle[d + 1]))
    s = hf.socle_degree
    c = hf.embedding_dimension
    tau = socle[0]
    stretched = s >= 1 and all(hf[i] == 1 for i in range(2, s + 1))
    short = all(hf[j] == comb(c - 1 + j, j) for j in range(s))
    return InvariantReport(
        hf=hf,
        length=hf.length,
        c=c,
        s=s,
        tau=tau,
        gorenstein=(tau == 1),
        level=all(d == s for d in degrees),
        stretched=stretched,
        short=short,
        socle_degrees=degrees,
    )


def eliminate_linear_forms(ideal: Ideal):
    """Remove the linear forms of a homogeneous ideal by substitution.

    The degree-1 generators are set to zero one at a time by
    `quotient_by_linear_form`, each in the ring the ones before it left
    and skipped when its image there is zero, so the eliminated variables
    are the pivots of the reduced row echelon form of the linear forms.
    Returns the ideal of the images of the other generators in the
    smaller ring and the number of eliminated variables; ValueError when
    the linear forms span every variable, which leaves no polynomial ring.
    """
    for g in ideal.generators:
        if not g.is_homogeneous():
            raise ValueError("eliminate_linear_forms needs a homogeneous ideal")
    linear = [g for g in ideal.generators if g.degree == 1]
    rest = [g for g in ideal.generators if g.degree != 1]
    if not linear:
        return ideal, 0
    ring = ideal.ring
    while linear:
        ell, *linear = linear
        if ell.is_zero():
            continue
        ring, images = quotient_by_linear_form(linear + rest, ell)
        linear, rest = images[:len(linear)], images[len(linear):]
    return Ideal(ring, rest), ideal.ring.nvars - ring.nvars
