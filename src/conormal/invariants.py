"""Hilbert functions, socles, lengths, types and the Gorenstein / level /
stretched / short classification of Artinian quotients.

The input picks one of two routes.  A homogeneous basis gives a graded
quotient A, whose power filtration is its grading, m^d = A_(>=d): the
Hilbert function is the number of standard monomials of each degree, and
the socle is read degree by degree, one small rank per degree below the
top.  Any other basis goes through the filtration by powers of the maximal
ideal, computed with multiplication matrices on the standard-monomial
basis; for the inhomogeneous truncated ideals built by the constructions
module it yields the correct local invariants, which the leading-term
ideal alone does not (a high-degree leading term can hide a low-degree
initial form).  On a homogeneous basis the two routes agree, and the
tests hold the graded one to the filtration.
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


# -- the two engines -----------------------------------------------------------


def _standard_by_degree(gb: GroebnerBasis):
    """The levels of `_standard_levels`, degree 0 first, as a list;
    ValueError unless the quotient is Artinian and nonzero."""
    if not is_zero_dimensional(gb):
        raise ValueError("the quotient is not Artinian (ideal not zero-dimensional)")
    levels = list(_standard_levels(gb))
    if not levels:
        raise ValueError("the quotient is the zero ring")
    return levels


def _times_variable(ring, mm, standard, index, steps):
    """The normal form, as {monomial: coeff}, of mm, a standard monomial
    times a variable; `standard` holds every standard monomial of mm's
    degree.  A standard mm is its own normal form.  A leading monomial's is
    minus the tail of its element, charged one step, as `_reduce_terms`
    charges it: in a reduced basis no other leading monomial divides it,
    and its tail is standard.  Anything else goes through `_reduce_terms`."""
    if mm in standard:
        return {mm: 1}
    hit = index.reducers.get(mm)
    if hit is None:
        return _reduce_terms(ring, [(ring.key(mm), mm, 1)], index, steps)
    steps.charge()
    p = ring.field.p
    return {m: p - c for m, c in hit[1]}


def _multiplication_columns(gb: GroebnerBasis, budget: int):
    """(n, columns): the dimension n of the quotient and its multiplication
    matrices on the standard-monomial basis, one per variable, each a list
    of n columns."""
    ring = gb.ring
    basis = [m for level in _standard_by_degree(gb) for m in sorted(level, key=ring.key)]
    n = len(basis)
    pos = {m: i for i, m in enumerate(basis)}
    steps = _Budget(budget)
    index = gb.index()
    columns = []
    for unit in ring._var_monos:
        cols = []
        for s in basis:
            vec = [0] * n
            for m, c in _times_variable(ring, s + unit, pos, index, steps).items():
                vec[pos[m]] = c
            cols.append(vec)
        columns.append(cols)
    return n, columns


def _filtration_socle(gb: GroebnerBasis, budget: int):
    """(hf, socle) of any local Artinian quotient A, read from ranks in one
    pass over the images m^d in A of the powers of the maximal ideal, from
    m^0 = A: hf[d] is the Hilbert function and socle[d] the number of
    degree-d elements in a socle basis adapted to the filtration.

    For each basis vector u of m^d the pass forms x_1 u, ..., x_v u, whose
    span is m^(d+1); so hf(d) = dim m^d - dim m^(d+1).  The socle inside m^d
    is the kernel of u -> (x_1 u, ..., x_v u) on m^d: its dimension is
    dim m^d less the rank of the concatenated images, and the degree d
    occurs dim(soc & m^d) - dim(soc & m^(d+1)) times.  When a nonzero m^d
    has an m^(d+1) as large, the quotient is not local: ValueError.
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
        relations, power = Echelon(p, n * len(columns)), Echelon(p, n)
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
    return ([dims[d] - dims[d + 1] for d in range(len(dims) - 1)],
            [socle[d] - socle[d + 1] for d in range(len(socle) - 1)])


def _graded_socle(gb: GroebnerBasis, budget: int):
    """(hf, socle) as `_filtration_socle` gives them, for a homogeneous
    basis, degree by degree.  A is graded and m^d = A_(>=d), so hf[d] is the
    number of standard monomials of degree d, and socle[d] is the dimension
    of soc(A)_d, the kernel of A_d -> A_(d+1)^v, u -> (x_1 u, ..., x_v u):
    hf[d] less the rank of one row per standard monomial of degree d, v
    blocks of hf[d+1] entries.  The top degree is all socle."""
    levels = _standard_by_degree(gb)
    ring = gb.ring
    p, xs = ring.field.p, ring._var_monos
    steps = _Budget(budget)
    index = gb.index()
    socle = []
    for level, above in zip(levels, levels[1:]):
        h = len(above)
        pos = {m: i for i, m in enumerate(above)}
        ech = Echelon(p, len(xs) * h)
        for s in level:
            row = [0] * (len(xs) * h)
            for j, x in enumerate(xs):
                at = j * h
                for m, c in _times_variable(ring, s + x, pos, index, steps).items():
                    row[at + pos[m]] = c
            mults, _ = ech.add(row)
            steps.charge_row(mults)
        socle.append(len(level) - len(ech.rows))
    socle.append(len(levels[-1]))
    return [len(level) for level in levels], socle


# -- public operations ----------------------------------------------------------


def length(gb: GroebnerBasis) -> int:
    """Length of the Artinian quotient, i.e. the standard-monomial count."""
    if not is_zero_dimensional(gb):
        raise ValueError("standard monomials require a zero-dimensional ideal")
    return sum(len(level) for level in _standard_levels(gb))


def classify(gb: GroebnerBasis, budget: int = DEFAULT_STEP_BUDGET) -> InvariantReport:
    """Full invariant report of an Artinian quotient A in any presentation
    (linear generators need no elimination); ValueError unless it is local.

    Every invariant is a dimension, read from the Hilbert function and the
    number of socle elements of each degree, tau their sum.  The input
    chooses the route.  When every basis element is homogeneous, A is
    graded and `_graded_socle` reads them degree by degree: one rank per
    degree below the top, of one row per standard monomial.  Otherwise
    `_filtration_socle` reads them over the powers of the maximal ideal.
    Both take the product of a standard monomial and a variable to its
    normal form through `_times_variable`, whose reduction steps are
    charged to one `_Budget` of `budget` steps per call; the graded route
    also charges each socle row by `_Budget.charge_row`, and the filtration
    route, which forms the products of every standard monomial, the top
    degree included, charges its echelons nothing.
    """
    graded = all(g.is_homogeneous() for g in gb.elements)
    values, socle = (_graded_socle if graded else _filtration_socle)(gb, budget)
    hf = HilbertFunction(tuple(values))
    degrees = tuple([d for d, k in enumerate(socle) for _ in range(k)])
    s = hf.socle_degree
    c = hf.embedding_dimension
    tau = len(degrees)
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
