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

from .linalg import Echelon, combine, nullspace, rref
from .poly import Polynomial, PolynomialRing, substitute_all
from .groebner import (
    DEFAULT_STEP_BUDGET,
    GroebnerBasis,
    Ideal,
    _Budget,
    _reduce_terms,
    is_zero_dimensional,
    standard_monomials_packed,
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
class SocleElement:
    poly: Polynomial
    degree: int  # largest d with the element inside the d-th power of the maximal ideal


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
    socle: tuple  # SocleElement basis

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


class _QuotientStructure:
    """Standard-monomial model of an Artinian quotient: multiplication
    matrices and the filtration by powers of the maximal ideal."""

    def __init__(self, gb: GroebnerBasis, budget: int = DEFAULT_STEP_BUDGET):
        if not is_zero_dimensional(gb):
            raise ValueError("the quotient is not Artinian (ideal not zero-dimensional)")
        self.gb = gb
        self.ring = gb.ring
        levels = standard_monomials_packed(gb)
        self.basis = [m for level in levels for m in reversed(level)]
        if not self.basis:
            raise ValueError("the quotient is the zero ring")
        self.n = len(self.basis)
        self.pos = {m: i for i, m in enumerate(self.basis)}
        self._budget = _Budget(budget)
        self._columns = self._multiplication_columns()
        self._filtration = self._power_filtration()

    def _multiplication_columns(self):
        """Multiplication matrices, one per variable, as lists of columns."""
        ring = self.ring
        shift = ring._deg_shift
        columns = []
        for j in range(ring.nvars):
            unit = (1 << (8 * j)) + (1 << shift)
            cols = []
            for s in self.basis:
                mm = s + unit
                red = _reduce_terms(
                    ring, [(ring.key(mm), mm, 1)], self.gb.index(), self._budget
                )
                vec = [0] * self.n
                for m, c in red.items():
                    vec[self.pos[m]] = c
                cols.append(vec)
            columns.append(cols)
        return columns

    def _power_filtration(self):
        """Echelon forms of the images of the powers of the maximal ideal.
        The images are nested: one as large as the one before stays so, and
        then the quotient is not local (ValueError)."""
        p = self.ring.field.p
        spaces = []
        current = [vec for cols in self._columns for vec in cols]
        dim = self.n
        while True:
            space = Echelon(p)
            for vec in current:
                space.add(vec)
            if not space.rows:
                break
            if len(space.rows) == dim:
                raise ValueError(f"the quotient is not local: powers of m stop at dimension {dim}")
            dim = len(space.rows)
            spaces.append(space)
            current = [
                combine(row, cols, self.n, p) for row in space.rows for cols in self._columns
            ]
        return spaces  # spaces[d-1] spans the image of the d-th power

    @property
    def socle_degree(self) -> int:
        return len(self._filtration)

    def hilbert_function(self) -> HilbertFunction:
        dims = [self.n] + [len(space.rows) for space in self._filtration] + [0]
        return HilbertFunction(tuple(dims[d] - dims[d + 1] for d in range(len(dims) - 1)))

    def socle_kernel(self):
        """Kernel of multiplication by every variable, as coordinate vectors."""
        rows = []
        for cols in self._columns:
            for t in range(self.n):
                rows.append([cols[i][t] for i in range(self.n)])
        return nullspace(rows, self.n, self.ring.field.p)

    def socle_elements(self):
        """Socle basis adapted to the power filtration, with degree tags."""
        p = self.ring.field.p
        kernel = self.socle_kernel()
        seen = Echelon(p)
        tagged = []
        for d in range(len(self._filtration), 0, -1):
            # socle vectors inside the d-th power: solve within the kernel span
            coords = [self._filtration[d - 1].reduce(kv)[0] for kv in kernel]
            for combo in nullspace(list(zip(*coords)), len(kernel), p):
                vec = combine(combo, kernel, self.n, p)
                if seen.add(vec)[1] is not None:
                    tagged.append((vec, d))
        for kv in kernel:
            if seen.add(kv)[1] is not None:
                tagged.append((kv, 0))
        tagged.sort(key=lambda t: t[1])
        out = []
        for vec, d in tagged:
            poly = self.ring.poly({self.basis[i]: c for i, c in enumerate(vec) if c})
            out.append(SocleElement(poly, d))
        return out


# -- public operations ----------------------------------------------------------


def hilbert_function(gb: GroebnerBasis) -> HilbertFunction:
    """Standard-monomial counts per degree (the Hilbert function of the
    quotient by the leading-term ideal)."""
    levels = standard_monomials_packed(gb)
    if not levels:
        raise ValueError("the quotient is the zero ring")
    return HilbertFunction(tuple(len(level) for level in levels))


def length(gb: GroebnerBasis) -> int:
    """Length of the Artinian quotient, i.e. the standard-monomial count."""
    return sum(len(level) for level in standard_monomials_packed(gb))


def classify(gb: GroebnerBasis, budget: int = DEFAULT_STEP_BUDGET) -> InvariantReport:
    """Full invariant report of an Artinian quotient in any presentation
    (linear generators need no elimination); ValueError unless it is local."""
    q = _QuotientStructure(gb, budget)
    hf = q.hilbert_function()
    soc = q.socle_elements()
    degrees = tuple(sorted(e.degree for e in soc))
    s = hf.socle_degree
    c = hf.embedding_dimension
    tau = len(soc)
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
        socle=tuple(soc),
    )


def linear_substitution(ring: PolynomialRing, linear):
    """The substitution that sets the given linear forms to zero.

    Gaussian elimination on the forms picks pivot variables; each is
    assigned its expression in the remaining variables, which are kept.
    Returns the ring of the remaining variables and the assignment, ready
    for `substitute_all`.
    """
    rows = []
    for g in linear:
        row = [0] * ring.nvars
        for _, m, c in g.terms:
            exps = ring.unpack(m)
            row[exps.index(1)] = c
        rows.append(row)
    ech = rref(rows, ring.field.p)
    pivot_set = set(ech.pivots)
    remaining = [ring.vars[j] for j in range(ring.nvars) if j not in pivot_set]
    if not remaining:
        raise ValueError(
            "an ideal needs at least one nonzero generator "
            "(the linear forms span every variable)"
        )
    new_ring = PolynomialRing(ring.field, remaining, ring.order)
    assignment = {name: new_ring.var(name) for name in remaining}
    for col, row in zip(ech.pivots, ech.rows):
        expr = new_ring.zero
        for j in range(ring.nvars):
            if j != col and row[j]:
                expr = expr - new_ring.var(ring.vars[j]).scale(row[j])
        assignment[ring.vars[col]] = expr
    return new_ring, assignment


def eliminate_linear_forms(ideal: Ideal):
    """Remove the linear forms of a homogeneous ideal by substitution.

    The pivot variables of the degree-1 generators (see
    `linear_substitution`) are substituted away from every other generator.
    Returns the ideal in the smaller ring and the number of eliminated
    variables.
    """
    ring = ideal.ring
    for g in ideal.generators:
        if not g.is_homogeneous():
            raise ValueError("eliminate_linear_forms needs a homogeneous ideal")
    linear = [g for g in ideal.generators if g.degree == 1]
    rest = [g for g in ideal.generators if g.degree != 1]
    if not linear:
        return ideal, 0
    new_ring, assignment = linear_substitution(ring, linear)
    images = substitute_all(rest, assignment)
    return Ideal(new_ring, images), ring.nvars - new_ring.nvars
