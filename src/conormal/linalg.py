"""Dense linear algebra over GF(p) on lists of canonical int entries: the
one Gaussian elimination of the package, used by the invariants module and
the Buchberger-Moller vanishing ideal."""


class Echelon:
    """Row echelon form built one row at a time.

    Each row is monic at its pivot (its first nonzero entry) and zero at the
    pivots of the rows before it.  The pivot set is the set of leading
    positions of the row space, so it and every `reduce` remainder depend
    only on the span, not on the order the rows were added in.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots = []
        self.rows = []

    def reduce(self, vec):
        """(remainder, multipliers): the remainder is zero at every pivot and
        equals vec minus the sum of multipliers[i] * rows[i]."""
        p = self.p
        mults = []
        for col, row in zip(self.pivots, self.rows):
            c = vec[col]
            mults.append(c)
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
        return vec, mults

    def add(self, vec):
        """Reduce vec and append the remainder, made monic, as a new row.

        Returns (multipliers, scale), the multipliers as in `reduce` and the
        new row equal to scale * remainder; scale is None, and no row is
        added, when the remainder is zero.
        """
        p = self.p
        rem, mults = self.reduce(vec)
        col = next((i for i, c in enumerate(rem) if c), None)
        if col is None:
            return mults, None
        scale = pow(rem[col], -1, p)
        self.pivots.append(col)
        self.rows.append([c * scale % p for c in rem])
        return mults, scale


def combine(coeffs, vectors, n: int, p: int) -> list:
    """The length-n vector sum of coeffs[i] * vectors[i] over GF(p)."""
    out = [0] * n
    for a, vec in zip(coeffs, vectors):
        if a:
            out = [(x + a * y) % p for x, y in zip(out, vec)]
    return out


def rref(rows, p: int) -> Echelon:
    """Reduced row echelon form: pivots ascending, each row zero at every
    pivot but its own.  Zero rows are dropped."""
    ech = Echelon(p)
    for row in rows:
        ech.add(row)
    # last pivot first: a row is already zero left of its pivot, so clearing
    # it at the larger pivots before it gives the reduced form
    out = Echelon(p)
    for col, row in sorted(zip(ech.pivots, ech.rows), reverse=True):
        out.pivots.append(col)
        out.rows.append(out.reduce(row)[0])
    out.pivots.reverse()
    out.rows.reverse()
    return out


def nullspace(rows, ncols: int, p: int) -> list:
    """Basis of the right kernel of the matrix with the given rows and ncols
    columns: one vector per non-pivot column, 1 there and 0 at the others."""
    ech = rref(rows, p)
    pivot_set = set(ech.pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for col, row in zip(ech.pivots, ech.rows):
            vec[col] = -row[free] % p
        basis.append(vec)
    return basis
