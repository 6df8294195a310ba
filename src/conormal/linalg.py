"""Dense linear algebra over GF(p): the one Gaussian elimination of the
package, used by the square verdict's degree sweep, the invariants module
and the Buchberger-Moller vanishing ideal, which reduces each candidate
first and appends its remainder as a row only when it is standard.  Its
one back-substitution, `Echelon.back_substitute`, reads the reduced rows
off an echelon without a second elimination: the sweep takes the normal
forms it hands on from it, and the vanishing ideal solves each candidate
that comes after its echelon has reached full rank on the values with one
packed product over it.

Vectors go in and come out as lists of canonical ints in [0, p).  Inside
`Echelon` each row is also one Python int with a fixed-width lane per
column, column j in bits [j*W, (j+1)*W), so that a row update is one
big-integer multiply-add run in C and the reduction mod p is delayed until
the row is read back (delayed reduction after Dumas, Giorgi and Pernet,
"FFLAS and FFPACK", 2008; several field elements per machine integer after
Dumas, Fousse and Salvy, 2011).  `Lanes` is that format, and the one way
the package forms a sum of vectors times scalars: the invariants module
multiplies by the variables with it, and the closing check of the vanishing
ideal of points sums packed value vectors with it.
"""

from operator import mul
import struct


class Lanes:
    """Vectors of n entries over GF(p), each packed into one Python int with
    a lane of W bits per entry, entry j in bits [j*W, (j+1)*W).

    W is the smallest multiple of 64 bits above `bound`, the largest value
    a lane may reach before it is read back; so a sum of packed vectors
    times scalars is one big-integer expression, taken mod p lane by lane
    only when unpacked.  A lane past the bound would carry into its
    neighbour and give a wrong value without any error.
    """

    def __init__(self, p: int, n: int, bound: int):
        self.p = p
        self.n = n
        self.width = 64 * -(-bound.bit_length() // 64)
        self.mask = (1 << self.width) - 1
        # an entry fills the low 64-bit word of its lane, zero bytes the rest
        self._format = "<" + f"Q{self.width // 8 - 8}x" * n

    def pack(self, vec) -> int:
        """The int of a vector of n canonical entries.  ValueError when it
        does not pack: a negative entry, one past 64 bits or a wrong count;
        the check costs nothing on a vector that packs."""
        try:
            return int.from_bytes(struct.pack(self._format, *vec), "little")
        except struct.error as exc:
            raise ValueError(f"entries must be canonical in [0, {self.p})") from exc

    def unpack(self, x) -> list:
        """The vector of a packed int, each lane taken mod p."""
        p, size = self.p, self.width // 8
        data = x.to_bytes(size * self.n, "little")
        if size == 8:
            return [v % p for v in struct.unpack(self._format, data)]
        return [int.from_bytes(data[i:i + size], "little") % p for i in range(0, len(data), size)]


class Echelon:
    """Row echelon form built one row at a time.

    Each row is monic at its pivot (its first nonzero entry) and zero at the
    pivots of the rows before it.  The pivot set is the set of leading
    positions of the row space, so it and every `reduce` remainder depend
    only on the span, not on the order the rows were added in.  `rows` holds
    the rows as lists; every vector has `ncols` entries, the column count
    the echelon is made with.

    Lanes.  A vector x is reduced by x += (p - c) * row for each pivot, c
    its entry there read as ((x >> col*W) & mask) % p, and only at the end
    is every lane taken mod p.  A stored row is canonical, so a lane starts
    below p and gains at most (p-1)^2 per row applied; with at most n rows
    it stays at most p - 1 + n(p-1)^2.  The lane width W is the smallest
    multiple of 64 bits above that bound, fixed by p and n = `ncols` when
    the echelon is made: 64 at p = 31991 for any n below 2^34, 128 at
    p = 2^31 - 1 from n = 4 on.  A narrower lane would carry into its
    neighbour and give a wrong rank without any error.

    Fast path.  When the lowest set bit of a vector lies beyond the lane of
    the largest pivot, every multiplier is zero and the vector is its own
    remainder: no row is applied and nothing is unpacked.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.pivots = []
        self.rows = []
        self._packed = []  # the rows as lane-packed ints
        self._shifts = []  # bit offset of each pivot's lane
        self._below = 0  # mask of the lanes up to the largest pivot
        lanes = Lanes(p, ncols, p - 1 + ncols * (p - 1) ** 2)
        self._width = lanes.width
        self._mask = lanes.mask
        self._pack = lanes.pack
        self._unpack = lanes.unpack

    def _reduce(self, vec):
        """(vec minus the multiples of the rows as a packed int whose lanes
        are not yet taken mod p, multipliers)."""
        if len(vec) != self.ncols:
            raise ValueError(f"vector of length {len(vec)} in an echelon of {self.ncols} columns")
        if not any(vec):
            return 0, [0] * len(self.pivots)
        if max(vec) >= self.p:
            raise ValueError(f"entries must be canonical in [0, {self.p})")
        x = self._pack(vec)
        if not x & self._below:
            return x, [0] * len(self.pivots)
        p, mask = self.p, self._mask
        mults = []
        for shift, row in zip(self._shifts, self._packed):
            c = (x >> shift & mask) % p
            mults.append(c)
            if c:
                x += (p - c) * row
        return x, mults

    def reduce(self, vec):
        """(remainder, multipliers): the remainder is zero at every pivot and
        equals vec minus the sum of multipliers[i] * rows[i]."""
        x, mults = self._reduce(vec)
        return (self._unpack(x) if any(mults) else vec), mults

    def add(self, vec):
        """Reduce vec and append the remainder, made monic, as a new row.

        Returns (multipliers, scale), the multipliers as in `reduce` and the
        new row equal to scale * remainder; scale is None, and no row is
        added, when the remainder is zero.
        """
        x, mults = self._reduce(vec)
        if any(mults):
            return mults, self._append(self._unpack(x))
        return mults, self._append(vec, x)  # x packs vec itself, lanes canonical

    def _append(self, rem, packed=None):
        """Append rem, a remainder of `reduce` (zero at every pivot), made
        monic, as a new row; its scale as in `add`.  `packed` is the packed
        int of rem when the caller already has it."""
        lead = next(filter(None, rem), 0)
        if not lead:
            return None
        p = self.p
        col = rem.index(lead)
        scale = pow(lead, -1, p)
        row = list(rem) if scale == 1 else [c * scale % p for c in rem]
        if scale != 1 or packed is None:
            packed = self._pack(row)
        shift = col * self._width
        self.pivots.append(col)
        self.rows.append(row)
        self._packed.append(packed)
        self._shifts.append(shift)
        self._below |= (1 << shift + self._width) - 1
        return scale

    def back_substitute(self):
        """(lanes, tails, img): the rows brought to reduced echelon form,
        read at the free columns, those of no pivot.

        `lanes` packs one entry per free column, in increasing column order.
        img[k] is the packed image of column k modulo the row space: the
        lane of k when k is free, else minus the tail of its pivot row.
        tails[j] is the reduced row of pivot j at the free columns, the
        pivots in decreasing order.  A row is 1 at its pivot j and nonzero
        only at larger columns, so in decreasing pivot order its tail
        sum(row[k] * img[k]) needs only tails already made, with no second
        elimination: img[j] is still 0 when it is summed.  Each sum is one
        int whose lanes gain at most ncols products below p^2, read back
        once.  The remainder of a vector x, as `reduce` gives it, is then
        sum(x[k] * img[k]) at the free columns, one more such sum.
        """
        p, ncols = self.p, self.ncols
        pivots = set(self.pivots)
        free = [k for k in range(ncols) if k not in pivots]
        lanes = Lanes(p, len(free), ncols * (p - 1) ** 2)
        img = [0] * ncols
        for i, k in enumerate(free):
            img[k] = 1 << i * lanes.width
        tails = {}
        for j, row in sorted(zip(self.pivots, self.rows), reverse=True):
            tail = tails[j] = lanes.unpack(sum(map(mul, row, img)))
            img[j] = lanes.pack([-t % p for t in tail])
        return lanes, tails, img
