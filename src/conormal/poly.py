"""Sparse multivariate polynomials over GF(p) with graded monomial orders.

Monomials are exponent tuples at the API boundary.  Internally each
monomial is packed into a single int: the top 8-bit field holds the total
degree and variable j occupies the 8-bit field at bit 8*j.  This makes
multiplication an int add, divisibility one masked subtraction, and the
degrevlex sort key a two-operation transform, which is what keeps the
Buchberger engine usable in pure Python.
"""

import random

from .field import PrimeField, stable_seed

FIELD_BITS = 8
MAX_EXPONENT = 120  # per-variable and total-degree guard; keeps packed fields borrow-free


class ParseError(ValueError):
    """Polynomial or file text that does not match the grammar; carries a position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where += f" at line {line}"
        if column is not None:
            where += f", column {column}" if line is not None else f" at column {column}"
        super().__init__(message + where)


class MonomialOrder:
    """A global monomial order: degrevlex, deglex or lex."""

    __slots__ = ("kind",)
    KINDS = ("degrevlex", "deglex", "lex")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind

    def __repr__(self):
        return self.kind

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(("MonomialOrder", self.kind))


DEGREVLEX = MonomialOrder("degrevlex")
DEGLEX = MonomialOrder("deglex")
LEX = MonomialOrder("lex")


class PolynomialRing:
    """GF(p)[x_1, ..., x_v] together with a monomial order, fixed when the
    ring is made: the same variables in another order make another ring."""

    def __init__(self, field: PrimeField, variables, order: MonomialOrder = DEGREVLEX):
        if isinstance(field, int):
            field = PrimeField(field)
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for name in variables:
            if not name.isidentifier():
                raise ValueError(f"variable name {name!r} is not an identifier")
        self.field = field
        self.vars = variables
        self.order = order
        v = len(variables)
        self.nvars = v
        self._deg_shift = FIELD_BITS * v
        self._exp_mask = (1 << self._deg_shift) - 1
        # the top bit of every exponent field; the degree field is left out,
        # since an lcm's degree can reach 240 and so fill its own top bit
        self._guard = 0
        self._full = 0
        for j in range(v):
            self._guard |= 0x80 << (FIELD_BITS * j)
            self._full |= 0x7F << (FIELD_BITS * j)
        self._ones = self._guard >> 7  # 0x01 in every exponent field
        # the packed monomial of each variable: multiplying by x_j adds it
        self._var_monos = tuple((1 << (FIELD_BITS * j)) | (1 << self._deg_shift) for j in range(v))
        self._var_index = {name: i for i, name in enumerate(variables)}
        self._one_mono = 0

    # -- ring identity ------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PolynomialRing)
            and other.field == self.field
            and other.vars == self.vars
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.field, self.vars, self.order))

    def __repr__(self):
        return f"GF({self.field.p})[{', '.join(self.vars)}] ({self.order.kind})"

    # -- packed monomials ----------------------------------------------------

    def pack(self, exponents) -> int:
        if len(exponents) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exponents)}")
        m = 0
        deg = 0
        for j, e in enumerate(exponents):
            if e < 0 or e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} out of range [0, {MAX_EXPONENT}]")
            m |= e << (FIELD_BITS * j)
            deg += e
        if deg > MAX_EXPONENT:
            raise ValueError(f"total degree {deg} exceeds the {MAX_EXPONENT} limit")
        return m | (deg << self._deg_shift)

    def unpack(self, m: int) -> tuple:
        # a list, as in _from_packed_dict
        return tuple([(m >> (FIELD_BITS * j)) & 0xFF for j in range(self.nvars)])

    def mono_lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum, all fields at once: the guard bit of a field
        survives (a | guard) - b iff a >= b there, and widens to a 0xFF mask
        that picks a's exponent.  Multiplying by 0x0101...01 sums the fields
        into the top exponent byte; each input has degree at most 120, so the
        sum is at most 240 and no byte carries."""
        mask = self._exp_mask
        a &= mask
        b &= mask
        guard = self._guard
        pick_a = ((((a | guard) - b) & guard) >> 7) * 0xFF
        out = b ^ ((a ^ b) & pick_a)
        deg = ((out * self._ones) >> (self._deg_shift - FIELD_BITS)) & 0xFF
        return out | (deg << self._deg_shift)

    def key(self, m: int) -> int:
        """Sort key: key(a) > key(b) iff a > b in the ring's order."""
        kind = self.order.kind
        if kind == "degrevlex":
            return ((m >> self._deg_shift) << self._deg_shift) + (self._full - (m & self._exp_mask))
        shift = FIELD_BITS
        v = self.nvars
        rev = 0
        for j in range(v):
            rev |= ((m >> (shift * j)) & 0xFF) << (shift * (v - 1 - j))
        if kind == "deglex":
            return ((m >> self._deg_shift) << self._deg_shift) + rev
        return rev  # lex

    # -- polynomial constructors ---------------------------------------------

    def poly(self, coeff_map) -> "Polynomial":
        """Build a polynomial from {exponent tuple: coefficient}."""
        acc = {}
        p = self.field.p
        for exps, c in coeff_map.items():
            c %= p
            if c == 0:
                continue
            m = exps if isinstance(exps, int) else self.pack(exps)
            nc = (acc.get(m, 0) + c) % p
            if nc:
                acc[m] = nc
            elif m in acc:
                del acc[m]
        return self._from_packed_dict(acc)

    def _from_packed_dict(self, acc) -> "Polynomial":
        key = self.key
        # tuple() of a list allocates the tuple at its size; of a generator it
        # resizes it, and resized tuples pile up in CPython's per-size free
        # lists, which raises peak memory on long runs
        terms = tuple(
            [(k, m, acc[m]) for k, m in sorted(((key(m), m) for m in acc), reverse=True)]
        )
        return Polynomial(self, terms)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        m = self._one_mono
        return Polynomial(self, ((self.key(m), m, 1),))

    def constant(self, c: int) -> "Polynomial":
        c %= self.field.p
        if c == 0:
            return self.zero
        m = self._one_mono
        return Polynomial(self, ((self.key(m), m, c),))

    def var(self, name: str) -> "Polynomial":
        i = self._var_index.get(name)
        if i is None:
            raise ValueError(f"unknown variable {name!r}")
        return self.monomial(self._var_monos[i])

    def gens(self):
        return [self.var(name) for name in self.vars]

    def monomial(self, exponents, coeff: int = 1) -> "Polynomial":
        c = coeff % self.field.p
        if c == 0:
            return self.zero
        m = exponents if isinstance(exponents, int) else self.pack(exponents)
        return Polynomial(self, ((self.key(m), m, c),))

    def monomials_of_degree(self, d: int):
        """All packed monomials of total degree d, in decreasing order."""
        if d < 0:
            return []
        out = []

        def rec(j, remaining, acc):
            if j == self.nvars - 1:
                out.append(acc | (remaining << (FIELD_BITS * j)))
                return
            for e in range(remaining + 1):
                rec(j + 1, remaining - e, acc | (e << (FIELD_BITS * j)))

        rec(0, d, 0)
        top = d << self._deg_shift
        key = self.key
        return sorted((m | top for m in out), key=key, reverse=True)

    # -- text form ------------------------------------------------------------

    def format_poly(self, f: "Polynomial") -> str:
        if not f.terms:
            return "0"
        parts = []
        for _, m, c in f.terms:
            factors = []
            for j, name in enumerate(self.vars):
                e = (m >> (FIELD_BITS * j)) & 0xFF
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts)

    def parse(self, text: str, line: int = None) -> "Polynomial":
        """Parse a polynomial in the `3*x^2*y + z - 4` grammar."""
        tokens = _tokenize(text, line)
        acc = {}
        p = self.field.p
        pos = 0
        sign = 1
        if pos < len(tokens) and tokens[pos][0] in ("+", "-"):
            sign = -1 if tokens[pos][0] == "-" else 1
            pos += 1
        if pos >= len(tokens):
            raise ParseError("empty polynomial", line, 1)
        while True:
            term_col = tokens[pos][1]
            coeff, exps, pos = _parse_term(self, tokens, pos, text, line)
            c = sign * coeff % p
            try:
                m = self.pack(exps)
            except ValueError as exc:
                raise ParseError(str(exc), line, term_col) from None
            nc = (acc.get(m, 0) + c) % p
            if nc:
                acc[m] = nc
            elif m in acc:
                del acc[m]
            if pos == len(tokens):
                break
            tok, col = tokens[pos]
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                raise ParseError(f"expected '+' or '-', found {tok!r}", line, col)
            pos += 1
            if pos == len(tokens):
                raise ParseError("dangling sign at end of polynomial", line, tokens[-1][1])
        return self._from_packed_dict(acc)


# str.isdigit also holds for '²', which int() refuses, and for '٣', which
# int() reads as 3
_DIGITS = "0123456789"


def _tokenize(text, line):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch in "+-*^":
            tokens.append((ch, col))
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append((int(text[i:j]), col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], col))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


def _parse_term(ring, tokens, pos, text, line):
    coeff = 1
    exps = [0] * ring.nvars
    while True:
        if pos >= len(tokens):
            raise ParseError("expected a coefficient or variable", line, len(text))
        tok, col = tokens[pos]
        if isinstance(tok, int):
            coeff *= tok
            pos += 1
        elif isinstance(tok, str) and tok not in "+-*^":
            idx = ring._var_index.get(tok)
            if idx is None:
                raise ParseError(f"unknown variable {tok!r}", line, col)
            e = 1
            pos += 1
            if pos < len(tokens) and tokens[pos][0] == "^":
                pos += 1
                if pos >= len(tokens) or not isinstance(tokens[pos][0], int):
                    raise ParseError("expected an integer exponent after '^'", line, col)
                e = tokens[pos][0]
                pos += 1
            exps[idx] += e
        else:
            raise ParseError(f"expected a coefficient or variable, found {tok!r}", line, col)
        if pos < len(tokens) and tokens[pos][0] == "*":
            pos += 1
            continue
        break
    return coeff, tuple(exps), pos


class Polynomial:
    """Immutable sparse polynomial; terms sorted strictly decreasing in the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms):
        self.ring = ring
        self.terms = terms  # tuple of (key, packed monomial, coeff), descending by key

    # -- inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        if self.ring.order.kind != "lex":  # a degree order leads with a top-degree term
            return self.terms[0][1] >> self.ring._deg_shift
        return max(m for _, m, _ in self.terms) >> self.ring._deg_shift

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        shift = self.ring._deg_shift
        d = self.terms[0][1] >> shift
        return all(m >> shift == d for _, m, _ in self.terms)

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        p = self.ring.field.p
        acc = {m: c for _, m, c in self.terms}
        for _, m, c in other.terms:
            nc = (acc.get(m, 0) + c) % p
            if nc:
                acc[m] = nc
            elif m in acc:
                del acc[m]
        return self.ring._from_packed_dict(acc)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((k, m, p - c) for k, m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        deg = self.degree + other.degree
        if deg > MAX_EXPONENT:
            raise ValueError(f"product of total degree {deg} exceeds the {MAX_EXPONENT} limit")
        ring = self.ring
        f, g = self.terms, other.terms
        if len(f) == 1 and len(g) == 1:  # monomial times monomial: nonzero mod a prime
            m = f[0][1] + g[0][1]
            return Polynomial(ring, ((ring.key(m), m, f[0][2] * g[0][2] % ring.field.p),))
        p = ring.field.p
        acc = {}
        if len(f) < len(g):
            f, g = g, f
        for _, m1, c1 in f:
            for _, m2, c2 in g:
                m = m1 + m2
                nc = (acc.get(m, 0) + c1 * c2) % p
                if nc:
                    acc[m] = nc
                elif m in acc:
                    del acc[m]
        return ring._from_packed_dict(acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.field.p
        c %= p
        if c == 0:
            return self.ring.zero
        if c == 1:
            return self
        return Polynomial(self.ring, tuple((k, m, c * cc % p) for k, m, cc in self.terms))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][2]
        if lc == 1:
            return self
        return self.scale(self.ring.field.inv(lc))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return self.ring.format_poly(self)


def quotient_by_linear_form(polys, ell: Polynomial):
    """(S, images): S = R/(l) for a nonzero linear form l of R, the ring of
    every variable of R but the leading variable x_j of l, which is its
    first variable with a nonzero coefficient in each order; and the image
    in S of each polynomial of R.

    Modulo l, x_j is t = x_j - l/a_j, a_j its coefficient, so a term
    u * x_j^e, u free of x_j, maps to u * t^e, with u moved to S by
    dropping field j and packing the degree for S.  Each power of t is
    formed once.  When l is a multiple of x_j, t = 0 and an image is the
    terms free of x_j, in their order, since every order compares two such
    monomials as it compares them in S.  ValueError for polynomials of
    another ring than l's, or an l that is not a nonzero linear form.
    """
    ring = ell.ring
    polys = list(polys)
    for f in polys:
        f._check_ring(ell)
    if ell.is_zero() or ell.degree != 1 or not ell.is_homogeneous():
        raise ValueError(f"{ell} is not a nonzero linear form")
    lead, a = ell.terms[0][1:]
    j = ring._var_monos.index(lead)
    smaller = PolynomialRing(ring.field, ring.vars[:j] + ring.vars[j + 1:], ring.order)
    # u free of x_j keeps its fields below j and moves the rest, degree
    # included, one field down
    low = (1 << FIELD_BITS * j) - 1
    high = ring._exp_mask ^ low
    field = 0xFF << FIELD_BITS * j
    key, images = smaller.key, []
    if len(ell.terms) == 1:
        for f in polys:
            terms = []
            for _, m, c in f.terms:
                if not m & field:
                    u = m & low | m >> FIELD_BITS & high
                    terms.append((key(u), u, c))
            images.append(Polynomial(smaller, tuple(terms)))
        return smaller, images
    p = ring.field.p
    scale = p - ring.field.inv(a)
    t = smaller._from_packed_dict(
        {m & low | m >> FIELD_BITS & high: c * scale % p for _, m, c in ell.terms[1:]}
    )
    # powers[e]: t^e as (monomial, coefficient) pairs
    powers, power = [[(smaller._one_mono, 1)]], smaller.one
    for f in polys:
        acc = {}
        for _, m, c in f.terms:
            e = (m & field) >> FIELD_BITS * j
            while len(powers) <= e:
                power = power * t
                powers.append([(mm, cc) for _, mm, cc in power.terms])
            m -= e * lead
            u = m & low | m >> FIELD_BITS & high
            for mm, cc in powers[e]:
                mm += u
                acc[mm] = acc.get(mm, 0) + c * cc
        images.append(smaller._from_packed_dict({m: c % p for m, c in acc.items() if c % p}))
    return smaller, images


def random_linear_form(ring: PolynomialRing, seed) -> Polynomial:
    """Deterministic nonzero homogeneous degree-1 form with seeded coefficients."""
    rng = random.Random(stable_seed(seed))
    p = ring.field.p
    while True:
        coeffs = [rng.randrange(p) for _ in range(ring.nvars)]
        if any(coeffs):
            break
    return ring._from_packed_dict({m: c for m, c in zip(ring._var_monos, coeffs) if c})
