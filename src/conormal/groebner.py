"""Buchberger's algorithm, normal forms, ideal arithmetic and standard monomials.

The engine uses the normal (degree) selection strategy with Gebauer-Moller
pair elimination.  Every reduction step is charged against a hard budget so
that runaway computations surface as a distinguishable BudgetExceededError,
never as a wrong answer.
"""

import heapq
from bisect import insort

from .poly import FIELD_BITS, MAX_EXPONENT, Polynomial, PolynomialRing, MonomialOrder

DEFAULT_STEP_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Raised when a Groebner run exhausts its reduction-step budget."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"reduction step budget of {limit} exceeded")


class _Budget:
    __slots__ = ("remaining", "limit")

    def __init__(self, steps):
        self.remaining = steps
        self.limit = steps

    def charge(self, steps=1):
        self.remaining -= steps
        if self.remaining < 0:
            raise BudgetExceededError(self.limit)

    def charge_row(self, mults):
        """A matrix row reduced with these echelon multipliers: one step
        plus one per echelon row subtracted from it."""
        self.charge(1 + len(mults) - mults.count(0))


class Ideal:
    """An ideal given by a nonempty list of nonzero generators in one ring.
    Zero generators and repeats of an earlier generator are dropped; the
    rest keep their order."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolynomialRing, generators):
        gens = {}  # terms -> the first generator with them
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError(f"generator {g!r} is not a Polynomial")
            if g.ring != ring:
                raise ValueError(f"generator in {g.ring}, expected {ring}")
            if not g.is_zero():
                gens.setdefault(g.terms, g)
        if not gens:
            raise ValueError("an ideal needs at least one nonzero generator")
        self.ring = ring
        self.generators = tuple(gens.values())

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators in {self.ring})"

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.ring == self.ring
            and other.generators == self.generators
        )

    def __hash__(self):
        return hash((self.ring, self.generators))

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)


def ideal_square(a: Ideal) -> Ideal:
    """The ideal of all products of two generators.  A monomial generator that
    another monomial generator divides is dropped first: it lies in the ideal
    the rest generate, so that ideal and its square are unchanged.  The rest
    keep their input order."""
    _, minimal = _minimal(a.ring, [g for g in a.generators if g.is_monomial()])
    keep = {id(g) for g in minimal}
    gens = [g for g in a.generators if id(g) in keep or not g.is_monomial()]
    prods = []
    for i in range(len(gens)):
        gi = gens[i]
        for j in range(i, len(gens)):
            prods.append(gi * gens[j])
    return Ideal(a.ring, prods)


def _tail_rise(f: Polynomial):
    """Top degree of the tail of f minus the degree of its leading term, -inf
    for a monomial.  At most 0 under a degree order; under LEX a tail term
    can lie above the leading term."""
    terms = f.terms
    if len(terms) < 2:
        return float("-inf")
    shift = f.ring._deg_shift
    if f.ring.order.kind == "lex":  # the degree is the top field of a packed monomial
        top = max(m for _, m, _ in terms[1:]) >> shift
    else:
        top = terms[1][1] >> shift
    return top - (terms[0][1] >> shift)


class _LtIndex:
    """Monic reducers for divisor lookup, keyed by their distinct leading
    terms, which are kept in ascending packed order."""

    __slots__ = ("lts", "reducers", "guard")

    def __init__(self, ring):
        self.lts = []
        # lt packed -> (lt, tail [(mono, coeff)...], tail rise above the lt
        # degree or 0)
        self.reducers = {}
        self.guard = ring._guard

    def add(self, f: Polynomial):
        lt = f.terms[0][1]
        if lt in self.reducers:
            raise ValueError("a reducer with this leading term is already indexed")
        self.replace(f)
        insort(self.lts, lt)

    def replace(self, f: Polynomial):
        """Make f the reducer of its leading term."""
        # sized at once, see PolynomialRing._from_packed_dict
        tail = tuple([(m, c) for _, m, c in f.terms[1:]])
        self.reducers[f.terms[0][1]] = (f.terms[0][1], tail, max(_tail_rise(f), 0))

    def find(self, m: int):
        """(lt, tail, rise) of the first reducer, in ascending packed order,
        whose leading term divides m.  A divisor of m is no larger than m in
        every field, the degree included, so the scan stops past m."""
        g = self.guard
        mg = m | g
        for lt in self.lts:
            if lt > m:
                return None
            if (mg - lt) & g == g:
                return self.reducers[lt]
        return None


def _reduce_terms(ring, items, index: _LtIndex, budget: _Budget):
    """Full normal form of a term stream against monic reducers.

    Returns the remainder as a {packed monomial: coeff} dict.
    """
    p = ring.field.p
    key = ring.key
    shift = ring._deg_shift
    work = {}
    heap = []
    for k, m, c in items:
        prev = work.get(m)
        if prev is None:
            work[m] = c
            heap.append((-k, m))
        else:
            nc = (prev + c) % p
            if nc:
                work[m] = nc
            else:
                del work[m]
    heapq.heapify(heap)
    out = {}
    find = index.find
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        _, m = pop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        hit = find(m)
        if hit is None:
            out[m] = c
            continue
        budget.charge()
        lt, tail, rise = hit
        if rise and (m >> shift) + rise > MAX_EXPONENT:
            raise ValueError(f"total degree {(m >> shift) + rise} exceeds the {MAX_EXPONENT} limit")
        q = m - lt
        for m2, c2 in tail:
            mm = m2 + q
            prev = work.get(mm)
            if prev is None:
                nc = -c * c2 % p
                if nc:
                    work[mm] = nc
                    push(heap, (-key(mm), mm))
            else:
                nc = (prev - c * c2) % p
                if nc:
                    work[mm] = nc
                else:
                    del work[mm]
    return out


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no leading term divides another,
    no term of any element lies in the leading-term ideal of the rest."""

    __slots__ = ("ring", "elements", "_index")

    def __init__(self, ring: PolynomialRing, elements, index=None):
        """`index`, when given, is an `_LtIndex` of exactly these elements,
        which `index()` then returns instead of building one."""
        self.ring = ring
        self.elements = tuple(sorted(elements, key=lambda f: f.terms[0][0]))
        self._index = index

    @property
    def order(self) -> MonomialOrder:
        return self.ring.order

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements in {self.ring})"

    def __len__(self):
        return len(self.elements)

    def index(self) -> _LtIndex:
        if self._index is None:
            idx = _LtIndex(self.ring)
            for f in self.elements:
                idx.add(f)
            self._index = idx
        return self._index

    def leading_monomials(self):
        return [f.terms[0][1] for f in self.elements]

    def as_ideal(self) -> Ideal:
        return Ideal(self.ring, self.elements)

    def to_text(self) -> str:
        lines = [f"order {self.ring.order.kind}"]
        lines.extend(self.ring.format_poly(f) for f in self.elements)
        return "\n".join(lines)


def ring_convert(f: Polynomial, ring: PolynomialRing) -> Polynomial:
    """Move a polynomial to a sibling ring (same field and variables)."""
    if f.ring == ring:
        return f
    if f.ring.field != ring.field or f.ring.vars != ring.vars:
        raise ValueError("rings differ in more than the monomial order")
    return ring._from_packed_dict({m: c for _, m, c in f.terms})


def normal_form(f: Polynomial, gb: GroebnerBasis, budget: int = DEFAULT_STEP_BUDGET) -> Polynomial:
    """The unique normal form of f modulo the basis: no term of the result is
    divisible by any leading monomial, and f - result lies in the ideal."""
    ring = gb.ring
    f = ring_convert(f, ring)
    out = _reduce_terms(ring, f.terms, gb.index(), _Budget(budget))
    return ring._from_packed_dict(out)


def contains(gb: GroebnerBasis, f: Polynomial, budget: int = DEFAULT_STEP_BUDGET) -> bool:
    """Ideal membership: true iff the normal form of f vanishes."""
    return normal_form(f, gb, budget).is_zero()


def _spoly_items(ring, f: Polynomial, g: Polynomial):
    """Term stream of the S-polynomial of two monic polynomials."""
    p = ring.field.p
    key = ring.key
    lt_f = f.terms[0][1]
    lt_g = g.terms[0][1]
    l = ring.mono_lcm(lt_f, lt_g)
    qf = l - lt_f
    qg = l - lt_g
    top = (l >> ring._deg_shift) + max(_tail_rise(f), _tail_rise(g))
    if top > MAX_EXPONENT:
        raise ValueError(f"total degree {top} exceeds the {MAX_EXPONENT} limit")
    items = []
    for _, m, c in f.terms[1:]:
        mm = m + qf
        items.append((key(mm), mm, c))
    for _, m, c in g.terms[1:]:
        mm = m + qg
        items.append((key(mm), mm, (-c) % p))
    return items


def _minimal(ring, polys):
    """(index, kept): the polynomials in ascending leading-term order, each
    kept iff no leading term kept before it divides its own, and the index
    of the kept ones."""
    index = _LtIndex(ring)
    kept = []
    for f in sorted(polys, key=lambda f: f.terms[0][0]):
        if index.find(f.terms[0][1]) is None:
            index.add(f)
            kept.append(f)
    return index, kept


def _interreduce(ring, polys, budget):
    """Forward-reduce a generating set; cheap preprocessing, same ideal.
    Returns (index, kept): the kept polynomials and an index of them."""
    monos = []
    others = []
    for f in polys:
        (monos if f.is_monomial() else others).append(f)
    # minimal monomial generators first: cheap divisibility pruning
    index, kept = _minimal(ring, [f.monic() for f in monos])
    others.sort(key=lambda f: f.terms[0][0])
    for f in others:
        red = _reduce_terms(ring, f.terms, index, budget)
        if red:
            g = ring._from_packed_dict(red).monic()
            index.add(g)
            kept.append(g)
    return index, kept


def _final_reduce(ring, basis, budget):
    """Minimalize leading terms, then tail-reduce to the unique reduced basis.
    Returns (index, reduced): the reduced elements and an index of them."""
    # a tail term lies below its own leading term, so one index serves all
    index, minimal = _minimal(ring, basis)
    reduced = []
    for f in minimal:
        _, lt, c = f.terms[0]
        red = _reduce_terms(ring, f.terms[1:], index, budget)
        red[lt] = c
        reduced.append(ring._from_packed_dict(red))
    # only now: every tail above is reduced against the unreduced reducers
    for g in reduced:
        index.replace(g)
    return index, reduced


def buchberger(
    ideal: Ideal,
    order: MonomialOrder = None,
    budget: int = DEFAULT_STEP_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given (or ring's) order.

    When every generator is a monomial, the minimal monic ones are the
    reduced basis, and no S-pair is formed.  Otherwise a new element h is
    paired by the Gebauer-Moller update.  A new monomial h is paired only
    with the elements that have a tail, and an lcm class that a monomial m
    of the basis divides is dropped: lcm(m, lt h) divides the class too,
    so either properly (criterion M drops the class) or equally (the class
    has the pair of two monomials m and h, whose S-polynomial is zero)."""
    ring = ideal.ring if order is None else ideal.ring.with_order(order)
    gens = [ring_convert(g, ring) for g in ideal.generators]
    counter = _Budget(budget)
    index, basis = _interreduce(ring, gens, counter)  # index: the reducers so far
    if not basis:
        raise ValueError("ideal reduced to zero generators")
    # tested on the input: interreduction can turn a binomial into a monomial
    # that divides a monomial kept before it
    if all(g.is_monomial() for g in gens):
        return GroebnerBasis(ring, basis, index)

    lcm = ring.mono_lcm
    shift = ring._deg_shift
    key = ring.key
    guard = ring._guard

    G = []          # (poly, lt)
    tailed = []     # positions in G of the elements with a tail
    monomials = _LtIndex(ring)  # the monomials of G
    pairs = []      # heap of (lcm degree, lcm key, i, j, lcm)

    def update(h):
        """Gebauer-Moller pair update for the new basis element h."""
        lt_h = h.terms[0][1]
        h_mono = h.is_monomial()
        t = len(G)
        # criterion F: drop old pairs whose lcm is a proper multiple of lt_h
        pairs[:] = [
            (d, k, i, j, l)
            for d, k, i, j, l in pairs
            if not (
                ((l | guard) - lt_h) & guard == guard
                and lcm(G[i][1], lt_h) != l
                and lcm(G[j][1], lt_h) != l
            )
        ]
        heapq.heapify(pairs)
        # new pairs grouped by lcm, members in basis order
        by_lcm = {}
        for i in tailed if h_mono else range(t):
            by_lcm.setdefault(lcm(G[i][1], lt_h), []).append(i)
        # criterion M: an lcm survives iff no other new lcm properly divides
        # it.  A proper divisor has lower degree, the top packed field, and
        # divisibility is transitive, so taking the lcms in increasing order
        # and testing each against the minimal ones kept so far keeps exactly
        # the survivors.
        minimal = []
        for l in sorted(by_lcm):
            lg = l | guard
            if any((lg - m) & guard == guard for m in minimal):
                continue
            minimal.append(l)
            # one representative per lcm class; a class with coprime leading
            # terms, whose S-polynomial is zero, is skipped, and so is one
            # that a monomial of G divides when h is a monomial (see above)
            members = by_lcm[l]
            if any(l == G[i][1] + lt_h for i in members):
                continue
            if h_mono and monomials.find(l) is not None:
                continue
            heapq.heappush(pairs, (l >> shift, key(l), members[0], t, l))
        G.append((h, lt_h))
        if h_mono:
            monomials.add(h)
        else:
            tailed.append(t)

    for h in basis:
        update(h)

    while pairs:
        _, _, i, j, l = heapq.heappop(pairs)
        f = G[i][0]
        g = G[j][0]
        items = _spoly_items(ring, f, g)
        red = _reduce_terms(ring, items, index, counter)
        if red:
            h = ring._from_packed_dict(red).monic()
            index.add(h)
            update(h)

    index, reduced = _final_reduce(ring, [g for g, _ in G], counter)
    return GroebnerBasis(ring, reduced, index)


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff every variable appears as a pure power among the leading
    terms; the 1 of the unit ideal is the 0th power of each.  A pure power
    has one nonzero exponent field, so its lowest and highest set bits lie
    in the same field."""
    covered = set()
    for lt in gb.leading_monomials():
        exps = lt & gb.ring._exp_mask
        if not exps:
            return True
        field = (exps.bit_length() - 1) // FIELD_BITS
        if ((exps & -exps).bit_length() - 1) // FIELD_BITS == field:
            covered.add(field)
    return len(covered) == gb.ring.nvars


def _standard_successors(ring, lts, level):
    """The standard monomials one degree above `level`, given a whole degree
    of standard monomials and a container of leading monomials that holds
    at least those of the next degree.  Standard monomials form an order
    ideal, so a variable multiple mm of the level is standard iff every
    mm / x_i with x_i | mm is in the level and mm is not itself a leading
    monomial: a leading monomial of lower degree that divides mm divides
    one of those quotients (Marinari, Moller and Mora, 1993).  Returns a
    dict from each to the (monomial, variable index) it was first reached
    from."""
    units = ring._var_monos
    guard = ring._guard
    nxt = {}
    seen = set()  # each distinct candidate is judged once
    for m in level:
        for j, u in enumerate(units):
            mm = m + u
            if mm not in seen:
                seen.add(mm)
                # mm - x_i borrows into the guard bit of field i iff x_i does not divide mm
                if mm not in lts and all((mm - v) & guard or mm - v in level for v in units):
                    nxt[mm] = (m, j)
    return nxt


def _standard_levels(gb: GroebnerBasis):
    """The standard monomials of the basis by degree from 0, each level a
    dict from `_standard_successors`, up to the first empty level (none
    when the quotient has positive dimension)."""
    ring = gb.ring
    lts = set(gb.leading_monomials())
    level = {} if 0 in lts else {0: None}  # 1 in the ideal: empty quotient
    while level:
        yield level
        level = _standard_successors(ring, lts, level)
