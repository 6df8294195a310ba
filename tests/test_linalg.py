from operator import mul
import random

import pytest
from hypothesis import given, settings, strategies as st

from conormal.linalg import Echelon, Lanes
from conftest import PlainEchelon, gauss_jordan

# 2^31 - 1, the largest supported prime, needs lanes wider than 64 bits
PRIMES = (3, 7, 31991, 2147483647)
SHAPES = ((1, 1), (3, 8), (8, 3), (6, 6), (10, 4), (4, 10), (0, 5))


def combine(coeffs, vectors, n: int, p: int) -> list:
    """The length-n vector sum of coeffs[i] * vectors[i] over GF(p), one list
    at a time: the oracle of the packed sums and the echelon remainders."""
    out = [0] * n
    for a, vec in zip(coeffs, vectors):
        if a:
            out = [(x + a * y) % p for x, y in zip(out, vec)]
    return out


def random_matrix(rng, nrows, ncols, p, rank=None):
    """Random rows with some zero rows; with a rank, rows are random
    combinations of that many random rows, so the matrix is rank-deficient."""
    if rank is None:
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    else:
        basis = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
        rows = []
        for _ in range(nrows):
            cs = [rng.randrange(p) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(cs, basis)) % p for j in range(ncols)])
    for i in range(nrows):
        if rng.random() < 0.2:
            rows[i] = [0] * ncols
    return rows


def matrices(seed):
    rng = random.Random(seed)
    for p in PRIMES:
        for nrows, ncols in SHAPES:
            for rank in (None, 0, 1, min(nrows, ncols) // 2):
                for _ in range(2):
                    yield p, ncols, random_matrix(rng, nrows, ncols, p, rank), rng


def test_echelon_shape_and_pivots():
    for p, ncols, rows, _ in matrices(3):
        ech = Echelon(p, ncols)
        for row in rows:
            ech.add(row)
        assert sorted(ech.pivots) == gauss_jordan(rows, ncols, p)[0]
        for i, (col, row) in enumerate(zip(ech.pivots, ech.rows)):
            assert all(c == 0 for c in row[:col]) and row[col] == 1
            assert all(row[c] == 0 for c in ech.pivots[:i])


def test_reduce_remainder_ignores_row_order():
    for p, ncols, rows, rng in matrices(4):
        vecs = [[rng.randrange(p) for _ in range(ncols)] for _ in range(3)] + rows[:2]
        first = Echelon(p, ncols)
        for row in rows:
            first.add(row)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        second = Echelon(p, ncols)
        for row in shuffled:
            second.add(row)
        for vec in vecs:
            rem = first.reduce(vec)[0]
            assert rem == second.reduce(vec)[0]
            assert all(rem[c] == 0 for c in first.pivots)


def test_multipliers_rebuild_the_reduced_part():
    for p, ncols, rows, rng in matrices(5):
        ech = Echelon(p, ncols)
        for row in rows:
            before = list(ech.rows)
            mults, scale = ech.add(row)
            rem = [(a - b) % p for a, b in zip(row, combine(mults, before, ncols, p))]
            assert len(mults) == len(before)
            if scale is None:
                assert not any(rem) and len(ech.rows) == len(before)
            else:
                assert ech.rows[-1] == [c * scale % p for c in rem]
        vec = [rng.randrange(p) for _ in range(ncols)]
        rem, mults = ech.reduce(vec)
        assert combine(mults, ech.rows, ncols, p) == [(a - b) % p for a, b in zip(vec, rem)]


def test_back_substitution_matches_gauss_jordan():
    seen = set()
    for p, ncols, rows, rng in matrices(6):
        ech = Echelon(p, ncols)
        for row in rows:
            ech.add(row)
        lanes, tails, img = ech.back_substitute()
        pivots, reduced = gauss_jordan(rows, ncols, p)
        free = [k for k in range(ncols) if k not in pivots]
        # a sweep degree can have no rows: the echelon still has its width
        seen.add("no vector" if not rows else "full rank" if not free else "other")
        # each pivot's reduced row at the free columns, pivots descending
        assert list(tails) == pivots[::-1]
        for col, row in zip(pivots, reduced):
            assert tails[col] == [row[k] for k in free]
        # img[k]: the lane of a free column, minus the tail of a pivot's
        assert len(img) == ncols
        for k in range(ncols):
            if k in tails:
                assert lanes.unpack(img[k]) == [-t % p for t in tails[k]]
            else:
                assert img[k] == 1 << free.index(k) * lanes.width
        # a remainder of `reduce` is one packed sum over the images
        for vec in [[rng.randrange(p) for _ in range(ncols)], [p - 1] * ncols]:
            rem = ech.reduce(vec)[0]
            assert lanes.unpack(sum(map(mul, vec, img))) == [rem[k] for k in free]
    assert seen == {"no vector", "full rank", "other"}


@pytest.mark.parametrize("p", PRIMES)
def test_combine_small_cases(p):
    assert combine([], [], 3, p) == [0, 0, 0]
    assert combine([0, 0], [[1, 2], [3, 4]], 2, p) == [0, 0]
    assert combine([1, p - 1], [[1, 2], [3, 4]], 2, p) == [p - 2, p - 2]


@pytest.mark.parametrize("p", PRIMES)
def test_packed_sums_match_combine(p):
    # the widest sum a lane is sized for: `terms` vectors of entries p - 1
    # times coefficients p - 1, next to random vectors; unpacked mod p it is
    # the list-based combination
    rng = random.Random(p)
    n, terms = 9, 40
    lanes = Lanes(p, n, terms * (p - 1) ** 2)
    cases = [
        ([p - 1] * terms, [[p - 1] * n] * terms),
        ([rng.randrange(p) for _ in range(terms)],
         [[rng.randrange(p) for _ in range(n)] for _ in range(terms)]),
    ]
    for coeffs, vectors in cases:
        assert lanes.unpack(lanes.pack(vectors[1])) == vectors[1]
        total = sum(a * lanes.pack(v) for a, v in zip(coeffs, vectors))
        assert lanes.unpack(total) == combine(coeffs, vectors, n, p)


def test_lanes_hold_every_pivot_applied_at_the_largest_prime():
    # stored rows e_i + (p-1)(e_(i+1) + ... + e_(n-1)); each input row adds
    # all earlier stored rows, so every reduction applies every pivot with
    # multiplier 1, that is x += (p-1) * row on entries p-1, and the last
    # lanes gather (n-1)(p-1)^2, far past 64 bits
    p, n = 2147483647, 64
    stored = [[0] * i + [1] + [p - 1] * (n - i - 1) for i in range(n)]
    ech = Echelon(p, n)
    for i in range(n):
        vec = [sum(col) % p for col in zip(*stored[:i + 1])]
        assert ech.add(vec) == ([1] * i, 1)
    assert ech.pivots == list(range(n)) and ech.rows == stored
    # entry i of this vector is 1 once the rows before i are applied
    rem, mults = ech.reduce([(1 - i) % p for i in range(n)])
    assert mults == [1] * n and rem == [0] * n


def entry_matrix(rng, nrows, ncols, p, rank):
    """Rows whose entries are mostly 0, 1, p-1 or p-2, random otherwise;
    with a rank, every row is a combination of that many such rows."""
    def entry():
        return rng.choice((0, 0, 1, p - 1, p - 1, p - 2, rng.randrange(p)))

    if rank is None:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    basis = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        cs = [entry() for _ in basis]
        rows.append([sum(c * b[j] for c, b in zip(cs, basis)) % p for j in range(ncols)])
    return rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.sampled_from(PRIMES),
    ncols=st.integers(min_value=1, max_value=70),
    nrows=st.integers(min_value=0, max_value=30),
    rank=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_echelon_matches_the_oracles_in_any_row_order(p, ncols, nrows, rank, seed):
    rng = random.Random(seed)
    rows = entry_matrix(rng, nrows, ncols, p, rank)
    rng.shuffle(rows)
    ech, plain = Echelon(p, ncols), PlainEchelon(p)
    for row in rows:
        assert ech.add(row) == plain.add(row)
        assert (ech.pivots, ech.rows) == (plain.pivots, plain.rows)
    pivots, reduced = gauss_jordan(rows, ncols, p)
    assert sorted(ech.pivots) == pivots
    for vec in entry_matrix(rng, 3, ncols, p, None) + rows[:2]:
        rem, mults = ech.reduce(vec)
        assert (rem, mults) == plain.reduce(vec)
        # the one vector of vec + span that is zero at every pivot
        unique = list(vec)
        for col, row in zip(pivots, reduced):
            unique = [(a - vec[col] * b) % p for a, b in zip(unique, row)]
        assert rem == unique


def test_vectors_must_be_canonical_and_of_one_length():
    with pytest.raises(ValueError, match="length 2 in an echelon of 3 columns"):
        Echelon(7, 3).add([1, 2])
    ech = Echelon(7, 3)
    ech.add([1, 2, 3])
    with pytest.raises(ValueError, match="canonical"):
        ech.reduce([0, 7, 0])
    with pytest.raises(ValueError, match="canonical"):
        ech.add([0, -1, 2])
    assert ech.pivots == [0]
    with pytest.raises(ValueError, match="length 2"):
        ech.add([1, 2])
