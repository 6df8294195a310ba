import random

import pytest

from conormal.linalg import Echelon, combine, nullspace, rref
from conftest import gauss_jordan, gauss_jordan_nullspace

PRIMES = (7, 31991)
SHAPES = ((1, 1), (3, 8), (8, 3), (6, 6), (10, 4), (4, 10), (0, 5))


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


def test_rref_matches_gauss_jordan():
    for p, ncols, rows, _ in matrices(1):
        ech = rref(rows, p)
        assert (ech.pivots, ech.rows) == gauss_jordan(rows, ncols, p)


def test_nullspace_matches_gauss_jordan_and_kills_the_rows():
    for p, ncols, rows, _ in matrices(2):
        kernel = nullspace(rows, ncols, p)
        assert kernel == gauss_jordan_nullspace(rows, ncols, p)
        assert len(kernel) == ncols - len(gauss_jordan(rows, ncols, p)[0])
        for k in kernel:
            assert all(sum(a * b for a, b in zip(row, k)) % p == 0 for row in rows)


def test_echelon_shape_and_pivots():
    for p, ncols, rows, _ in matrices(3):
        ech = Echelon(p)
        for row in rows:
            ech.add(row)
        assert sorted(ech.pivots) == gauss_jordan(rows, ncols, p)[0]
        for i, (col, row) in enumerate(zip(ech.pivots, ech.rows)):
            assert all(c == 0 for c in row[:col]) and row[col] == 1
            assert all(row[c] == 0 for c in ech.pivots[:i])


def test_reduce_remainder_ignores_row_order():
    for p, ncols, rows, rng in matrices(4):
        vecs = [[rng.randrange(p) for _ in range(ncols)] for _ in range(3)] + rows[:2]
        first = Echelon(p)
        for row in rows:
            first.add(row)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        second = Echelon(p)
        for row in shuffled:
            second.add(row)
        for vec in vecs:
            rem = first.reduce(vec)[0]
            assert rem == second.reduce(vec)[0]
            assert all(rem[c] == 0 for c in first.pivots)


def test_multipliers_rebuild_the_reduced_part():
    for p, ncols, rows, rng in matrices(5):
        ech = Echelon(p)
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


@pytest.mark.parametrize("p", PRIMES)
def test_combine_small_cases(p):
    assert combine([], [], 3, p) == [0, 0, 0]
    assert combine([0, 0], [[1, 2], [3, 4]], 2, p) == [0, 0]
    assert combine([1, p - 1], [[1, 2], [3, 4]], 2, p) == [p - 2, p - 2]
