import random

import pytest

from bmwgram.exactla import gf_det, gf_rank

PRIMES = (2, 3, 5, 31, 101)
# (rows, columns, rank of A*B)
SHAPES = ((0, 4, 0), (1, 6, 1), (1, 6, 0), (12, 4, 3), (4, 12, 4),
          (5, 7, 0), (8, 8, 8), (8, 8, 5), (20, 20, 13))


def _known_rank(rng, rows, cols, rank, p):
    """A*B with A of full column rank and B of full row rank, so of rank
    exactly `rank`; entries are shifted by multiples of p and may be
    negative."""
    a = [[int(i == j) if i < rank else rng.randrange(p) for j in range(rank)]
         for i in range(rows)]
    b = [[int(i == j) if j < rank else rng.randrange(p) for j in range(cols)]
         for i in range(rank)]
    rng.shuffle(a)
    perm = list(range(cols))
    rng.shuffle(perm)
    return [[sum(x * b[k][perm[j]] for k, x in enumerate(row))
             + p * rng.randint(-2, 2) for j in range(cols)] for row in a]


def _with_noise(rng, matrix, p):
    out = [list(row) for row in matrix]
    for row in out:
        for j in range(len(row)):
            if rng.random() < 0.1:
                row[j] = rng.randrange(-p, p)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_gf_rank_known_rank(p):
    rng = random.Random(p)
    for rows, cols, rank in SHAPES:
        for _ in range(5):
            assert gf_rank(_known_rank(rng, rows, cols, rank, p), p) == rank


@pytest.mark.parametrize("p", PRIMES)
def test_gf_rank_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    field = sympy.GF(p)
    rng = random.Random(1000 + p)
    for rows, cols, rank in SHAPES:
        if rows == 0:
            continue
        for _ in range(5):
            m = _with_noise(rng, _known_rank(rng, rows, cols, rank, p), p)
            ref = DomainMatrix([[field(x) for x in row] for row in m],
                               (rows, cols), field).rank()
            assert gf_rank(m, p) == ref


@pytest.mark.parametrize("p", PRIMES)
def test_gf_rank_full_iff_det_nonzero(p):
    rng = random.Random(2000 + p)
    for size in (1, 2, 3, 6, 10):
        for rank in range(size + 1):
            m = _with_noise(rng, _known_rank(rng, size, size, rank, p), p)
            assert (gf_rank(m, p) == size) == (gf_det(m, p) != 0)


def test_gf_rank_degenerate_shapes():
    assert gf_rank([], 7) == 0
    assert gf_rank([[]], 7) == 0
    assert gf_rank([[0, 0, 0]], 7) == 0
    assert gf_rank([[0, 14, -7]], 7) == 0
    assert gf_rank([[0, 0, 3]], 7) == 1
    assert gf_rank([[0], [0], [5]], 7) == 1
