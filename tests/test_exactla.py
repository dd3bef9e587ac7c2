import random

import pytest

from bmwgram import exactla
from bmwgram.coeff import LaurentPoly
from bmwgram.exactla import PIVOT_PRIME, bareiss_det


def gf_rank(rows, p):
    """Rank over GF(p) of an integer matrix (list of row lists), by the
    kernel's pivots on its residues."""
    if not rows or not rows[0]:
        return 0
    return len(exactla._residue_pivots(rows, p)[0])


def gf_det(rows, p):
    """Determinant over GF(p) of a square integer matrix: the determinant
    reference."""
    m = [[x % p for x in row] for row in rows]
    n = len(m)
    det = 1
    for col in range(n):
        piv = None
        for row in range(col, n):
            if m[row][col]:
                piv = row
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det % p
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for row in range(col + 1, n):
            if m[row][col]:
                c = m[row][col] * inv % p
                m[row] = [(a - c * b) % p for a, b in zip(m[row], m[col])]
    return det % p

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


@pytest.mark.parametrize("p", PRIMES + ((1 << 61) - 1, PIVOT_PRIME))
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


def gf_pivots(m, p):
    """The reference pivots: pivot rows and columns, in pivot order, of a
    forward elimination of the integer matrix m over GF(p) on lists of
    residues, each pivot the first remaining row nonzero in its column."""
    rest = [(i, [x % p for x in row]) for i, row in enumerate(m)]
    rows, cols = [], []
    for col in range(len(m[0])):
        for k, (_i, row) in enumerate(rest):
            if row[0]:
                break
        else:
            rest = [(i, row[1:]) for i, row in rest]
            continue
        i, top = rest.pop(k)
        rows.append(i)
        cols.append(col)
        inv = pow(top[0], -1, p)
        top = top[1:]
        reduced = []
        for i, row in rest:
            c = row[0] * inv % p
            reduced.append((i, [(a - c * b) % p for a, b in zip(row[1:], top)]
                            if c else row[1:]))
        rest = reduced
    return rows, cols


@pytest.mark.parametrize("p", PRIMES + (PIVOT_PRIME,))
def test_packed_pivots_match_reference(p):
    """The packed elimination picks the reference's pivot rows, by their
    original numbers, and columns."""
    rng = random.Random(3000 + p)
    for rows, cols, rank in SHAPES:
        if rows == 0:
            continue
        for _ in range(3):
            m = _known_rank(rng, rows, cols, rank, p)
            pivots = exactla._residue_pivots(m, p)
            assert pivots == gf_pivots(m, p)
            assert len(pivots[0]) == rank


def _rows_at_the_bound(terms, pivots, p):
    """pivots + 2 rows of pivots + 2 columns whose packed elimination
    drives the fields to the largest values ``_field_size`` admits.

    The first ``pivots`` rows start each field at the largest value
    <= terms (p-1)^2 of the residue they need: pivot residue 1 on the
    diagonal and the pivot's residue below it, so every update multiplies
    by p - 1, and every tail residue p - 1, so every update adds (p-1)^2.
    Pivot row j then carries terms (p-1)^2 + j (p-1)^2 into its Barrett
    reduction.  The last two rows are zero up to the last pivot's column
    and differ only by p in the field after it: if a quotient of that
    pivot's tail came out one too large, its residue p - 1 would read -1,
    the first of them would go below zero there and borrow from the next
    field, and the two would no longer cancel."""
    top = terms * (p - 1) ** 2
    rows = [[top - (top + 1 + i) % p if i < col else top - (top - 1 + col) % p
             for col in range(pivots + 2)] for i in range(pivots)]
    low = [0] * (pivots - 1) + [1, 0, p - 1]
    return rows + [low, low[:pivots] + [p] + low[pivots + 1:]]


@pytest.mark.parametrize("p", (2, 3, 31, 4194301, PIVOT_PRIME))
def test_packed_rank_at_the_field_bound(p):
    """Rows whose fields reach terms (p-1)^2 plus (p-1)^2 per pivot, packed
    at exactly 2k + 2 bits, k the bit length of (terms + pivots)(p-1)^2,
    the room ``_field_size`` rounds up to bytes: the packed elimination
    picks the reference's pivots."""
    for terms in (1, 2, 3):
        for pivots in (1, 2, 3, 6):
            m = _rows_at_the_bound(terms, pivots, p)
            k = ((terms + pivots) * (p - 1) ** 2).bit_length()
            width = 2 * k + 2
            assert 8 * exactla._field_size(terms, pivots, p) >= width
            packed = [sum(x << width * j for j, x in enumerate(row))
                      for row in m]
            pivots_ref = gf_pivots(m, p)
            assert len(pivots_ref[0]) == gf_rank(m, p) == pivots + 1
            assert exactla._packed_rank(packed, pivots + 2, width,
                                        p) == pivots_ref


def _divexact(a, b):
    """Exact division of Laurent polynomials (lex order on exponents)."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero()
    if a.wexp or b.wexp:
        raise ValueError("divexact expects cleared denominators")
    rem = dict(a.terms)
    bl = max(b.terms)
    blc = b.terms[bl]
    b_lo = min(b.terms)
    a_lo = min(a.terms)
    lo_bound = (a_lo[0] - b_lo[0], a_lo[1] - b_lo[1])
    quo = {}
    while rem:
        al = max(rem)
        alc = rem[al]
        key = (al[0] - bl[0], al[1] - bl[1])
        if alc % blc or key < lo_bound:
            raise ArithmeticError("inexact division")
        c = alc // blc
        quo[key] = c
        for (x, y), bc in b.terms.items():
            k2 = (x + key[0], y + key[1])
            nv = rem.get(k2, 0) - c * bc
            if nv:
                rem[k2] = nv
            elif k2 in rem:
                del rem[k2]
    return LaurentPoly(quo)


def laurent_bareiss_det(matrix):
    """The reference determinant: fraction-free elimination over the
    Laurent ring itself, each update one exact polynomial division."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    k = max((e.wexp for row in matrix for e in row), default=0)
    wk = LaurentPoly.omega() ** k
    m = [[e * wk for e in row] for row in matrix]
    sign = 1
    prev = LaurentPoly.one()
    for col in range(n - 1):
        piv = None
        for row in range(col, n):
            if not m[row][col].is_zero():
                piv = row
                break
        if piv is None:
            return LaurentPoly.zero()
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for row in range(col + 1, n):
            for j in range(col + 1, n):
                num = m[row][j] * m[col][col] - m[row][col] * m[col][j]
                m[row][j] = _divexact(num, prev)
            m[row][col] = LaurentPoly.zero()
        prev = m[col][col]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = -det
    return LaurentPoly(det.terms, det.wexp + k * n)


def _random_entry(rng, nterms, height, wmax, spread=4):
    """Up to nterms monomials c q^a r^b with a, b in [-spread, spread] and
    |c| <= height, over w^j with j <= wmax; zero about a quarter of the
    time."""
    if rng.random() < 0.25:
        return LaurentPoly.zero()
    terms = {(rng.randint(-spread, spread), rng.randint(-spread, spread)):
             rng.randint(-height, height) for _ in range(nterms)}
    return LaurentPoly(terms, rng.randint(0, wmax))


def _random_matrix(rng, n, nterms, height, wmax):
    return [[_random_entry(rng, nterms, height, wmax) for _ in range(n)]
            for _ in range(n)]


def _check_at_points(matrix, det):
    for p, q0, r0 in ((1000003, 3, 7), (998244353, 5, 11)):
        rows = [[e.specialize(p, q0, r0) for e in row] for row in matrix]
        assert det.specialize(p, q0, r0) == gf_det(rows, p)


def _check_against_reference(matrix):
    det = bareiss_det(matrix)
    assert det == laurent_bareiss_det(matrix)
    _check_at_points(matrix, det)
    return det


# (monomials per entry, coefficient bound, largest power of w^-1) per size;
# the large sizes take fewer and sparser cases, as the reference is slow
RANDOM_CASES = {n: [(3, h, w) for h in (1, 9, 2 ** 40) for w in (0, 1, 3)]
                for n in range(5)}
RANDOM_CASES[5] = [(2, 1, 3), (2, 9, 2), (2, 2 ** 40, 1)]
RANDOM_CASES[6] = [(2, 1, 3), (2, 9, 1), (1, 2 ** 40, 1)]


@pytest.mark.parametrize("n", sorted(RANDOM_CASES))
def test_bareiss_det_matches_reference(n):
    rng = random.Random(7000 + n)
    for nterms, height, wmax in RANDOM_CASES[n]:
        _check_against_reference(
            _random_matrix(rng, n, nterms, height, wmax))


def _digits_by_shifting(x, width):
    """The former decode of bareiss_det: one shift of all of x per digit,
    quadratic in the digit count."""
    mask = (1 << width) - 1
    half = 1 << width - 1
    out = []
    while x:
        digit = x & mask
        if digit >= half:
            digit -= 1 << width
        out.append(digit)
        x = (x - digit) >> width
    return out


def test_balanced_digits_match_shift_loop():
    """The one-pass decode returns the balanced digits the shift loop
    returns, followed by zeros only: digit strings with zero digits, the
    extreme digits -2^(width-1) and 2^(width-1) - 1, and a top digit that
    is negative in most cases."""
    rng = random.Random(29)
    assert not any(exactla._balanced_digits(0, 5))
    for _ in range(600):
        width = rng.randint(2, 70)
        half = 1 << width - 1
        digits = [rng.choice((0, 0, -half, half - 1, rng.randrange(-half, half)))
                  for _ in range(rng.randint(1, 30))]
        digits[-1] = rng.randrange(-half, 0 if rng.random() < 0.8 else half)
        while digits and not digits[-1]:
            digits.pop()
        x = sum(d << width * i for i, d in enumerate(digits))
        got = list(exactla._balanced_digits(x, width))
        assert _digits_by_shifting(x, width) == digits
        assert got[:len(digits)] == digits and not any(got[len(digits):])


@pytest.mark.parametrize("n", range(1, 6))
def test_bareiss_det_zero_row_and_rank_deficient(n):
    rng = random.Random(8000 + n)
    for trial in range(4):
        m = _random_matrix(rng, n, 2, 2 ** 40, 1)
        m[rng.randrange(n)] = [LaurentPoly.zero()] * n
        assert _check_against_reference(m).is_zero()
        if n < 2:
            continue
        # a zero column and no zero row
        m = _random_matrix(rng, n, 2, 2 ** 40, 1)
        col = rng.randrange(n)
        for i, row in enumerate(m):
            row[col] = LaurentPoly.zero()
            j = (col + 1 + i % (n - 1)) % n
            row[j] = row[j] or LaurentPoly.one()
        assert _check_against_reference(m).is_zero()
        # the last row a combination of the others over the ring, so of
        # rank at most n - 1
        m = _random_matrix(rng, n, 2, 9, 2)
        mult = [_random_entry(rng, 2, 5, 1) for _ in range(n - 1)]
        m[-1] = [sum((c * row[j] for c, row in zip(mult, m)),
                     LaurentPoly.zero()) for j in range(n)]
        assert _check_against_reference(m).is_zero()


@pytest.mark.parametrize("c", [1, 2, 3, 5, 7, 2 ** 20 - 1, 2 ** 20,
                               2 ** 20 + 1, 2 ** 40 - 1, 2 ** 40])
def test_bareiss_det_one_by_one(c):
    for sign in (1, -1):
        for a, b, wexp in ((0, 0, 0), (-3, 2, 0), (4, -4, 2)):
            e = LaurentPoly({(a, b): sign * c}, wexp)
            assert bareiss_det([[e]]) == e
        e = LaurentPoly({(0, 0): sign * c, (2, 0): -sign * c, (1, 1): c})
        assert bareiss_det([[e]]) == e


def test_bareiss_det_diagonal():
    rng = random.Random(9000)
    for n in range(1, 7):
        for height in (1, 2 ** 40):
            diag = [_random_entry(rng, 3, height, 3) or LaurentPoly.one()
                    for _ in range(n)]
            m = [[diag[i] if i == j else LaurentPoly.zero()
                  for j in range(n)] for i in range(n)]
            want = LaurentPoly.one()
            for e in diag:
                want = want * e
            assert bareiss_det(m) == want


def test_bareiss_det_reaches_q_degree_bound():
    """Triangular matrices whose diagonal entries span their rows: the
    determinant's q-degree is the sum S of the row q-spans, and its
    r-terms sit one digit past q^S.  Their transposes, whose diagonal
    entries span their columns, reach the same degree."""
    q, r, one = LaurentPoly.q, LaurentPoly.r, LaurentPoly.one()
    m = [[one + q(), LaurentPoly.zero()], [LaurentPoly.zero(), one + r()]]
    assert bareiss_det(m) == (one + q()) * (one + r())
    rng = random.Random(9100)
    for n in range(1, 6):
        spans = [rng.randint(0, 4) for _ in range(n)]
        m = []
        for i, s in enumerate(spans):
            row = []
            for j in range(n):
                if j < i:
                    row.append(LaurentPoly.zero())
                    continue
                terms = {(rng.randint(0, s), rng.randint(-2, 2)):
                         rng.randint(-2 ** 40, 2 ** 40)}
                if j == i:
                    terms = {(0, 0): -3, (s, 0): 2 ** 40 - 1,
                             (s, 1): -(2 ** 40)}
                row.append(LaurentPoly(terms))
            m.append(row)
        for matrix in (m, [list(col) for col in zip(*m)]):
            det = _check_against_reference(matrix)
            assert max(a for a, _b in det.terms) == sum(spans)


def test_bareiss_det_column_monomials():
    """Columns scaled by monomials q^a r^b of either sign, which the column
    shifts take out again: the determinant gains their product."""
    rng = random.Random(9200)
    for n in range(1, 6):
        for wmax in (0, 2):
            m = _random_matrix(rng, n, 2, 2 ** 20, wmax)
            scale = [LaurentPoly({(rng.randint(-30, 30),
                                   rng.randint(-3, 3)): 1})
                     for _ in range(n)]
            scaled = [[e * s for e, s in zip(row, scale)] for row in m]
            det = _check_against_reference(scaled)
            want = bareiss_det(m)
            for s in scale:
                want = want * s
            assert det == want


def _low_rank(a, b, n, zero=0):
    """The product of a (n x k) and b (k x n): an n x n matrix of rank at
    most k."""
    return [[sum((x * b[k][j] for k, x in enumerate(row)), zero)
             for j in range(n)] for row in a]


@pytest.mark.parametrize("n", range(3, 9))
def test_bareiss_det_low_rank_certified(n, monkeypatch):
    """(n x rank) (rank x n) products with rank 1 and n - 2 have
    determinant 0, and a verified kernel vector, not Bareiss, decides
    it."""
    verdicts = []
    certify = exactla._kernel_certifies_zero
    monkeypatch.setattr(exactla, "_kernel_certifies_zero",
                        lambda *args: verdicts.append(certify(*args))
                        or verdicts[-1])
    rng = random.Random(9500 + n)
    for rank in sorted({1, n - 2}):
        for height, wmax in ((1, 0), (9, 1), (2 ** 8, 0)):
            a, b = ([[_random_entry(rng, 2, height, wmax, 1)
                      or LaurentPoly.one() for _ in range(cols)]
                     for _ in range(rows)]
                    for rows, cols in ((n, rank), (rank, n)))
            m = _low_rank(a, b, n, LaurentPoly.zero())
            det = bareiss_det(m)
            assert det.is_zero()
            _check_at_points(m, det)
    assert verdicts and all(verdicts)


# integer matrices whose rank drops modulo PIVOT_PRIME but not over Z
P = PIVOT_PRIME
RANK_DROPS_MOD_P = [
    ([[P, 1], [0, 1]], P),
    ([[1, 1], [1, 1 + P]], P),
    ([[P, 0, 0], [0, P, 0], [0, 0, 1]], P * P),
    ([[2 * P, 3, 5], [P, 1, 2], [0, 4, 7]], -3 * P),
    ([[-P ** 3, 1], [0, -1]], P ** 3),
]


@pytest.mark.parametrize("matrix, det", RANK_DROPS_MOD_P,
                         ids=["upper", "P-below", "diagonal", "3x3", "cube"])
def test_rank_drop_mod_pivot_prime_falls_back(matrix, det):
    rows, cols = exactla._residue_pivots(matrix, P)
    assert (rows, cols) == gf_pivots(matrix, P)
    assert len(rows) < len(matrix)
    assert not exactla._kernel_certifies_zero(matrix, rows, cols)
    assert exactla._int_det([list(row) for row in matrix]) == det
    constant = [[LaurentPoly({(0, 0): x}) if x else LaurentPoly.zero()
                 for x in row] for row in matrix]
    assert bareiss_det(constant) == LaurentPoly({(0, 0): det})


@pytest.mark.parametrize("size", [1, 2, 3, 6, 10])
def test_kernel_vector_of_integer_low_rank(size):
    rng = random.Random(9700 + size)
    for rank in range(size):
        a = [[rng.randint(-2 ** 70, 2 ** 70) for _ in range(rank)]
             for _ in range(size)]
        b = [[rng.randint(-2 ** 70, 2 ** 70) for _ in range(size)]
             for _ in range(rank)]
        m = _low_rank(a, b, size)
        rows, cols = exactla._residue_pivots(m, P)
        assert (rows, cols) == gf_pivots(m, P)
        assert len(rows) == len(cols) == rank
        assert exactla._kernel_certifies_zero(m, rows, cols)
        assert exactla._int_det(m) == 0


def _random_symmetric(rng, n, nterms, height, wmax):
    m = _random_matrix(rng, n, nterms, height, wmax)
    for i in range(n):
        for j in range(i):
            m[i][j] = m[j][i]
    return m


@pytest.fixture
def elimination_calls(monkeypatch):
    """Counts the calls of the symmetric elimination, its pivot swaps that
    found a pivot, and the ``_bareiss`` calls that finish a symmetric
    elimination."""
    calls = {"symmetric": 0, "swap": 0, "hand-over": 0}
    inside = []
    sym, swap, bareiss = (exactla._symmetric_bareiss,
                          exactla._swap_in_pivot, exactla._bareiss)

    def counted_sym(*args):
        calls["symmetric"] += 1
        inside.append(True)
        try:
            return sym(*args)
        finally:
            inside.pop()

    def counted_swap(*args):
        found = swap(*args)
        calls["swap"] += found
        return found

    def counted_bareiss(*args):
        calls["hand-over"] += bool(inside)
        return bareiss(*args)

    monkeypatch.setattr(exactla, "_symmetric_bareiss", counted_sym)
    monkeypatch.setattr(exactla, "_swap_in_pivot", counted_swap)
    monkeypatch.setattr(exactla, "_bareiss", counted_bareiss)
    return calls


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_matches_reference(n, elimination_calls):
    """Symmetric matrices with w-denominators and r-terms take the
    symmetric elimination, and agree with the reference."""
    rng = random.Random(9800 + n)
    nonzero = 0
    for nterms, height, wmax in RANDOM_CASES[n]:
        m = _random_symmetric(rng, n, nterms, height, wmax)
        nonzero += not _check_against_reference(m).is_zero()
    assert nonzero and elimination_calls["symmetric"] >= nonzero


def test_symmetric_zero_pivot_swaps(elimination_calls):
    """A zero first diagonal entry is swapped for a later one, row and
    column together."""
    rng = random.Random(9900)
    for n in (2, 3, 5):
        m = _random_symmetric(rng, n, 2, 9, 2)
        for i in range(n):
            m[i][i] = m[i][i] or LaurentPoly.one()
        m[0][0] = LaurentPoly.zero()
        assert not _check_against_reference(m).is_zero()
    assert elimination_calls == {"symmetric": 3, "swap": 3, "hand-over": 0}


def test_symmetric_zero_diagonal_hands_over(elimination_calls):
    """An [[0, a], [a, 0]] block leaves an all-zero diagonal, alone or after
    two pivots of a block-diagonal matrix: ``_bareiss`` finishes from the
    last pivot."""
    q, r, one, zero = (LaurentPoly.q, LaurentPoly.r, LaurentPoly.one(),
                       LaurentPoly.zero())
    a = LaurentPoly({(1, 0): 3, (-2, 1): -5}, 1)
    pair = [[zero, a], [a, zero]]
    assert _check_against_reference(pair) == -(a * a)
    rng = random.Random(9950)
    head = _random_symmetric(rng, 2, 2, 9, 1)
    head[0][0] = head[0][0] or one + q()
    head[1][1] = head[1][1] or one + r()
    block = [row + [zero, zero] for row in head]
    block += [[zero, zero] + row for row in pair]
    det = _check_against_reference(block)
    assert det == laurent_bareiss_det(head) * -(a * a) and not det.is_zero()
    assert elimination_calls == {"symmetric": 2, "swap": 0, "hand-over": 2}
