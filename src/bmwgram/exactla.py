"""Exact linear algebra kernels: fraction-free determinants, certified zero
determinants and prime-field ranks.  No floating point anywhere."""

from __future__ import annotations

from math import isqrt

from .coeff import LaurentPoly


def bareiss_det(matrix):
    """Exact determinant of a square matrix of LaurentPoly entries, by
    Kronecker substitution and one exact integer determinant
    (``_int_det``).

    The entries are brought over their common denominator w^k, and each
    row is shifted by its lowest exponents of q and of r; the determinant
    changes by the product of those monomials and w^{-kn}.  Every minor of
    the shifted matrix, the determinant among them, is then a polynomial
    of q-degree at most S, the sum of the rows' q-spans.

    Bound: on the torus |q| = |r| = 1 an entry is at most the sum
    |a_ij|_1 of its absolute coefficients, so Hadamard's inequality bounds
    every minor there, and with it each of the minor's coefficients, by
    H = ceil(sqrt(prod_i sum_j |a_ij|_1^2)); no row is zero, so the rows
    a minor leaves out only raise the product.

    Width and stride: q -> 2^width and r -> 2^(width * (S + 1)) with
    2^(width - 1) > H send such a polynomial to the integer whose balanced
    base-2^width digits are its coefficients, q^a r^b at digit
    a + b (S + 1).  The map is injective on the minors, so Bareiss' pivots
    and exact divisions over Z are those of the polynomial ring (von zur
    Gathen and Gerhard, Modern Computer Algebra, 8.4; Bareiss, Math.
    Comp. 22, 1968), and the integer determinant is 0 exactly when the
    polynomial one is.  A zero is proved by an integer kernel vector,
    every other value by Bareiss: the result is exact and deterministic,
    and the prime of the rank pre-pass decides only which proof runs.
    """
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    k = max(e.wexp for row in matrix for e in row)
    rows = [[e._scaled_numerator(k - e.wexp) for e in row] for row in matrix]
    lows = []
    span = 0
    norm2 = 1
    for row in rows:
        keys = [key for terms in row for key in terms]
        if not keys:
            return LaurentPoly.zero()
        qlo = min(a for a, _b in keys)
        lows.append((qlo, min(b for _a, b in keys)))
        span += max(a for a, _b in keys) - qlo
        norm2 *= sum(sum(map(abs, terms.values())) ** 2 for terms in row)
    width = (isqrt(norm2 - 1) + 1).bit_length() + 1
    stride = width * (span + 1)
    det = _int_det([[sum(c << width * (a - qlo) + stride * (b - rlo)
                         for (a, b), c in terms.items())
                     for terms in row]
                    for row, (qlo, rlo) in zip(rows, lows)])
    qshift = sum(a for a, _b in lows)
    rshift = sum(b for _a, b in lows)
    mask = (1 << width) - 1
    half = 1 << width - 1
    out = {}
    pos = 0
    while det:
        digit = det & mask
        if digit >= half:
            digit -= 1 << width
        if digit:
            b, a = divmod(pos, span + 1)
            out[(qshift + a, rshift + b)] = digit
        det = (det - digit) >> width
        pos += 1
    return LaurentPoly(out, k * n)


# The prime of _int_det's rank pre-pass.  2 has order (P - 1)/2 modulo P,
# so the substituted q -> 2^width is no root of unity of small order there;
# modulo the Mersenne prime 2^61 - 1, 2 has order 61, and factors such as
# r - q^a of a determinant at generic r would vanish far more often.
PIVOT_PRIME = (1 << 62) - 57


def _int_det(m):
    """Determinant of a square integer matrix m; m is overwritten.

    A forward elimination over GF(PIVOT_PRIME) first picks pivot rows R and
    columns C, so m[R, C] is nonsingular modulo the prime and hence over Z.
    When the rank modulo the prime falls short, one column outside C gives
    a candidate kernel vector v (``_kernel_certifies_zero``); if m v = 0
    holds exactly, the determinant is 0.  Otherwise, and whenever the rank
    is full, Bareiss' elimination computes it.  The prime decides only how
    fast the answer comes, never what it is: 0 is returned only for a
    verified nonzero kernel vector."""
    n = len(m)
    rows, cols = _gf_pivots(m, PIVOT_PRIME)
    if len(rows) < n and _kernel_certifies_zero(m, rows, cols):
        return 0
    return _bareiss(m, n)


def _bareiss(m, ncols):
    """Bareiss' fraction-free forward elimination of the k rows of m, in
    place: pivots in the first k columns, and each pivot updates the
    columns right of it up to ``ncols``.  Returns the determinant of the
    leading k x k block, 0 once one of its columns has no pivot left.  Each
    division is exact, and a nonzero remainder raises ArithmeticError."""
    k = len(m)
    sign = 1
    prev = 1
    for col in range(k):
        for piv in range(col, k):
            if m[piv][col]:
                break
        else:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        top = m[col]
        pv = top[col]
        for row in m[col + 1:]:
            c = row[col]
            for j in range(col + 1, ncols):
                quo, rem = divmod(row[j] * pv - c * top[j], prev)
                if rem:
                    raise ArithmeticError("inexact division")
                row[j] = quo
        prev = pv
    return sign * prev


def _gf_pivots(m, p):
    """Pivot rows and columns, in pivot order, of a forward elimination of
    the integer matrix m over GF(p).  The submatrix on them is nonsingular
    modulo p, and their number is the rank modulo p."""
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


def _kernel_certifies_zero(m, rows, cols):
    """Whether a nonzero v with m v = 0 over Z comes out of the first column
    c outside ``cols``, given that m[rows, cols] is nonsingular.

    With d = det m[rows, cols], Cramer's rule makes the solution x of
    m[rows, cols] x = d m[rows, c] integral: fraction-free elimination of
    the augmented rows and exact back-substitution find it.  Then
    v = (x on cols, -d at c) is nonzero and m[rows] v = 0; it is a kernel
    vector of m exactly when the rows outside ``rows`` vanish on it too,
    which one product with every row decides."""
    c = next(j for j in range(len(m[0])) if j not in cols)
    rank = len(cols)
    aug = [[m[i][j] for j in cols] + [m[i][c]] for i in rows]
    d = _bareiss(aug, rank + 1)
    x = [0] * rank
    for i in reversed(range(rank)):
        row = aug[i]
        acc = d * row[rank] - sum(row[j] * x[j] for j in range(i + 1, rank))
        x[i], rem = divmod(acc, row[i])
        if rem:
            raise ArithmeticError("inexact division")
    support = cols + [c]
    x.append(-d)
    return not any(sum(row[j] * xj for j, xj in zip(support, x))
                   for row in m)


def gf_rank(rows, p):
    """Rank over GF(p) of an integer matrix (list of row lists): each row
    is packed into one integer, a field of ``width`` bits per column, the
    leftmost column lowest, and ``_packed_rank`` eliminates.  Fields start
    as residues, and ``width`` has room for min(rows, columns) pivots.
    """
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    width = (p - 1 + min(len(rows), ncols) * (p - 1) ** 2).bit_length()
    rest = []
    for row in rows:
        packed = 0
        for x in reversed(row):
            packed = packed << width | x % p
        rest.append(packed)
    return _packed_rank(rest, ncols, width, p)


def plan_rank(plan, p, q0, r0):
    """Rank over GF(p) of a ``coeff.EvalPlan``'s matrix at q = q0, r = r0.

    ``plan.fold`` packs the matrix at q0 as a polynomial in r once per
    (p, q0), and ``rows_at`` takes rlen multiply-adds of packed integers to
    reach r0.  With rlen == 1 the matrix is r0^rlo times one fixed matrix,
    whose rank the folded matrix keeps for every r0.
    """
    if not r0 % p:
        raise ValueError("q0 and r0 must be invertible")
    folded = plan.fold(p, q0)
    if folded.rank is not None:
        return folded.rank
    rank = _packed_rank(folded.rows_at(r0), plan.ncols, folded.width, p)
    if plan.rlen == 1:
        folded.rank = rank
    return rank


def _packed_rank(rest, ncols, width, p):
    """Rank over GF(p) of rows packed ``width`` bits per column, the
    leftmost column lowest, with nonnegative fields.

    Forward elimination: each pivot clears its column only in the rows not
    yet used as pivots, is never normalized, and updates only the columns
    to its right, so one multiply-add updates a whole row and a shift drops
    the finished column.  Only pivot rows are reduced mod p; every other
    field grows by at most (p-1)^2 per pivot, and the caller's ``width``
    leaves room for that, so no field carries into the next.
    """
    mask = (1 << width) - 1
    rank = 0
    for _ in range(ncols):
        for i, row in enumerate(rest):
            if (row & mask) % p:
                break
        else:
            rest = [row >> width for row in rest]
            continue
        piv = rest.pop(i)
        rank += 1
        neg_inv = -pow(piv & mask, -1, p)
        tail = shift = 0
        piv >>= width
        while piv:
            tail |= (piv & mask) % p << shift
            piv >>= width
            shift += width
        rest = [(row >> width) + (row & mask) * neg_inv % p * tail
                for row in rest]
        if not rest:
            break
    return rank


def gf_det(rows, p):
    """Determinant over GF(p) of a square integer matrix."""
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
