"""Exact linear algebra kernels: fraction-free determinants and prime-field
ranks.  No floating point anywhere."""

from __future__ import annotations

from math import isqrt

from .coeff import LaurentPoly


def bareiss_det(matrix):
    """Exact determinant of a square matrix of LaurentPoly entries, by
    Kronecker substitution and one fraction-free elimination over Z.

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
    and exact divisions over Z are those of the polynomial ring, and the
    result is exact, with no prime and no probabilistic step (von zur
    Gathen and Gerhard, Modern Computer Algebra, 8.4; Bareiss, Math.
    Comp. 22, 1968).
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


def _int_det(m):
    """Determinant of a square integer matrix by Bareiss' fraction-free
    elimination; m is overwritten.  Each division is exact, and a nonzero
    remainder raises ArithmeticError."""
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n):
        for piv in range(col, n):
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
            for j in range(col + 1, n):
                quo, rem = divmod(row[j] * pv - c * top[j], prev)
                if rem:
                    raise ArithmeticError("inexact division")
                row[j] = quo
        prev = pv
    return sign * prev


def gf_rank(rows, p):
    """Rank over GF(p) of an integer matrix (list of row lists).

    Forward elimination: each pivot clears its column only in the rows not
    yet used as pivots, is never normalized, and updates only the columns
    to its right.  A row is packed into one integer with a field of
    ``width`` bits per remaining column, the leftmost column lowest, so one
    multiply-add updates a whole row and a shift drops the finished column.
    Only pivot rows are reduced mod p; every other field grows by at most
    (p-1)^2 per pivot, and ``width`` has room for min(rows, columns)
    pivots, so no field carries into the next.
    """
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    width = (p - 1 + min(len(rows), ncols) * (p - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    rest = []
    for row in rows:
        packed = 0
        for x in reversed(row):
            packed = packed << width | x % p
        rest.append(packed)
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
