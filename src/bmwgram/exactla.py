"""Exact linear algebra kernels: fraction-free determinants and prime-field
ranks.  No floating point anywhere."""

from __future__ import annotations

from .coeff import LaurentPoly


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


def bareiss_det(matrix):
    """Exact determinant of a square matrix of LaurentPoly entries.

    Clears w-denominators first, then runs fraction-free elimination over
    the Laurent ring; the cleared powers are divided back out at the end.
    """
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
