"""Exact linear algebra kernels: fraction-free determinants, certified zero
determinants and prime-field ranks.  No floating point anywhere.

Every elimination over GF(p) here is ``_packed_rank``, on rows packed into
one integer each, ``_field_size`` bytes per column and the first column
lowest: integer matrices by their residues (``_int_det``'s pivot pass) and
Gram matrices through an ``EvalPlan`` folded at (p, q0) (``plan_rank``)."""

from __future__ import annotations

from math import isqrt
from operator import mul

from .coeff import LaurentPoly


def bareiss_det(matrix):
    """Exact determinant of a square matrix of LaurentPoly entries, by
    Kronecker substitution and one exact integer determinant
    (``_int_det``).

    The entries are brought over their common denominator w^k.  Each row is
    shifted by its lowest exponents of q and of r, and then each column by
    its lowest remaining ones; the determinant changes by the product of
    those monomials and w^{-kn}, and a zero row or column makes it 0.  Every
    shifted entry has nonnegative exponents, and those of row i have
    q-degree at most the row's q-span s_i, so every minor of the shifted
    matrix, the determinant among them, is a polynomial of q-degree at most
    S = sum_i s_i.

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

    A symmetric matrix stays symmetric up to powers of 2 after the shifts:
    the substituted A has A[j][i] = A[i][j] 2^(e_i - e_j), with e_i the
    power of 2 that row i's shift divides out less the one that column i's
    shift divides out.  ``_int_det`` is then given e and eliminates only
    the upper triangle.
    """
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    k = max(e.wexp for row in matrix for e in row)
    rows = [[e._scaled_numerator(k - e.wexp) for e in row] for row in matrix]
    lows = [_lowest([key for terms in row for key in terms]) for row in rows]
    if None in lows:
        return LaurentPoly.zero()
    clows = [_lowest([(a - qlo, b - rlo)
                      for terms, (qlo, rlo) in zip(col, lows)
                      for a, b in terms])
             for col in zip(*rows)]
    if None in clows:
        return LaurentPoly.zero()
    span = 0
    norm2 = 1
    for row, (qlo, _rlo) in zip(rows, lows):
        span += max(a - qlo - cq for terms, (cq, _cr) in zip(row, clows)
                    for a, _b in terms)
        norm2 *= sum(sum(map(abs, terms.values())) ** 2 for terms in row)
    width = (isqrt(norm2 - 1) + 1).bit_length() + 1
    stride = width * (span + 1)
    twist = None
    if all(matrix[i][j] == matrix[j][i] for i in range(n) for j in range(i)):
        twist = [width * (qlo - cq) + stride * (rlo - cr)
                 for (qlo, rlo), (cq, cr) in zip(lows, clows)]
    det = _int_det([[sum(c << width * (a - qlo - cq) + stride * (b - rlo - cr)
                         for (a, b), c in terms.items())
                     for terms, (cq, cr) in zip(row, clows)]
                    for row, (qlo, rlo) in zip(rows, lows)], twist)
    qshift = sum(a for a, _b in lows + clows)
    rshift = sum(b for _a, b in lows + clows)
    out = {}
    for pos, digit in enumerate(_balanced_digits(det, width)):
        if digit:
            b, a = divmod(pos, span + 1)
            out[(qshift + a, rshift + b)] = digit
    return LaurentPoly(out, k * n)


def _balanced_digits(x, width):
    """Yield the digits of x in base 2^width, each in
    [-2^(width-1), 2^(width-1)), lowest first, in one pass: x is read as
    the two's complement of a few more bits than it has, byte by byte, and
    a digit at or above 2^(width-1) carries 1 into the next.  The top
    digits come out 0."""
    size = width * (x.bit_length() // width + 2)
    raw = (x & ((1 << size) - 1)).to_bytes(size // 8 + 1, "little")
    mask = (1 << width) - 1
    half = 1 << width - 1
    carry = 0
    for lo in range(0, size, width):
        chunk = int.from_bytes(raw[lo >> 3:((lo + width) >> 3) + 1], "little")
        digit = (chunk >> (lo & 7) & mask) + carry
        carry = digit >= half
        yield digit - (carry << width)


def _lowest(keys):
    """The lowest a and the lowest b over the exponent pairs (a, b) in the
    list ``keys``; None when it is empty."""
    if not keys:
        return None
    return min(a for a, _b in keys), min(b for _a, b in keys)


# The prime of _int_det's rank pre-pass.  2 has order (P - 1)/2 modulo P,
# so the substituted q -> 2^width is no root of unity of small order there;
# modulo the Mersenne prime 2^61 - 1, 2 has order 61, and factors such as
# r - q^a of a determinant at generic r would vanish far more often.
PIVOT_PRIME = (1 << 62) - 57


def _int_det(m, twist=None):
    """Determinant of a square integer matrix m; m is overwritten.

    A forward elimination over GF(PIVOT_PRIME) (``_residue_pivots``) first
    picks pivot rows R and columns C, so m[R, C] is nonsingular modulo the
    prime and hence over Z.
    When the rank modulo the prime falls short, the first column outside C
    gives a candidate kernel vector v (``_kernel_certifies_zero``); if
    m v = 0 holds exactly, the determinant is 0.  Otherwise, and whenever
    the rank is full, Bareiss' elimination computes it: ``_bareiss``, or
    ``_symmetric_bareiss`` when ``twist`` is given, which must then satisfy
    m[j][i] = m[i][j] 2^(twist[i] - twist[j]) and is overwritten too.  The prime decides only how
    fast the answer comes, never what it is: 0 is returned only for a
    verified nonzero kernel vector or by an exact elimination."""
    n = len(m)
    rows, cols = _residue_pivots(m, PIVOT_PRIME)
    if len(rows) < n and _kernel_certifies_zero(m, rows, cols):
        return 0
    if twist is None:
        return _bareiss(m, n)
    return _symmetric_bareiss(m, twist)


def _bareiss(m, ncols, prev=1):
    """Bareiss' fraction-free forward elimination of the k rows of m, in
    place: pivots in the first k columns, and each pivot updates the
    columns right of it up to ``ncols``.  Returns the determinant of the
    leading k x k block, 0 once one of its columns has no pivot left.  Each
    division is exact, and a nonzero remainder raises ArithmeticError.

    ``prev`` is the divisor of the first step: 1 for a whole matrix, and
    the last pivot when m holds the remaining rows of an elimination begun
    elsewhere (``_symmetric_bareiss``), whose determinant is then the
    result."""
    k = len(m)
    sign = 1
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


def _symmetric_bareiss(m, twist):
    """Bareiss' elimination of a square integer matrix m with
    m[j][i] = m[i][j] 2^(twist[i] - twist[j]); returns its determinant and
    overwrites m and twist.

    Every stage of Bareiss' elimination holds minors bordered by the
    pivots, and with diagonal pivots those minors keep the relation, so
    only entries on or above the diagonal are updated, and the entry below
    the pivot in row i is read as m[k][i] shifted by twist[k] - twist[i].
    A zero pivot is swapped, row and column together, with the first
    nonzero diagonal entry after it, which keeps the determinant and the
    relation (``_swap_in_pivot``); when no diagonal entry is left nonzero,
    ``_bareiss`` finishes the elimination."""
    n = len(m)
    prev = 1
    for k in range(n):
        if not m[k][k] and not _swap_in_pivot(m, twist, k):
            return _bareiss([row[k:] for row in m[k:]], n - k, prev)
        top = m[k]
        pv = top[k]
        for i in range(k + 1, n):
            row = m[i]
            c = _shifted(top[i], twist[k] - twist[i])
            for j in range(i, n):
                quo, rem = divmod(row[j] * pv - c * top[j], prev)
                if rem:
                    raise ArithmeticError("inexact division")
                row[j] = quo
        prev = pv
    return prev


def _swap_in_pivot(m, twist, k):
    """Fill in the entries of m below the diagonal from row and column k
    on, from those above it and ``twist``; then swap row and column k with
    those of the first later index whose diagonal entry is nonzero, and the
    two twists with them.  Returns False, having swapped nothing, when no
    such index exists."""
    n = len(m)
    for i in range(k + 1, n):
        for j in range(k, i):
            m[i][j] = _shifted(m[j][i], twist[j] - twist[i])
    piv = next((i for i in range(k + 1, n) if m[i][i]), None)
    if piv is None:
        return False
    m[k], m[piv] = m[piv], m[k]
    for row in m[k:]:
        row[k], row[piv] = row[piv], row[k]
    twist[k], twist[piv] = twist[piv], twist[k]
    return True


def _shifted(x, s):
    """x 2^s for an integer s of either sign; raises ArithmeticError if
    2^-s does not divide x."""
    if s >= 0:
        return x << s
    if x & ((1 << -s) - 1):
        raise ArithmeticError("inexact division")
    return x >> -s


def _kernel_certifies_zero(m, rows, cols):
    """Whether a nonzero v with m v = 0 over Z comes out of the first column
    c outside ``cols``, given ``_residue_pivots``' pivot rows and columns
    of m.

    That elimination runs column by column, so the columns left of c are
    the first c pivot columns, and c is dependent on them modulo the
    prime; with R = rows[:c], m[R, :c] is nonsingular.  With d its
    determinant, Cramer's rule makes the solution x of m[R, :c] x =
    d m[R, c] integral: fraction-free elimination of m[R, :c + 1] and exact
    back-substitution find it.  Then v = (x, -d, 0, ..., 0) is nonzero and
    m[R] v = 0; it is a kernel vector of m exactly when the other rows
    vanish on it too, which one product with every row decides."""
    c = next((j for j, col in enumerate(cols) if j != col), len(cols))
    aug = [m[i][:c + 1] for i in rows[:c]]
    d = _bareiss(aug, c + 1)
    x = [0] * c
    for i in reversed(range(c)):
        row = aug[i]
        acc = d * row[c] - sum(row[j] * x[j] for j in range(i + 1, c))
        x[i], rem = divmod(acc, row[i])
        if rem:
            raise ArithmeticError("inexact division")
    x.append(-d)
    return not any(sum(map(mul, row, x)) for row in m)


def _field_size(terms, pivots, p):
    """Bytes per field of packed rows over GF(p) whose fields start at
    most terms (p-1)^2 and meet at most ``pivots`` pivots, each adding at
    most (p-1)^2: 2k + 2 bits, k the bit length of (terms + pivots)(p-1)^2,
    the room of ``_packed_rank``'s Barrett reduction."""
    return (2 * ((terms + pivots) * (p - 1) ** 2).bit_length() + 9) // 8


def _residue_pivots(rows, p):
    """``_packed_rank``'s pivot rows and columns of an integer matrix (list
    of row lists, at least one column) over GF(p), each row packed as its
    residues."""
    ncols = len(rows[0])
    size = _field_size(1, min(len(rows), ncols), p)
    packed = [int.from_bytes(b"".join((x % p).to_bytes(size, "little")
                                      for x in row), "little")
              for row in rows]
    return _packed_rank(packed, ncols, 8 * size, p)


def _power_table(x, size, p):
    """[1, x, ..., x^(size-1)] over GF(p)."""
    out = [1]
    for _ in range(size - 1):
        out.append(out[-1] * x % p)
    return out


class EvalPlan:
    """A matrix of LaurentPoly entries compiled for ranks over GF(p) at
    q = q0, r = r0 (``plan_rank``).

    ``index`` points every position, row by row, at one of the distinct
    entries.  ``parts`` holds, for every distinct entry and every b with a
    monomial q^a r^(rlo+b) in it, the entry's power of w, the coefficients
    and the exponents a - qlo; ``where`` lists the numbers, counted from
    1, of the rlen parts of each distinct entry in turn, 0 for a zero part.
    """

    __slots__ = ("index", "nrows", "ncols", "parts", "where", "qlo",
                 "qlen", "rlo", "rlen", "wmax", "folded")

    def __init__(self, rows):
        slots = {}
        self.index = [slots.setdefault(e, len(slots))
                      for row in rows for e in row]
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        keys = [k for e in slots for k in e.terms] or [(0, 0)]
        self.qlo = min(a for a, _ in keys)
        self.qlen = max(a for a, _ in keys) - self.qlo + 1
        self.rlo = min(b for _, b in keys)
        self.rlen = max(b for _, b in keys) - self.rlo + 1
        self.wmax = max((e.wexp for e in slots), default=0)
        self.parts = []
        self.where = []
        for e in slots:
            by_r = {}
            for (a, b), c in e.terms.items():
                cs, qs = by_r.setdefault(b - self.rlo, ([], []))
                cs.append(c)
                qs.append(a - self.qlo)
            where = [0] * self.rlen
            for b, (cs, qs) in by_r.items():
                self.parts.append((e.wexp, cs, qs))
                where[b] = len(self.parts)
            self.where += where
        self.folded = None

    def fold(self, p, q0):
        """The matrix at q = q0 over GF(p) as a polynomial in r, a
        ``Folded``; only the last (p, q0) is kept, in the slot ``folded``.

        Its blocks[b] packs the matrix of the coefficients of r^(rlo+b),
        times the unit q0^-qlo, as residues mod p, row by row.  The matrix
        at r0 sums rlen blocks, each field a product of two residues, and
        the elimination meets at most nrows pivots: the fields are
        ``_field_size(rlen, nrows, p)`` bytes, so that one bytes join
        packs every block.
        """
        folded = self.folded
        if folded is not None and folded.point == (p, q0):
            return folded
        w0 = (q0 - pow(q0, -1, p)) % p if q0 % p else 0
        if w0 == 0:
            raise ValueError("q0 and w = q - q^-1 must be invertible")
        at = _power_table(q0, self.qlen, p).__getitem__
        wpow = _power_table(pow(w0, -1, p), self.wmax + 1, p)
        size = _field_size(self.rlen, self.nrows, p)
        pieces = [bytes(size)]
        pieces += [(sum(map(mul, cs, map(at, qs))) * wpow[k]
                    % p).to_bytes(size, "little") for k, cs, qs in self.parts]
        span = self.rlen * size
        coded = b"".join(map(pieces.__getitem__, self.where))
        coded = [coded[i:i + span] for i in range(0, len(coded), span)]
        data = b"".join(map(coded.__getitem__, self.index))
        blocks = []
        for b in range(self.rlen):
            block = bytearray(len(data) // self.rlen)
            for t in range(size):
                block[t::size] = data[b * size + t::span]
            blocks.append(int.from_bytes(block, "little"))
        self.folded = Folded((p, q0), size, self.nrows, self.ncols, blocks)
        return self.folded


class Folded:
    """An ``EvalPlan``'s matrix at one (p, q0), packed by ``EvalPlan.fold``.
    A new (p, q0) makes a new one, so a caller holding this one never sees
    it change, except that ``plan_rank`` may store in ``rank`` a rank that
    does not depend on r0."""

    __slots__ = ("point", "width", "step", "nbytes", "blocks", "rank")

    def __init__(self, point, size, nrows, ncols, blocks):
        self.point = point
        self.width = 8 * size
        self.step = ncols * size
        self.nbytes = nrows * self.step
        self.blocks = blocks
        self.rank = None

    def rows_at(self, r0):
        """The matrix at r = r0, times the unit r0^-rlo, as one packed
        integer per row."""
        rpow = _power_table(r0, len(self.blocks), self.point[0])
        data = sum(map(mul, rpow, self.blocks)).to_bytes(self.nbytes, "little")
        step = self.step
        return [int.from_bytes(data[i:i + step], "little")
                for i in range(0, self.nbytes, step or 1)]


def plan_rank(plan, p, q0, r0):
    """Rank over GF(p) of an ``EvalPlan``'s matrix at q = q0, r = r0.

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
    rows, _cols = _packed_rank(folded.rows_at(r0), plan.ncols,
                               folded.width, p)
    rank = len(rows)
    if plan.rlen == 1:
        folded.rank = rank
    return rank


def _packed_rank(rest, ncols, width, p):
    """Pivot rows and columns of a forward elimination over GF(p) of rows
    packed ``width`` bits per column, with nonnegative fields below
    2^((width-2)//2): the rows by their places in the list ``rest``,
    which is used up, and the columns, both in pivot order.  The submatrix
    on them is nonsingular modulo p, and their number is the rank modulo p.

    The pivot is the first remaining row nonzero mod p in the column.  It
    clears its column only in the rows not yet used as pivots, is never
    normalized, and updates only the columns to its right, so one
    multiply-add updates a whole row and a shift drops the finished
    column.  Only pivot rows are reduced mod p; every other field grows by
    at most (p-1)^2 per pivot, and the caller's ``width`` leaves room for
    that (``_field_size``), so no field carries into the next.  A pivot
    row is reduced in bulk by Barrett's reduction (CRYPTO '86): with
    k = (width-2)//2, s = k + bits(p) and m = floor(2^s/p) + 1,
    floor(f m / 2^s) = floor(f/p) for every field f < 2^k, and f m <
    2^width, so a product by m, a shift and a mask give every quotient.
    """
    mask = (1 << width) - 1
    shift = (width - 2) // 2 + p.bit_length()
    magic = (1 << shift) // p + 1
    quot = ((1 << width - shift) - 1) * (((1 << width * ncols) - 1) // mask)
    index = list(range(len(rest)))
    rows, cols = [], []
    for col in range(ncols):
        for i, row in enumerate(rest):
            if (row & mask) % p:
                break
        else:
            rest = [row >> width for row in rest]
            continue
        piv = rest.pop(i)
        rows.append(index.pop(i))
        cols.append(col)
        neg_inv = -pow(piv & mask, -1, p)
        piv >>= width
        tail = piv - p * ((piv * magic >> shift) & quot)
        rest = [(row >> width) + (row & mask) * neg_inv % p * tail
                for row in rest]
        if not rest:
            break
    return rows, cols
