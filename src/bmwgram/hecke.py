"""The Hecke algebra of the symmetric group on the permutation basis.

Elements are finite maps {permutation: LaurentPoly} with the usual rule
g_w g_i = g_{w s_i} when the length goes up and g_{w s_i} + w g_w when it
goes down (w here is the localization parameter q - q^{-1}).

The Murphy basis x_{st} = g_{d(s)}^* X_lam g_{d(t)} expands with support
{d(s)^{-1} x d(t) : x in the Young subgroup}, all products length-additive;
its lex-longest member d(s)^{-1} w_lam d(t) identifies (lam, s, t) uniquely,
which makes straightening a triangular pass by decreasing length.
"""

from __future__ import annotations

from functools import lru_cache
import itertools

from .coeff import LaurentPoly, add_term
from .combin import (apply_right_s, conjugate, d_of, perm_id, perm_inv,
                     perm_len, perm_mul, perm_word, right_ascent)

OMEGA = LaurentPoly.omega()


def _times_gen(terms, i):
    """The term dict of (sum c g_w) * g_i."""
    out = {}
    for w, c in terms.items():
        add_term(out, apply_right_s(w, i), c)
        if not right_ascent(w, i):
            add_term(out, w, OMEGA * c)
    return out


class HeckeElem:
    """Linear combination of permutation basis elements g_w."""

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = m
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def _wrap(cls, m, terms):
        """An element over a term dict that has no zero coefficient."""
        out = object.__new__(cls)
        out.m = m
        out.terms = terms
        return out

    @classmethod
    def one(cls, m):
        return cls(m, {perm_id(m): LaurentPoly.one()})

    @classmethod
    def gen(cls, m, i):
        if not 1 <= i <= m - 1:
            raise ValueError("generator index out of range")
        return cls(m, {apply_right_s(perm_id(m), i): LaurentPoly.one()})

    @classmethod
    def basis(cls, m, w):
        return cls(m, {w: LaurentPoly.one()})

    def __eq__(self, other):
        return self.m == other.m and self.terms == other.terms

    def __add__(self, other):
        if self.m != other.m:
            raise ValueError("degree mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, c)
        return HeckeElem._wrap(self.m, out)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.integer(-1))

    def scale(self, c):
        return HeckeElem(self.m, {w: c * x for w, x in self.terms.items()})

    def times_basis_word(self, word):
        terms = self.terms
        for i in word:
            terms = _times_gen(terms, i)
        return HeckeElem._wrap(self.m, terms)

    def __mul__(self, other):
        if self.m != other.m:
            raise ValueError("degree mismatch")
        out = {}
        for w, c in other.terms.items():
            for x, a in self.times_basis_word(perm_word(w)).terms.items():
                add_term(out, x, a * c)
        return HeckeElem._wrap(self.m, out)

    def star(self):
        """The anti-involution fixing the generators: g_w -> g_{w^{-1}}."""
        return HeckeElem(self.m, {perm_inv(w): c for w, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "HeckeElem(0)"
        bits = ["(%s)*g%s" % (c, list(w)) for w, c in sorted(self.terms.items())]
        return "HeckeElem(%s)" % " + ".join(bits)


@lru_cache(maxsize=None)
def young_subgroup(lam, m):
    """Elements of the Young subgroup of S_m attached to the rows of lam."""
    blocks = []
    start = 1
    for part in lam:
        blocks.append(list(range(start, start + part)))
        start += part
    if start - 1 != m:
        raise ValueError("partition does not fill the degree")
    elems = []
    pools = [list(itertools.permutations(block)) for block in blocks]
    for choice in itertools.product(*pools):
        w = list(range(1, m + 1))
        for block, img in zip(blocks, choice):
            for pos, val in zip(block, img):
                w[pos - 1] = val
        elems.append(tuple(w))
    return tuple(elems)


def x_lambda(lam, m=None):
    """X_lam = sum over the Young subgroup of q^{length} g_w."""
    if m is None:
        m = sum(lam)
    terms = {}
    for w in young_subgroup(lam, m):
        terms[w] = LaurentPoly.q(perm_len(w))
    return HeckeElem(m, terms)


def signed_symmetrizer(mu, m):
    """n_mu = sum over the Young subgroup of (-q)^{-length} g_w, the
    q-antisymmetrizer: g_i n_mu = -q^{-1} n_mu for row generators of mu."""
    terms = {}
    for w in young_subgroup(mu, m):
        l = perm_len(w)
        terms[w] = LaurentPoly.monomial((-1) ** (l % 2), -l, 0)
    return HeckeElem(m, terms)


def column_superstandard(lam):
    """The standard tableau filled 1, 2, ... down successive columns."""
    rows = [[0] * part for part in lam]
    conj = tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))
    num = 1
    for j, height in enumerate(conj):
        for i in range(height):
            rows[i][j] = num
            num += 1
    return tuple(tuple(row) for row in rows)


@lru_cache(maxsize=None)
def _cell_probe(lam, m):
    """Data for reading the X_lam-coefficient of elements of the two-sided
    cell generated by X_lam, modulo higher cells.

    Pairing any such element on the right with T_{d(t_col)} n_{lam'} kills
    everything above the cell and sends X_lam to the fixed nonzero probe
    element z; the coefficient is recovered by exact division.
    """
    wcol = perm_word(d_of(column_superstandard(lam)))
    n_el = signed_symmetrizer(conjugate(lam), m)
    z = x_lambda(lam, m).times_basis_word(wcol) * n_el
    if z.is_zero():
        raise AssertionError("degenerate cell probe for %r" % (lam,))
    zref = max(z.terms, key=lambda w: (perm_len(w), w))
    return wcol, z, zref


@lru_cache(maxsize=None)
def _value_blocks(mu, m):
    """The block of mu holding each value 1..m (index 0 unused), the first
    value of each block, and (-q)^{-l} for every length l in S_m."""
    block = [None]
    starts = []
    for b, part in enumerate(mu):
        starts.append(len(block))
        block.extend([b] * part)
    if len(block) != m + 1:
        raise ValueError("partition does not fill the degree")
    signs = tuple(LaurentPoly.monomial((-1) ** (l % 2), -l, 0)
                  for l in range(m * (m - 1) // 2 + 1))
    return tuple(block), tuple(starts), signs


def times_signed_symmetrizer(elem, mu):
    """elem * n_mu in closed form.

    Each x is x' y with y in the Young subgroup S_mu and x' the shortest
    element of x S_mu (the values of every block of mu put in increasing
    order), lengths adding; so g_x n_mu = (-q)^{-l(y)} g_{x'} n_mu, and
    g_{x'} n_mu = sum over y of (-q)^{-l(y)} g_{x'y}, whose supports are
    disjoint for distinct x'.
    """
    m = elem.m
    block, starts, signs = _value_blocks(mu, m)
    reps = {}
    for x, c in elem.terms.items():
        nxt = list(starts)
        rep = []
        inv = 0
        for k, v in enumerate(x):
            b = block[v]
            rep.append(nxt[b])
            nxt[b] += 1
            for u in x[k + 1:]:
                if u < v and block[u] == b:
                    inv += 1
        add_term(reps, tuple(rep), c * signs[inv])
    terms = {}
    for rep, a in reps.items():
        for y in young_subgroup(mu, m):
            terms[perm_mul(rep, y)] = a * signs[perm_len(y)]
    return HeckeElem._wrap(m, terms)


def cell_coefficient(elem, lam):
    """Coefficient c with elem = c * X_lam modulo higher cells.

    elem must lie in X_lam * H * X_lam + (higher cells); the result is
    exact and the full proportionality is checked.
    """
    wcol, z, zref = _cell_probe(lam, elem.m)
    paired = times_signed_symmetrizer(elem.times_basis_word(wcol),
                                      conjugate(lam))
    if paired.is_zero():
        return LaurentPoly.zero()
    num = paired.terms.get(zref, LaurentPoly.zero())
    c = _ratio(num, z.terms[zref])
    if not (paired - z.scale(c)).is_zero():
        raise AssertionError("element is not in the expected cell span")
    return c


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


def _ratio(a, b):
    """Exact quotient a / b in the localized Laurent ring."""
    anum = LaurentPoly(dict(a.terms))
    bnum = LaurentPoly(dict(b.terms))
    if a.wexp >= b.wexp:
        quo = _divexact(anum, bnum)
        return LaurentPoly(dict(quo.terms), a.wexp - b.wexp)
    anum = anum * (LaurentPoly.omega() ** (b.wexp - a.wexp))
    return _divexact(anum, bnum)


def cell_form(elem, lam):
    """<elem>_lam: the coefficient c with X_lam elem X_lam = c X_lam modulo
    the higher cells, read term by term through cell_value."""
    total = LaurentPoly.zero()
    for w, c in elem.terms.items():
        total = total + c * cell_value(lam, w)
    return total


@lru_cache(maxsize=None)
def cell_value(lam, w):
    """<g_w>_lam, kept in a table filled only for the w met.

    w factors as a d b with a, b in the Young subgroup S_lam, d the
    shortest element of S_lam w S_lam and the lengths adding (Dipper-James
    1986; Mathas, ULECT 15, ch. 3).  As g_a X_lam = q^{l(a)} X_lam =
    X_lam g_a, <g_w> = q^{l(w)-l(d)} c_d with c_d = <g_d>.  c_1 is the sum
    over S_lam of q^{2 l(y)}; every other c_d is one cell_coefficient call.
    """
    m = len(w)
    d = double_coset_min(lam, w)
    if d != w:
        return cell_value(lam, d) * LaurentPoly.q(perm_len(w) - perm_len(d))
    if d == perm_id(m):
        return sum((LaurentPoly.q(2 * perm_len(y))
                    for y in young_subgroup(lam, m)), LaurentPoly.zero())
    x = x_lambda(lam, m)
    return cell_coefficient(x.times_basis_word(perm_word(d)) * x, lam)


def double_coset_min(lam, w):
    """The shortest element of S_lam w S_lam: each row block of positions
    takes, value block by value block, the smallest values not yet placed,
    as many as w puts there."""
    block, nxt, _signs = _value_blocks(lam, len(w))
    nxt = list(nxt)
    d = []
    pos = 0
    for part in lam:
        count = [0] * len(lam)
        for v in w[pos:pos + part]:
            count[block[v]] += 1
        for b, c in enumerate(count):
            d.extend(range(nxt[b], nxt[b] + c))
            nxt[b] += c
        pos += part
    return tuple(d)
