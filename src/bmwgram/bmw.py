"""The Birman-Murakami-Wenzl algebra on its normal-word basis.

A normal word (f, u, w, v) stands for T_u^* E^{f,n} T_w T_v with u, v in the
dangle transversal D_{f,n} and w a permutation of the first n-2f points;
E^{f,n} = E_{n-1} E_{n-3} ... E_{n-2f+1}.  Elements are finite maps from
normal words to Laurent coefficients.

Multiplication works token by token.  Right multiplication of E^{f,n} T_z by
a braid generator canonicalizes z inside its coset by three local moves
(intra-pair crossing absorption at cost r^{-1}; block swaps and nested pair
exchanges for free; crossing pair exchanges through the quadratic relation).
Right multiplication by a contraction generator peels the strands feeding
the contraction and reduces to a handful of derived identities:

    T_i T_{i±1} E_i = E_{i±1} E_i        E_i T_{i±1} T_i = E_i E_{i±1}
    E_i E_{i±1} = E_i T_{i±1} T_i        E_i T_i = T_i E_i = r^{-1} E_i
    E_i^2 = delta E_i                    E^{f,n} E_{n-2f-1} = E^{f+1,n}

plus the quadratic relation T_i^2 = 1 + w T_i - w r^{-1} E_i.  There is no
normal-form algorithm in the literature to follow here; the strategy below
is validated by the relation, associativity and dimension suites.

Every shape has one reduction, chosen by the word alone, so a product does
not depend on what the tables already hold.  Termination is checked, not
proved:
- all 112,206 word x generator products at n <= 6, each from empty tables,
  terminate; the 8,256 at n <= 5 are pinned by one sha256 in the tests;
- all 26 cells at n = 7 build (the three f = 2 cells to a sha256 pinned
  in the tests);
- every cell with n <= 7 builds under a recursion limit of 150 frames
  (every n <= 6 cell and three n = 7 cells in the tests).
A cycle brought back by an edit would show as a RecursionError.

The tower form phi_f (phi_pairs) needs only the products E^{f,n} T_v T_i
with v a dangle: modulo J_{f+1} it is left-linear over the Hecke algebra
of S_{n-2f}, because T_w for w in S_{n-2f} commutes with E^{f,n}, so a
word E^{f,n} T_w T_v is read as g_w times the value at E^{f,n} T_v.
"""

from __future__ import annotations

from .coeff import DELTA, LaurentPoly, add_term, lincomb
from .combin import (apply_right_s, dangle_from_data, dfn, perm_id,
                     perm_inv, perm_len, perm_mul, perm_word, right_ascent)
from .hecke import HeckeElem

ONE = LaurentPoly.one()
OMEGA = LaurentPoly.omega()
R_INV = LaurentPoly.r(-1)

_WT = {}
_WE = {}


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def word_one(n):
    return (0, perm_id(n), perm_id(n), perm_id(n))


def word_efn(n, f):
    return (f, perm_id(n), perm_id(n - 2 * f), perm_id(n))


def merge_wv(n, f, w, v):
    """The permutation w·v with w acting on the first n-2f points."""
    m = n - 2 * f
    return tuple(v[w[x] - 1] if x < m else v[x] for x in range(n))


def split_wv(n, f, z):
    """Inverse of merge_wv for a canonical z: returns (w, v)."""
    m = n - 2 * f
    thr = z[:m]
    order = sorted(thr)
    rank = {val: pos + 1 for pos, val in enumerate(order)}
    w = tuple(rank[val] for val in thr)
    v = tuple(order) + z[m:]
    return w, v


def word_tokens(n, word):
    """Generator tokens whose product is the word."""
    f, u, w, v = word
    m = n - 2 * f
    toks = [("T", i) for i in reversed(perm_word(u))]
    toks += [("E", j) for j in range(n - 1, m, -2)]
    toks += [("T", i) for i in perm_word(w)]
    toks += [("T", i) for i in perm_word(v)]
    return toks


def star_word(word):
    f, u, w, v = word
    return (f, v, perm_inv(w), u)


def all_words(n):
    for f in range(n // 2 + 1):
        m = n - 2 * f
        from itertools import permutations
        for u in dfn(f, n):
            for w in permutations(range(1, m + 1)):
                for v in dfn(f, n):
                    yield (f, u, tuple(w), v)


def basis_size(n):
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


# ---------------------------------------------------------------------------
# element dictionaries
# ---------------------------------------------------------------------------

def _scale(elem, coeff):
    return {wd: c * coeff for wd, c in elem.items()}


def _combine(target, elem, coeff=None):
    for wd, c in elem.items():
        add_term(target, wd, c if coeff is None else c * coeff)


# The optional level cap fmax of the products below drops the words of
# level f > fmax after every generator (mul_elems: from both operands too).
# That is exact for the words of level <= fmax: the span of the normal words
# of level >= fmax + 1 is the two-sided ideal J_{fmax+1} (the cellular
# filtration), so nothing dropped can reach a lower level.
def elem_times_token(n, elem, token, fmax=None):
    out = {}
    kind, i = token
    for word, c in elem.items():
        res = _wt_cached(n, word, i) if kind == "T" else _we_cached(n, word, i)
        for wd, d in res.items():
            if fmax is None or wd[0] <= fmax:
                add_term(out, wd, d * c)
    return out


def fold(n, elem, tokens, fmax=None):
    for token in tokens:
        elem = elem_times_token(n, elem, token, fmax)
    return elem


def fold_T(n, elem, letters, fmax=None):
    return fold(n, elem, [("T", i) for i in letters], fmax)


def mul_elems(n, left, right, fmax=None):
    out = {}
    if fmax is not None:
        left = {wd: c for wd, c in left.items() if wd[0] <= fmax}
    for word, c in right.items():
        if fmax is None or word[0] <= fmax:
            _combine(out, fold(n, _scale(left, c), word_tokens(n, word), fmax))
    return out


def star_elem(elem):
    return {star_word(word): c for word, c in elem.items()}


def lmul_ustar(n, u, elem):
    """T_u^* * elem via the anti-involution."""
    if u == perm_id(n):
        return dict(elem)
    return star_elem(fold_T(n, star_elem(elem), perm_word(u)))


# ---------------------------------------------------------------------------
# coset canonicalization of E^{f,n} T_z
# ---------------------------------------------------------------------------

def efn_times_perm(n, f, z, coeff=None):
    """Normal form of E^{f,n} T_z as {(w, v): coefficient}."""
    m = n - 2 * f
    out = {}
    stack = [(coeff if coeff is not None else ONE, z)]
    while stack:
        c, z = stack.pop()
        lz = list(z)
        # intra-pair inversion: absorb one crossing into the contraction
        hit = False
        for k in range(f):
            pos = m + 2 * k
            if lz[pos] > lz[pos + 1]:
                lz[pos], lz[pos + 1] = lz[pos + 1], lz[pos]
                stack.append((c * R_INV, tuple(lz)))
                hit = True
                break
        if hit:
            continue
        # adjacent pair blocks out of order
        for k in range(f - 1):
            pos = m + 2 * k
            v1, v2, v3, v4 = lz[pos:pos + 4]
            if v1 < v3:
                continue
            a, b, cc, d = sorted((v1, v2, v3, v4))
            if (v1, v2) == (cc, d):
                lz[pos:pos + 4] = [v3, v4, v1, v2]
                stack.append((c, tuple(lz)))
            elif (v1, v2) == (b, cc):
                lz[pos:pos + 4] = [a, d, b, cc]
                stack.append((c, tuple(lz)))
            else:
                base = list(lz)
                base[pos:pos + 4] = [a, cc, b, d]
                stack.append((c, tuple(base)))
                base[pos:pos + 4] = [a, b, cc, d]
                stack.append((-c * OMEGA, tuple(base)))
                base[pos:pos + 4] = [a, d, b, cc]
                stack.append((c * OMEGA, tuple(base)))
            hit = True
            break
        if hit:
            continue
        add_term(out, split_wv(n, f, tuple(lz)), c)
    return out


def _attach(u, f, wvdict):
    return {(f, u, w, v): c for (w, v), c in wvdict.items()}


# ---------------------------------------------------------------------------
# right multiplication by T_i
# ---------------------------------------------------------------------------

def _wt_cached(n, word, i):
    key = (n, word, i, "T")
    hit = _WT.get(key)
    if hit is None:
        hit = _WT[key] = _wt(n, word, i)
    return hit


def _wt(n, word, i):
    f, u, w, v = word
    y = merge_wv(n, f, w, v)
    if right_ascent(y, i):
        return _attach(u, f, efn_times_perm(n, f, apply_right_s(y, i)))
    y2 = apply_right_s(y, i)
    shorter = _attach(u, f, efn_times_perm(n, f, y2))
    out = dict(shorter)
    add_term(out, word, OMEGA)
    for wd, c in shorter.items():
        _combine(out, _we_cached(n, wd, i), -c * OMEGA * R_INV)
    return out


# ---------------------------------------------------------------------------
# right multiplication by E_i
# ---------------------------------------------------------------------------

def _we_cached(n, word, i):
    f, u, w, v = word
    if u != perm_id(n):
        # the left dangle is inert: absorb on the reduced word, then put
        # the prefix back by the anti-involution
        return lmul_ustar(n, u, _we_cached(n, (f, perm_id(n), w, v), i))
    key = (n, word, i, "E")
    hit = _WE.get(key)
    if hit is None:
        hit = _WE[key] = _we(n, word, i)
    return hit


def _pair_partner(m, pos):
    return pos + 1 if (pos - m) % 2 == 1 else pos - 1


def _we(n, word, i):
    # reached only through _we_cached, so the left dangle u is the identity
    f, u, w, v = word
    m = n - 2 * f
    y = merge_wv(n, f, w, v)
    a = y.index(i) + 1
    b = y.index(i + 1) + 1

    # descent under the contraction: absorb one crossing
    if a > b:
        out = {}
        for (w2, v2), c in efn_times_perm(n, f, apply_right_s(y, i)).items():
            _combine(out, _we_cached(n, (f, u, w2, v2), i), c * R_INV)
        return out

    # both legs of the new contraction come from one existing pair: a
    # closed loop no other strand can link
    if a > m and b == _pair_partner(m, a):
        return {word: DELTA}

    if y == perm_id(n):
        return _block_times_E(n, f, i)

    # peel a left descent: T_y E_i = T_j (T_{s_j y} E_i), length drops,
    # and T_j passes the block (j < m; y is increasing on every pair)
    for j in range(1, m):
        if y[j - 1] > y[j]:
            y2 = list(y)
            y2[j - 1], y2[j] = y2[j], y2[j - 1]
            inner = {}
            for (w2, v2), c in efn_times_perm(n, f, tuple(y2)).items():
                _combine(inner, _we_cached(n, (f, u, w2, v2), i), c)
            return lmul_ustar(n, apply_right_s(perm_id(n), j), inner)

    # a right descent commuting with E_i peels off
    for j in range(1, n):
        if abs(j - i) >= 2 and not right_ascent(y, j):
            base = _attach(u, f, efn_times_perm(n, f, apply_right_s(y, j)))
            return fold(n, base, [("E", i), ("T", j)])

    # remaining shape: every right descent of y is i - 1 or i + 1.
    # When the values i - 1 and i + 1 form one pair, i - 1 is a descent
    # (the strand ending at i starts left of that pair), and
    #   T_y E_i = T_{y s_{i-1}} T_{i-1} E_i = T_{y s_{i-1}} T_i^{-1} E_{i-1} E_i
    # with the pair now at (i, i+1): T_i^{-1} on it is the factor r, and
    # E_{i-1} E_i is a double zigzag through it that gives the word back.
    if i > 1:
        pos = y.index(i - 1) + 1
        if pos > m and b == _pair_partner(m, pos):
            return _attach(u, f, efn_times_perm(n, f, apply_right_s(y, i - 1),
                                                LaurentPoly.r(1)))
    # otherwise peel the first right descent j through
    # T_j E_i = T_i^{-1} E_j E_i = T_i^{-1} E_j T_i T_j
    for j in (i - 1, i + 1):
        if 1 <= j <= n - 1 and not right_ascent(y, j):
            base = _attach(u, f, efn_times_perm(n, f, apply_right_s(y, j)))
            mid = elem_times_token(n, _elem_times_Tinv(n, base, i), ("E", j))
            return fold_T(n, mid, [i, j])
    raise RuntimeError("no reduction applies to %r E_%d" % (word, i))


def _elem_times_Tinv(n, elem, i):
    """Right multiplication by T_i^{-1} = T_i - w + w E_i."""
    out = {}
    for wd, c in elem.items():
        f, u, w, v = wd
        y = merge_wv(n, f, w, v)
        if not right_ascent(y, i):
            _combine(out, _attach(u, f, efn_times_perm(n, f, apply_right_s(y, i))), c)
        else:
            _combine(out, _wt_cached(n, wd, i), c)
            add_term(out, wd, -c * OMEGA)
            _combine(out, _we_cached(n, wd, i), c * OMEGA)
    return out


def _block_times_E(n, f, i):
    """E^{f,n} E_i for a generator index i that is no pair's own cup
    (callers meet that case as a closed loop first)."""
    m = n - 2 * f
    if i <= m - 1:
        return _pure_base(n, f, i)
    # i sits between two contracted pairs: E_{i+1} E_i = E_{i+1} T_i T_{i+1}
    z = perm_mul(apply_right_s(perm_id(n), i), apply_right_s(perm_id(n), i + 1))
    return _attach(perm_id(n), f, efn_times_perm(n, f, z))


def _pure_base(n, f, i):
    """E^{f,n} E_i for i <= n-2f-1: the single router word, coefficient 1
    (at f = 0 the generator E_i).

    Induction down from i = n-2f-1 (where the product is E^{f+1,n} on the
    nose) through E^{f,n} E_i = T_{i+1} T_i (E^{f,n} E_{i+1}) E_i, whose
    right side collapses to one word by the pair-contraction rules.
    """
    m = n - 2 * f
    through = [x for x in range(1, m + 1) if x not in (i, i + 1)]
    pairs = [(i, i + 1)] + [(m + 2 * k + 1, m + 2 * k + 2) for k in range(f)]
    u1 = dangle_from_data(n, f + 1, through, pairs)
    return {(f + 1, u1, perm_id(m - 2), u1): ONE}


# ---------------------------------------------------------------------------
# public elements
# ---------------------------------------------------------------------------

class BmwElem:
    """Linear combination of normal words of the degree-n algebra."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {wd: c for wd, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def one(cls, n):
        return cls(n, {word_one(n): ONE})

    @classmethod
    def generator(cls, kind, i, n):
        if not 1 <= i <= n - 1:
            raise ValueError("generator index out of range")
        if kind == "T":
            return cls(n, {(0, perm_id(n), apply_right_s(perm_id(n), i), perm_id(n)): ONE})
        if kind == "E":
            return cls(n, _pure_base(n, 0, i))
        if kind == "T_inv":
            out = cls.generator("T", i, n).terms.copy()
            add_term(out, word_one(n), -OMEGA)
            _combine(out, _pure_base(n, 0, i), OMEGA)
            return cls(n, out)
        raise ValueError("kind must be T, T_inv or E")

    @classmethod
    def from_word(cls, n, word):
        return cls(n, {word: ONE})

    def __eq__(self, other):
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("degree mismatch")
        out = dict(self.terms)
        for wd, c in other.terms.items():
            add_term(out, wd, c)
        return BmwElem(self.n, out)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.integer(-1))

    def scale(self, c):
        return BmwElem(self.n, _scale(self.terms, c))

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return BmwElem(self.n, mul_elems(self.n, self.terms, other.terms))

    def star(self):
        return BmwElem(self.n, star_elem(self.terms))

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        bits = []
        for wd in sorted(self.terms):
            bits.append("(%s)*%s" % (self.terms[wd], (wd[0], wd[1], wd[2], wd[3])))
        return "BmwElem[n=%d: %s]" % (self.n, " + ".join(bits) or "0")


def generator(kind, i, n):
    return BmwElem.generator(kind, i, n)


def e_fn(f, n):
    if not 0 <= 2 * f <= n:
        raise ValueError("need 0 <= 2f <= n")
    return BmwElem(n, {word_efn(n, f): ONE})


def jucys_murphy(i, n):
    """L_1 = r, L_i = T_{i-1} L_{i-1} T_{i-1}."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    out = BmwElem.one(n).scale(LaurentPoly.r())
    for j in range(2, i + 1):
        t = BmwElem.generator("T", j - 1, n)
        out = t * out * t
    return out


def hecke_image(x, f=0):
    """The Hecke element h = sum c_w g_w of S_{n-2f} read off the level-f,
    dangle-free words (f, 1, w, 1) of x: x = E^{f,n} h plus words of other
    levels or dangles.  At f = 0 it is the quotient by the contraction
    ideal."""
    idn = perm_id(x.n)
    terms = {}
    for (ff, uu, ww, vv), c in x.terms.items():
        if ff == f and uu == idn and vv == idn:
            terms[ww] = c
    return HeckeElem(x.n - 2 * f, terms)


def phi_f(u, v, f, n):
    """The tower bilinear form: the Hecke element h with
    E^{f,n} T_u T_v^* E^{f,n} = E^{f,n} h modulo the contraction ideal of
    the small algebra; phi_0 = 1, and phi_f(v, u) = phi_f(u, v)^*.

    The product is taken modulo J_{f+1}, the span of the words of level
    > f: that span is a two-sided ideal, so dropping it after every
    generator leaves the level-f words, which are all that h reads, exact.

    One pair, folded from E^{f,n} on: the reference that phi_pairs, which
    shares the work across v, is tested against.
    """
    if u not in dfn(f, n) or v not in dfn(f, n):
        raise ValueError("arguments must lie in the dangle transversal")
    m = n - 2 * f
    elem = {word_efn(n, f): ONE}
    elem = fold_T(n, elem, perm_word(u), f)
    elem = fold_T(n, elem, list(reversed(perm_word(v))), f)
    elem = fold(n, elem, [("E", j) for j in range(n - 1, m, -2)], f)
    return hecke_image(BmwElem(n, elem), f)


def dangle_parent(v, f, n):
    """(parent, i) with v = parent s_i and i the last letter of perm_word(v),
    for v != 1 in D_{f,n}.  The parent lies in D_{f,n}, one length shorter;
    a RuntimeError says so if it does not."""
    i = perm_word(v)[-1]
    parent = apply_right_s(v, i)
    if parent not in dfn(f, n) or perm_len(parent) != perm_len(v) - 1:
        raise RuntimeError("dangle transversal D_{%d,%d} not closed under "
                           "dropping the last letter of %r" % (f, n, v))
    return parent, i


def phi_pairs(f, n):
    """Yield (u, v, phi_f(u, v)) for every u <= v in D_{f,n}.

    Write Psi_v(x) for the level-f, dangle-free part of x T_v^* E^{f,n}, so
    that phi_f(u, v) = Psi_v(E^{f,n} T_u).  With v = parent s_i
    (dangle_parent), T_v^* = T_i T_parent^*, hence Psi_v(x) =
    Psi_parent(x T_i): the transversal is a tree rooted at 1, and only the
    root folds E^{f,n}.

    Psi_v is left-linear over the Hecke algebra of S_m, m = n - 2f.  For
    w in S_m, T_w moves only the first m strands, so it commutes with
    E^{f,n}:

        E^{f,n} T_w T_v' T_v^* E^{f,n} = T_w (E^{f,n} T_v' T_v^* E^{f,n}).

    Modulo J_{f+1}, where every contraction E_j with j < m that a product
    E^{f,n} T_w T_y meets lands, E^{f,n} T_w T_y = E^{f,n} g_w g_y.  Hence

        Psi_v(E^{f,n} T_w T_v') = g_w Psi_v(E^{f,n} T_v') = g_w phi_f(v', v).

    A level-f word T_u^* E^{f,n} T_w T_v' with u != 1 keeps its left
    dangle under right factors, so Psi_v reads nothing from it.  Each node
    therefore keeps one row, Psi_v(E^{f,n} T_v') keyed by the dangle v' and
    filled on demand.  An entry at a child is Psi_parent of the level-f
    words of E^{f,n} T_v' T_i, each one Hecke product g_w times an entry of
    the parent's row; its coefficient at each g_x is summed over those
    words by one coeff.lincomb call.  The structure-constant tables see
    only dangle words, and the root folds E^{f,n} onto |D_{f,n}| of them.  The walk is depth
    first, and a node's row lives only while its subtree is open.
    """
    dangles = dfn(f, n)
    idn = perm_id(n)
    m = n - 2 * f
    children = {v: [] for v in dangles}
    for v in dangles:
        if v != idn:
            parent, i = dangle_parent(v, f, n)
            children[parent].append((v, i))
    one_m = perm_id(m)
    # E^{f,n} T_v' is the normal word (f, 1, 1, v')
    heads = {v: (f, idn, one_m, v) for v in dangles}
    contract = [("E", j) for j in range(n - 1, m, -2)]

    def at_root(dangle):
        elem = fold(n, {heads[dangle]: ONE}, contract, f)
        return hecke_image(BmwElem(n, elem), f).terms

    def below(parent_row, i):
        def entry(dangle):
            pairs = {}
            prod = _wt_cached(n, heads[dangle], i)
            for (ff, uu, ww, vv), d in prod.items():
                if ff == f and uu == idn:
                    h = parent_row(vv)
                    if ww != one_m:
                        # g_w h = (h^* g_w^*)^*, g_w^* the reversed word
                        h = HeckeElem(m, h).star().times_basis_word(
                            reversed(perm_word(ww))).star().terms
                    for x, c in h.items():
                        pairs.setdefault(x, []).append((c, d))
            terms = {}
            for x, xpairs in pairs.items():
                c = lincomb(xpairs)
                if c:
                    terms[x] = c
            return terms
        return entry

    def row_of(entry):
        memo = {}

        def cached(dangle):
            hit = memo.get(dangle)
            if hit is None:
                hit = memo[dangle] = entry(dangle)
            return hit
        return cached

    def walk(v, row):
        for u in dangles:
            if u <= v:
                yield u, v, HeckeElem(m, row(u))
        for child, i in children[v]:
            yield from walk(child, row_of(below(row, i)))

    yield from walk(idn, row_of(at_root))

