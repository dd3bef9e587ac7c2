"""Partitions, tableaux, permutations and the dangle-coset combinatorics.

Permutations are one-line tuples acting on points from the right:
(x)w = w[x-1], and (x)(uv) = ((x)u)v, so reduced words concatenate under
this product.  Right multiplication by s_i swaps the values i, i+1;
left multiplication swaps positions i, i+1.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def perm_id(n):
    return tuple(range(1, n + 1))

def perm_mul(u, v):
    return tuple(v[x - 1] for x in u)

def perm_inv(u):
    out = [0] * len(u)
    for i, x in enumerate(u):
        out[x - 1] = i + 1
    return tuple(out)

def perm_len(u):
    n = len(u)
    return sum(1 for i in range(n) for j in range(i + 1, n) if u[i] > u[j])

def apply_right_s(u, i):
    """u * s_i: swap the values i and i+1."""
    out = list(u)
    a = out.index(i)
    b = out.index(i + 1)
    out[a], out[b] = out[b], out[a]
    return tuple(out)

def right_ascent(u, i):
    """True iff l(u s_i) = l(u) + 1."""
    return u.index(i) < u.index(i + 1)

def perm_word(u):
    """Canonical reduced word (letters i meaning s_i), built by peeling
    the smallest right descent."""
    word = []
    cur = u
    while True:
        for i in range(1, len(cur)):
            if not right_ascent(cur, i):
                word.append(i)
                cur = apply_right_s(cur, i)
                break
        else:
            break
    word.reverse()
    return tuple(word)

def perm_from_word(n, word):
    u = perm_id(n)
    for i in word:
        u = apply_right_s(u, i)
    return u

def s_range(n, i, j):
    """s_{i,j}: the cycle sending i to j (paper-style chain of adjacent
    transpositions); identity when i = j."""
    if i == j:
        return perm_id(n)
    if i < j:
        word = list(range(i, j))
    else:
        word = list(range(i - 1, j - 1, -1))
    return perm_from_word(n, word)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def partitions(m):
    """All partitions of m, lexicographically descending; () for m = 0."""
    if m == 0:
        return [()]
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, prefix + [part])

    rec(m, m, [])
    return out


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def contains(lam, mu):
    """lam contains mu as Young diagrams."""
    if len(mu) > len(lam):
        return False
    return all(lam[i] >= mu[i] for i in range(len(mu)))


def cells(lam):
    return [(i + 1, j + 1) for i, part in enumerate(lam) for j in range(part)]


def hook_lengths(lam):
    """Map (i, j) -> hook length lam_i - j + lam'_j - i + 1 (1-based)."""
    conj = conjugate(lam)
    return {(i, j): lam[i - 1] - j + conj[j - 1] - i + 1 for (i, j) in cells(lam)}


def num_std_tableaux(lam):
    n = sum(lam)
    prod = 1
    for h in hook_lengths(lam).values():
        prod *= h
    f = 1
    for k in range(2, n + 1):
        f *= k
    return f // prod


def is_e_restricted(lam, e):
    """lam_i - lam_{i+1} < e for all i (trailing part against 0)."""
    if e is None:
        return True
    parts = list(lam) + [0]
    return all(parts[i] - parts[i + 1] < e for i in range(len(lam)))


def nu_ep(h, e, p):
    """nu_p(h/e) when e is finite and divides h, else -1; nu_infinity = 0."""
    if e is None or h % e != 0:
        return -1
    if p is None:
        return 0
    x = h // e
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# standard tableaux
# ---------------------------------------------------------------------------

def std_tableaux(lam):
    """All standard tableaux of shape lam as row tuples; the row-reading
    superstandard tableau comes first."""
    n = sum(lam)
    if n == 0:
        return [()]
    rows = [[0] * part for part in lam]
    out = []

    def fill_all(num):
        # next number goes to the first empty cell of any row whose upper
        # neighbour is filled; trying rows top-down yields t^lam first
        if num > n:
            out.append(tuple(tuple(row) for row in rows))
            return
        for i, row in enumerate(rows):
            js = [j for j in range(len(row)) if not row[j]]
            if not js:
                continue
            j = js[0]
            if i and not rows[i - 1][j]:
                continue
            row[j] = num
            fill_all(num + 1)
            row[j] = 0

    fill_all(1)
    return out


def d_of(t):
    """The permutation w with t^lam · w = t: its one-line notation is the
    row reading word of t."""
    word = tuple(x for row in t for x in row)
    return word


# ---------------------------------------------------------------------------
# dangle cosets D_{f,n}
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dfn(f, n):
    """Enumerate D_{f,n} by the defining nested products.

    Elements are products s_{n-2f+1,i_f} s_{n-2f+2,j_f} ... s_{n-1,i_1}
    s_{n,j_1} with 1 <= i_k < j_k <= n-2k+2 and i_f < ... < i_1.
    """
    if not (0 <= 2 * f <= n):
        raise ValueError("need 0 <= 2f <= n")
    if f == 0:
        return (perm_id(n),)
    out = []

    def rec(k, min_i, acc):
        # k runs f, f-1, ..., 1; factors are appended left to right
        if k == 0:
            out.append(acc)
            return
        bound = n - 2 * k + 2
        for i in range(min_i + 1, bound + 1):
            for j in range(i + 1, bound + 1):
                fac = perm_mul(s_range(n, n - 2 * k + 1, i),
                               s_range(n, n - 2 * k + 2, j))
                rec(k - 1, i, perm_mul(acc, fac))

    rec(f, 0, perm_id(n))
    return tuple(out)


def dfn_size(f, n):
    num = 1
    for k in range(2, n + 1):
        num *= k
    den = (2 ** f)
    for k in range(2, f + 1):
        den *= k
    for k in range(2, n - 2 * f + 1):
        den *= k
    return num // den


def dangle_from_data(n, f, through_set, pairs):
    """Canonical D_{f,n} element with the given through targets and
    bottom pairs: through values sorted, pairs increasing, sorted by min."""
    thr = tuple(sorted(through_set))
    prs = sorted(tuple(sorted(pr)) for pr in pairs)
    flat = list(thr)
    for pr in prs:
        flat.extend(pr)
    return tuple(flat)


# ---------------------------------------------------------------------------
# admissible skew configurations
# ---------------------------------------------------------------------------

def _matchings(nodes):
    """All perfect matchings of the node list."""
    if not nodes:
        yield ()
        return
    first = nodes[0]
    for k in range(1, len(nodes)):
        rest = nodes[1:k] + nodes[k + 1:]
        for sub in _matchings(rest):
            yield ((first, nodes[k]),) + sub


def _pairings(lam, mu):
    """Each perfect matching of the skew nodes of lam/mu, as one (s, kind)
    per pair: s is the sum of the two nodes' diagonals j - i, and kind is
    "v" (vertical domino), "h" (horizontal domino) or None.  With
    r = sign * q^a, every condition reads only s: the content product is
    q^{2(a+s)}, a vertical domino is marked iff sign * q^{a+s} = 1 and a
    horizontal one iff -sign * q^{a+s} = 1."""
    nodes = sorted(set(cells(lam)) - set(cells(mu)))
    pair = {}
    for k, lo in enumerate(nodes):
        for hi in nodes[k + 1:]:
            kind = ("v" if hi == (lo[0] + 1, lo[1]) else
                    "h" if hi == (lo[0], lo[1] + 1) else None)
            pair[lo, hi] = (lo[1] - lo[0] + hi[1] - hi[0], kind)
    for matching in _matchings(nodes):
        yield [pair[p] for p in matching]


def _even_marks(marked):
    """Whether each kind among the marked dominoes occurs an even number
    of times."""
    return all(c % 2 == 0 for c in Counter(marked).values())


def is_admissible(lam, mu, f, spec):
    """Whether lam is an admissible extension of mu under the regime.

    Requires a perfect pairing of the skew nodes with content product 1 for
    each pair, such that within each connected component the number of
    marked vertical dominoes (top content q) is even and the number of
    marked horizontal dominoes (left content -q^{-1}) is even.  The marked
    dominoes are the columns and rows of the drawn strip configurations;
    this reading is validated against the vanishing loci of symbolic Gram
    determinants and the rank data of the oracle sweep.

    Counting each kind over the whole skew diagram gives the same answer.
    Take marked dominoes (x1, y1) and (x2, y2) of one kind in two
    components, x the node of lower diagonal d, so d(y) = d(x) + 1 for
    both.  Pair x1 with y2 and x2 with y1 instead: both new sums are
    (s1 + s2) / 2, so each content product is
    q^{2a + s1 + s2} = (c q^{a+s1}) (c q^{a+s2}) = 1 with c = ±sign the
    marking unit, and the new pairs join two components, so they are no
    dominoes.  That takes one marked domino from each component and leaves
    every other pair alone.  With an even total of one kind, the components
    holding an odd count of it come in twos, so repeating the move gives a
    matching with an even count in every component.
    """
    if sum(lam) != sum(mu) + 2 * f:
        raise ValueError("size mismatch: |lam| != |mu| + 2f")
    if not contains(lam, mu):
        return False
    if f == 0:
        return lam == mu
    if spec.r_sign == 0:
        return False
    sign, a = spec.r_sign, spec.r_exp

    def holds(unit, m):
        value = spec.unit_eq_one(unit, m)
        if value is None:
            raise ValueError("undetermined parameter regime")
        return value

    for pairs in _pairings(lam, mu):
        if all(holds(1, 2 * (a + s)) for s, _kind in pairs) and \
                _even_marks([kind for s, kind in pairs
                             if kind and holds(sign if kind == "v" else -sign,
                                               a + s)]):
            return True
    return False


def generic_admissible_r(lam, mu, f):
    """Signed q-exponents (sign, a) with lam an (f, mu)-admissible extension
    over the complex field with q^2 of infinite order.

    Generically a pairing has content product 1 iff every pair's diagonal
    sum s equals -a, and then sign * q^{a+s} = sign marks every vertical
    domino when sign = +1 and every horizontal one when sign = -1.
    """
    if sum(lam) != sum(mu) + 2 * f or f == 0 or not contains(lam, mu):
        return set()
    out = set()
    for pairs in _pairings(lam, mu):
        sums = {s for s, _kind in pairs}
        if len(sums) != 1:
            continue
        a = -sums.pop()
        for sign, marked in ((1, "v"), (-1, "h")):
            if _even_marks([kind for _s, kind in pairs if kind == marked]):
                out.add((sign, a))
    return out


def forbidden_r_values(f, lam, n):
    """All signed powers r = ±q^a forced by some admissible extension of
    lam in levels 0 <= l < f (generic q over the complex numbers)."""
    out = set()
    for level in range(f):
        g = f - level
        for nu in partitions(n - 2 * level):
            out |= generic_admissible_r(nu, lam, g)
    return out
