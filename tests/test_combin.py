import itertools
import random

import pytest

from bmwgram.coeff import LaurentPoly, ParamSpec
from bmwgram.combin import (_even_marks, _matchings, _pairings,
                            apply_right_s, cells, conjugate, contains, d_of,
                            dfn, dfn_size, forbidden_r_values, hook_lengths,
                            is_admissible, is_e_restricted, nu_ep,
                            num_std_tableaux, partitions, perm_from_word,
                            perm_id, perm_inv, perm_len, perm_mul, perm_word,
                            std_tableaux)
from bmwgram.oracle import sweep_specs


def dominates(lam, mu):
    """lam dominates mu (both partitions of the same size)."""
    if sum(lam) != sum(mu):
        return False
    pa = pb = 0
    for i in range(max(len(lam), len(mu))):
        pa += lam[i] if i < len(lam) else 0
        pb += mu[i] if i < len(mu) else 0
        if pa < pb:
            return False
    return True


def content(lam, node):
    """Content of a node: r * q^{2(j - i)}."""
    i, j = node
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError("node %r outside diagram of %r" % (node, lam))
    return LaurentPoly({(2 * (j - i), 1): 1})


def superstandard(lam):
    """The row-reading tableau t^lam."""
    out = []
    k = 1
    for part in lam:
        out.append(tuple(range(k, k + part)))
        k += part
    return tuple(out)


def dangle_data(n, f, v):
    """(through value tuple, sorted pair tuple) of a D_{f,n} element."""
    m = n - 2 * f
    thr = tuple(v[:m])
    prs = tuple(tuple(sorted((v[m + 2 * k], v[m + 2 * k + 1])))
                for k in range(f))
    return thr, prs


def test_partitions():
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions(0) == [()]
    assert len(partitions(5)) == 7


def test_std_tableaux_counts():
    for m in range(0, 8):
        for lam in partitions(m):
            tabs = std_tableaux(lam)
            assert len(tabs) == num_std_tableaux(lam), lam
            assert tabs[0] == superstandard(lam)


def test_std_tableaux_small():
    assert len(std_tableaux((2, 1))) == 2
    assert std_tableaux((3,)) == [((1, 2, 3),)]
    assert len(std_tableaux((2, 2))) == 2


def test_d_of_roundtrip():
    assert d_of(((1, 3), (2,))) == (1, 3, 2)
    for m in range(1, 6):
        for lam in partitions(m):
            tlam = superstandard(lam)
            flat = [x for row in tlam for x in row]
            for t in std_tableaux(lam):
                w = d_of(t)
                moved = tuple(tuple(w[x - 1] for x in row) for row in tlam)
                assert moved == t
                assert perm_len(w) == len(perm_word(w))


def test_reduced_words():
    rng = random.Random(3)
    for n in range(2, 7):
        for _ in range(50):
            w = list(range(1, n + 1))
            rng.shuffle(w)
            w = tuple(w)
            word = perm_word(w)
            assert perm_from_word(n, word) == w
            assert len(word) == perm_len(w)


def test_dfn_counts_and_membership():
    for n in range(2, 9):
        for f in range(n // 2 + 1):
            d = dfn(f, n)
            assert len(d) == len(set(d)) == dfn_size(f, n), (f, n)
    assert len(dfn(1, 3)) == 3
    assert dfn(0, 4) == (perm_id(4),)
    assert len(dfn(2, 4)) == 3 and len(dfn(1, 4)) == 6


def test_dangle_canonical_data():
    for n in range(2, 7):
        for f in range(n // 2 + 1):
            for v in dfn(f, n):
                thr, prs = dangle_data(n, f, v)
                assert list(thr) == sorted(thr)
                mins = [pr[0] for pr in prs]
                assert mins == sorted(mins)
                assert all(a < b for a, b in prs)


def test_merge_length_additive():
    # the normal form assumes l(w v) = l(w) + l(v)
    from bmwgram.bmw import merge_wv
    for n in range(2, 6):
        for f in range(n // 2 + 1):
            m = n - 2 * f
            for v in dfn(f, n):
                for w in itertools.permutations(range(1, m + 1)):
                    y = merge_wv(n, f, tuple(w), v)
                    assert perm_len(y) == perm_len(tuple(w)) + perm_len(v)


def test_hooks():
    assert hook_lengths((2, 1)) == {(1, 1): 3, (1, 2): 1, (2, 1): 1}
    assert hook_lengths((3,)) == {(1, 1): 3, (1, 2): 2, (1, 3): 1}
    assert hook_lengths((2, 2)) == {(1, 1): 3, (1, 2): 2, (2, 1): 2, (2, 2): 1}


def test_e_restricted():
    assert is_e_restricted((2, 1), 2)
    assert not is_e_restricted((3,), 2)
    assert is_e_restricted((9, 4), None)
    assert is_e_restricted((), 2)


def test_nu_ep():
    assert nu_ep(6, 2, 3) == 1
    assert nu_ep(4, 3, 5) == -1
    assert nu_ep(4, 2, None) == 0
    assert nu_ep(12, 2, 3) == 1
    assert nu_ep(10, 2, 3) == 0


def test_content():
    assert content((2,), (1, 1)) == LaurentPoly.r()
    assert content((2,), (1, 2)) == LaurentPoly({(2, 1): 1})
    assert content((2, 1), (2, 1)) == LaurentPoly({(-2, 1): 1})
    with pytest.raises(ValueError):
        content((2,), (2, 1))
    # the reference for cellmod.central_scalar: the product of the contents
    from bmwgram.cellmod import CellIndex, central_scalar
    for m in range(1, 6):
        for lam in partitions(m):
            prod = LaurentPoly.one()
            for node in cells(lam):
                prod = prod * content(lam, node)
            assert central_scalar(CellIndex(m, 0, lam)) == prod


def test_dominance_partial_order():
    for m in range(1, 7):
        parts = partitions(m)
        for lam in parts:
            assert dominates(lam, lam)
        for lam, mu in itertools.permutations(parts, 2):
            if dominates(lam, mu) and dominates(mu, lam):
                assert lam == mu
            # partitions lists a linear extension of the dominance order
            if dominates(lam, mu):
                assert parts.index(lam) < parts.index(mu)


def test_admissible_examples():
    sp = lambda sgn, a: ParamSpec.symbolic(e=None, p=None, r=(sgn, a))
    assert is_admissible((2,), (), 1, sp(1, -1)) is True
    assert is_admissible((2,), (), 1, sp(-1, -1)) is False
    assert is_admissible((1, 1), (), 1, sp(-1, 1)) is True
    assert is_admissible((1, 1), (), 1, sp(1, 1)) is False
    with pytest.raises(ValueError):
        is_admissible((2, 1), (), 1, sp(1, 1))


def test_pairings_read_diagonal_sums():
    assert list(_pairings((2,), ())) == [[(1, "h")]]
    assert list(_pairings((1, 1), ())) == [[(-1, "v")]]
    # (3,3,1,1)/(2,2) is two vertical dominoes, one per component
    pairings = list(_pairings((3, 3, 1, 1), (2, 2)))
    assert sorted(sorted(pairs) for pairs in pairings) == [
        [(-5, "v"), (3, "v")], [(-2, None), (0, None)],
        [(-1, None), (-1, None)]]
    # parity is per kind, over the whole skew diagram
    assert _even_marks(["v", "v"])
    assert not _even_marks(["v", "h"])
    assert _even_marks(["v", "h", "h", "v"])
    assert _even_marks([])


def _skew_components(lam, mu):
    """Connected components (by edge adjacency) of the skew diagram."""
    left = set(cells(lam)) - set(cells(mu))
    comps = []
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            (i, j) = stack.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in left:
                    left.remove(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def gf_admissible(lam, mu, f, p, q0, r0):
    """is_admissible read off the node contents r0 q0^{2(j-i)} in GF(p):
    a perfect pairing with content product 1, and in each component an
    even number of vertical pairs with top content q0 and of horizontal
    pairs with left content -q0^{-1}."""
    if not contains(lam, mu):
        return False

    def node_content(node):
        return r0 * pow(q0, 2 * (node[1] - node[0]), p) % p
    comp_of = {node: k for k, comp in enumerate(_skew_components(lam, mu))
               for node in comp}
    nodes = sorted(set(cells(lam)) - set(cells(mu)))
    for matching in _matchings(nodes):
        if any(node_content(a) * node_content(b) % p != 1 for a, b in matching):
            continue
        marked = []
        for a, b in matching:
            lo, hi = min(a, b), max(a, b)
            if hi == (lo[0] + 1, lo[1]) and node_content(lo) == q0:
                marked.append(("v", comp_of[lo]))
            elif hi == (lo[0], lo[1] + 1) and \
                    node_content(lo) == -pow(q0, -1, p) % p:
                marked.append(("h", comp_of[lo]))
        if all(marked.count(key) % 2 == 0 for key in marked):
            return True
    return False


def test_admissible_matches_gf():
    triples = [(lam, mu, f) for size in range(2, 7)
               for lam in partitions(size)
               for f in range(1, size // 2 + 1)
               for mu in partitions(size - 2 * f)]
    for spec in sweep_specs((5, 7, 11, 13)):
        for lam, mu, f in triples:
            assert is_admissible(lam, mu, f, spec) == gf_admissible(
                lam, mu, f, spec.p, spec.q0, spec.r0), (str(spec), lam, mu, f)


def test_forbidden_r_values_examples():
    assert forbidden_r_values(1, (), 2) == {(1, -1), (-1, 1)}
    fr = forbidden_r_values(1, (1,), 3)
    assert {(1, -3), (-1, 3), (1, 0), (-1, 0)} <= fr
    assert forbidden_r_values(0, (2,), 2) == set()


def test_forbidden_matches_symbolic_vanishing():
    # ground truth from the symbolic determinant of the top cell at n=4
    fr = forbidden_r_values(2, (), 4)
    assert fr == {(-1, 1), (1, -1), (1, 0), (-1, 0), (-1, 3), (1, -3)}


def test_admissible_consistent_with_forbidden():
    # membership in the forbidden set <=> an admissible extension exists
    for n, f, lam in ((2, 1, ()), (3, 1, (1,)), (4, 1, (2,)), (4, 2, ())):
        forb = forbidden_r_values(f, lam, n)
        for sign in (1, -1):
            for a in range(-4, 5):
                spec = ParamSpec.symbolic(e=None, p=None, r=(sign, a))
                want = any(
                    is_admissible(nu, lam, f - l, spec)
                    for l in range(f)
                    for nu in partitions(n - 2 * l))
                assert ((sign, a) in forb) == want, (n, f, lam, sign, a)
