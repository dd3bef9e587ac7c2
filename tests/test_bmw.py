import hashlib
import itertools
import random

import pytest

from bmwgram import bmw as B
from bmwgram.coeff import LaurentPoly
from bmwgram.combin import (apply_right_s, dfn, perm_from_word, perm_id,
                            perm_len, perm_word)
from bmwgram.hecke import HeckeElem
from test_hecke import hecke_gen

L = LaurentPoly
R = L.r()
RINV = L.r(-1)


def gens(n):
    T = {i: B.generator("T", i, n) for i in range(1, n)}
    E = {i: B.generator("E", i, n) for i in range(1, n)}
    Ti = {i: B.generator("T_inv", i, n) for i in range(1, n)}
    return T, E, Ti


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_defining_relations(n):
    one = B.BmwElem.one(n)
    T, E, Ti = gens(n)
    for i in range(1, n):
        cubic = (T[i] - one.scale(L.q())) * (T[i] + one.scale(L.q(-1))) \
            * (T[i] - one.scale(RINV))
        assert cubic.is_zero()
        assert E[i] * T[i] == E[i].scale(RINV)
        assert T[i] * E[i] == E[i].scale(RINV)
        assert T[i] * Ti[i] == one and Ti[i] * T[i] == one
        assert one - (T[i] - Ti[i]).scale(L.omega_inv()) == E[i]
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                assert T[i] * T[j] * T[i] == T[j] * T[i] * T[j]
                assert E[i] * T[j] * E[i] == E[i].scale(R)
                assert E[i] * Ti[j] * E[i] == E[i].scale(RINV)
            elif abs(i - j) >= 2:
                assert T[i] * T[j] == T[j] * T[i]
                assert E[i] * T[j] == T[j] * E[i]
                assert E[i] * E[j] == E[j] * E[i]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_derived_identities(n):
    T, E, Ti = gens(n)
    for i in range(1, n):
        assert E[i] * E[i] == E[i].scale(B.DELTA)
        for j in (i - 1, i + 1):
            if 1 <= j <= n - 1:
                assert E[i] * E[j] * E[i] == E[i]
                assert T[i] * T[j] * E[i] == E[j] * E[i]
                assert E[i] * T[j] * T[i] == E[i] * E[j]


def test_delta_agrees_with_fraction():
    num = (L.q() + R) * (L.q() * R - L.one())
    den = R * (L.q() + L.one()) * (L.q() - L.one())
    assert B.DELTA * den == num


def test_generator_normal_forms():
    t1 = B.generator("T", 1, 2)
    assert sorted(t1.terms) == [(0, (1, 2), (2, 1), (1, 2))]
    e1 = B.generator("E", 1, 2)
    assert sorted(e1.terms) == [(1, (1, 2), (), (1, 2))]
    ti = B.generator("T_inv", 1, 2)
    expect = t1 + B.BmwElem.one(2).scale(-L.omega()) + e1.scale(L.omega())
    assert ti == expect


def test_e_fn():
    e13 = B.BmwElem.from_word(3, B.word_efn(3, 1))
    assert sorted(e13.terms) == [(1, (1, 2, 3), (1,), (1, 2, 3))]
    assert B.BmwElem.from_word(3, B.word_efn(3, 0)) == B.BmwElem.one(3)
    e2 = B.generator("E", 3, 4) * B.generator("E", 1, 4)
    assert B.BmwElem.from_word(4, B.word_efn(4, 2)) == e2


def test_dimension_closure():
    for n in (2, 3, 4, 5):
        words = list(B.all_words(n))
        assert len(words) == len(set(words)) == B.basis_size(n)


def test_associativity_exhaustive_n3():
    words = list(B.all_words(3))
    elems = {w: B.BmwElem.from_word(3, w) for w in words}
    for a, b, c in itertools.product(words, repeat=3):
        assert (elems[a] * elems[b]) * elems[c] == \
            elems[a] * (elems[b] * elems[c])


@pytest.mark.parametrize("n,samples", [(4, 1000), (5, 1000)])
def test_associativity_random(n, samples):
    words = list(B.all_words(n))
    rng = random.Random(1234 + n)
    for _ in range(samples):
        ws = [rng.choice(words) for _ in range(3)]
        x, y, z = (B.BmwElem.from_word(n, w) for w in ws)
        assert (x * y) * z == x * (y * z), ws


@pytest.mark.parametrize("n", [3, 4, 5])
def test_star_involution(n):
    words = list(B.all_words(n))
    rng = random.Random(9)
    for _ in range(60):
        w1, w2 = rng.choice(words), rng.choice(words)
        x, y = B.BmwElem.from_word(n, w1), B.BmwElem.from_word(n, w2)
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x
    assert B.generator("E", 1, n).star() == B.generator("E", 1, n)
    t12 = B.generator("T", 1, n) * B.generator("T", 2, n)
    assert t12.star() == B.generator("T", 2, n) * B.generator("T", 1, n)


@pytest.mark.parametrize("n", [3, 4])
def test_filtration(n):
    words = list(B.all_words(n))
    rng = random.Random(31)
    for _ in range(100):
        w1, w2 = rng.choice(words), rng.choice(words)
        prod = B.BmwElem.from_word(n, w1) * B.BmwElem.from_word(n, w2)
        if prod.terms:
            assert min(wd[0] for wd in prod.terms) >= max(w1[0], w2[0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_level_capped_product(n):
    """mul_elems with the level cap f is the level <= f part of the full
    product, since the words of level > f span the ideal J_{f+1}."""
    words = list(B.all_words(n))
    coeffs = [L.one(), L.integer(-3), L.q(2) - R,
              L.omega_inv() * (R + L.q(-1))]
    rng = random.Random(47)

    def rand_elem():
        return {rng.choice(words): rng.choice(coeffs)
                for _ in range(rng.randint(1, 4))}

    for _ in range(40):
        x, y = rand_elem(), rand_elem()
        full = B.mul_elems(n, x, y)
        for f in range(n // 2 + 1):
            assert B.mul_elems(n, x, y, f) == \
                {wd: c for wd, c in full.items() if wd[0] <= f}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jucys_murphy(n):
    Ls = [B.jucys_murphy(i, n) for i in range(1, n + 1)]
    assert Ls[0] == B.BmwElem.one(n).scale(R)
    if n >= 2:
        t1 = B.generator("T", 1, n)
        assert Ls[1] == t1 * B.BmwElem.one(n).scale(R) * t1
    for a, b in itertools.combinations(range(n), 2):
        assert Ls[a] * Ls[b] == Ls[b] * Ls[a]
    z = Ls[0]
    for x in Ls[1:]:
        z = z * x
    for kind in ("T", "E"):
        for i in range(1, n):
            g = B.generator(kind, i, n)
            assert z * g == g * z


@pytest.mark.parametrize("n", [3, 4])
def test_hecke_image_homomorphism(n):
    words = list(B.all_words(n))
    rng = random.Random(77)
    assert B.hecke_image(B.generator("T", 1, n)) == hecke_gen(n, 1)
    assert B.hecke_image(B.generator("E", 1, n)).is_zero()
    for _ in range(40):
        w1, w2 = rng.choice(words), rng.choice(words)
        x, y = B.BmwElem.from_word(n, w1), B.BmwElem.from_word(n, w2)
        assert B.hecke_image(x * y) == B.hecke_image(x) * B.hecke_image(y)


def test_phi_f_examples():
    ph = B.phi_f(perm_id(2), perm_id(2), 1, 2)
    assert ph.m == 0 and list(ph.terms.values()) == [B.DELTA]
    ph = B.phi_f(perm_id(3), perm_id(3), 1, 3)
    assert ph.m == 1 and list(ph.terms.values()) == [B.DELTA]


def _phi_reference(u, v, f, n):
    """E^{f,n} T_u T_v^* E^{f,n} by full products, read at level f."""
    e = B.BmwElem.from_word(n, B.word_efn(n, f))
    x = B.BmwElem(n, B.fold_T(n, e.terms, perm_word(u)))
    x = B.BmwElem(n, B.fold_T(n, x.terms, list(reversed(perm_word(v))))) * e
    idn = perm_id(n)
    return HeckeElem(n - 2 * f, {w: c for (ff, uu, w, vv), c in x.terms.items()
                                 if ff == f and uu == idn and vv == idn})


@pytest.mark.parametrize("n,f", [(2, 1), (3, 1), (4, 1), (4, 2)])
def test_phi_f_symmetry(n, f):
    """phi_f (products capped at level f) equals the uncapped product, and
    phi_f(v, u) = phi_f(u, v)^*, which gram_matrix relies on."""
    for u in dfn(f, n):
        for v in dfn(f, n):
            ref = _phi_reference(u, v, f, n)
            assert B.phi_f(u, v, f, n) == ref
            assert B.phi_f(v, u, f, n).star() == ref



@pytest.mark.parametrize("n,f", [(n, f) for n in range(2, 7)
                                 for f in range(1, n // 2 + 1)])
def test_phi_pairs_match_phi_f(n, f):
    """The tree walk yields each pair u <= v of D_{f,n} once, with the
    value of the reference fold phi_f."""
    dangles = dfn(f, n)
    pairs = [(u, v) for u in dangles for v in dangles if u <= v]
    got = list(B.phi_pairs(f, n))
    assert sorted((u, v) for u, v, _h in got) == sorted(pairs)
    for u, v, h in got:
        assert h == B.phi_f(u, v, f, n), (u, v)


@pytest.mark.parametrize("n", range(2, 9))
def test_dangle_transversal_closed_under_parent(n):
    """Every v != 1 in D_{f,n} keeps its parent, the permutation of its
    reduced word without the last letter, in D_{f,n}, one length shorter."""
    for f in range(1, n // 2 + 1):
        dangles = set(dfn(f, n))
        for v in dangles - {perm_id(n)}:
            word = perm_word(v)
            parent = perm_from_word(n, word[:-1])
            assert parent in dangles and perm_len(parent) == len(word) - 1
            assert B.dangle_parent(v, f, n) == (parent, word[-1])


def test_dangle_parent_outside_the_transversal():
    """A permutation whose parent leaves D_{f,n} gets a labelled error."""
    n, f = 4, 1
    dangles = set(dfn(f, n))
    strays = [v for v in itertools.permutations(range(1, n + 1))
              if v != perm_id(n)
              and apply_right_s(v, perm_word(v)[-1]) not in dangles]
    assert strays
    with pytest.raises(RuntimeError, match="not closed"):
        B.dangle_parent(strays[0], f, n)


def _random_word(rng, n):
    f = rng.randrange(n // 2 + 1)
    w = list(range(1, n - 2 * f + 1))
    rng.shuffle(w)
    return (f, rng.choice(dfn(f, n)), tuple(w), rng.choice(dfn(f, n)))


def _product(n, word, kind, i):
    cached = B._wt_cached if kind == "T" else B._we_cached
    return cached(n, word, i)


@pytest.mark.parametrize("n,samples", [(2, None), (3, None), (4, None),
                                       (5, 100), (6, 100), (7, 200)])
def test_cold_order_products(n, samples):
    """Every word x generator product (n <= 4), or a seeded sample of them,
    computed from empty structure-constant tables, raises nothing and
    equals the same product computed in another order from warm tables."""
    if samples is None:
        keys = [(word, kind, i) for word in B.all_words(n)
                for kind in "TE" for i in range(1, n)]
    else:
        rng = random.Random(2024 + n)
        keys = [(_random_word(rng, n), rng.choice("TE"), rng.randrange(1, n))
                for _ in range(samples)]
    cold = []
    for key in keys:
        B._WT.clear()
        B._WE.clear()
        cold.append(_product(n, *key))
    for key, res in zip(reversed(keys), reversed(cold)):
        assert _product(n, *key) == res, key


# sha256 of all 8,256 word x generator products at n <= 5, recorded before
# bmw._we lost its sub-algebra lift for the words (f > 0, u, w, 1).
PRODUCTS_N5_SHA256 = \
    "0a9f16dc54bede8ff56bfb28aae67f4bb139acbc46eed2f6a991f2db1213438d"


def test_cold_products_digest_n5():
    """Every word x generator product at n <= 5, each computed from empty
    structure-constant tables, hashes to the recorded digest: no reduction
    of bmw._we may change a product."""
    digest = hashlib.sha256()
    count = 0
    for n in range(2, 6):
        for word in B.all_words(n):
            for kind in "TE":
                for i in range(1, n):
                    B._WT.clear()
                    B._WE.clear()
                    res = _product(n, word, kind, i)
                    digest.update(repr((n, word, kind, i, sorted(
                        (wd, str(c)) for wd, c in res.items()))).encode())
                    count += 1
    assert count == 8256
    assert digest.hexdigest() == PRODUCTS_N5_SHA256
