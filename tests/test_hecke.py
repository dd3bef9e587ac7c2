import itertools
import random

import pytest

from bmwgram.cellmod import CellIndex, gram_matrix, gram_rank
from bmwgram.coeff import LaurentPoly, ParamSpec
from bmwgram.combin import (apply_right_s, conjugate, is_e_restricted,
                            num_std_tableaux, partitions, perm_id, perm_len,
                            perm_mul, perm_word)
from bmwgram.exactla import bareiss_det
from bmwgram.hecke import (HeckeElem, _cell_probe, cell_coefficient,
                           cell_form, cell_value, double_coset_min,
                           times_signed_symmetrizer, x_lambda, young_subgroup)

L = LaurentPoly
OMEGA = L.omega()


def hecke_gen(m, i):
    """The generator g_i of the Hecke algebra of S_m, 1 <= i < m."""
    return HeckeElem.basis(m, apply_right_s(perm_id(m), i))


def signed_symmetrizer(mu, m):
    """n_mu = sum over the Young subgroup of (-q)^{-length} g_w, the
    q-antisymmetrizer: g_i n_mu = -q^{-1} n_mu for row generators of mu."""
    terms = {}
    for w in young_subgroup(mu, m):
        l = perm_len(w)
        terms[w] = L.monomial((-1) ** (l % 2), -l, 0)
    return HeckeElem(m, terms)


def specht_gram(lam):
    """The Specht Gram matrix: the f = 0 cell of degree |lam|."""
    return gram_matrix(CellIndex(sum(lam), 0, lam)).entries


def specht_rank(lam, spec):
    return gram_rank(CellIndex(sum(lam), 0, lam), spec)


def test_quadratic_relation():
    g1 = hecke_gen(2, 1)
    assert g1 * g1 == HeckeElem.one(2) + g1.scale(OMEGA)


def test_defining_relations():
    for m in (3, 4, 5):
        gens = {i: hecke_gen(m, i) for i in range(1, m)}
        for i in range(1, m):
            quad = gens[i] * gens[i] - gens[i].scale(OMEGA) - HeckeElem.one(m)
            assert quad.is_zero()
            for j in range(1, m):
                if abs(i - j) == 1:
                    assert gens[i] * gens[j] * gens[i] == \
                        gens[j] * gens[i] * gens[j]
                elif abs(i - j) >= 2:
                    assert gens[i] * gens[j] == gens[j] * gens[i]


def test_mul_examples():
    g1 = hecke_gen(3, 1)
    g2 = hecke_gen(3, 2)
    assert (g1 * g2).terms == {(3, 1, 2): L.one()}
    prod = (g1 * g2 * g1) * g1
    assert prod == g1 * g2 + (g1 * g2 * g1).scale(OMEGA)


def test_star_antiautomorphism():
    rng = random.Random(1)
    m = 4
    import bmwgram.combin as C
    words = list(itertools.permutations(range(1, m + 1)))
    for _ in range(50):
        x = HeckeElem.basis(m, rng.choice(words))
        y = HeckeElem.basis(m, rng.choice(words))
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x


def test_x_lambda_examples():
    assert x_lambda((2,), 2).terms == {(1, 2): L.one(), (2, 1): L.q()}
    assert x_lambda((1, 1), 2).terms == {(1, 2): L.one()}
    t = x_lambda((2, 1), 3).terms
    assert t == {(1, 2, 3): L.one(), (2, 1, 3): L.q()}


def test_specht_gram_small():
    assert specht_gram((2,))[0][0] == L.one() + L.q(2)
    assert specht_gram((1, 1))[0][0] == L.one()
    g = specht_gram((2, 1))
    det = bareiss_det(g)
    core = det.normalize_unit()[1]
    assert core == L.q(4) + L.q(2) + L.one()


def test_specht_gram_symmetric():
    for m in range(2, 6):
        for lam in partitions(m):
            g = specht_gram(lam)
            for a in range(len(g)):
                for b in range(len(g)):
                    assert g[a][b] == g[b][a]


def test_specht_rank_examples():
    assert specht_rank((2,), ParamSpec.concrete(5, 2, 1)) == 0
    assert specht_rank((1, 1), ParamSpec.concrete(5, 2, 1)) == 1
    assert specht_rank((2, 1), ParamSpec.concrete(11, 2, 1)) == 2


def test_rank_semisimple_and_restriction():
    specs = [ParamSpec.concrete(5, 2, 1), ParamSpec.concrete(7, 3, 1),
             ParamSpec.concrete(11, 2, 1), ParamSpec.concrete(13, 2, 1),
             ParamSpec.concrete(13, 5, 1)]
    for spec in specs:
        e = spec.e
        for m in range(1, 6):
            for lam in partitions(m):
                rank = specht_rank(lam, spec)
                if e > m:
                    assert rank == num_std_tableaux(lam), (spec, lam)
                assert (rank > 0) == is_e_restricted(lam, e), (spec, lam)


def test_cell_coefficient_probe():
    # the probe reads off the coefficient of X_lam exactly
    for m in (2, 3, 4):
        for lam in partitions(m):
            x = x_lambda(lam, m)
            c = cell_coefficient(x, lam)
            assert c == L.one()


def test_times_signed_symmetrizer_matches_product():
    # the closed form of elem * n_mu against the generic Hecke product
    rng = random.Random(5)
    coeffs = [L.one(), L.integer(-2), OMEGA, L.q(-1), L.monomial(3, 1, -1),
              L.q(1) + L.r(1), L.omega_inv(1)]
    for m in range(1, 6):
        perms = list(itertools.permutations(range(1, m + 1)))
        for mu in partitions(m):
            n_el = signed_symmetrizer(mu, m)
            for _ in range(4):
                support = rng.sample(perms, min(len(perms), rng.randint(1, 8)))
                elem = HeckeElem(m, {w: rng.choice(coeffs) for w in support})
                assert times_signed_symmetrizer(elem, mu) == elem * n_el
            assert times_signed_symmetrizer(HeckeElem(m), mu).is_zero()


def test_cell_probe_coefficient_is_one_at_dcol():
    """For every lam of m <= 7 the probe z = X_lam g_{d(t_col)} n_{lam'}
    built in closed form equals the Hecke product, has one distinct term
    for each pair (a, b) in S_lam x S_{lam'}, and its term at a = b = 1,
    g_{d(t_col)}, has coefficient 1."""
    for m in range(1, 8):
        for lam in partitions(m):
            wcol, z, dcol = _cell_probe(lam, m)
            mu = conjugate(lam)
            assert z == (x_lambda(lam, m).times_basis_word(wcol)
                         * signed_symmetrizer(mu, m)), lam
            young, cols = young_subgroup(lam, m), young_subgroup(mu, m)
            assert len(z.terms) == len(young) * len(cols), lam
            assert perm_word(dcol) == wcol, lam
            assert z.terms[dcol] == L.one(), lam


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cell_value_double_coset_table(m):
    """<g_w>_lam read from the double-coset table equals the coefficient
    of X_lam g_w X_lam for every w in S_m, and the table's d is the
    shortest element of the double coset listed in full.  (m = 5 takes
    about 43 s, nearly all of it in the reference products.)"""
    perms = list(itertools.permutations(range(1, m + 1)))
    for lam in partitions(m):
        x = x_lambda(lam, m)
        young = young_subgroup(lam, m)
        for w in perms:
            want = cell_coefficient(x.times_basis_word(perm_word(w)) * x, lam)
            assert cell_value(lam, w) == want, (lam, w)
            assert cell_form(HeckeElem.basis(m, w).scale(OMEGA), lam) == \
                OMEGA * want
            coset = {perm_mul(perm_mul(a, w), b) for a in young for b in young}
            d = double_coset_min(lam, w)
            assert d in coset
            assert perm_len(d) == min(perm_len(y) for y in coset)
