"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Tolerances are exact throughout (exact arithmetic everywhere).

Criterion 1 includes the published closed form for the 15-dimensional cell
at degree 5 whose stated integer content (2^6) differs from the value this
package computes (2^5).  The computation here is cross-validated by two
independent Gram constructions (gram_matrix and direct_gram) and two
independent determinant algorithms (integer Bareiss after Kronecker
substitution, and Bareiss over the Laurent ring in tests/test_exactla.py),
with a sympy determinant in tests/test_cellmod.py as a third.  The source
only asserts those formulas up to invertible scalars of the ground field;
the check is nevertheless implemented exactly as stated, so that subcase
fails honestly.
"""

import pytest

from bmwgram import cellmod as CM
from bmwgram import classify as CL
from bmwgram import verify as V


def report(name, ok):
    print("%s: %s" % (name, "PASS" if ok else "FAIL"))


def assert_suite(name, results):
    ok = all(passed for _name, passed, _detail in results)
    report(name, ok)
    assert ok, [r for r in results if not r[1]]


@pytest.mark.parametrize("name,cell,sub,expected", V.b1_cases(),
                         ids=[c[0] for c in V.b1_cases()])
def test_criterion_1_b1_formulas(name, cell, sub, expected):
    n, f, lam = cell
    det = CM.gram_det(CM.gram_matrix(CM.CellIndex(n, f, lam))
                      .substitute_r(*sub))
    got = det.normalize_unit()[1]
    want = expected.normalize_unit()[1]
    ok = got == want
    report("criterion 1 [%s]" % name, ok)
    assert ok, "unit-normalized core mismatch: got %s, stated %s" % (got, want)


def test_criterion_2_top_cell_vanishing():
    ok = True
    for n in (2, 4):
        g = CM.gram_matrix(CM.CellIndex(n, n // 2, ()))
        for sub in ((1, -1), (-1, 1)):
            ok = ok and CM.gram_det(g.substitute_r(*sub)).is_zero()
    report("criterion 2 (top cell determinant vanishes, n in {2,4})", ok)
    assert ok


def test_criterion_3_algebra_soundness():
    assert_suite("criterion 3 (relations, dimension count, associativity)",
                 V.suite_relations(nmax=5))


def test_criterion_4_oracle_agreement():
    assert_suite("criterion 4 (oracle/classifier agreement, n <= 5)",
                 V.suite_oracle_agreement())


def test_criterion_5_inflation_consistency():
    assert_suite("criterion 5 (inflation Gram and product structure, n <= 4)",
                 V.suite_inflation(nmax=4))


def test_criterion_6_witness_validation():
    assert_suite("criterion 6 (witness cells over the reachable regimes)",
                 V.suite_witnesses())


def test_criterion_7_hecke_layer():
    assert_suite("criterion 7 (Specht ranks over the sweep)",
                 V.suite_hecke())


def test_criterion_8_central_element():
    assert_suite("criterion 8 (central element commutes and acts by contents)",
                 V.suite_central(nmax=4))


def test_criterion_9_brauer_classifier():
    ok = (CL.classify_brauer(5, 3, None).singular is True
          and CL.classify_brauer(5, 0, None).singular is False
          and CL.classify_brauer(3, 0, 2).singular is True
          and CL.set_Z(4) == {1, 2, -2, -4}
          and CL.set_Z(5) == {1, 2, 3, -2, -4, -6, -1}
          and CL.set_Z(6) == {1, 2, 3, 4, -2, -4, -6, -8, -1, -2})
    report("criterion 9 (Brauer classifier unit tests)", ok)
    assert ok
