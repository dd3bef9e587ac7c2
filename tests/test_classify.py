import pytest

from bmwgram import classify as CL
from bmwgram.cellmod import cell_dims, gram_rank
from bmwgram.coeff import DELTA, LaurentPoly, ParamSpec
from bmwgram.oracle import DEFAULT_PRIMES, sweep_specs


def test_set_S():
    assert CL.set_S(3) == {(1, -3), (-1, 3), (1, 0), (-1, 0)}
    assert CL.set_S(2) == set()
    s4 = CL.set_S(4)
    assert CL.set_S(3) <= s4
    assert {(1, -5), (-1, 5), (1, -1), (-1, -1), (1, 1), (-1, 1)} <= s4
    for n in range(2, 9):
        assert CL.set_S(n) <= CL.set_S(n + 1)


def test_set_Z():
    assert CL.set_Z(5) == {1, 2, 3, -2, -4, -6, -1}
    assert CL.set_Z(4) == {1, 2, -2, -4}
    assert {-1, -2} <= CL.set_Z(6)
    for n in range(3, 9):
        assert CL.set_Z(n) <= CL.set_Z(n + 1)


def test_classify_bmw_examples():
    v = CL.classify_bmw(6, ParamSpec.symbolic(e=7, r=(-1, 1)))
    assert v.singular is True and v.clause == "main.1.2.a"
    v = CL.classify_bmw(3, ParamSpec.symbolic(e=12, r=(1, -1)))
    assert v.singular is False and v.clause == "main.1.2.b"
    v = CL.classify_bmw(3, ParamSpec.symbolic(e=4, p=5, r=(1, -1)))
    assert v.singular is True and v.clause == "main.1.2.b"
    v = CL.classify_bmw(7, ParamSpec.symbolic(e=4, r=(1, 5)))
    assert v.singular is True and v.clause == "main.2"
    v = CL.classify_bmw(5, ParamSpec.symbolic(e=12, r=(1, -1)))
    assert v.singular is False and v.clause == "main.1.2.c"
    # membership in the singular set away from the special pair
    v = CL.classify_bmw(3, ParamSpec.symbolic(e=None, r=(1, 0)))
    assert v.singular is True and v.clause == "main.1.1"
    v = CL.classify_bmw(3, ParamSpec.symbolic(e=None, r=(1, 5)))
    assert v.singular is False


def test_classify_bmw_indeterminate():
    # odd e with unknown sign of q^e can leave membership undecided
    v = CL.classify_bmw(3, ParamSpec.symbolic(e=5, r=(1, 2), qe=0))
    assert v.singular is None and v.clause == "indeterminate"
    v = CL.classify_bmw(3, ParamSpec.symbolic(e=5, r=(1, 2), qe=1))
    assert v.singular is not None


def test_classify_brauer_examples():
    assert CL.classify_brauer(5, 3, None).singular is True
    assert CL.classify_brauer(5, 0, None).singular is False
    v = CL.classify_brauer(3, 0, 2)
    assert v.singular is True and v.clause == "main1.1.b.2"
    v = CL.classify_brauer(6, 2, 3)
    assert v.singular is True and v.clause == "main1.2"
    assert CL.classify_brauer(6, 2, 5).singular is True
    assert CL.classify_brauer(8, 0, None).singular is True
    assert CL.classify_brauer(9, 0, None).singular is True
    assert CL.classify_brauer(7, 0, None).singular is False
    assert CL.classify_brauer(5, 7, None).singular is False


def test_delta_of():
    # delta vanishes at r = q^-1 and r = -q, and is 1 at r0 = 1
    assert DELTA.substitute_r(1, -1).is_zero()
    assert DELTA.substitute_r(-1, 1).is_zero()
    assert DELTA.specialize(5, 2, 1) == 1
    assert DELTA == LaurentPoly.one() + LaurentPoly.omega_inv() * (
        LaurentPoly.r() - LaurentPoly.r(-1))


def test_b3_witness_examples():
    w = CL.b3_witness(6, ParamSpec.symbolic(e=4, r=(1, 1)))
    assert w == ((1, (2, 1, 1)), (2, (1, 1)))
    w = CL.b3_witness(4, ParamSpec.symbolic(e=2, r=(-1, 1)))
    assert w == ((0, (2, 1, 1)), (1, (1, 1)))
    w = CL.b3_witness(5, ParamSpec.symbolic(e=3, r=(-1, 1)))
    assert w == ((0, (1, 1, 1, 1, 1)), (1, (1, 1, 1)))
    with pytest.raises(ValueError):
        CL.b3_witness(5, ParamSpec.symbolic(e=12, r=(1, 1)))


def test_b3_witness_invariants():
    from bmwgram.oracle import sweep_specs
    for n in (4, 5, 6, 7):
        for spec in sweep_specs((5, 7, 11, 13)):
            if spec.e is None or spec.e > n - 2 or spec.r_sign == 0:
                continue
            try:
                (l, mu), (f, lam) = CL.b3_witness(n, spec)
            except ValueError:
                continue
            assert l < f
            assert sum(mu) == n - 2 * l and sum(lam) == n - 2 * f


def test_nonzero_gram_criterion_examples():
    assert CL.nonzero_gram_criterion(
        3, 0, (2, 1), ParamSpec.symbolic(e=7, r="generic")) is True
    assert CL.nonzero_gram_criterion(
        3, 1, (1,), ParamSpec.symbolic(e=None, r=(1, -3))) is False
    assert CL.nonzero_gram_criterion(
        3, 0, (3,), ParamSpec.symbolic(e=2, r="generic")) is False


def test_simple_labels_examples():
    labels = CL.simple_labels(4, ParamSpec.symbolic(e=3, r="generic"))
    assert len(labels) == 7
    labels = CL.simple_labels(4, ParamSpec.symbolic(e=3, r=(1, -1)))
    assert len(labels) == 6 and (2, ()) not in labels
    labels = CL.simple_labels(3, ParamSpec.symbolic(e=None, r=(-1, 1)))
    assert {f for f, _lam in labels} == {0, 1}


def test_closed_forms_meet_gram_ranks():
    """simple_labels is the set of cells whose Gram matrix has nonzero
    rank, and nonzero_gram_criterion says that the rank is full, at every
    n <= 5 and every regime of sweep_specs(DEFAULT_PRIMES)."""
    dims = {n: cell_dims(n) for n in range(1, 6)}
    for spec in sweep_specs(DEFAULT_PRIMES):
        for n, cells in dims.items():
            ranks = {cell: gram_rank(cell, spec) for cell in cells}
            assert set(CL.simple_labels(n, spec)) == {
                (cell.f, cell.lam) for cell, rank in ranks.items() if rank > 0
            }, (n, spec)
            for cell, dim in cells.items():
                assert CL.nonzero_gram_criterion(n, cell.f, cell.lam, spec) \
                    == (ranks[cell] == dim), (cell, spec)


def test_verdict_json():
    v = CL.classify_bmw(6, ParamSpec.symbolic(e=7, r=(-1, 1)))
    data = v.to_json()
    assert data["singular"] is True and data["clause"] == "main.1.2.a"
