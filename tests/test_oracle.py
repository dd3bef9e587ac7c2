from dataclasses import replace

import pytest

from bmwgram.cellmod import DEFAULT_MAX_N, CellIndex, cell_dims
from bmwgram.classify import classify_bmw
from bmwgram.coeff import ParamSpec
from bmwgram.oracle import (DEFAULT_PRIMES, OracleReport, agreement_sweep,
                            radical_dims, singular_oracle, sweep_specs)


def test_oracle_examples():
    rep = singular_oracle(3, ParamSpec.concrete(5, 2, 3))
    assert rep.singular is False
    rep = singular_oracle(2, ParamSpec.concrete(5, 2, 3))
    assert rep.singular is True
    assert rep.first_witness == (1, ())
    assert rep.table == [(1, (), 1, 0)]
    rep = singular_oracle(4, ParamSpec.concrete(5, 2, 4))  # r0 = q0^2, e = 2
    assert rep.singular is True


def test_report_invariants():
    for spec in (ParamSpec.concrete(5, 2, 3), ParamSpec.concrete(7, 3, 2),
                 ParamSpec.concrete(11, 2, 5)):
        for n in (2, 3, 4):
            rep = singular_oracle(n, spec)
            for f, lam, induced, simple in rep.table:
                assert simple <= induced
            data = rep.to_json()
            assert data["singular"] == rep.singular


def test_oracle_bound():
    for n in (-2, -1, 8):
        with pytest.raises(ValueError):
            singular_oracle(n, ParamSpec.concrete(5, 2, 3))


def test_radical_dims():
    # semisimple regime: all radicals vanish
    spec = ParamSpec.concrete(11, 2, 4)   # e = 5 > n-2, r generic enough
    from bmwgram.classify import classify_bmw
    if classify_bmw(3, spec).singular is False:
        rads = radical_dims(3, spec)
        assert all(v == 0 for v in rads.values())
    # the defining example: r0 = q0^{-1} kills the top cell at n=2
    spec = ParamSpec.concrete(5, 2, 3)
    rads = radical_dims(2, spec)
    assert rads[CellIndex(2, 1, ())] == 1
    assert rads[CellIndex(2, 0, (1, 1))] == 0


def test_f0_rows_match_specht():
    spec = ParamSpec.concrete(7, 3, 2)
    specht_ranks = {(2,): 1, (1, 1): 1, (3,): 0, (2, 1): 1, (1, 1, 1): 1,
                    (4,): 0, (3, 1): 3, (2, 2): 1, (2, 1, 1): 3,
                    (1, 1, 1, 1): 1}
    for n in (2, 3, 4):
        rads = radical_dims(n, spec)
        dims = cell_dims(n)
        for cell, dim in dims.items():
            if cell.f == 0:
                assert dim - rads[cell] == specht_ranks[cell.lam]


def test_sweep_specs_exclude_bad_q():
    for spec in sweep_specs((2, 3, 5)):
        assert spec.q0 * spec.q0 % spec.p != 1
    assert not [s for s in sweep_specs((2, 3)) if True]


@pytest.mark.parametrize("primes", [(1,), (4, 5), (5, 7, 5)])
def test_sweep_specs_refuse_bad_primes(primes):
    with pytest.raises(ValueError):
        sweep_specs(primes)


def test_agreement_sweep_without_regimes_fails():
    with pytest.raises(ValueError, match="reaches no regime"):
        agreement_sweep(ns=range(2, 4), primes=(2, 3))
    with pytest.raises(ValueError, match="reaches no regime"):
        agreement_sweep(ns=(), primes=(5,))


def test_sweep_reports_equal_fresh_oracle(monkeypatch):
    """With the classifier's verdicts inverted every regime comes back as
    a disagreement, so every report of the sweep is seen: each equals a
    fresh singular_oracle at its own spec, field for field, although one
    report per orbit {(p, q0, r0), (p, p - q0, p - r0)} was computed."""
    import bmwgram.classify as CL
    real = CL.classify_bmw

    def inverted(n, spec):
        verdict = real(n, spec)
        return replace(verdict, singular=not verdict.singular)

    monkeypatch.setattr(CL, "classify_bmw", inverted)
    primes = (5, 7, 11, 13)
    rows, disagreements = agreement_sweep(ns=(2, 3, 4, 5), primes=primes)
    assert len(rows) == len(disagreements) == 4 * len(sweep_specs(primes))
    for n, spec, rep, _verdict in disagreements:
        assert rep.spec is spec
        assert rep == singular_oracle(n, spec), (n, str(spec))


def test_every_clause_meets_the_oracle():
    """Every (clause, verdict) pair that classify_bmw returns on a concrete
    regime, at any degree the oracle takes and any prime up to 31, is
    checked against the oracle somewhere in Tier-1: by the sweep at
    n <= 5 over the default primes, which acceptance criterion 4 runs and
    finds free of disagreements, or by an n = 3 sweep at p = 17, the least
    prime with q^4 = -1 solvable and so the first to reach the True branch
    of main.1.2.b."""
    checked = set()
    for spec in sweep_specs(DEFAULT_PRIMES):
        for n in (2, 3, 4, 5):
            verdict = classify_bmw(n, spec)
            checked.add((verdict.clause, verdict.singular))
    rows, disagreements = agreement_sweep(ns=(3,), primes=(17,))
    assert not disagreements
    checked |= {(classify_bmw(n, spec).clause, verdict)
                for n, spec, _oracle, verdict in rows}
    returned = set()
    for spec in sweep_specs((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)):
        for n in range(2, DEFAULT_MAX_N + 1):
            verdict = classify_bmw(n, spec)
            returned.add((verdict.clause, verdict.singular))
    assert ("main.1.2.b", True) in returned
    assert returned <= checked, sorted(returned - checked)
