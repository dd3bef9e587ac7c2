"""Regime answers against sha256 fixtures.

Concrete: every regime of oracle.sweep_specs at p <= 13, recorded while
ParamSpec still answered the q/r predicates of a concrete spec by powers in
GF(p): the classify_bmw verdict (singular, clause, witness, notes) and
b3_witness (or its error) at n = 2..8, and is_admissible for every
(lam, mu, f) with |lam| <= 6.

Symbolic: the 2,455 distinct ParamSpec.symbolic regimes with e in
{None, 2..10}, p in {None, 2, 3, 5, 7}, r generic or ±q^a with |a| <= 12
and qe in {0, ±1}, recorded while ParamSpec still had its accessor layer
(char, order_qsq, sign_q_to_e, q_power_is, r_signed_power): classify_bmw,
b3_witness and simple_labels (or their errors) at n = 2..9 and
r_in_inverse_pair; nonzero_gram_criterion for every cell with n <= 4; and
forbidden_r_values, which reads no regime, for every cell with n <= 9."""

import hashlib
import json

import pytest

from bmwgram.classify import (b3_witness, classify_bmw,
                               nonzero_gram_criterion, simple_labels)
from bmwgram.coeff import ParamSpec
from bmwgram.combin import forbidden_r_values, is_admissible, partitions
from bmwgram.oracle import sweep_specs

REGIME_SHA256 = {
    5: "00b5e73681ba5eca1be1edf4dbf685f0f801a55f45af9102d46afa0c321596f8",
    7: "f9282032c543beeb389ab795c08c662f0074839488f84260bc68eebf09d6b257",
    11: "e013ff422b1aa3443e27702cf05647a0b21435afdf3e721fdc01bd18bcecfa11",
    13: "f5f34b45ce577c4e56abbd234b2f92115bea008134f0c4b0862ee7c2f947b81b",
}

ADMISSIBLE_TRIPLES = [(lam, mu, f)
                      for size in range(2, 7)
                      for lam in partitions(size)
                      for f in range(1, size // 2 + 1)
                      for mu in partitions(size - 2 * f)]


def _answer(fn, *args):
    try:
        return repr(fn(*args))
    except (ValueError, AssertionError) as err:
        return "%s: %s" % (type(err).__name__, err)


def regime_lines(p):
    """One line per regime and question, in sweep order."""
    out = []
    for spec in sweep_specs((p,)):
        for n in range(2, 9):
            verdict = json.dumps(classify_bmw(n, spec).to_json(),
                                 sort_keys=True)
            out.append("%s n=%d %s %s" % (spec, n, verdict,
                                          _answer(b3_witness, n, spec)))
        bits = "".join("1" if is_admissible(lam, mu, f, spec) else "0"
                       for lam, mu, f in ADMISSIBLE_TRIPLES)
        out.append("%s admissible %s" % (spec, bits))
    return out


@pytest.mark.parametrize("p", sorted(REGIME_SHA256))
def test_regime_answers_match_fixture(p):
    text = "\n".join(regime_lines(p)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REGIME_SHA256[p]


SYMBOLIC_SHA256 = {
    "classify": "f917483a35e35bfed742935aea82750b2fb7b5d6546e823395c155b7939b03e3",
    "forbidden": "645748228b58a58ba0cd93fd02fcb596311637fbd9e10327d57374fdd1ddc54a",
    "nonzero": "db5f46e58349d753859b097c836c592ba6ca8e0c3bb0361dd31dde2284ee2725",
}


def symbolic_specs():
    """The distinct regimes of the grid, in first-seen order; a
    contradictory input (qe = +1 at even e outside char 2) is skipped."""
    seen = {}
    for e in [None] + list(range(2, 11)):
        for p in (None, 2, 3, 5, 7):
            for r in ["generic"] + [(sign, a) for a in range(-12, 13)
                                    for sign in (1, -1)]:
                for qe in (0, 1, -1):
                    try:
                        spec = ParamSpec.symbolic(e=e, p=p, r=r, qe=qe)
                    except ValueError:
                        continue
                    key = (spec.e, spec.p, spec.r_sign, spec.r_exp,
                           spec.qe_sign)
                    seen.setdefault(key, spec)
    return list(seen.values())


def cells_up_to(nmax):
    return [(n, f, lam) for n in range(1, nmax + 1)
            for f in range(n // 2 + 1) for lam in partitions(n - 2 * f)]


def symbolic_lines(part):
    specs = symbolic_specs()
    if part == "classify":
        out = []
        for spec in specs:
            for n in range(2, 10):
                verdict = json.dumps(classify_bmw(n, spec).to_json(),
                                     sort_keys=True)
                out.append("%s n=%d %s %s %s" % (
                    spec, n, verdict, _answer(b3_witness, n, spec),
                    _answer(simple_labels, n, spec)))
            out.append("%s inpair %s" % (spec, spec.r_in_inverse_pair()))
        return out
    if part == "nonzero":
        cells = cells_up_to(4)
        return ["%s %s" % (spec, " ".join(
            _answer(nonzero_gram_criterion, n, f, lam, spec)
            for n, f, lam in cells)) for spec in specs]
    return ["%d %d %s %s" % (n, f, lam, sorted(forbidden_r_values(f, lam, n)))
            for n, f, lam in cells_up_to(9)]


def test_symbolic_grid_size():
    assert len(symbolic_specs()) == 2455


@pytest.mark.parametrize("part", sorted(SYMBOLIC_SHA256))
def test_symbolic_answers_match_fixture(part):
    text = "\n".join(symbolic_lines(part)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SYMBOLIC_SHA256[part]
