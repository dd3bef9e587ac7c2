"""Every concrete regime of oracle.sweep_specs at p <= 13 against the
sha256 of its regime answers, recorded while ParamSpec still answered the
q/r predicates of a concrete spec by powers in GF(p): the classify_bmw
verdict (singular, clause, witness, notes) and b3_witness (or its error)
at n = 2..8, and is_admissible for every (lam, mu, f) with |lam| <= 6."""

import hashlib
import json

import pytest

from bmwgram.classify import b3_witness, classify_bmw
from bmwgram.combin import is_admissible, partitions
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


def _witness(n, spec):
    try:
        return repr(b3_witness(n, spec))
    except (ValueError, AssertionError) as err:
        return "%s: %s" % (type(err).__name__, err)


def regime_lines(p):
    """One line per regime and question, in sweep order."""
    out = []
    for spec in sweep_specs((p,)):
        for n in range(2, 9):
            verdict = json.dumps(classify_bmw(n, spec).to_json(),
                                 sort_keys=True)
            out.append("%s n=%d %s %s" % (spec, n, verdict, _witness(n, spec)))
        bits = "".join("1" if is_admissible(lam, mu, f, spec) else "0"
                       for lam, mu, f in ADMISSIBLE_TRIPLES)
        out.append("%s admissible %s" % (spec, bits))
    return out


@pytest.mark.parametrize("p", sorted(REGIME_SHA256))
def test_regime_answers_match_fixture(p):
    text = "\n".join(regime_lines(p)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REGIME_SHA256[p]
