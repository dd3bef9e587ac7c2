import json
import os
import subprocess
import sys

import pytest

import bmwgram
from bmwgram import cli
from bmwgram.cellmod import (DIMS_MAX_N, SUBST_MAX_EXP, CellIndex,
                             gram_matrix)
from bmwgram.classify import CLASSIFY_MAX_N
from bmwgram.cli import main
from bmwgram.oracle import DEFAULT_MAX_N, agreement_sweep


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_classify_example(capsys):
    rc, out = run(capsys, ["--output", "json", "classify", "--n", "6",
                           "--r=-q", "--e", "7", "--p", "0"])
    assert rc == 0
    data = json.loads(out)
    assert data["singular"] is True and data["clause"] == "main.1.2.a"


def test_gram_det_example(capsys):
    rc, out = run(capsys, ["gram", "--n", "3", "--f", "1",
                           "--lambda", "(1)", "--subst", "r=q^-1", "--det"])
    assert rc == 0
    assert "(q^4 + 1)" in out


def test_dims_example(capsys):
    rc, out = run(capsys, ["dims", "--n", "3"])
    assert rc == 0
    assert "sum of squares = 15" in out


def test_dims_csv(capsys):
    rc, out = run(capsys, ["--output", "csv", "dims", "--n", "3"])
    assert rc == 0
    assert out.splitlines()[0] == "f,lambda,dim"


def test_classify_brauer(capsys):
    rc, out = run(capsys, ["--output", "json", "classify-brauer",
                           "--n", "5", "--delta", "3"])
    assert rc == 0
    assert json.loads(out)["singular"] is True


def test_oracle_command(capsys):
    rc, out = run(capsys, ["--output", "json", "oracle", "--n", "3",
                           "--p", "5", "--q0", "2", "--r0", "3"])
    assert rc == 0
    data = json.loads(out)
    assert data["singular"] is False


def test_gram_rank(capsys):
    rc, out = run(capsys, ["gram", "--n", "3", "--f", "1", "--lambda", "(1)",
                           "--rank", "--p", "5", "--q0", "2", "--r0", "3"])
    assert rc == 0
    assert "rank = 3 of 3" in out


def test_gram_json_roundtrip(capsys):
    rc, out = run(capsys, ["--output", "json", "gram", "--n", "2",
                           "--f", "1", "--lambda", "()"])
    assert rc == 0
    assert json.loads(out) == gram_matrix(CellIndex(2, 1, ())).to_json()


def test_domain_error_exit_code(capsys):
    rc = main(["gram", "--n", "3", "--f", "1", "--lambda", "(2)"])
    assert rc == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["classify"])
    assert err.value.code == 2


def test_sweep_output_matches_agreement_sweep(capsys):
    rows, disagreements = agreement_sweep(ns=(2, 3), primes=(2, 5))
    assert not disagreements
    argv = ["sweep", "--nmax", "3", "--primes", "2,5"]
    rc, out = run(capsys, ["--output", "csv"] + argv)
    assert rc == 0
    assert out.splitlines() == ["n,spec,oracle,classifier"] + [
        '%d,"%s",%s,%s' % row for row in rows]
    rc, out = run(capsys, ["--output", "json"] + argv)
    assert rc == 0
    assert json.loads(out) == {"rows": len(rows), "disagreements": []}


@pytest.mark.parametrize("primes,reason", [
    ("1", "sweep prime 1 is not a prime"),
    ("5,6", "sweep prime 6 is not a prime"),
    ("5,5", "sweep prime 5 is listed twice"),
    ("2,3", "the sweep reaches no regime"),
])
def test_sweep_refuses_empty_or_repeated_primes(capsys, primes, reason):
    rc = main(["sweep", "--nmax", "3", "--primes", primes])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + reason)


@pytest.mark.parametrize("argv,rc", [(["dims", "--n", "3"], 0),
                                     (["dims", "--n", "-1"], 1)])
def test_python_m_bmwgram(capsys, argv, rc):
    """python -m bmwgram runs cli.main and exits with its code."""
    want = main(argv)
    captured = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(os.path.abspath(bmwgram.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bmwgram"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == want == rc
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)


@pytest.mark.parametrize("f,lam", [(0, "(1,2)"), (1, "(-1,2)"),
                                   (1, "(1,0)"), (0, "(2,1,0)")])
def test_gram_rejects_non_partition(capsys, f, lam):
    rc = main(["gram", "--n", "3", "--f", str(f), "--lambda", lam])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid cell")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--subst", "r=q^"],
    ["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--subst", "r=-q^x"],
    ["classify", "--n", "4", "--r", "q^1.5"],
    ["classify", "--n", "4", "--r", "r"],
], ids=lambda argv: argv[-1])
def test_malformed_r(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: r must be generic or ±q^a\n"


@pytest.mark.parametrize("extra", [["--det"], []], ids=["det", "entries"])
def test_subst_generic_refused(capsys, extra):
    rc = main(["gram", "--n", "3", "--f", "1", "--lambda", "(1)",
               "--subst", "r=generic"] + extra)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: --subst takes r=±q^a; for generic r "
                            "leave --subst out\n")


@pytest.mark.parametrize("a", [SUBST_MAX_EXP, -SUBST_MAX_EXP])
def test_subst_budget_admits_its_bound(capsys, a):
    rc, out = run(capsys, ["gram", "--n", "3", "--f", "1", "--lambda", "(1)",
                           "--subst", "r=-q^%d" % a, "--det"])
    assert rc == 0
    assert out.startswith("det = ")


CONCRETE_FIXES_REGIME = ("error: a concrete point --q0 --r0 fixes e, r and "
                         "the sign of q^e; do not also give --e, --r or --qe")

GRAM_TAKES_NO_REGIME = ("error: gram takes no --r, --e or --qe (substitute "
                        "r by --subst), and --p --q0 --r0 only with --rank")

QE_NEEDS_E = ("error: --qe needs a finite order --e: q^e has no sign when "
              "ord(q^2) is infinite")


@pytest.mark.parametrize("argv, error", [
    (["classify", "--n", "4", "--p", "7", "--q0", "2", "--r0", "4",
      "--e", "5", "--r=-q", "--qe=-1"], CONCRETE_FIXES_REGIME),
    (["classify", "--n", "4", "--p", "7", "--q0", "2", "--r0", "4",
      "--qe=-1"], CONCRETE_FIXES_REGIME),
    (["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--rank",
      "--p", "7", "--q0", "2", "--r0", "4", "--e", "9"],
     CONCRETE_FIXES_REGIME),
    (["classify", "--n", "3", "--e", "4", "--qe=+1", "--r", "q^-1"],
     "error: q^e = +1 contradicts ord(q^2) = 4 outside characteristic 2"),
    (["classify", "--n", "3", "--e", "0", "--qe=+1", "--r", "q^-1"],
     QE_NEEDS_E),
    (["classify", "--n", "3", "--qe=-1", "--p", "2"], QE_NEEDS_E),
    (["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--r", "q^-1"],
     GRAM_TAKES_NO_REGIME),
    (["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--det",
      "--e", "3"], GRAM_TAKES_NO_REGIME),
    (["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--qe=-1"],
     GRAM_TAKES_NO_REGIME),
    (["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--det",
      "--p", "7"], GRAM_TAKES_NO_REGIME),
    (["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--subst", "r=-q",
      "--det", "--p", "7", "--q0", "2", "--r0", "5"], GRAM_TAKES_NO_REGIME),
    (["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--subst", "r=q^-1",
      "--rank", "--p", "7", "--q0", "2", "--r0", "3"],
     "error: --subst r=q^-1 needs r0 = 4 mod 7 at q0 = 2, not 3"),
    (["gram", "--n", "3", "--f", "1", "--lambda", "(1)", "--subst", "r=-q^2",
      "--rank", "--p", "7", "--q0", "2", "--r0", "4"],
     "error: --subst r=-q^2 needs r0 = 3 mod 7 at q0 = 2, not 4"),
], ids=["classify-e-r-qe", "classify-qe", "gram-rank-e", "qe-plus-even-e",
        "qe-infinite-e", "qe-no-e", "gram-r", "gram-det-e", "gram-qe",
        "gram-det-p", "gram-point-no-rank", "gram-subst-r0",
        "gram-subst-sign-r0"])
def test_contradictory_regime_refused(capsys, argv, error):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == error + "\n"


def test_char_2_folds_qe_at_even_e(capsys):
    # -1 = +1 in characteristic 2, so q^e = +1 is no contradiction there
    rc, out = run(capsys, ["classify", "--n", "3", "--e", "4", "--p", "2",
                           "--qe=+1", "--r", "q^-1"])
    assert rc == 0
    assert out == "singular: True\nclause: main.1.2.b\n"


@pytest.mark.parametrize("n", [-3, -1, DIMS_MAX_N + 1, 200])
def test_dims_rejects_out_of_budget(capsys, n):
    rc = main(["dims", "--n", str(n)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: degree %d outside the budget" % n)


@pytest.mark.parametrize("n", [0, DIMS_MAX_N])
def test_dims_in_budget(capsys, n):
    rc, out = run(capsys, ["--output", "json", "dims", "--n", str(n)])
    assert rc == 0
    data = json.loads(out)
    assert data["sum_of_squares"] == data["double_factorial"]


def test_dims_zero_label(capsys):
    rc, out = run(capsys, ["dims", "--n", "0"])
    assert rc == 0
    assert out.splitlines() == ["f=0 lambda=[]           dim=1",
                                "sum of squares = 1 ((-1)!! check: 1)"]


_REGIME = ["--p", "5", "--q0", "2", "--r0", "3"]


@pytest.mark.parametrize("argv", [
    ["oracle", "--n", "-2"] + _REGIME,
    ["oracle", "--n", str(DEFAULT_MAX_N + 1)] + _REGIME,
    ["sweep", "--nmax", "-1"],
    ["sweep", "--nmax", "1"],
    ["sweep", "--nmax", str(DEFAULT_MAX_N + 1)],
    ["gram", "--n", str(DEFAULT_MAX_N + 1), "--f", "4", "--lambda", "()"],
    ["gram", "--n", "9", "--f", "0", "--lambda", "(9)"],
    pytest.param(["oracle", "--n", "2", "--p", "1000000007", "--q0", "2",
                  "--r0", "3"], id="oracle p > CONCRETE_MAX_P"),
    pytest.param(["classify", "--n", "4", "--p", "1000000007", "--q0", "2",
                  "--r0", "3"], id="classify p > CONCRETE_MAX_P"),
    pytest.param(["gram", "--n", "3", "--f", "1", "--lambda", "(1)",
                  "--rank", "--p", "4194319", "--q0", "2", "--r0", "3"],
                 id="gram --rank p > CONCRETE_MAX_P"),
    pytest.param(["sweep", "--nmax", "2", "--primes", "10007"],
                 id="sweep primes 10007"),
    pytest.param(["sweep", "--nmax", "2", "--primes", "307"],
                 id="sweep primes 307"),
    pytest.param(["sweep", "--nmax", "2", "--primes", "2,3,5,7,11,13,191"],
                 id="sweep primes to 13 and 191"),
    pytest.param(["classify", "--n", "4", "--p", "318665857834031151167461",
                  "--e", "3", "--r", "q"], id="classify p >= PRIME_LIMIT"),
    pytest.param(["classify-brauer", "--n", "4", "--delta", "3",
                  "--p", "318665857834031151167461"],
                 id="classify-brauer p >= PRIME_LIMIT"),
    pytest.param(["gram", "--n", "3", "--f", "1", "--lambda", "(1)",
                  "--subst", "r=q^%d" % (SUBST_MAX_EXP + 1), "--det"],
                 id="gram --subst r=q^a past SUBST_MAX_EXP"),
    pytest.param(["gram", "--n", "3", "--f", "1", "--lambda", "(1)",
                  "--subst", "r=-q^-10000", "--rank", "--p", "5", "--q0", "2",
                  "--r0", "4"], id="gram --subst r=-q^-10000 --rank"),
    pytest.param(["classify", "--n", str(CLASSIFY_MAX_N + 1), "--r", "q^5"],
                 id="classify --n past CLASSIFY_MAX_N"),
    pytest.param(["classify-brauer", "--n", str(CLASSIFY_MAX_N + 1),
                  "--delta", "3"], id="classify-brauer --n past CLASSIFY_MAX_N"),
], ids=lambda argv: " ".join(argv[:3]))
def test_degree_budgets(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "outside the budget" in lines[0]
    assert lines[0].startswith("error: ")


def _refuses_q_scaled_grams(capsys, monkeypatch, argv):
    """Run argv on an empty Gram cache with every assembled entry scaled by
    q, which keeps every rank but fails the sign certificate: one error
    line naming it and exit 1."""
    from bmwgram import cellmod as CM
    from bmwgram.coeff import LaurentPoly
    real = CM.cell_form

    def scaled(h, lam):
        return real(h, lam) * LaurentPoly.q()

    monkeypatch.setattr(CM, "_GRAMS", {})
    monkeypatch.setattr(CM, "cell_form", scaled)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "fails the sign certificate" in lines[0]
    assert lines[0].startswith("error: ")


def test_sweep_refuses_gram_without_sign_certificate(capsys, monkeypatch):
    """The certificate is what lets a sweep reuse a report at
    (p, p - q0, p - r0)."""
    _refuses_q_scaled_grams(capsys, monkeypatch, ["sweep", "--nmax", "3"])


def test_oracle_refuses_gram_without_sign_certificate(capsys, monkeypatch):
    """Every matrix gram_matrix hands out is certified, so a single
    oracle call prints no verdict either."""
    _refuses_q_scaled_grams(capsys, monkeypatch,
                            ["oracle", "--n", "4", "--p", "7", "--q0", "2",
                             "--r0", "4"])


@pytest.mark.parametrize("extra", [
    ["--det"], ["--rank", "--p", "7", "--q0", "2", "--r0", "4"]],
    ids=["det", "rank"])
def test_gram_refuses_gram_without_sign_certificate(capsys, monkeypatch,
                                                    extra):
    """gram prints no determinant or rank of an uncertified matrix."""
    _refuses_q_scaled_grams(capsys, monkeypatch,
                            ["gram", "--n", "4", "--f", "1", "--lambda",
                             "(2)"] + extra)


def test_cache_subcommand_is_gone():
    with pytest.raises(SystemExit) as err:
        main(["cache", "--warm", "2"])
    assert err.value.code == 2


def test_verify_dims_suite(capsys):
    rc, out = run(capsys, ["verify", "--suite", "dims"])
    assert rc == 0
    assert "PASS" in out


@pytest.mark.parametrize("suite,nmax,lines", [
    ("inflation", 3, ["inflation backend cell (1, ()) n=2: PASS",
                      "inflation backend cell (1, (1,)) n=3: PASS",
                      "tower product structure n=2: PASS",
                      "tower product structure n=3: PASS",
                      "4/4 passed"]),
    ("central", 3, ["central element n=2: PASS",
                    "central element n=3: PASS",
                    "2/2 passed"]),
])
def test_verify_nmax_reaches_the_suite(capsys, suite, nmax, lines):
    rc, out = run(capsys, ["verify", "--suite", suite, "--nmax", str(nmax)])
    assert rc == 0
    assert out.splitlines() == lines


@pytest.mark.parametrize("suite,nmax,reason", [
    ("hecke", 2, "takes no nmax"),
    ("dims", 3, "takes no nmax"),
    ("witnesses", 5, "takes no nmax"),
    ("b1-formulas", 5, "takes no nmax"),
    ("inflation", 5, "outside the budget 2..4"),
    ("central", 6, "outside the budget 2..5"),
    ("relations", 1, "outside the budget"),
    ("relations", DEFAULT_MAX_N + 1, "outside the budget"),
    ("oracle-agreement", DEFAULT_MAX_N + 1, "outside the budget"),
])
def test_verify_nmax_refused(capsys, suite, nmax, reason):
    rc = main(["verify", "--suite", suite, "--nmax", str(nmax)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert reason in lines[0]


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def fail(args):
        raise exc("rewriting cycle")
    monkeypatch.setitem(cli.COMMANDS, "dims", fail)
    rc = main(["dims", "--n", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: rewriting cycle\n"


_RELATIONS_SCRIPT = """
import sys
from bmwgram import bmw as B, verify as V
assert False, "asserts must be stripped"
if sys.argv[1] == "broken":
    real = B.generator
    B.generator = lambda kind, i, n: real("T" if kind == "T_inv" else kind,
                                          i, n)
for name, ok, detail in V.suite_relations(nmax=3):
    print("%s: %s %s" % (name, "PASS" if ok else "FAIL", detail))
"""


@pytest.mark.parametrize("mode", ["intact", "broken"])
def test_relations_suite_under_optimize(mode):
    """suite_relations reports failures with asserts stripped (python -O);
    the broken mode makes T_i^{-1} return T_i."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bmwgram.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _RELATIONS_SCRIPT, mode],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    if mode == "intact":
        assert lines and all(": PASS" in line for line in lines)
    else:
        assert "relations n=2: FAIL E definition 1" in lines
        assert "relations n=3: FAIL E definition 1" in lines


def test_gram_n7_top_cell_cold():
    """A cold n = 7 Gram matrix, inside the oracle's degree bound."""
    assert DEFAULT_MAX_N >= 7
    src = os.path.dirname(os.path.dirname(os.path.abspath(bmwgram.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bmwgram.cli", "gram",
                           "--n", "7", "--f", "3", "--lambda", "(1)"],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
