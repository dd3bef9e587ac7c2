"""Named verification suites shared by the command line and the test suite.

Each suite returns a list of (name, passed, detail) triples so callers can
render one line per item.
"""

from __future__ import annotations

import itertools
import random

from . import bmw as B
from . import cellmod as CM
from . import classify as CL
from .coeff import LaurentPoly
from .combin import is_admissible, num_std_tableaux, dfn_size, partitions
from .oracle import agreement_sweep, sweep_specs
from .cellmod import cell_dims

ONE = LaurentPoly.one()


def _qb(a):
    return LaurentPoly.qbracket(a)


def b1_cases():
    q = LaurentPoly.q
    return [
        ("det G_{1,(1)} r=q^-1", (3, 1, (1,)), (1, -1), q(4) + ONE),
        ("det G_{1,(1)} r=-q", (3, 1, (1,)), (-1, 1), q(4) + ONE),
        ("det G_{1,(3)} r=-q", (5, 1, (3,)), (-1, 1),
         LaurentPoly.integer(32) * _qb(2) ** 10 * _qb(3) ** 14 * (ONE + q(8))),
        ("det G_{1,(3)} r=q^-1", (5, 1, (3,)), (1, -1),
         LaurentPoly.integer(-1) * _qb(2) ** 10 * _qb(3) ** 11 * (ONE + q(4)) ** 6),
        ("det G_{1,(1^3)} r=-q", (5, 1, (1, 1, 1)), (-1, 1),
         _qb(3) * (ONE + q(4)) ** 6),
        ("det G_{1,(1^3)} r=q^-1", (5, 1, (1, 1, 1)), (1, -1),
         LaurentPoly.integer(32) * _qb(3) ** 4 * (ONE + q(8))),
        ("det G_{1,(2,1)} r=q^-1", (5, 1, (2, 1)), (1, -1),
         LaurentPoly.integer(-1) * _qb(2) ** 4 * _qb(3) ** 15 * (ONE + q(6)) ** 4),
        ("det G_{1,(2,1)} r=-q", (5, 1, (2, 1)), (-1, 1),
         LaurentPoly.integer(-1) * _qb(2) ** 4 * _qb(3) ** 15 * (ONE + q(6)) ** 4),
        ("det G_{2,(1)} r=q^-1", (5, 2, (1,)), (1, -1),
         LaurentPoly.integer(-64) * (ONE + q(2)) * (ONE + q(4)) ** 10 * (ONE + q(6))),
        ("det G_{2,(1)} r=-q", (5, 2, (1,)), (-1, 1),
         LaurentPoly.integer(-64) * (ONE + q(2)) * (ONE + q(4)) ** 10 * (ONE + q(6))),
    ]


def suite_b1_formulas():
    """Closed-form determinant regression for the seven listed cases."""
    out = []
    for name, (n, f, lam), sub, expected in b1_cases():
        gram = CM.gram_matrix(CM.CellIndex(n, f, lam))
        det = CM.gram_det(gram.substitute_r(*sub))
        got = det.normalize_unit()[1]
        want = expected.normalize_unit()[1]
        ok = got == want
        detail = "" if ok else "got %s, expected %s" % (got, want)
        out.append((name, ok, detail))
    for n in (2, 4):
        g = CM.gram_matrix(CM.CellIndex(n, n // 2, ()))
        for sgn, a in ((1, -1), (-1, 1)):
            det = CM.gram_det(g.substitute_r(sgn, a))
            out.append(("det G_{%d/2,()} vanishes at r=%sq^%d"
                        % (n, "+" if sgn > 0 else "-", a),
                        det.is_zero(), str(det) if not det.is_zero() else ""))
    return out


def suite_relations(nmax=5):
    """Defining relations, derived identities, dimension count and
    associativity."""
    out = []
    q = LaurentPoly.q
    rinv = LaurentPoly.r(-1)
    rr = LaurentPoly.r(1)
    for n in range(2, nmax + 1):
        one = B.BmwElem.one(n)
        T = {i: B.generator("T", i, n) for i in range(1, n)}
        E = {i: B.generator("E", i, n) for i in range(1, n)}
        Ti = {i: B.generator("T_inv", i, n) for i in range(1, n)}
        checks = []
        for i in range(1, n):
            cubic = (T[i] - one.scale(q(1))) * (T[i] + one.scale(q(-1))) \
                * (T[i] - one.scale(rinv))
            checks += [
                ("cubic %d" % i, cubic.is_zero()),
                ("ET %d" % i, E[i] * T[i] == E[i].scale(rinv)),
                ("TE %d" % i, T[i] * E[i] == E[i].scale(rinv)),
                ("EE %d" % i, E[i] * E[i] == E[i].scale(B.DELTA)),
                ("E definition %d" % i,
                 one - (T[i] - Ti[i]).scale(LaurentPoly.omega_inv()) == E[i]),
            ]
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) == 1:
                    checks += [
                        ("braid", T[i] * T[j] * T[i] == T[j] * T[i] * T[j]),
                        ("ETE", E[i] * T[j] * E[i] == E[i].scale(rr)),
                        ("ETiE", E[i] * Ti[j] * E[i] == E[i].scale(rinv)),
                        ("EEE", E[i] * E[j] * E[i] == E[i]),
                        ("TTE", T[i] * T[j] * E[i] == E[j] * E[i]),
                        ("ETT", E[i] * T[j] * T[i] == E[i] * E[j]),
                    ]
                elif abs(i - j) >= 2:
                    checks += [
                        ("TT far", T[i] * T[j] == T[j] * T[i]),
                        ("EE far", E[i] * E[j] == E[j] * E[i]),
                        ("ET far", E[i] * T[j] == T[j] * E[i]),
                    ]
        failed = [label for label, holds in checks if not holds]
        ok = not failed
        detail = failed[0] if failed else ""
        out.append(("relations n=%d" % n, ok, detail))
    out += _dimension_identity("dimension identity n=%d")
    # associativity
    words3 = list(B.all_words(3))
    el3 = {w: B.BmwElem.from_word(3, w) for w in words3}
    ok = all((el3[a] * el3[b]) * el3[c] == el3[a] * (el3[b] * el3[c])
             for a, b, c in itertools.product(words3, repeat=3))
    out.append(("associativity n=3 exhaustive", ok, ""))
    rng = random.Random(20240201)
    for n in (4, 5):
        if n > nmax:
            continue
        words = list(B.all_words(n))
        bad = None
        for _ in range(1000):
            ws = [rng.choice(words) for _ in range(3)]
            x, y, z = (B.BmwElem.from_word(n, w) for w in ws)
            if (x * y) * z != x * (y * z):
                bad = ws
                break
        out.append(("associativity n=%d (1000 random triples)" % n,
                    bad is None, str(bad) if bad else ""))
    return out


def _dimension_identity(label):
    """One line per n <= 6, named label % n: the squared cell dimensions
    add up to the basis size."""
    out = []
    for n in range(1, 7):
        total = sum(d * d for d in cell_dims(n).values())
        out.append((label % n, total == B.basis_size(n),
                    "%d vs %d" % (total, B.basis_size(n))))
    return out


def suite_dims():
    return _dimension_identity("sum of squared cell dimensions n=%d")


def suite_oracle_agreement(nmax=5):
    rows, disagreements = agreement_sweep(ns=range(2, nmax + 1))
    out = [("oracle/classifier agreement (%d regimes)" % len(rows),
            not disagreements,
            "; ".join("n=%d %s" % (n, spec) for n, spec, _a, _b
                      in disagreements[:5]))]
    return out


def suite_witnesses():
    """Witness cells are rank deficient and the pair is admissible, over
    every reachable root-of-unity regime."""
    out = []
    count = 0
    bad = []
    for n in (4, 5):
        for spec in sweep_specs((5, 7, 11, 13)):
            if spec.e is None or spec.e > n - 2 or spec.r_sign == 0:
                continue
            count += 1
            (l, mu), (f, lam) = CL.b3_witness(n, spec)
            dim = num_std_tableaux(lam) * dfn_size(f, n)
            rank = CM.gram_rank(CM.CellIndex(n, f, lam), spec)
            if not (rank < dim and is_admissible(mu, lam, f - l, spec)):
                bad.append((n, str(spec)))
    out.append(("witness validation (%d reachable regimes)" % count,
                count > 0 and not bad, str(bad[:5])))
    return out


def suite_hecke():
    """Specht ranks: full in the semisimple regime, positive iff the shape
    is e-restricted."""
    from .combin import is_e_restricted
    out = []
    bad = []
    for spec in sweep_specs((5, 7, 11, 13)):
        for m in range(1, 6):
            for lam in partitions(m):
                rank = CM.gram_rank(CM.CellIndex(m, 0, lam), spec)
                if spec.e is not None and spec.e > m:
                    if rank != num_std_tableaux(lam):
                        bad.append((str(spec), lam, "semisimple rank"))
                if (rank > 0) != is_e_restricted(lam, spec.e):
                    bad.append((str(spec), lam, "restriction criterion"))
    out.append(("Specht rank criteria over the sweep", not bad, str(bad[:5])))
    return out


def suite_central(nmax=4):
    out = []
    for n in range(2, nmax + 1):
        z = CM.central_element(n)
        ok = True
        detail = ""
        for kind in ("T", "E"):
            for i in range(1, n):
                g = B.generator(kind, i, n)
                if z * g != g * z:
                    ok = False
                    detail = "does not commute with %s_%d" % (kind, i)
        for f in range(n // 2 + 1):
            for lam in partitions(n - 2 * f):
                cell = CM.CellIndex(n, f, lam)
                tg = CM.central_twisted_gram(cell, z)
                g = CM.gram_matrix(cell)
                sigma = CM.central_scalar(cell)
                for a in range(g.dim()):
                    for b in range(g.dim()):
                        if tg.entries[a][b] != sigma * g.entries[a][b]:
                            ok = False
                            detail = "wrong scalar on cell (%d, %s)" % (f, lam)
        out.append(("central element n=%d" % n, ok, detail))
    return out


def suite_inflation(nmax=4):
    out = []
    for n in range(2, nmax + 1):
        for f in range(1, n // 2 + 1):
            for lam in partitions(n - 2 * f):
                cell = CM.CellIndex(n, f, lam)
                ga = CM.gram_matrix(cell)
                gb = CM.direct_gram(cell)
                out.append(("inflation backend cell (%d, %s) n=%d" % (f, lam, n),
                            ga.entries == gb.entries, ""))
    # product structure against the tower form
    for n in range(2, nmax + 1):
        ok = True
        detail = ""
        from .bmw import phi_f, BmwElem
        from .hecke import HeckeElem
        for f in range(1, n // 2 + 1):
            m = n - 2 * f
            words = [w for w in B.all_words(n) if w[0] == f]
            for w1 in words:
                for w2 in words:
                    prod = BmwElem.from_word(n, w1) * BmwElem.from_word(n, w2)
                    level = {wd: c for wd, c in prod.terms.items() if wd[0] == f}
                    if any(wd[0] < f for wd in prod.terms):
                        ok = False
                        detail = "filtration violated"
                        break
                    h = HeckeElem(m, {w1[2]: ONE}) * (
                        phi_f(w1[3], w2[1], f, n) * HeckeElem(m, {w2[2]: ONE}))
                    expect = {}
                    for ww, c in h.terms.items():
                        expect[(f, w1[1], ww, w2[3])] = c
                    expect = {k: v for k, v in expect.items() if not v.is_zero()}
                    if level != expect:
                        ok = False
                        detail = "inflation product mismatch at %s * %s" % (w1, w2)
                        break
                if not ok:
                    break
            if not ok:
                break
        out.append(("tower product structure n=%d" % n, ok, detail))
    return out


SUITES = {
    "b1-formulas": suite_b1_formulas,
    "relations": suite_relations,
    "dims": suite_dims,
    "oracle-agreement": suite_oracle_agreement,
    "witnesses": suite_witnesses,
    "hecke": suite_hecke,
    "central": suite_central,
    "inflation": suite_inflation,
}


# The suites that take a largest degree nmax, with its budget (smallest,
# largest).  Measured cold in one process (2-vCPU VM, CPython 3.11):
# relations takes 7.4 s at nmax = 7, most of it the fixed associativity
# samples; central 0.3 s at 4 and 19 s at 5; inflation 1.3 s at 4, and its
# tower check multiplies every pair of level-f words, so n = 5 would not
# finish.  relations and oracle-agreement share the package's degree bound
# (sweep --nmax 6 takes 1.4 s; oracle-agreement at 7 completes in about
# 28-33 s).
NMAX_BUDGETS = {
    "relations": (2, CM.DEFAULT_MAX_N),
    "oracle-agreement": (2, CM.DEFAULT_MAX_N),
    "central": (2, 5),
    "inflation": (2, 4),
}


def run_suite(name, nmax=None):
    """The named suite, at its default degrees or up to degree nmax."""
    if name not in SUITES:
        raise KeyError("unknown suite %r (have %s)" % (name, sorted(SUITES)))
    if nmax is None:
        return SUITES[name]()
    if name not in NMAX_BUDGETS:
        raise ValueError("suite %s takes no nmax (only %s do)"
                         % (name, ", ".join(sorted(NMAX_BUDGETS))))
    low, high = NMAX_BUDGETS[name]
    if not low <= nmax <= high:
        raise ValueError("nmax %d outside the budget %d..%d of suite %s"
                         % (nmax, low, high, name))
    return SUITES[name](nmax=nmax)
