import random
import sys
import threading

import pytest

from bmwgram import bmw, cellmod as CM
from bmwgram.bmw import DELTA, basis_size
from bmwgram.coeff import LaurentPoly, ParamSpec
from bmwgram.combin import d_of, partitions, perm_len
from bmwgram.exactla import PIVOT_PRIME, plan_rank
from bmwgram.oracle import sweep_specs
from test_exactla import gf_det, gf_rank

L = LaurentPoly


def test_cell_dims_examples():
    dims = {(c.f, c.lam): d for c, d in CM.cell_dims(3).items()}
    assert dims == {(0, (3,)): 1, (0, (2, 1)): 2, (0, (1, 1, 1)): 1,
                    (1, (1,)): 3}
    dims5 = {(c.f, c.lam): d for c, d in CM.cell_dims(5).items()}
    assert dims5[(1, (3,))] == 10
    assert dims5[(2, (1,))] == 15


def test_dimension_identity():
    for n in range(1, 7):
        dims = CM.cell_dims(n)
        assert sum(d * d for d in dims.values()) == basis_size(n)


def test_gram_small_cells():
    g = CM.gram_matrix(CM.CellIndex(2, 0, (2,)))
    assert g.entries[0][0] == L.one() + L.q(2)
    g = CM.gram_matrix(CM.CellIndex(2, 1, ()))
    assert g.entries[0][0] == DELTA


def test_gram_n3_determinant():
    g = CM.gram_matrix(CM.CellIndex(3, 1, (1,)))
    assert g.dim() == 3
    for sub in ((1, -1), (-1, 1)):
        det = CM.gram_det(g.substitute_r(*sub))
        assert det.normalize_unit()[1] == L.q(4) + L.one()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gram_symmetry(n):
    for f in range(n // 2 + 1):
        for lam in partitions(n - 2 * f):
            g = CM.gram_matrix(CM.CellIndex(n, f, lam))
            for a in range(g.dim()):
                for b in range(g.dim()):
                    assert g.entries[a][b] == g.entries[b][a]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_f0_reduction_to_specht(n):
    """The f = 0 Gram matrix is the Specht module's; the direct in-algebra
    construction is the reference."""
    for lam in partitions(n):
        cell = CM.CellIndex(n, 0, lam)
        g, ref = CM.gram_matrix(cell), CM.direct_gram(cell)
        assert (g.labels, g.entries) == (ref.labels, ref.entries)


@pytest.mark.parametrize("n", [5])
def test_inflation_backend(n):
    """gram_matrix against direct_gram on every f >= 1 cell; n <= 4 is
    verify.suite_inflation's, which acceptance criterion 5 runs."""
    for f in range(1, n // 2 + 1):
        for lam in partitions(n - 2 * f):
            cell = CM.CellIndex(n, f, lam)
            assert CM.gram_matrix(cell).entries == \
                CM.direct_gram(cell).entries


def test_inflation_backend_n7_top_cell(monkeypatch):
    """The one f = 3 cell at n = 7 from empty structure-constant tables
    and an empty Gram cache: its tower form needs level-3 products that no
    n <= 6 cell reaches."""
    bmw._WT.clear()
    bmw._WE.clear()
    monkeypatch.setattr(CM, "_GRAMS", {})
    cell = CM.CellIndex(7, 3, (1,))
    gram, ref = CM.gram_matrix(cell), CM.direct_gram(cell)
    assert (gram.labels, gram.entries) == (ref.labels, ref.entries)


def test_structure_constant_tables_stay_small():
    """The 11 cells of the first n = 6 oracle verdict at ord(q0^2) = 2 (the
    f >= 1 cells of the 2-restricted shapes and the f = 0 head of every
    shape), from empty tables, fill bmw._WT and _WE with at most 516 and
    219 products (1,489 and 730 while the tower form memoized every word
    of a node, not one entry per dangle)."""
    cells = [CM.CellIndex(6 - 2 * f, 0, lam) for f in (1, 2)
             for lam in partitions(6 - 2 * f)]
    cells += [CM.CellIndex(6, 1, (2, 1, 1)), CM.CellIndex(6, 1, (1, 1, 1, 1)),
              CM.CellIndex(6, 2, (1, 1)), CM.CellIndex(6, 3, ())]
    assert len(cells) == 11
    bmw._WT.clear()
    bmw._WE.clear()
    for cell in cells:
        CM._assemble(cell)
    assert len(bmw._WT) <= 516
    assert len(bmw._WE) <= 219


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_cells_build_within_150_frames():
    """Every cell with n <= 6 and the n = 7 cells (3,(1)), (1,(5)) and
    (1,(1^5)) build from empty tables with at most 150 frames above the
    caller, the bound the bmw module docstring states."""
    cells = [CM.CellIndex(n, f, lam) for n in range(1, 7)
             for f in range(n // 2 + 1) for lam in partitions(n - 2 * f)]
    cells += [CM.CellIndex(7, 3, (1,)), CM.CellIndex(7, 1, (5,)),
              CM.CellIndex(7, 1, (1, 1, 1, 1, 1))]
    bmw._WT.clear()
    bmw._WE.clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        for cell in cells:
            CM._assemble(cell)
    finally:
        sys.setrecursionlimit(limit)


def test_top_cell_vanishing():
    for n in (2, 4):
        g = CM.gram_matrix(CM.CellIndex(n, n // 2, ()))
        for sub in ((1, -1), (-1, 1)):
            assert CM.gram_det(g.substitute_r(*sub)).is_zero()


def test_specialization_commutes_with_det():
    for n, f, lam in ((2, 1, ()), (3, 1, (1,)), (4, 1, (2,))):
        g = CM.gram_matrix(CM.CellIndex(n, f, lam))
        det = CM.gram_det(g)
        for p, q0, r0 in ((5, 2, 3), (7, 3, 2), (11, 2, 5)):
            rows = [[e.specialize(p, q0, r0) for e in row] for row in g.entries]
            assert det.specialize(p, q0, r0) == gf_det(rows, p)


@pytest.mark.parametrize("sub", [(1, -1), (-1, 1)], ids=["r=q^-1", "r=-q"])
def test_det_g2_1_content_by_sympy(sub):
    """A third determinant of the known-red G_{2,(1)} at n = 5, by sympy
    over Z[q]: it equals bareiss_det's, and its integer content is 2^5
    where the published closed form states 2^6."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from bmwgram.exactla import bareiss_det
    g = CM.gram_matrix(CM.CellIndex(5, 2, (1,))).substitute_r(*sub)
    k = max(e.wexp for row in g.entries for e in row)
    cleared = [[e * L.omega() ** k for e in row] for row in g.entries]
    shift = L.q(-min(a for row in cleared for e in row for a, _b in e.terms))
    cleared = [[e * shift for e in row] for row in cleared]
    q = sympy.Symbol("q")
    ring = sympy.ZZ[q]
    dm = DomainMatrix(
        [[ring.from_sympy(sum(c * q ** a for (a, _b), c in e.terms.items()))
          for e in row] for row in cleared], (15, 15), ring)
    det = sympy.Poly(ring.to_sympy(dm.det()), q)
    assert det.content() == 2 ** 5
    assert bareiss_det(cleared) == L({(a, 0): int(c)
                                      for (a,), c in det.terms()})


def test_gram_rank_examples():
    assert CM.gram_rank(CM.CellIndex(3, 1, (1,)), ParamSpec.concrete(5, 2, 3)) == 3
    spec = ParamSpec.concrete(5, 2, 3)   # r0 = q0^{-1}
    assert CM.gram_rank(CM.CellIndex(2, 1, ()), spec) == 0
    specht_ranks = {(2,): 0, (1, 1): 1, (3,): 0, (2, 1): 2, (1, 1, 1): 1,
                    (4,): 0, (3, 1): 0, (2, 2): 0, (2, 1, 1): 2,
                    (1, 1, 1, 1): 1}
    for lam, rank in specht_ranks.items():
        assert CM.gram_rank(CM.CellIndex(sum(lam), 0, lam), spec) == rank


def test_sign_certificate_holds_on_every_cell():
    """Every cell with n <= 6 is graded by the sign automorphism
    q -> -q, r -> -r, T_i -> -T_i, and its labels carry both signs, so
    the certificate says more than G(-q, -r) = +-G(q, r)."""
    mixed = 0
    for n in range(7):
        for cell in CM.cell_dims(n):
            gram = CM.gram_matrix(cell)
            CM.check_sign_certificate(gram)
            signs = {(perm_len(d_of(t)) + perm_len(v)) % 2
                     for t, v in gram.labels}
            mixed += len(signs) == 2
    assert mixed > 30


def test_sign_certificate_catches_a_wrong_entry():
    gram = CM.gram_matrix(CM.CellIndex(4, 1, (2,)))
    CM.check_sign_certificate(gram)
    a, b = next((a, b) for a, row in enumerate(gram.entries)
                for b, e in enumerate(row) if a != b and e)
    entries = [list(row) for row in gram.entries]
    entries[a][b] = entries[a][b] * L.q()
    bad = CM.GramMatrix(gram.cell, gram.labels, entries)
    with pytest.raises(RuntimeError, match="sign certificate"):
        CM.check_sign_certificate(bad)


def test_symbolic_det_guard():
    class Fake:
        def dim(self):
            return CM.SYMBOLIC_DET_LIMIT + 1
    with pytest.raises(ValueError):
        CM.gram_det(Fake())


def evaluate(plan, p, q0, r0):
    """The plan's matrix at q = q0, r = r0 over GF(p), entry by entry from
    its parts: the reference for ``plan_rank``."""
    w_inv = pow(q0 - pow(q0, -1, p), -1, p)
    parts = [sum(c * pow(q0, plan.qlo + a, p) for c, a in zip(cs, qs))
             * pow(w_inv, k, p) for k, cs, qs in plan.parts]
    where = plan.where
    vals = [sum(parts[t - 1] * pow(r0, plan.rlo + b, p)
                for b, t in enumerate(where[j:j + plan.rlen]) if t) % p
            for j in range(0, len(where), plan.rlen)]
    return [[vals[j] for j in plan.index[i * plan.ncols:(i + 1) * plan.ncols]]
            for i in range(plan.nrows)]


def test_compiled_evaluation_matches_specialize():
    """Every Gram at n <= 4 (the Specht Grams are its f = 0 cells),
    evaluated through its compiled plan, equals LaurentPoly.specialize
    entry by entry at every sweep spec."""
    cases = []
    for n in range(1, 5):
        for cell in CM.cell_dims(n):
            g = CM.gram_matrix(cell)
            cases.append((g.entries, g.plan()))
    entries = [e for rows, _plan in cases for row in rows for e in row]
    assert any(e.is_zero() for e in entries)
    assert any(a < 0 for e in entries for a, _b in e.terms)
    assert any(b < 0 for e in entries for _a, b in e.terms)
    top = CM.gram_matrix(CM.CellIndex(4, 2, ()))
    assert max(e.wexp for row in top.entries for e in row) == 2
    for spec in sweep_specs((2, 3, 5, 7, 11)):
        p, q0, r0 = spec.p, spec.q0, spec.r0
        for rows, plan in cases:
            assert evaluate(plan, p, q0, r0) == \
                [[e.specialize(p, q0, r0) for e in row] for row in rows]


def _n5_grams():
    return [CM.gram_matrix(cell)
            for n in range(1, 6) for cell in CM.cell_dims(n)]


def test_specialized_rank_matches_reference_in_any_order():
    """The folded rank equals gf_rank of the entrywise evaluation for every
    cell with n <= 5 at every sweep regime with p <= 13, visited once in
    sweep order (every cell at each regime in turn) and once shuffled
    across cells and regimes, so that a folded (p, q0) and a kept r-free
    rank are replaced whenever the point moves."""
    grams = _n5_grams()
    specs = sweep_specs((2, 3, 5, 7, 11, 13))
    pairs = [(g, spec) for g in grams for spec in specs]
    want = {(id(g), spec): gf_rank(evaluate(g.plan(), spec.p, spec.q0,
                                            spec.r0), spec.p)
            for g, spec in pairs}
    assert len(set(want.values())) > 10
    assert all(CM.gram_rank(g.cell, spec) == want[id(g), spec]
               for spec in specs for g in grams)
    random.Random(5).shuffle(pairs)
    assert all(CM.gram_rank(g.cell, spec) == want[id(g), spec]
               for g, spec in pairs)


def test_rank_at_wide_fields():
    """At primes near 2^61 the fields of a packed row span several bytes;
    plan_rank called on the plan directly still equals the reference, at
    a random point and at r0 = q0^-1, -q0 and -q0^-2, where some ranks
    drop."""
    rng = random.Random(61)
    cells = [(3, 1, (1,)), (4, 2, ()), (4, 1, (2,)), (4, 1, (1, 1)),
             (5, 1, (2, 1)), (5, 2, (1,)), (5, 0, (3, 1, 1))]
    for p in ((1 << 61) - 1, PIVOT_PRIME):
        drops = 0
        for cell in cells:
            plan = CM.gram_matrix(CM.CellIndex(*cell)).plan()
            q0 = rng.randrange(2, p - 1)
            points = [rng.randrange(1, p), pow(q0, -1, p), p - q0,
                      p - pow(q0, -2, p)]
            ranks = [plan_rank(plan, p, q0, r0) for r0 in points]
            assert plan.folded.width > 64
            assert ranks == [gf_rank(evaluate(plan, p, q0, r0), p)
                             for r0 in points]
            drops += sum(rank < plan.nrows for rank in ranks)
        assert drops >= 4


def test_r_free_rank_is_kept_only_without_r():
    """Head (f = 0) plans have no r and keep one rank per (p, q0); some
    f >= 1 cell changes rank between two r0 at one (p, q0), so its rank is
    never kept."""
    head = CM.gram_matrix(CM.CellIndex(4, 0, (2, 1, 1)))
    assert head.plan().rlen == 1
    CM.gram_rank(head.cell, ParamSpec.concrete(13, 2, 5))
    assert head.plan().folded.rank is not None
    g = CM.gram_matrix(CM.CellIndex(3, 1, (1,)))
    assert g.plan().rlen > 1
    ranks = [CM.gram_rank(g.cell, ParamSpec.concrete(5, 2, r0))
             for r0 in (1, 3, 1, 3)]
    assert ranks[0] != ranks[1] and ranks == ranks[:2] * 2
    assert g.plan().folded.rank is None


def test_concurrent_ranks_share_plans():
    """Threads asking one set of Gram matrices for ranks at different
    points get the reference ranks: a thread keeps the folded matrix it
    was handed even when another thread folds a new (p, q0) meanwhile."""
    grams = _n5_grams()
    specs = sweep_specs((5, 7, 11))
    want = {(id(g), spec): gf_rank(evaluate(g.plan(), spec.p, spec.q0,
                                            spec.r0), spec.p)
            for g in grams for spec in specs}
    wrong, errors = [], []

    def work(seed):
        pairs = [(g, spec) for g in grams for spec in specs]
        random.Random(seed).shuffle(pairs)
        try:
            wrong.extend((g.cell, spec) for g, spec in pairs
                         if CM.gram_rank(g.cell, spec) != want[id(g), spec])
        except Exception as err:   # any error fails the test below
            errors.append(repr(err))

    threads = [threading.Thread(target=work, args=(seed,))
               for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not wrong


def test_concurrent_first_calls_keep_one_matrix(monkeypatch):
    """Four threads ask an empty Gram cache for every cell with n <= 4,
    each in its own order: every thread gets the one matrix kept for each
    cell, even where two threads assembled it at once."""
    monkeypatch.setattr(CM, "_GRAMS", {})
    cells = [cell for n in range(1, 5) for cell in CM.cell_dims(n)]
    got, errors = [], []

    def work(order):
        try:
            got.extend((cell, CM.gram_matrix(cell)) for cell in order)
        except Exception as err:   # any error fails the test below
            errors.append(repr(err))

    orders = (cells, cells[::-1], cells[1::2] + cells[::2], cells)
    threads = [threading.Thread(target=work, args=(order,))
               for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(got) == len(orders) * len(cells)
    assert all(gram is CM._GRAMS[cell] for cell, gram in got)
