"""Cell modules: Gram matrices, determinants and ranks.

A cell is (f, lam) with lam a partition of m = n - 2f.  The module has
basis indexed by standard tableaux of shape lam times the dangle transversal
D_{f,n}; the Gram entry for ((s,u),(t,v)) is the coefficient of
E^{f,n} X_lam in

    E^{f,n} X_lam T_{d(s)} T_u  *  (E^{f,n} X_lam T_{d(t)} T_v)^*

modulo higher cells.  In the inflation picture (Koenig-Xi) that is
<g_{d(s)} phi_f(u, v) g_{d(t)}^*>_lam, phi_f the tower form and <h>_lam
the X_lam-coefficient of X_lam h X_lam in the Hecke algebra of S_m:
every cell is assembled so, taking the phi_f(u, v) with u <= v from one
depth-first walk of the dangle tree (bmw.phi_pairs), and direct_gram, the
product inside the algebra, is kept as the reference for the tests.  The
walk keeps one Hecke element per dangle at each node: T_w with w in S_m
commutes with E^{f,n}, so the tower form is left-linear over the Hecke
algebra, and a word E^{f,n} T_w T_u contributes g_w phi_f(u, v).  The
form is linear in phi, so an entry is sum_w phi_w K[w][s][t] with
K[w][s][t] = <g_{d(s)} g_w g_{d(t)}^*>_lam, a table kept per cell while
it is built and summed with one coeff.lincomb call.
gram_matrix, the one way to get a Gram matrix, assembles each cell once
per process and keeps it once it passed the sign certificate: callers share
the kept, certified matrix and must not mutate it.
"""

from __future__ import annotations

from collections import namedtuple

from .bmw import fold_T, mul_elems, star_elem
from .coeff import LaurentPoly, lincomb
from .combin import (d_of, dfn, partitions, perm_id, perm_inv, perm_len,
                     perm_word, std_tableaux)
from .exactla import EvalPlan, bareiss_det, plan_rank
from .hecke import HeckeElem, cell_coefficient, cell_form, young_subgroup
from . import bmw as _bmw

# Input budgets.  Past them the work grows beyond what a command can finish,
# so callers get a ValueError up front instead of a hang.
SYMBOLIC_DET_LIMIT = 64   # largest Gram matrix given a symbolic determinant:
                          # the 45-dimensional n = 6 cells already take up
                          # to 41 s at r = q^-1 and -q (2-vCPU VM, CPython
                          # 3.11), and n = 7 cells reach dimension 210
SUBST_MAX_EXP = 100       # largest |a| of gram --subst r=±q^a, refused
                          # before the Gram matrix is built: gram --det
                          # takes 0.19, 0.31 and 1.7 s at a = 100, 1,000
                          # and 4,000 on (3,1,(1)), 0.18 s, 8.3 s and past
                          # 60 s on (4,1,(2)), and 1.4 s at a = 10 and 37 s
                          # at 40 on (5,2,(1)) (2-vCPU VM, CPython 3.11)
DEFAULT_MAX_N = 7         # largest degree of gram_matrix, the oracle and sweep
DIMS_MAX_N = 30           # largest degree of cell_dims: 0.8 s at n = 30
                          # and 6 s at 40 (2-vCPU VM, CPython 3.11); n = 200
                          # would enumerate p(200) ~ 4e12 partitions


class CellIndex(namedtuple("CellIndex", "n f lam")):
    """The cell (f, lam) of degree n, lam a partition of n - 2f."""
    __slots__ = ()

    def __new__(cls, n, f, lam):
        lam = tuple(lam)
        if (not (0 <= 2 * f <= n) or sum(lam) != n - 2 * f
                or any(part <= 0 for part in lam)
                or any(a < b for a, b in zip(lam, lam[1:]))):
            raise ValueError("invalid cell (%d, %r) for degree %d" % (f, lam, n))
        return super().__new__(cls, n, f, lam)


class GramMatrix:
    __slots__ = ("cell", "labels", "entries", "_plan")

    def __init__(self, cell, labels, entries):
        self.cell = cell
        self.labels = labels
        self.entries = entries
        self._plan = None

    def dim(self):
        return len(self.labels)

    def plan(self):
        """The entries compiled for ranks over GF(p), an
        ``exactla.EvalPlan`` built on first use and kept with the matrix."""
        if self._plan is None:
            self._plan = EvalPlan(self.entries)
        return self._plan

    def substitute_r(self, sign, a):
        ent = [[e.substitute_r(sign, a) for e in row] for row in self.entries]
        return GramMatrix(self.cell, self.labels, ent)

    def to_json(self):
        return {
            "cell": {"n": self.cell.n, "f": self.cell.f,
                     "lambda": list(self.cell.lam)},
            "labels": [[list(map(list, t)), list(v)] for t, v in self.labels],
            "entries": [[str(e) for e in row] for row in self.entries],
        }


def cell_labels(cell):
    tabs = std_tableaux(cell.lam)
    return [(t, v) for t in tabs for v in dfn(cell.f, cell.n)]


def cell_dims(n):
    """dim of every cell module: |Std(lam)| * |D_{f,n}|."""
    from .combin import num_std_tableaux, dfn_size
    if not 0 <= n <= DIMS_MAX_N:
        raise ValueError("degree %d outside the budget 0..%d" % (n, DIMS_MAX_N))
    out = {}
    for f in range(n // 2 + 1):
        for lam in partitions(n - 2 * f):
            out[CellIndex(n, f, lam)] = num_std_tableaux(lam) * dfn_size(f, n)
    return out


def _seed_element(cell):
    """E^{f,n} X_lam as an algebra element."""
    n, f, lam = cell.n, cell.f, cell.lam
    m = n - 2 * f
    terms = {}
    for x in young_subgroup(lam, m):
        terms[(f, perm_id(n), x, perm_id(n))] = LaurentPoly.q(perm_len(x))
    return terms


def _row_elements(cell):
    """E^{f,n} X_lam T_{d(t)} T_v for every label (t, v), modulo J_{f+1}."""
    n, f = cell.n, cell.f
    seed = _seed_element(cell)
    rows = []
    for t, v in cell_labels(cell):
        elem = fold_T(n, seed, perm_word(d_of(t)), f)
        elem = fold_T(n, elem, perm_word(v), f)
        rows.append(elem)
    return rows


def _extract(cell, elem):
    return cell_coefficient(
        _bmw.hecke_image(_bmw.BmwElem(cell.n, elem), cell.f), cell.lam)


_GRAMS = {}   # CellIndex -> its certified GramMatrix, kept for the process


def gram_matrix(cell):
    """Gram matrix of the invariant form on the cell module, assembled
    once per process and kept after it passed check_sign_certificate.
    Every caller shares the kept matrix and must not mutate it;
    substitute_r returns a new one."""
    gram = _GRAMS.get(cell)
    if gram is None:
        gram = _assemble(cell)
        check_sign_certificate(gram)
        # two threads may assemble one cell at once; both get the first kept
        gram = _GRAMS.setdefault(cell, gram)
    return gram


def _assemble(cell):
    """Entry ((s, u), (t, v)) is <g_{d(s)} phi_f(u, v) g_{d(t)}^*>_lam,
    phi_0 = 1, summed once as sum_w phi_w K[w][s][t] over the support of
    phi_f(u, v), with K[w][s][t] = <g_{d(s)} g_w g_{d(t)}^*>_lam read
    through cell_form.  K is filled per w when a phi first needs it (or
    transposed from K[w^-1]) and dropped with the cell.  The phi_f(u, v)
    arrive pair by pair from bmw.phi_pairs."""
    n, f, lam = cell.n, cell.f, cell.lam
    if n > DEFAULT_MAX_N:
        raise ValueError("degree %d outside the budget 0..%d"
                         % (n, DEFAULT_MAX_N))
    m = n - 2 * f
    tabs = std_tableaux(lam)
    lefts = [HeckeElem.basis(m, d_of(s)) for s in tabs]
    rights = [tuple(reversed(perm_word(d_of(t)))) for t in tabs]
    kernel = {}

    def kernel_at(w):
        # <h^*>_lam = <h>_lam, so K[w^-1] is the transpose of K[w]
        table = kernel.get(w)
        if table is None:
            inv = perm_inv(w)
            if inv in kernel:
                table = [list(col) for col in zip(*kernel[inv])]
            else:
                word = perm_word(w)
                table = []
                for i, left in enumerate(lefts):
                    left = left.times_basis_word(word)
                    table.append([
                        table[j][i] if inv == w and j < i
                        else cell_form(left.times_basis_word(right), lam)
                        for j, right in enumerate(rights)])
            kernel[w] = table
        return table

    labels = cell_labels(cell)
    index = {label: k for k, label in enumerate(labels)}
    entries = [[None] * len(labels) for _ in labels]
    # the pairs u <= v only: the transposed entries are filled by symmetry
    for u, v, phi in _bmw.phi_pairs(f, n):
        tables = [(c, kernel_at(w)) for w, c in phi.terms.items()]
        for i, s in enumerate(tabs):
            a = index[(s, u)]
            for j, t in enumerate(tabs):
                b = index[(t, v)]
                if entries[a][b] is None:
                    val = lincomb((c, table[i][j]) for c, table in tables)
                    entries[a][b] = val
                    entries[b][a] = val
    return GramMatrix(cell, labels, entries)


def check_sign_certificate(gram):
    """Check the Gram matrix against the sign automorphism T_i -> -T_i,
    E_i -> E_i, q -> -q, r -> -r of the algebra (w -> -w, delta fixed):
    every monomial q^a r^b w^-k of entry ((s, u), (t, v)) must have
    a + b + k = l(d(s)) + l(u) + l(d(t)) + l(v) mod 2.  Then
    G(-q0, -r0) = S G(q0, r0) S over GF(p), S = diag((-1)^(l(d(t)) + l(v))),
    and the ranks at (q0, r0) and (-q0, -r0) agree.  A failure is a fault
    in the Gram assembly and raises RuntimeError."""
    labels = gram.labels
    signs = [perm_len(d_of(t)) + perm_len(v) for t, v in labels]
    for i, row in enumerate(gram.entries):
        for j, e in enumerate(row):
            parity = e.wexp + signs[i] + signs[j]
            if any((a + b + parity) % 2 for a, b in e.terms):
                raise RuntimeError("Gram entry (%r, %r) of %r fails the sign "
                                   "certificate: %s"
                                   % (labels[i], labels[j], gram.cell, e))


def direct_gram(cell):
    """Gram matrix of the invariant form, computed inside the algebra: the
    reference that the tests hold gram_matrix to.

    Every product is taken modulo J_{f+1}, the span of the normal words of
    level > f: the row elements are cut to level f and the words above it
    are dropped after every generator.  That is exact because J_{f+1} is a
    two-sided ideal (the cellular filtration), so nothing dropped can reach
    level f, and an entry reads only level-f coefficients.
    """
    n, f = cell.n, cell.f
    labels = cell_labels(cell)
    rows = _row_elements(cell)
    cols = [star_elem(rw) for rw in rows]
    size = len(labels)
    entries = [[None] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            prod = mul_elems(n, rows[a], cols[b], f)
            val = _extract(cell, prod)
            entries[a][b] = val
            entries[b][a] = val
    return GramMatrix(cell, labels, entries)


def gram_det(gram):
    if gram.dim() > SYMBOLIC_DET_LIMIT:
        raise ValueError("symbolic determinant limited to dimension %d"
                         % SYMBOLIC_DET_LIMIT)
    return bareiss_det(gram.entries)


def gram_rank(cell, spec):
    """Rank of the cell's Gram matrix at the concrete spec over GF(p):
    dim of the simple head of the cell module."""
    if not spec.is_concrete():
        raise ValueError("rank needs a concrete spec")
    return plan_rank(gram_matrix(cell).plan(), spec.p, spec.q0, spec.r0)


def central_element(n):
    """The product of the Jucys-Murphy elements (a central element)."""
    z = _bmw.jucys_murphy(1, n)
    for i in range(2, n + 1):
        z = z * _bmw.jucys_murphy(i, n)
    return z


def central_scalar(cell):
    """Expected scalar of the central element on the cell module: the
    product of the node contents r q^{2(j-i)} over the diagram."""
    from .combin import cells as diagram_cells
    out = LaurentPoly.one()
    for (i, j) in diagram_cells(cell.lam):
        out = out * LaurentPoly({(2 * (j - i), 1): 1})
    return out


def central_twisted_gram(cell, z_elem):
    """Entries extract(row_a * Z * col_b), Z = z_elem: equals scalar * Gram
    when the central element acts by that scalar."""
    n, f = cell.n, cell.f
    labels = cell_labels(cell)
    rows = _row_elements(cell)
    cols = [star_elem(rw) for rw in rows]
    size = len(labels)
    entries = [[None] * size for _ in range(size)]
    for a in range(size):
        ra = mul_elems(n, rows[a], z_elem.terms, f)
        for b in range(size):
            prod = mul_elems(n, ra, cols[b], f)
            entries[a][b] = _extract(cell, prod)
    return GramMatrix(cell, labels, entries)
