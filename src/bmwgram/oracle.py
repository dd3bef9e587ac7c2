"""Brute-force singularity oracle over prime fields.

The parameters are singular exactly when some tower form degenerates on an
irreducible module of the small Hecke algebra, which happens iff for some
f >= 1 and some lam of n-2f with D^lam != 0 the induced module
|D_{f,n}| * dim D^lam is strictly bigger than the simple head of the cell
module, i.e. the rank of its specialized Gram matrix.  dim D^lam is the
rank of the f = 0 Gram matrix of lam, so D^lam != 0 is read from it.

The defining relations are unchanged under T_i -> -T_i, E_i -> E_i,
q -> -q, r -> -r, since w = q - q^-1 changes sign and delta stays fixed.
So B_n(q0, r0) and B_n(-q0, -r0) have the same cell-module ranks, and
agreement_sweep computes one report per orbit {(p, q0, r0), (p, p - q0,
p - r0)}.  The reuse is exact, not assumed: ord(q0^2) and |D_{f,n}| are
the same at both points, and every matrix cellmod.gram_matrix hands out
is certified: it passed cellmod.check_sign_certificate, so G(-q0, -r0) =
S G(q0, r0) S with S diagonal of signs, and every rank in the table is the
same.  The oracle keeps no Gram matrix: it ranks through cellmod.gram_rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .cellmod import DEFAULT_MAX_N, CellIndex, gram_rank
from .coeff import ParamSpec, is_prime
from .combin import dfn_size, partitions

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)
# Most concrete regimes of one sweep, (p - 3)(p - 1) per prime p >= 5:
# `sweep --primes 181` (32,040 regimes) takes 0.7-1.0 s at nmax 2 and 6.1 s
# at nmax 5, and --primes 307 (93,024, past the budget) 2.8 s at nmax 2 (in
# one process, 2-vCPU VM, CPython 3.11); the specs alone grow as p^2.
SWEEP_MAX_REGIMES = 1 << 15


@dataclass
class OracleReport:
    spec: ParamSpec
    n: int
    singular: bool
    table: list = field(default_factory=list)
    first_witness: object = None

    def to_json(self):
        return {
            "spec": str(self.spec),
            "n": self.n,
            "singular": self.singular,
            "table": [{"f": f, "lambda": list(lam), "dim_induced": a,
                       "dim_simple": b} for (f, lam, a, b) in self.table],
            "first_witness": (list(self.first_witness)
                              if self.first_witness else None),
        }


@lru_cache(maxsize=None)
def _shapes(n):
    """(cell, head, |D_{f,n}|) of every cell (f, lam) of degree n with
    f >= 1, in the order of the oracle's table; head is the f = 0 cell of
    lam at degree n - 2f, None for lam = ()."""
    return tuple((CellIndex(n, f, lam),
                  CellIndex(n - 2 * f, 0, lam) if lam else None,
                  dfn_size(f, n))
                 for f in range(1, n // 2 + 1)
                 for lam in partitions(n - 2 * f))


def singular_oracle(n, spec):
    """Scan every level f >= 1 and shape lam with D^lam != 0, comparing
    induced and simple dimensions; ``plan_rank`` keeps dim D^lam, which
    has no r in it, for every r0 of one (p, q0)."""
    if not spec.is_concrete():
        raise ValueError("the oracle needs a concrete spec")
    if not 0 <= n <= DEFAULT_MAX_N:
        raise ValueError("degree %d outside the budget 0..%d"
                         % (n, DEFAULT_MAX_N))
    table = []
    first = None
    singular = False
    for cell, head, size in _shapes(n):
        dim_head = gram_rank(head, spec) if head is not None else 1
        if not dim_head:
            continue
        dim_induced = size * dim_head
        dim_simple = gram_rank(cell, spec)
        table.append((cell.f, cell.lam, dim_induced, dim_simple))
        if dim_simple > dim_induced:
            raise AssertionError("quotient bound violated at %r" %
                                 ((cell.f, cell.lam),))
        if dim_induced > dim_simple and first is None:
            first = (cell.f, cell.lam)
            singular = True
    return OracleReport(spec=spec, n=n, singular=singular, table=table,
                        first_witness=first)


def sweep_specs(primes=DEFAULT_PRIMES):
    """All admissible concrete specs (q0^2 != 1) for the given distinct
    primes."""
    for k, p in enumerate(primes):
        if not is_prime(p):
            raise ValueError("sweep prime %d is not a prime" % p)
        if p in primes[:k]:
            raise ValueError("sweep prime %d is listed twice" % p)
    count = sum(max(p - 3, 0) * (p - 1) for p in primes)
    if count > SWEEP_MAX_REGIMES:
        raise ValueError("%d regimes outside the budget %d of a sweep"
                         % (count, SWEEP_MAX_REGIMES))
    out = []
    for p in primes:
        for q0 in range(2, p - 1):
            if q0 * q0 % p == 1:
                continue
            for r0 in range(1, p):
                out.append(ParamSpec.concrete(p, q0, r0))
    return out


def agreement_sweep(ns=(2, 3, 4, 5), primes=DEFAULT_PRIMES):
    """Compare the oracle against the closed-form classification.

    Returns (rows, disagreements): rows are (n, spec, oracle verdict,
    classifier verdict), disagreements are (n, spec, oracle report,
    classifier verdict).  The oracle runs once per orbit (module
    docstring): its report serves the partner (p, p - q0, p - r0), later
    in the same prime; the report of a disagreement carries the spec of
    its own regime.
    """
    from .classify import classify_bmw
    rows = []
    disagreements = []
    specs = sweep_specs(primes)
    partners = {}
    for n in ns:
        for spec in specs:
            p = spec.p
            rep = partners.pop((p, spec.q0, spec.r0), None)
            if rep is None:
                rep = singular_oracle(n, spec)
                partners[(p, p - spec.q0, p - spec.r0)] = rep
            verdict = classify_bmw(n, spec)
            rows.append((n, spec, rep.singular, verdict.singular))
            if rep.singular != verdict.singular:
                disagreements.append((n, spec, replace(rep, spec=spec),
                                      verdict))
    if not rows:
        raise ValueError("the sweep reaches no regime: degrees %s, primes %s"
                         % (list(ns), list(primes)))
    return rows, disagreements
