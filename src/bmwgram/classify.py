"""Closed-form singularity classification for the BMW and Brauer algebras.

The BMW criterion branches on e = ord(q^2) against n-2 and on whether r is
q^{-1} or -q; the Brauer criterion branches on the characteristic against
n-2 and on delta.  Witness cells for the root-of-unity regime follow the
explicit case table; everything returns a Verdict carrying the clause that
fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coeff import DELTA, either, is_prime
from .combin import (forbidden_r_values, hook_lengths, is_e_restricted,
                     nu_ep, partitions)


@dataclass
class Verdict:
    singular: bool | None
    clause: str
    witness: object = None
    notes: str = ""

    def to_json(self):
        wit = self.witness
        if isinstance(wit, (tuple, list)):
            wit = list(wit)
        return {"singular": self.singular, "clause": self.clause,
                "witness": wit, "notes": self.notes}


def set_S(n):
    """Signed q-exponents (sign, a) with r = sign*q^a singular away from
    {q^-1, -q} in the large-e regime; empty for n = 2."""
    if n < 2:
        raise ValueError("needs n >= 2")
    out = set()
    for k in range(3, n + 1):
        out.add((1, 3 - 2 * k))
        out.add((1, 3 - k))
        out.add((-1, 3 - k))
        out.add((-1, 2 * k - 3))
        out.add((1, k - 3))
        out.add((-1, k - 3))
    return out


@lru_cache(maxsize=None)
def _sorted_S(n):
    return tuple(sorted(set_S(n)))


def set_Z(n):
    """Integer delta values singular for the Brauer algebra in the large
    characteristic regime."""
    if n < 3:
        raise ValueError("needs n >= 3")
    out = set(range(1, n - 1))
    out |= set(range(-2, 3 - 2 * n, -2))
    out |= set(range(-1, 3 - n, -1))
    return out


def classify_bmw(n, spec):
    """Decide singularity of the defining parameters for degree n."""
    if n < 2:
        raise ValueError("needs n >= 2")
    if spec.e is not None and spec.e <= n - 2:
        return Verdict(spec.r_sign != 0, "main.2")
    inpair = spec.r_in_inverse_pair()
    if inpair is None:
        return Verdict(None, "indeterminate",
                       notes="cannot decide r in {q^-1, -q}")
    if not inpair:
        hits = []
        for sign, a in _sorted_S(n):
            ok = spec.r_equals(sign, a)
            if ok is None:
                return Verdict(None, "indeterminate",
                               notes="membership in the singular set "
                                     "depends on the unknown sign of q^e")
            if ok:
                hits.append((sign, a))
        if hits:
            return Verdict(True, "main.1.1", witness=hits[0],
                           notes="r matches %s" % (hits,))
        return Verdict(False, "main.1.1")
    if n % 2 == 0 or n >= 7:
        return Verdict(True, "main.1.2.a")
    if n == 3:
        cond = spec.unit_eq_one(-1, 4)
        if cond is None:
            return Verdict(None, "indeterminate", notes="q^4 = -1 undecided")
        return Verdict(bool(cond), "main.1.2.b")
    if n == 5:
        cond = either(spec.p == 2,
                      *(spec.unit_eq_one(-1, m) for m in (4, 6, 8)))
        if cond is None:
            return Verdict(None, "indeterminate",
                           notes="2(q^4+1)(q^6+1)(q^8+1) = 0 undecided")
        return Verdict(bool(cond), "main.1.2.c")
    # n == 2 with r in {q^-1, -q}: delta = 0, the top cell degenerates
    return Verdict(True, "main.1.2.a")


def delta_of(spec):
    """delta = (q+r)(qr-1)/(r(q+1)(q-1)) under the spec."""
    if spec.is_concrete():
        return DELTA.specialize(spec.p, spec.q0, spec.r0)
    if spec.r_sign == 0:
        return DELTA
    return DELTA.substitute_r(spec.r_sign, spec.r_exp)


def classify_brauer(n, delta, p):
    """Brauer-algebra singularity of the parameter delta over a field of
    characteristic p (p=None for characteristic zero).

    delta is an integer (characteristic zero: the value itself; positive
    characteristic: any integer representative mod p) or None for a value
    that is not in the prime field's integer span (only meaningful for
    transcendental delta in characteristic zero).
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    if p is not None and not is_prime(p):
        raise ValueError("p must be prime or None")
    if p is not None and p <= n - 2:
        singular = delta is not None
        return Verdict(singular, "main1.2")
    if delta is None:
        return Verdict(False, "main1.1.a", notes="delta not an integer value")
    if p is not None:
        delta = delta % p
    zero = delta == 0
    if not zero:
        if p is None:
            hit = delta in set_Z(n)
        else:
            residues = {z % p for z in set_Z(n)}
            hit = delta in residues
        return Verdict(bool(hit), "main1.1.a")
    if n % 2 == 0 or n > 7:
        return Verdict(True, "main1.1.b.1")
    if n == 3 and p == 2:
        return Verdict(True, "main1.1.b.2")
    return Verdict(False, "main1.1.b",
                   notes="delta = 0 with odd n <= 7 outside the listed "
                         "conditions")


def nonzero_gram_criterion(cell_n, f, lam, spec):
    """Whether the Gram determinant of the cell (f, lam) is nonzero, by the
    closed-form criterion: r avoids the forbidden signed powers, lam is
    e-restricted, and hook values have constant nu along rows."""
    for sign, a in sorted(forbidden_r_values(f, lam, cell_n)):
        hit = spec.r_equals(sign, a)
        if hit is None:
            raise ValueError("undetermined spec for forbidden r values")
        if hit:
            return False
    if not is_e_restricted(lam, spec.e):
        return False
    hooks = hook_lengths(lam)
    for i in range(1, len(lam) + 1):
        row = [nu_ep(hooks[(i, j)], spec.e, spec.p)
               for j in range(1, lam[i - 1] + 1)]
        if len(set(row)) > 1:
            return False
    return True


def simple_labels(n, spec):
    """Cells indexing the irreducible modules."""
    inpair = spec.r_in_inverse_pair()
    if inpair is None:
        raise ValueError("cannot decide r in {q^-1, -q}")
    out = []
    fmax = n // 2
    for f in range(fmax + 1):
        if inpair and n % 2 == 0 and f == fmax:
            continue
        for lam in partitions(n - 2 * f):
            if is_e_restricted(lam, spec.e):
                out.append((f, lam))
    return out


def b3_witness(n, spec):
    """Explicit witness cells ((l, mu), (f, lam)) for the root-of-unity
    singular regime e <= n-2, r = ±q^a."""
    e = spec.e
    if e is None or e > n - 2:
        raise ValueError("witness table applies only when e <= n - 2")
    if spec.r_sign == 0:
        raise ValueError("witness table needs r = ±q^a")
    sign, a = spec.reduced_r_exponent()
    b = a + 1
    inpair = spec.r_in_inverse_pair()

    def pair(l, mu, f, lam):
        mu, lam = tuple(mu), tuple(lam)
        if not (0 <= l < f and sum(mu) == n - 2 * l and sum(lam) == n - 2 * f):
            raise AssertionError("witness table produced an invalid pair "
                                 "(%s,%s),(%s,%s) at n=%d" % (l, mu, f, lam, n))
        return ((l, mu), (f, lam))

    if not inpair:
        if (n - b) % 2 == 0:
            return pair((n - b - 2) // 2, (2,) + (1,) * b,
                        (n - b) // 2, (1,) * b)
        if b not in (e - 1, e - 2):
            if b != n - 3:
                return pair((n - b - 5) // 2, (3, 2) + (1,) * b,
                            (n - b - 3) // 2, (2, 2) + (1,) * (b - 1))
            # b = n-3 forces e = n-3 and r = -q^{-1}
            if spec.p == 2:
                raise ValueError("regime empty in characteristic 2")
            if n % 2 == 0:
                return pair((n - 4) // 2, (3, 1), (n - 2) // 2, (2,))
            return pair((n - 5) // 2, (2, 2, 1), (n - 3) // 2, (1, 1, 1))
        if b == e - 2:
            if n % 2 == 0:
                if e > 4:
                    return pair((n - 6) // 2, (5, 1), (n - 4) // 2, (4,))
                # stated values for e = 3 do not form cells of even degree
                raise ValueError("witness table defect: the stated cells "
                                 "for even n with e = 3, b = e-2 are not "
                                 "integral")
            if e != 5:
                return pair((n - 7) // 2, (4, 2, 1), (n - 5) // 2, (3, 1, 1))
            return pair((n - 5) // 2, (2, 1, 1, 1), (n - 3) // 2, (1, 1, 1))
        # b == e - 1
        if n % 2 == 1:
            if e != 3:
                return pair((n - 5) // 2, (3, 2), (n - 3) // 2, (2, 1))
            return pair((n - 5) // 2, (2, 2, 1), (n - 1) // 2, (1,))
        if n >= 6:
            return pair((n - 6) // 2, (3, 3), (n - 2) // 2, (1, 1))
        return pair(0, (2, 2), 2, ())

    # r in {q^-1, -q}
    if e == 2:
        if n % 2 == 0:
            return pair((n - 4) // 2, (2, 1, 1), (n - 2) // 2, (1, 1))
        return pair((n - 5) // 2, (2, 2, 1), (n - 1) // 2, (1,))
    is_qinv = spec.r_equals(1, -1)
    if is_qinv is None:
        raise ValueError("cannot decide which of q^-1, -q the parameter is")
    if n % 2 == 0:
        if is_qinv:
            return pair((n - 4) // 2, (3, 1), (n - 2) // 2, (2,))
        return pair((n - 4) // 2, (2, 1, 1), (n - 2) // 2, (1, 1))
    if is_qinv:
        if n >= 7 and e != 5:
            return pair((n - 7) // 2, (3, 3, 1), (n - 5) // 2, (3, 1, 1))
        if n >= 7:
            return pair((n - 7) // 2, (3, 2, 2), (n - 5) // 2, (2, 2, 1))
        return pair(0, (2, 1, 1, 1), 1, (1, 1, 1))
    if n >= 7 and e != 5:
        return pair((n - 7) // 2, (3, 2, 2), (n - 5) // 2, (3, 1, 1))
    if n >= 7:
        return pair((n - 7) // 2, (3, 3, 1), (n - 5) // 2, (3, 2))
    return pair(0, (1, 1, 1, 1, 1), 1, (1, 1, 1))
