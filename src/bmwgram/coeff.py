"""Exact coefficient arithmetic for the BMW parameter ring.

Every symbolic quantity in this package lives in Z[q^{±1}, r^{±1}] localized
at w = q - q^{-1}: an integer Laurent polynomial together with a power of w
in the denominator.  Values are immutable and kept canonical (no zero
coefficients, minimal w-denominator), so equality is structural equality.

Concrete computations happen in prime fields GF(p); `ParamSpec` is a
parameter regime (order of q^2, characteristic, the shape of r), which a
concrete point (p, q0, r0) fixes and carries along.  This module also
holds the primality test; matrices over GF(p) live in `exactla`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


def _strip(terms):
    return {k: c for k, c in terms.items() if c}


def _slice_by_r(terms):
    out = {}
    for (a, b), c in terms.items():
        out.setdefault(b, {})[a] = c
    return out


def _div_omega(terms):
    """Exact division by w = q - q^{-1}; None if not divisible.

    w = q^{-1}(q - 1)(q + 1), so w divides the numerator exactly when every
    r-slice vanishes at q = 1 and at q = -1, that is when, for every b, the
    coefficients of q^a r^b sum to 0 over even a and over odd a.  That test
    comes first, and only a division that succeeds is carried out."""
    sums = {}
    for (a, b), c in terms.items():
        key = (a & 1, b)
        sums[key] = sums.get(key, 0) + c
    if any(sums.values()):
        return None
    out = {}
    for b, sl in _slice_by_r(terms).items():
        # divide the q-slice by q - q^-1, i.e. multiply by q, divide by q^2 - 1
        carry = {a + 1: c for a, c in sl.items()}
        for k in range(max(carry), min(carry) + 1, -1):
            c = carry.pop(k, 0)
            if c:
                out[(k - 2, b)] = c
                carry[k - 2] = carry.get(k - 2, 0) + c
    return out


def _reduce_w(terms, wexp):
    """Divide zero-free terms by w while wexp allows: (terms, wexp) in
    canonical form."""
    if not terms:
        return terms, 0
    while wexp > 0:
        quo = _div_omega(terms)
        if quo is None:
            break
        terms = quo
        wexp -= 1
    return terms, wexp


def _canonical(terms, wexp=0):
    """A LaurentPoly from terms already in canonical form (no zero
    coefficient, minimal wexp), without the checks of __init__."""
    out = object.__new__(LaurentPoly)
    out.terms = terms
    out.wexp = wexp
    return out


def _times_w(terms):
    """Numerator terms times w = q - q^{-1}, zero coefficients dropped."""
    out = {}
    for (a, b), c in terms.items():
        out[(a + 1, b)] = out.get((a + 1, b), 0) + c
        out[(a - 1, b)] = out.get((a - 1, b), 0) - c
    return _strip(out)


def lincomb(pairs):
    """sum c * d over the (c, d) pairs of LaurentPolys, canonicalized once.

    The raw numerator products are summed by their power of w, the sums
    are brought to the common power w^k, k the largest (Horner in w), and
    w is reduced once at the end.  A single pair is the product c * d,
    which returns an operand itself when the other is 1."""
    pairs = list(pairs)
    if len(pairs) == 1:
        return pairs[0][0] * pairs[0][1]
    sums = {}
    for c, d in pairs:
        acc = sums.setdefault(c.wexp + d.wexp, {})
        for (a1, b1), c1 in c.terms.items():
            for (a2, b2), c2 in d.terms.items():
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, 0) + c1 * c2
    if not sums:
        return _ZERO
    low, top = min(sums), max(sums)
    out = sums[low]
    for k in range(low + 1, top + 1):
        out = _times_w(out)
        for key, c in sums.get(k, {}).items():
            out[key] = out.get(key, 0) + c
    terms, wexp = _reduce_w(_strip(out), top)
    return _canonical(terms, wexp) if terms else _ZERO


def add_term(terms, key, c):
    """terms[key] += c in place for a LaurentPoly c, keeping no zero
    coefficient in the map."""
    cur = terms.get(key)
    if cur is not None:
        c = cur + c
    if c.terms:
        terms[key] = c
    else:
        terms.pop(key, None)

class LaurentPoly:
    """Element of Z[q^±1, r^±1][w^{-1}], canonical form.

    terms maps (a, b) -> nonzero int and stands for sum c * q^a * r^b;
    wexp >= 0 is the power of w dividing the element.
    """

    __slots__ = ("terms", "wexp")

    def __init__(self, terms=None, wexp=0):
        self.terms, self.wexp = _reduce_w(_strip(terms or {}), wexp)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def integer(cls, c):
        return cls({(0, 0): int(c)})

    @classmethod
    def monomial(cls, c, a=0, b=0):
        return cls({(a, b): int(c)})

    @classmethod
    def q(cls, a=1):
        return cls({(a, 0): 1})

    @classmethod
    def r(cls, b=1):
        return cls({(0, b): 1})

    @classmethod
    def omega(cls):
        return cls({(1, 0): 1, (-1, 0): -1})

    @classmethod
    def omega_inv(cls, k=1):
        return cls({(0, 0): 1}, wexp=k)

    @classmethod
    def qbracket(cls, a):
        """Quantum integer [a] = (q^a - q^-a)/(q - q^-1)."""
        return cls({(a, 0): 1, (-a, 0): -1}, wexp=1)

    # -- ring structure --------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.wexp == other.wexp and self.terms == other.terms

    def __hash__(self):
        return hash((self.wexp, frozenset(self.terms.items())))

    def __neg__(self):
        return _canonical({k: -c for k, c in self.terms.items()}, self.wexp)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        k = max(self.wexp, other.wexp)
        out = self._scaled_numerator(k - self.wexp)
        b = (other.terms if other.wexp == k
             else other._scaled_numerator(k - other.wexp))
        for key, c in b.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return _canonical(*_reduce_w(out, k))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.integer(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        x, y = self, other
        if len(x.terms) == 1 and len(y.terms) != 1:
            x, y = y, x
        # now y is the monomial, if either side is one
        if len(y.terms) != 1 or not x.terms:
            out = {}
            for (a1, b1), c1 in x.terms.items():
                for (a2, b2), c2 in y.terms.items():
                    key = (a1 + a2, b1 + b2)
                    out[key] = out.get(key, 0) + c1 * c2
            return LaurentPoly(out, x.wexp + y.wexp)
        ((a2, b2), c2), = y.terms.items()
        if c2 == 1 and a2 == b2 == y.wexp == 0:
            return x
        out = {(a1 + a2, b1 + b2): c1 * c2
               for (a1, b1), c1 in x.terms.items()}
        # multiplying by a unit keeps the numerator's w-divisibility, so the
        # result is canonical unless a w-power meets a numerator w divides
        if y.wexp and not x.wexp:
            return _canonical(*_reduce_w(out, y.wexp))
        return _canonical(out, x.wexp + y.wexp)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers only via explicit units")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _scaled_numerator(self, extra_w):
        """Numerator terms after multiplying the denominator by w^extra_w."""
        terms = dict(self.terms)
        for _ in range(extra_w):
            terms = _times_w(terms)
        return terms

    # -- structure -------------------------------------------------------
    def omega_valuation(self):
        """Largest k with w^k dividing self (0 for zero input)."""
        if not self.terms:
            return 0
        k = 0
        cur = self.terms
        while True:
            quo = _div_omega(cur)
            if quo is None:
                return k
            cur = quo
            k += 1

    def normalize_unit(self):
        """Write self = unit * core with unit = ±q^a r^b w^c.

        The core is an integer polynomial with lowest q-degree 0, lowest
        r-degree 0 and positive coefficient on its lex-leading term.
        """
        if not self.terms:
            raise ValueError("zero has no unit normalization")
        k = self.omega_valuation()
        core_terms = self.terms
        for _ in range(k):
            core_terms = _div_omega(core_terms)
        amin = min(a for (a, _b) in core_terms)
        bmin = min(b for (_a, b) in core_terms)
        core_terms = {(a - amin, b - bmin): c for (a, b), c in core_terms.items()}
        lead = max(core_terms)
        sign = 1 if core_terms[lead] > 0 else -1
        if sign < 0:
            core_terms = {key: -c for key, c in core_terms.items()}
        wpow = k - self.wexp
        unit = LaurentPoly.monomial(sign, amin, bmin)
        if wpow >= 0:
            unit = unit * (LaurentPoly.omega() ** wpow)
        else:
            unit = unit * LaurentPoly.omega_inv(-wpow)
        return unit, LaurentPoly(core_terms)

    # -- specialization ---------------------------------------------------
    def substitute_r(self, sign, a):
        """Replace r by sign * q^a; result is a Laurent polynomial in q."""
        out = {}
        for (x, b), c in self.terms.items():
            key = (x + a * b, 0)
            out[key] = out.get(key, 0) + c * (sign ** (b % 2) if sign < 0 else 1)
        return LaurentPoly(out, self.wexp)

    def specialize(self, p, q0, r0):
        """Evaluation at q = q0, r = r0 over GF(p); returns an int residue."""
        q0 %= p
        r0 %= p
        if q0 == 0 or r0 == 0:
            raise ValueError("q0 and r0 must be invertible")
        w0 = (q0 - pow(q0, -1, p)) % p
        if w0 == 0:
            raise ValueError("w = q - q^-1 must be invertible (q0^2 != 1)")
        acc = 0
        for (a, b), c in self.terms.items():
            acc = (acc + c * pow(q0, a, p) * pow(r0, b, p)) % p
        if self.wexp:
            acc = acc * pow(w0, -self.wexp, p) % p
        return acc

    # -- rendering ---------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        body = render_terms(self.terms)
        if self.wexp == 0:
            return body
        if len(self.terms) == 1:
            return "%s*w^-%d" % (body, self.wexp)
        return "(%s)*w^-%d" % (body, self.wexp)

    def __repr__(self):
        return "LaurentPoly(%s)" % str(self)


# the zero every empty linear combination returns: values are immutable,
# so the Gram matrices' many zero entries share it
_ZERO = LaurentPoly.zero()

# delta = 1 + (r - r^{-1})/w = (q + r)(qr - 1)/(r(q + 1)(q - 1)), the value
# of a closed loop: E_i^2 = delta E_i
DELTA = LaurentPoly.one() + LaurentPoly.omega_inv() * (
    LaurentPoly.r() - LaurentPoly.r(-1))


def render_terms(terms):
    parts = []
    for (a, b) in sorted(terms, reverse=True):
        c = terms[(a, b)]
        factors = []
        if a:
            factors.append("q^%d" % a if a != 1 else "q")
        if b:
            factors.append("r^%d" % b if b != 1 else "r")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        mono = "*".join(factors)
        if not parts:
            parts.append(mono if c > 0 else "-" + mono)
        else:
            parts.append((" + " if c > 0 else " - ") + mono)
    return "".join(parts)


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------

# The Miller-Rabin bases of is_prime, the first 12 primes.  Together they
# pass no odd composite below PRIME_LIMIT, the least one they all pass
# (Jiang and Deng, Math. Comp. 83, 2014); is_prime refuses larger p.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 318665857834031151167461

# Largest p of ParamSpec.concrete, which walks the powers of q0 up to
# ord(q0^2) once: a spec at a primitive root q0 and r0 = q0^(e-1) takes
# 0.05-0.08 s at p = 1,000,003, 0.35-0.37 s at 4,194,301 (the largest prime
# below 2^22) and 0.85-0.89 s at 16,777,213, against 0.09 s, 0.41-0.60 s
# and 1.5-1.6 s with the former two walks (cold, 3 runs each, 2-vCPU VM,
# CPython 3.11).
CONCRETE_MAX_P = 1 << 22


def is_prime(p):
    """Deterministic Miller-Rabin over MR_BASES, exact for p < PRIME_LIMIT;
    a larger p is refused."""
    if p >= PRIME_LIMIT:
        raise ValueError("p = %d outside the budget p < %d of the primality "
                         "test" % (p, PRIME_LIMIT))
    if p < 2:
        return False
    for a in MR_BASES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# parameter regimes
# ---------------------------------------------------------------------------

GENERIC = "generic"


@dataclass(frozen=True)
class ParamSpec:
    """A parameter regime, read straight from its fields: e = ord(q^2)
    (None for infinite), the characteristic p (None for char 0), r either
    GENERIC (r_sign = 0) or the signed power r = r_sign * q^r_exp, and
    qe_sign = the sign of q^e (0 when unknown; -1 at even e and +1 in
    char 2, where -1 = 1).

    A q-power question sign * q^m = 1 goes through unit_eq_one, which
    answers True, False or None (turns on an unknown sign of q^e); either()
    folds several such answers into one.

    A concrete spec is a point q0, r0 of GF(p)*, q0^2 != 1, and the regime
    it fixes: e = ord(q0^2), qe_sign = the sign of q0^e, and r = ±q0^a with
    0 <= a < e when r0 is such a power, else GENERIC.  Every regime
    question reads those fields, so a concrete spec and its symbolic twin
    give the same answers by the same code; q0 and r0 serve evaluation and
    printing only.
    """

    e: int | None = None
    p: int | None = None
    r_sign: int = 0
    r_exp: int = 0
    qe_sign: int = 0
    q0: int | None = None
    r0: int | None = None

    @classmethod
    def symbolic(cls, e=None, p=None, r=GENERIC, qe=0):
        if e is not None and e < 2:
            raise ValueError("e = ord(q^2) must be >= 2 or None")
        if p is not None and not is_prime(p):
            raise ValueError("p must be prime or None")
        if r == GENERIC:
            sign, exp = 0, 0
        else:
            sign, exp = r
            if sign not in (1, -1):
                raise ValueError("r sign must be +1 or -1")
            if p == 2:
                sign = 1
            if e is not None:
                exp %= 2 * e
        if p == 2:
            qe = 1
        elif e is not None and e % 2 == 0:
            # (q^e)^2 = 1 and q^e != 1, since ord(q^2) = e
            if qe == 1:
                raise ValueError("q^e = +1 contradicts ord(q^2) = %d "
                                 "outside characteristic 2" % e)
            qe = -1
        return cls(e=e, p=p, r_sign=sign, r_exp=exp, qe_sign=qe)

    @classmethod
    def concrete(cls, p, q0, r0):
        if p > CONCRETE_MAX_P:
            raise ValueError("p = %d outside the budget p <= %d of a concrete "
                             "regime" % (p, CONCRETE_MAX_P))
        if not is_prime(p):
            raise ValueError("p must be prime")
        q0 %= p
        r0 %= p
        if q0 == 0 or r0 == 0:
            raise ValueError("q0 and r0 must be nonzero")
        if q0 * q0 % p == 1:
            raise ValueError("q0^2 = 1 makes w = q - q^-1 vanish")
        # p is odd here: GF(2)* = {1} holds no admissible q0.  One walk of
        # the powers of q0: q0^a = ±1 exactly when ord(q0^2) divides a, so
        # the first such a >= 1 is e and its sign that of q^e, and r is
        # ±q0^a at the first a < e where q0^a = ±r0, if there is one.
        neg_r0, neg_one = p - r0, p - 1
        r = None
        power, a = 1, 0
        while True:
            if r is None and (power == r0 or power == neg_r0):
                r = (1 if power == r0 else -1, a)
            power = power * q0 % p
            a += 1
            if power == 1 or power == neg_one:
                break
        e, qe = a, (1 if power == 1 else -1)
        r = r or GENERIC
        return replace(cls.symbolic(e=e, p=p, r=r, qe=qe), q0=q0, r0=r0)

    def is_concrete(self):
        return self.q0 is not None

    def unit_eq_one(self, sign, m):
        """Decide sign * q^m = 1, i.e. q^m = sign (folding signs away in
        char 2).  Returns True, False or None; None only when the answer
        depends on the unknown sign of q^e."""
        if self.p == 2:
            sign = 1
        e = self.e
        if e is None:
            return sign > 0 and m == 0
        if m % e != 0:
            return False
        if (m // e) % 2 == 0:
            return sign == 1
        if self.qe_sign == 0:
            return None
        return self.qe_sign == sign

    def r_equals(self, sign, a):
        """Decide r = sign * q^a; None if symbolic data cannot tell."""
        if self.r_sign == 0:
            return False
        return self.unit_eq_one(self.r_sign * sign, self.r_exp - a)

    def r_in_inverse_pair(self):
        """Decide r in {q^-1, -q}."""
        return either(self.r_equals(1, -1), self.r_equals(-1, 1))

    def reduced_r_exponent(self):
        """Return (sign, a) with r = sign*q^a and 0 <= a < e.

        Requires a signed-power r and finite e; raises when the q^e sign
        is needed but unknown.
        """
        e = self.e
        if e is None:
            raise ValueError("requires finite e")
        if self.r_sign == 0:
            raise ValueError("r is generic")
        sign, a = self.r_sign, self.r_exp % (2 * e)
        flips, a = divmod(a, e)
        if flips % 2:
            if self.qe_sign == 0:
                raise ValueError("q^e sign unknown; cannot reduce exponent")
            sign *= self.qe_sign
        return (sign, a)

    # -- rendering ----------------------------------------------------------
    def __str__(self):
        if self.is_concrete():
            return "p=%d q0=%d r0=%d" % (self.p, self.q0, self.r0)
        parts = []
        if self.r_sign == 0:
            parts.append("r=generic")
        else:
            parts.append("r=%sq^%d" % ("-" if self.r_sign < 0 else "", self.r_exp))
        parts.append("e=%s" % (self.e if self.e is not None else 0))
        parts.append("p=%s" % (self.p if self.p is not None else 0))
        if self.qe_sign:
            parts.append("qe=%+d" % self.qe_sign)
        return " ".join(parts)


def either(*answers):
    """Fold True / None / False answers: True if any is True, else None if
    any is None (undetermined), else False."""
    if True in answers:
        return True
    if None in answers:
        return None
    return False

