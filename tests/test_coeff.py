import itertools
import random
from dataclasses import replace

import pytest

from bmwgram.coeff import (CONCRETE_MAX_P, GENERIC, PRIME_LIMIT, LaurentPoly,
                           ParamSpec, _div_omega, either, is_prime, lincomb)
from bmwgram.exactla import PIVOT_PRIME
from bmwgram.oracle import sweep_specs

L = LaurentPoly
Q = L.q()
R = L.r()
W = L.omega()


def rand_poly(rng, nterms=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        terms[(rng.randint(-3, 3), rng.randint(-2, 2))] = rng.randint(-5, 5)
    return L(terms, wexp=rng.randint(0, 2))


def test_basic_arithmetic():
    assert Q * L.q(-1) == L.one()
    assert (W.__class__({(1, 0): 1, (-1, 0): -1}, wexp=1)) == L.one()
    assert (L.one() + Q * R) + L.integer(-1) == Q * R


def test_delta_identity():
    delta = L.one() + L.omega_inv() * (R - L.r(-1))
    num = (Q + R) * (Q * R - L.one())
    den = R * (Q + L.one()) * (Q - L.one())
    assert delta * den == num


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a


def _ref_mul(a, b):
    out = {}
    for (a1, b1), c1 in a.terms.items():
        for (a2, b2), c2 in b.terms.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return L(out, a.wexp + b.wexp)


def _ref_add(a, b):
    k = max(a.wexp, b.wexp)
    out = {}
    for x in (a, b):
        num = L(x.terms)
        for _ in range(k - x.wexp):
            num = _ref_mul(num, W)
        for key, c in num.terms.items():
            out[key] = out.get(key, 0) + c
    return L(out, k)


def _assert_canonical(x):
    assert all(x.terms.values())
    assert L(dict(x.terms), x.wexp) == x


def test_fast_paths_match_canonical_constructor():
    rng = random.Random(11)
    pool = [L.zero(), L.one(), L.integer(-1), W, W * W * Q, L.omega_inv(1),
            L.omega_inv(2), L.q(3), L.monomial(-2, 1, -1),
            L.monomial(3, -1, 2) * L.omega_inv(1), L.qbracket(2),
            L.qbracket(3)]
    pool += [rand_poly(rng, 1) for _ in range(20)]
    pool += [rand_poly(rng) for _ in range(30)]
    for a in pool:
        for b in pool:
            combo = lincomb([(a, b), (b, b), (a, L.one())])
            want_combo = _ref_add(_ref_add(_ref_mul(a, b), _ref_mul(b, b)), a)
            for got, want in ((a + b, _ref_add(a, b)), (a * b, _ref_mul(a, b)),
                              (combo, want_combo),
                              (lincomb([(a, b), (-a, b)]), L.zero())):
                _assert_canonical(got)
                assert got == want
        assert a + (-a) == L.zero()
        assert L.zero() + a == a and a + L.zero() == a
        assert a * L.one() == a and L.one() * a == a
    # w^-k is not 1, and w-powers cancel against the numerator
    for k in (1, 2):
        assert L.one() * L.omega_inv(k) == L.omega_inv(k) != L.one()
    assert W * L.omega_inv(1) == L.one()
    assert (W * W * Q) * L.omega_inv(3) == Q * L.omega_inv(1)
    # an equal-wexp sum that w divides loses its denominator
    total = Q * L.omega_inv(1) + L.q(-1) * L.omega_inv(1) * L.integer(-1)
    assert total == L.one()
    # so does a linear combination, at one power of w or two:
    # q w^-1 - q^-1 w^-1 = 1 and q w^-1 + (q^-2 - 1) w^-2 = 1
    for pairs in ([(Q, L.omega_inv(1)), (L.q(-1), -L.omega_inv(1))],
                  [(Q, L.omega_inv(1)), (L.zero(), L.omega_inv(2)),
                   (L.q(-2) - L.one(), L.omega_inv(2))]):
        total = lincomb(pairs)
        assert total == L.one() and total.wexp == 0
    assert lincomb([]) == L.zero() and lincomb([]).wexp == 0


def test_div_omega_exactly_when_slices_vanish_at_plus_minus_one():
    """w = q^-1 (q - 1)(q + 1) divides a numerator exactly when each
    r-slice vanishes at q = 1 and at q = -1; then quotient * w is the
    numerator.  Numerators divisible by q - 1 only, by q + 1 only and by
    powers of w are all drawn."""
    rng = random.Random(13)
    factors = [L.one(), Q - L.one(), Q + L.one(), W, W * W, W * (Q - L.one()),
               W * W * (Q + L.one())]
    seen = set()
    for _ in range(600):
        base = rand_poly(rng, 5)
        num = _ref_mul(L(base.terms), rng.choice(factors)).terms
        slices = {}
        for (a, b), c in num.items():
            at_one, at_minus_one = slices.get(b, (0, 0))
            slices[b] = (at_one + c, at_minus_one + c * (-1) ** (a % 2))
        divisible = not any(x for pair in slices.values() for x in pair)
        quo = _div_omega(num)
        seen.add((divisible, any(v[0] for v in slices.values()),
                  any(v[1] for v in slices.values())))
        if divisible:
            assert quo is not None and all(quo.values())
            assert _ref_mul(L(quo), W) == L(num)
        else:
            assert quo is None
    # drawn: numerators w divides, ones only q - 1 or only q + 1 divides,
    # and ones neither divides
    assert {(True, False, False), (False, False, True),
            (False, True, False), (False, True, True)} <= seen


def test_canonical_form_idempotent():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_poly(rng)
        again = L(dict(a.terms), a.wexp)
        assert again == a and again.wexp == a.wexp


def test_normalize_unit_examples():
    unit, core = (L.monomial(-1, 3, 0) * (Q ** 4 + L.one())).normalize_unit()
    assert core == Q ** 4 + L.one()
    assert unit == L.monomial(-1, 3, 0)
    unit, core = (Q ** 4 + L.one()).normalize_unit()
    assert unit == L.one() and core == Q ** 4 + L.one()
    unit, core = (W * W * (L.one() + Q ** 2)).normalize_unit()
    assert unit == W * W and core == L.one() + Q ** 2


def test_normalize_unit_roundtrip():
    rng = random.Random(11)
    for _ in range(150):
        a = rand_poly(rng)
        if a.is_zero():
            continue
        unit, core = a.normalize_unit()
        assert unit * core == a
        unit2, core2 = core.normalize_unit()
        assert core2 == core


def test_substitute_r_examples():
    assert (Q * R).substitute_r(1, -1) == L.one()
    num = (Q + R) * (Q * R - L.one())
    assert num.substitute_r(-1, 1).is_zero()
    assert (L.r(2) * L.q(-2)).substitute_r(-1, 1) == L.one()


def test_specialize_examples():
    assert (Q ** 4 + L.one()).specialize(5, 2, 1) == 2
    assert W.specialize(5, 2, 1) == 4
    assert L.one().specialize(7, 3, 2) == 1
    with pytest.raises(ValueError):
        W.specialize(5, 1, 2)


def test_specialize_is_homomorphism():
    rng = random.Random(13)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        for p, q0, r0 in ((5, 2, 3), (7, 3, 2), (11, 2, 5)):
            assert (a * b).specialize(p, q0, r0) == \
                a.specialize(p, q0, r0) * b.specialize(p, q0, r0) % p
            assert (a + b).specialize(p, q0, r0) == \
                (a.specialize(p, q0, r0) + b.specialize(p, q0, r0)) % p


def test_eval_sign_condition():
    # unit_eq_one(sign, m) decides q^m = sign
    assert ParamSpec.symbolic(e=4).unit_eq_one(-1, 4) is True
    assert ParamSpec.symbolic(e=12).unit_eq_one(-1, 4) is False
    # -1 = 1 in characteristic 2, so q^4 = -1 holds with q^4 = 1
    assert ParamSpec.symbolic(e=2, p=2).unit_eq_one(-1, 4) is True
    assert ParamSpec.symbolic(e=2, p=2).unit_eq_one(1, 4) is True
    assert ParamSpec.symbolic(e=None).unit_eq_one(1, 0) is True
    assert ParamSpec.symbolic(e=None).unit_eq_one(-1, 0) is False
    # unknown only when the answer depends on the sign of q^e
    s = ParamSpec.symbolic(e=3)
    assert s.unit_eq_one(-1, 3) is None
    assert s.unit_eq_one(1, 6) is True


# The GF(p) answers a concrete spec (p, q0, r0) gave before it carried its
# regime: the reference that the regime fields are held to.

def gf_order_qsq(p, q0):
    k, x = 1, q0 * q0 % p
    while x != 1:
        k, x = k + 1, x * q0 * q0 % p
    return k


def gf_signed_log(p, q0, r0, e):
    """(sign, a) with r0 = sign * q0^a and 0 <= a < e, else None."""
    for a in range(e):
        if r0 == pow(q0, a, p):
            return (1, a)
        if (r0 + pow(q0, a, p)) % p == 0:
            return (-1, a)
    return None


def gf_is(p, value, sign):
    return value % p == sign % p


GF_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_eval_sign_condition_matches_concrete():
    for p in GF_PRIMES:
        for q0 in range(2, p - 1):
            if q0 * q0 % p == 1:
                continue
            e = gf_order_qsq(p, q0)
            qe = 1 if pow(q0, e, p) == 1 else -1
            sym = ParamSpec.symbolic(e=e, p=p, qe=qe)
            for m in range(-3 * e, 3 * e + 1):
                for sign in (1, -1):
                    got = sym.unit_eq_one(sign, m)
                    assert got == gf_is(p, pow(q0, m, p), sign), \
                        (p, q0, m, sign)


def test_concrete_spec_carries_its_regime():
    """The fields of a concrete spec are the regime its point fixes, in
    the normal form of ParamSpec.symbolic: 0 <= a < e, qe = -1 at even e."""
    for spec in sweep_specs(GF_PRIMES):
        p, q0, r0 = spec.p, spec.q0, spec.r0
        e = gf_order_qsq(p, q0)
        qe = 1 if pow(q0, e, p) == 1 else -1
        r = gf_signed_log(p, q0, r0, e) or "generic"
        twin = ParamSpec.symbolic(e=e, p=p, r=r, qe=qe)
        assert (spec.e, spec.p, spec.r_sign, spec.r_exp, spec.qe_sign) == \
            (twin.e, twin.p, twin.r_sign, twin.r_exp, twin.qe_sign), str(spec)
        assert 0 <= spec.r_exp < e
        assert spec.qe_sign == (-1 if e % 2 == 0 else qe)


def test_concrete_predicates_match_gf():
    for spec in sweep_specs(GF_PRIMES):
        p, q0, r0 = spec.p, spec.q0, spec.r0
        e = gf_order_qsq(p, q0)
        log = gf_signed_log(p, q0, r0, e)
        assert spec.e == e
        assert spec.qe_sign == (1 if pow(q0, e, p) == 1 else -1)
        assert (spec.r_sign != 0) == (log is not None)
        if log is not None:
            assert spec.reduced_r_exponent() == log
        else:
            with pytest.raises(ValueError):
                spec.reduced_r_exponent()
        assert spec.r_in_inverse_pair() == (
            gf_is(p, r0 * q0, 1) or gf_is(p, r0, -q0))
        for m in range(-3 * e, 3 * e + 1):
            for sign in (1, -1):
                want = gf_is(p, pow(q0, m, p), sign)
                assert spec.unit_eq_one(sign, m) == want, (str(spec), m, sign)
                assert spec.r_equals(sign, m) == \
                    gf_is(p, sign * pow(q0, m, p) - r0, 0), (str(spec), m)


def test_param_spec_invariants():
    with pytest.raises(ValueError):
        ParamSpec.concrete(5, 0, 1)
    with pytest.raises(ValueError):
        ParamSpec.concrete(5, 4, 1)   # 4^2 = 1 mod 5
    s = ParamSpec.symbolic(e=4, p=5, r=(1, 9))
    assert s.qe_sign == -1 and s.r_exp == 1
    s2 = ParamSpec.symbolic(e=4, p=2, r=(-1, 3))
    assert s2.qe_sign == 1 and s2.r_sign == 1
    # ord(q^2) = e even forces q^e = -1, except that -1 = +1 in char 2
    for p in (None, 3, 5, 7):
        assert ParamSpec.symbolic(e=4, p=p, qe=-1).qe_sign == -1
        with pytest.raises(ValueError, match="contradicts"):
            ParamSpec.symbolic(e=4, p=p, qe=1)
    assert ParamSpec.symbolic(e=4, p=2, qe=1).qe_sign == 1
    assert ParamSpec.symbolic(e=5, p=7, qe=1).qe_sign == 1


def test_either_folds_answers():
    assert either() is False
    for size in range(1, 4):
        for answers in itertools.product((True, None, False), repeat=size):
            if any(a is True for a in answers):
                want = True
            elif any(a is None for a in answers):
                want = None
            else:
                want = False
            assert either(*answers) is want, answers


def test_char_2_folds_signs():
    # -1 = 1 in characteristic 2: r = -q^a is r = q^a, and q^e = 1
    s = ParamSpec.symbolic(e=3, p=2, r=(-1, 4))
    assert (s.r_sign, s.r_exp, s.qe_sign) == (1, 4, 1)
    assert s.reduced_r_exponent() == (1, 1)
    for a in range(-6, 7):
        assert s.r_equals(-1, a) is s.r_equals(1, a) is (a % 3 == 1)
        assert s.unit_eq_one(-1, a) is s.unit_eq_one(1, a) is (a % 3 == 0)


def test_reduced_r_exponent():
    assert multiplicative_order(2, 7) == 3
    spec = ParamSpec.concrete(7, 2, 4)   # 4 = 2^2
    assert spec.reduced_r_exponent() == (1, 2)
    spec = ParamSpec.concrete(7, 2, 3)   # 3 = -4 = -2^2
    assert spec.reduced_r_exponent() == (-1, 2)


def trial_division(n):
    """The primality reference: a divisor search up to sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 4) if is_prime(n)] == \
        [n for n in range(10 ** 4) if trial_division(n)]


def chernick(k):
    """(6k+1)(12k+1)(18k+1), a Carmichael number when all three factors
    are prime."""
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def test_is_prime_rejects_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                  3215031751]
    carmichael += [chernick(k) for k in range(1, 200)
                   if all(trial_division(c * k + 1) for c in (6, 12, 18))]
    assert len(carmichael) > 15
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
    # 3825123056546413051 to every prime base up to 31
    for n in carmichael + [3825123056546413051]:
        assert not is_prime(n)


def test_is_prime_large():
    for p in ((1 << 61) - 1, PIVOT_PRIME, 1000003, (1 << 31) - 1):
        assert is_prime(p)
        assert not is_prime(p * 1009)
    assert not is_prime((1 << 61) + 1)
    with pytest.raises(ValueError, match="outside the budget"):
        is_prime(PRIME_LIMIT)   # passes every base, and is composite


def multiplicative_order(x, p):
    x %= p
    if x == 0:
        raise ValueError("0 has no multiplicative order")
    k = 1
    acc = x
    while acc != 1:
        acc = acc * x % p
        k += 1
    return k


def concrete_by_two_walks(p, q0, r0):
    """ParamSpec.concrete as it was before its one walk: ord(q0^2) by the
    powers of q0^2, then r0 = ±q0^a by a second walk of the powers of q0,
    and the sign of q0^e by pow.  The reference for the one walk."""
    q0 %= p
    r0 %= p
    e = multiplicative_order(q0 * q0 % p, p)
    r = GENERIC
    power = 1
    for a in range(e):
        if power == r0 or power == p - r0:
            r = (1 if power == r0 else -1, a)
            break
        power = power * q0 % p
    qe = 1 if pow(q0, e, p) == 1 else -1
    return replace(ParamSpec.symbolic(e=e, p=p, r=r, qe=qe), q0=q0, r0=r0)


def test_one_walk_matches_two_walks_small_primes():
    """Every field of every concrete spec with p <= 31."""
    count = 0
    for p in (3,) + GF_PRIMES:
        for q0 in range(2, p - 1):
            if q0 * q0 % p == 1:
                continue
            for r0 in range(1, p):
                assert ParamSpec.concrete(p, q0, r0) == \
                    concrete_by_two_walks(p, q0, r0), (p, q0, r0)
                count += 1
    assert count == len(sweep_specs((3,) + GF_PRIMES))


def test_one_walk_matches_two_walks_near_the_budget():
    """The three largest primes up to CONCRETE_MAX_P, at the roots
    q0 = 7^((p-1)/k) for every 3 <= k <= 40 dividing p - 1, each with
    r0 = q0^(e-1), -q0^(e-1) and a few random r0; and the longest walk
    the budget allows, at the largest prime, where 7 is a primitive root,
    q0 = 7 and r0 = q0^(e-1)."""
    rng = random.Random(22)
    primes = [p for p in range(CONCRETE_MAX_P, CONCRETE_MAX_P - 200, -1)
              if is_prime(p)][:3]
    assert len(primes) == 3
    seen = set()
    for p in primes:
        for k in range(3, 41):
            if (p - 1) % k:
                continue
            q0 = pow(7, (p - 1) // k, p)
            top = pow(q0, multiplicative_order(q0 * q0, p) - 1, p)
            for r0 in [top, p - top] + [rng.randrange(1, p)
                                        for _ in range(3)]:
                spec = ParamSpec.concrete(p, q0, r0)
                assert spec == concrete_by_two_walks(p, q0, r0), (p, q0, r0)
                seen.add(spec.r_sign)
    assert seen == {1, -1, 0}
    p = primes[0]
    r0 = pow(7, (p - 1) // 2 - 1, p)
    spec = ParamSpec.concrete(p, 7, r0)
    assert spec == concrete_by_two_walks(p, 7, r0)
    assert (spec.e, spec.r_exp) == ((p - 1) // 2, (p - 1) // 2 - 1)


def test_concrete_budget_admits_a_million():
    with pytest.raises(ValueError, match="outside the budget"):
        ParamSpec.concrete(CONCRETE_MAX_P + 1, 2, 3)
    spec = ParamSpec.concrete(1000003, 2, 3)
    assert spec.e == multiplicative_order(4, 1000003)
