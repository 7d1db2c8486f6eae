import itertools
import random

import pytest

from dworkzeta.errors import FieldTooLarge, LogOfZero, NotPrime
from dworkzeta.ff import (
    FieldCtx,
    PrimePower,
    _is_irreducible,
    _poly_mulmod,
    build_field,
    extend,
    factorize,
    is_prime,
)


def brute_is_irreducible(f, p):
    """Trial division by every lower-degree monic polynomial."""
    r = len(f) - 1
    for d in range(1, r):
        for m in range(p ** d):
            digits, mm = [], m
            for _ in range(d):
                mm, dd = divmod(mm, p)
                digits.append(dd)
            g = tuple(digits) + (1,)
            # does g divide f?  check via mulmod with quotient search is slow;
            # instead check f mod g == 0 by long division
            ra = list(f)
            while len(ra) - 1 >= d and ra:
                c = ra[-1]
                if c:
                    shift = len(ra) - 1 - d
                    for j in range(d):
                        ra[shift + j] = (ra[shift + j] - c * g[j]) % p
                ra.pop()
            if not any(ra):
                return False
    return True


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 101]
    composites = [0, 1, 4, 6, 9, 15, 91, 1 << 20]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_prime_power_validates():
    pp = PrimePower(5, 3)
    assert pp.q == 125
    with pytest.raises(NotPrime):
        PrimePower(6, 2)
    with pytest.raises(ValueError):
        PrimePower(5, 0)


def test_factorize():
    assert factorize(48) == {2: 4, 3: 1}
    assert factorize(342) == {2: 1, 3: 2, 19: 1}
    assert factorize(1) == {}


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_irreducibility_matches_brute_force(p, r):
    for m in range(p ** r):
        digits, mm = [], m
        for _ in range(r):
            mm, d = divmod(mm, p)
            digits.append(d)
        f = tuple(digits) + (1,)
        assert _is_irreducible(f, p) == brute_is_irreducible(f, p), f


def test_build_field_gf2():
    F = build_field(2, 1, 0)
    assert F.pp.q == 2
    assert F.generator == 1
    assert F.add(1, 1) == 0


def test_build_field_gf9_generator_order():
    F = build_field(3, 2, 0)
    assert F.pp.q == 9
    x = 1
    seen = set()
    for _ in range(8):
        x = F.mul(x, F.generator)
        seen.add(x)
    assert x == 1 and len(seen) == 8


def test_build_field_gf125_log_bijective():
    F = build_field(5, 3, 0)
    assert F.pp.q == 125
    logs = [F.dlog(a) for a in range(1, 125)]
    assert sorted(logs) == list(range(124))
    for a in range(1, 125):
        assert F.gen_pow(F.dlog(a)) == a


def test_field_cap():
    with pytest.raises(FieldTooLarge):
        build_field(2, 30, 0, cap=1 << 26)
    # the cap holds for an already cached model and its extensions too
    F = build_field(3, 2, 0)
    with pytest.raises(FieldTooLarge):
        build_field(3, 2, 0, cap=8)
    extend(F, 2)
    with pytest.raises(FieldTooLarge):
        extend(F, 2, cap=80)


def test_field_caches_stay_bounded():
    from dworkzeta import ff

    bound = ff._field.cache_info().maxsize
    assert ff._extension.cache_info().maxsize == bound
    # more distinct models of GF(2) and GF(4) than the caches keep
    fields = [build_field(2, 1, seed) for seed in range(bound + 5)]
    exts = [extend(F, 2) for F in fields]
    assert ff._field.cache_info().currsize == bound
    assert ff._extension.cache_info().currsize == bound
    # an extension is keyed on its base object, never on an evicted twin
    assert all(fe.base is F for fe, F in zip(exts, fields))
    assert extend(fields[-1], 2) is exts[-1]


@pytest.mark.parametrize("p,r", [(2, 2), (3, 1), (3, 2), (5, 1), (7, 1), (2, 3)])
def test_field_axioms_exhaustive(p, r):
    F = build_field(p, r, 0)
    q = F.pp.q
    for a in range(q):
        assert F.pow(a, q) == a
        if a:
            assert F.pow(a, q - 1) == 1
            assert F.mul(a, F.inv(a)) == 1
    # distributivity spot check on all triples for the smallest fields
    if q <= 9:
        for a, b, c in itertools.product(range(q), repeat=3):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))



def digit_add(F, a, b):
    """a + b by adding the coefficient vectors mod p: the oracle for F.add."""
    p = F.pp.p
    return sum(((x + y) % p) * p ** i
               for i, (x, y) in enumerate(zip(F.coeffs(a), F.coeffs(b))))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2),
                                 (3, 3), (7, 2)])
def test_add_matches_digitwise_oracle_exhaustive(p, r, seed):
    F = build_field(p, r, seed)
    q = F.pp.q
    minus_one = F.from_int(-1)
    for a in range(q):
        assert F.add(a, F.mul(minus_one, a)) == 0, a
        for b in range(q):
            assert F.add(a, b) == digit_add(F, a, b), (a, b)


@pytest.mark.parametrize("p,r", [(2, 11), (3, 7)])
def test_add_matches_digitwise_oracle_random(p, r):
    F = build_field(p, r, 0)
    q = F.pp.q
    rng = random.Random(p * 100 + r)
    minus_one = F.from_int(-1)
    for _ in range(5000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert F.add(a, b) == digit_add(F, a, b), (a, b)
        assert F.add(a, F.mul(minus_one, a)) == 0, a


def test_trace_examples():
    F4 = build_field(2, 2, 0)
    assert F4.trace(0) == 0
    # the two primitive cube roots of unity have trace 1
    w = F4.generator
    assert F4.trace(w) == 1
    assert F4.trace(F4.mul(w, w)) == 1
    assert F4.trace(1) == 0


def test_trace_additive_and_surjective():
    for (p, r) in [(3, 2), (5, 2), (2, 3)]:
        F = build_field(p, r, 0)
        q = F.pp.q
        for a in range(q):
            for b in range(q):
                assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % p
        assert set(F.trace(a) for a in range(q)) == set(range(p))


def test_dlog_examples():
    F = build_field(5, 2, 0)
    assert F.dlog(1) == 0
    assert F.dlog(F.generator) == 1
    with pytest.raises(LogOfZero):
        F.dlog(0)
    q1 = 24
    for a in range(1, 25):
        for b in range(1, 25):
            assert F.dlog(F.mul(a, b)) == (F.dlog(a) + F.dlog(b)) % q1


def test_character_orthogonality_multiset():
    # {dlog(x) * k mod (q-1)} hits each of the (q-1)/gcd(k, q-1) classes in the
    # image subgroup exactly gcd(k, q-1) times; x -> x^k is gcd-to-one on units
    from math import gcd

    F = build_field(3, 2, 0)
    q1 = 8
    for k in range(1, q1):
        counts = {}
        for x in F.exp_table:  # the units
            cls = (F.dlog(x) * k) % q1
            counts[cls] = counts.get(cls, 0) + 1
        g = gcd(k, q1)
        assert all(v == g for v in counts.values())
        assert len(counts) == q1 // g


def test_extend_gf3_to_gf9_fixed_points():
    F3 = build_field(3, 1, 0)
    ext = extend(F3, 2)
    F9 = ext.ext
    images = {ext.embed(a) for a in range(3)}
    fixed = {a for a in range(9) if F9.pow(a, 3) == a}
    assert images == fixed


def test_extend_identity_and_prime_subfield():
    F4 = build_field(2, 2, 0)
    ident = extend(F4, 1)
    for a in range(4):
        assert ident.embed(a) == a
    F2 = build_field(2, 1, 0)
    e = extend(F2, 3)
    assert e.embed(0) == 0 and e.embed(1) == 1


@pytest.mark.parametrize("p,r,k", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 2, 2), (5, 1, 3)])
def test_embedding_is_field_homomorphism(p, r, k):
    base = build_field(p, r, 0)
    ext = extend(base, k)
    E = ext.ext
    q = base.pp.q
    for a in range(q):
        for b in range(q):
            assert ext.embed(base.add(a, b)) == E.add(ext.embed(a), ext.embed(b))
            assert ext.embed(base.mul(a, b)) == E.mul(ext.embed(a), ext.embed(b))


@pytest.mark.parametrize("p,r,k", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2)])
def test_embedding_trace_compatibility(p, r, k):
    base = build_field(p, r, 0)
    ext = extend(base, k)
    for a in range(base.pp.q):
        assert ext.ext.trace(ext.embed(a)) == (k * base.trace(a)) % p


def test_different_seeds_give_valid_models():
    F0 = build_field(3, 2, 0)
    F7 = build_field(3, 2, 7)
    # both are GF(9); moduli may differ but the arithmetic laws hold in each
    assert F0.pp.q == F7.pp.q == 9
    for F in (F0, F7):
        for a in range(1, 9):
            assert F.pow(a, 8) == 1
