import hashlib
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
    embed,
    factorize,
    is_prime,
)
from dworkzeta.counting import DworkInstance, count_record
from dworkzeta.padic import build_tower


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
    ii = DworkInstance(n=2, field=build_field(3, 2, 0), lam=1)
    with pytest.raises(FieldTooLarge):
        build_field(3, 2, 0, cap=8)
    ii.extension(2)
    with pytest.raises(FieldTooLarge):
        ii.extension(2, cap=80)


def test_field_caches_stay_bounded():
    from dworkzeta import ff

    bound = ff._field.cache_info().maxsize
    # more distinct models of GF(2) than the cache keeps
    for seed in range(bound + 5):
        build_field(2, 1, seed)
    assert ff._field.cache_info().currsize == bound


@pytest.mark.parametrize("p,r", [(2, 2), (3, 1), (3, 2), (5, 1), (7, 1), (2, 3)])
def test_field_axioms_exhaustive(p, r):
    F = build_field(p, r, 0)
    q = F.pp.q
    for a in range(q):
        assert F.pow(a, q) == a
        if a:
            assert F.pow(a, q - 1) == 1
            assert F.mul(a, F.pow(a, -1)) == 1
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


_TABLES = ("exp_table", "log_table", "zech_table")


def test_tables_are_built_on_first_use():
    # the modulus and generator alone: GF(5^8) holds no table until an
    # operation asks for one, and the cap still refuses the next size up
    F = build_field(5, 8, 0)
    assert F.generator and not set(_TABLES) & set(vars(F))
    with pytest.raises(FieldTooLarge):
        build_field(5, 8, 0, cap=5 ** 8 - 1)
    G = build_field(3, 3, 0)
    assert G.mul(G.generator, 1) == G.generator
    assert set(_TABLES) <= set(vars(G))


def test_charsum_count_builds_no_extension_table():
    # n = 3, lam = 0 over GF(11^2) runs its family pass on the tower over
    # GF(121), which reads only the model's modulus, generator and digits
    from dworkzeta import counting, ff

    ff._field.cache_clear()
    counting._family_sums.cache_clear()
    build_tower.cache_clear()
    count_record(DworkInstance(3, build_field(11, 1, 1), 0), 2,
                 method="charsum")
    assert not set(_TABLES) & set(vars(build_field(11, 2, 1)))


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
    F9 = build_field(3, 2, 0)
    images = {embed(F3, F9, a) for a in range(3)}
    fixed = {a for a in range(9) if F9.pow(a, 3) == a}
    assert images == fixed


def test_extend_identity_and_prime_subfield():
    F4 = build_field(2, 2, 0)
    for a in range(4):
        assert embed(F4, F4, a) == a
    F2, F8 = build_field(2, 1, 0), build_field(2, 3, 0)
    assert embed(F2, F8, 0) == 0 and embed(F2, F8, 1) == 1


@pytest.mark.parametrize("p,r,k", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 2, 2), (5, 1, 3)])
def test_embedding_is_field_homomorphism(p, r, k):
    base = build_field(p, r, 0)
    E = build_field(p, r * k, 0)
    q = base.pp.q
    image = [embed(base, E, a) for a in range(q)]
    for a in range(q):
        for b in range(q):
            assert image[base.add(a, b)] == E.add(image[a], image[b])
            assert image[base.mul(a, b)] == E.mul(image[a], image[b])


@pytest.mark.parametrize("p,r", [(5, 2), (3, 3)], ids=["GF25", "GF27"])
def test_embed_refuses_a_field_that_does_not_extend_the_base(p, r):
    with pytest.raises(ValueError, match="not a subfield"):
        embed(build_field(3, 2, 0), build_field(p, r, 0), 1)


@pytest.mark.parametrize("p,r,seed", [(3, 1, 0), (3, 2, 1), (2, 2, 0)])
def test_extension_reads_the_shared_field_model(p, r, seed):
    base = build_field(p, r, seed)
    ii = DworkInstance(n=2, field=base, lam=base.pp.q - 1)
    F, lam = ii.extension(2)
    assert F is build_field(p, 2 * r, seed)
    assert lam == embed(base, F, ii.lam)
    F1, lam1 = ii.extension(1)
    assert F1 is base and lam1 == ii.lam


@pytest.mark.parametrize("p,r,k", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2)])
def test_embedding_trace_compatibility(p, r, k):
    base = build_field(p, r, 0)
    E = build_field(p, r * k, 0)
    for a in range(base.pp.q):
        assert E.trace(embed(base, E, a)) == (k * base.trace(a)) % p


def test_different_seeds_give_valid_models():
    F0 = build_field(3, 2, 0)
    F7 = build_field(3, 2, 7)
    # both are GF(9); moduli may differ but the arithmetic laws hold in each
    assert F0.pp.q == F7.pp.q == 9
    for F in (F0, F7):
        for a in range(1, 9):
            assert F.pow(a, 8) == 1


# (p, r, seed): (modulus, generator, first 16 hex digits of the SHA-256 of
# repr((exp, log, Zech, trace tables))); a refactor of the field layer must
# keep every model it builds
_PINNED_MODELS = {
    (2, 1, 0): ((0, 1), 1, "9ae3b850ebf19abb"),
    (2, 1, 1): ((1, 1), 1, "9ae3b850ebf19abb"),
    (2, 1, 5): ((1, 1), 1, "9ae3b850ebf19abb"),
    (2, 2, 0): ((1, 1, 1), 2, "941621b382e1e487"),
    (2, 2, 1): ((1, 1, 1), 2, "941621b382e1e487"),
    (2, 2, 5): ((1, 1, 1), 2, "941621b382e1e487"),
    (2, 3, 0): ((1, 1, 0, 1), 2, "8abb0e6da77b8f2e"),
    (2, 3, 1): ((1, 1, 0, 1), 2, "8abb0e6da77b8f2e"),
    (2, 3, 5): ((1, 0, 1, 1), 2, "bcdd4dcfde6f351b"),
    (3, 1, 0): ((0, 1), 2, "987ec0891495c3c4"),
    (3, 1, 1): ((1, 1), 2, "987ec0891495c3c4"),
    (3, 1, 5): ((2, 1), 2, "987ec0891495c3c4"),
    (3, 2, 0): ((1, 0, 1), 4, "4ddc231172d19b6a"),
    (3, 2, 1): ((1, 0, 1), 4, "4ddc231172d19b6a"),
    (3, 2, 5): ((2, 1, 1), 3, "a7daf3c0f406f77c"),
    (3, 3, 0): ((1, 2, 0, 1), 3, "dda4d5dd3eb65228"),
    (3, 3, 1): ((1, 2, 0, 1), 3, "dda4d5dd3eb65228"),
    (3, 3, 5): ((1, 2, 0, 1), 3, "dda4d5dd3eb65228"),
    (5, 1, 0): ((0, 1), 2, "341eb119bf1e50cd"),
    (5, 1, 1): ((1, 1), 2, "341eb119bf1e50cd"),
    (5, 1, 5): ((0, 1), 2, "341eb119bf1e50cd"),
    (5, 2, 0): ((2, 0, 1), 6, "2b52f65ac7581309"),
    (5, 2, 1): ((2, 0, 1), 6, "2b52f65ac7581309"),
    (5, 2, 5): ((1, 1, 1), 7, "dd804f3246e24429"),
    (5, 3, 0): ((1, 1, 0, 1), 9, "ab7837b400924729"),
    (5, 3, 1): ((1, 1, 0, 1), 9, "ab7837b400924729"),
    (5, 3, 5): ((1, 1, 0, 1), 9, "ab7837b400924729"),
    (7, 2, 0): ((1, 0, 1), 9, "6e00d9747f56589a"),
    (7, 2, 1): ((1, 0, 1), 9, "6e00d9747f56589a"),
    (7, 2, 5): ((3, 1, 1), 7, "a096cb3e19b721a4"),
    (2, 10, 0): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2, "da13f4bcb88c5ea6"),
    (2, 10, 1): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2, "da13f4bcb88c5ea6"),
    (2, 10, 5): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2, "da13f4bcb88c5ea6"),
    (31, 2, 0): ((1, 0, 1), 35, "5e788f2d382522ee"),
    (31, 2, 1): ((1, 0, 1), 35, "5e788f2d382522ee"),
    (31, 2, 5): ((5, 0, 1), 35, "fdad46b8b4faabbf"),
    (11, 3, 0): ((4, 1, 0, 1), 11, "c0b9e57d8013d96c"),
    (11, 3, 1): ((4, 1, 0, 1), 11, "c0b9e57d8013d96c"),
    (11, 3, 5): ((4, 1, 0, 1), 11, "c0b9e57d8013d96c"),
}

# teich(a) for a = 0..24 over build_field(5, 2, 0) at N = 6: the W
# coordinates (y^0, y^1) mod 5^6
_PINNED_TEICH_GF25_N6 = [
    (0, 0), (1, 0), (14557, 0), (1068, 0), (15624, 0),
    (0, 8346), (14151, 11986), (7812, 10496), (7813, 10496), (1474, 11986),
    (0, 8347), (15091, 9022), (11732, 11452), (3893, 11452), (534, 9022),
    (0, 7278), (15091, 6603), (11732, 4173), (3893, 4173), (534, 6603),
    (0, 7279), (14151, 3639), (7812, 5129), (7813, 5129), (1474, 3639),
]


def _table_digest(F):
    tables = (F.exp_table, F.log_table, F.zech_table,
              [F.trace(a) for a in range(F.pp.q)])
    return hashlib.sha256(repr(tables).encode()).hexdigest()[:16]


@pytest.mark.parametrize("p,r,seed", sorted(_PINNED_MODELS))
def test_field_models_are_pinned(p, r, seed):
    F = build_field(p, r, seed)
    assert (F.modulus, F.generator, _table_digest(F)) == \
        _PINNED_MODELS[(p, r, seed)]


def test_teichmuller_values_and_embedding_are_pinned():
    T = build_tower(build_field(5, 2, 0), 6)
    assert [T.teich(a) for a in range(25)] == _PINNED_TEICH_GF25_N6
    base, ext = build_field(3, 2, 1), build_field(3, 6, 1)
    # 231 is the image of the power-basis root of the base modulus
    assert [embed(base, ext, a) for a in range(9)] == \
        [0, 1, 2, 231, 232, 233, 129, 130, 131]
