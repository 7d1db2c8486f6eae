import contextlib
import copy
import functools
import gc
import io
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dworkzeta import counting, padic
from dworkzeta.cli import main
from dworkzeta.errors import NonIntegralResult
from dworkzeta.ff import FieldCtx, _power, build_field
from dworkzeta.oracles import (
    TowerElem,
    digit_sum,
    gauss_sums_direct,
    pi_valuation,
    zp_coords,
)
from dworkzeta.padic import (
    GaussSource,
    TowerCtx,
    ZpCyclic,
    build_tower,
    gauss_source,
)

FIELDS = [(2, 2), (3, 1), (3, 2), (5, 1), (7, 1), (2, 3)]


def tower(p, r, N=8):
    return build_tower(build_field(p, r, 0), N)


def _assert_coordinates(T, v, length):
    """v is a tuple of `length` ints, each a residue mod p^N."""
    assert type(v) is tuple and len(v) == length, v
    assert all(type(x) is int and 0 <= x < T.pN for x in v), v


def eisenstein_at_pi(T):
    """E(pi) for E = ((1+pi)^p - 1)/pi = sum_i binom(p, i+1) pi^i."""
    pi = TowerElem.pi(T)
    return sum((pi ** i).scale(comb(T.p, i + 1)) for i in range(T.p))


def _w_mul(T, u, v):
    """The schoolbook product of two values of W, unreduced mod p^N."""
    r, mod = T.r, T.unramified_modulus
    out = [0] * (2 * r - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    for i in range(2 * r - 2, r - 1, -1):  # y^r = -sum_{j<r} m_j y^j
        for j in range(r):
            out[i - r + j] -= out[i] * mod[j]
    return out[:r]


def _oracle_mul(T, a, b):
    """The pi-basis product of two row arrays: schoolbook products in W,
    reduced by the lifted field modulus, then pi-degrees >= p-1 reduced by
    the Eisenstein polynomial."""
    p, r, pN = T.p, T.r, T.pN
    d = p - 1
    eis = [comb(p, i + 1) for i in range(p)]
    out = [[0] * r for _ in range(2 * d - 1)]
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            for t, v in enumerate(_w_mul(T, ra, rb)):
                out[i + j][t] += v
    for i in range(2 * d - 2, d - 1, -1):  # pi^d = -sum_{j<d} E_j pi^j
        for j in range(d):
            for t in range(r):
                out[i - d + j][t] -= eis[j] * out[i][t]
    return tuple(tuple(v % pN for v in row) for row in out[:d])


def _schoolbook_mul_coeffs(T, a, b, blocks):
    """The product in ((Z/p^N)[y]/(m(y)))[x]/(x^blocks - 1) of two flat
    coefficient tuples, block by block."""
    r = T.r
    out = [0] * (blocks * r)
    for i in range(blocks):
        for j in range(blocks):
            k = (i + j) % blocks
            for t, v in enumerate(_w_mul(T, a[i * r:i * r + r],
                                         b[j * r:j * r + r])):
                out[k * r + t] += v
    return tuple(v % T.pN for v in out)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_mul_coeffs_matches_schoolbook(p, r):
    T = TowerCtx(build_field(p, r, 0), 6)
    rng = random.Random(p * 10 + r)
    for blocks in sorted({1, p}):
        size = blocks * r
        # all-(p^N - 1) operands fill every slot to its bound: a narrower
        # slot width would carry into the next slot
        cases = [((T.pN - 1,) * size,) * 2]
        cases += [tuple(tuple(rng.randrange(T.pN) for _ in range(size))
                        for _ in range(2)) for _ in range(20)]
        for a, b in cases:
            assert T._mul_coeffs(a, b, blocks) == \
                _schoolbook_mul_coeffs(T, a, b, blocks), (blocks, a, b)


def test_build_tower_gf2_trivial_ramification():
    T = tower(2, 1, 8)
    assert eisenstein_at_pi(T) == TowerElem.zero(T)  # pi + 2 = 0
    assert TowerElem.pi(T) == TowerElem.from_int(T, -2)
    assert TowerElem.zeta_p(T) == TowerElem.from_int(T, -1)
    assert len(TowerElem.zero(T).rows) == 1


def test_build_tower_gf3_eisenstein():
    T = tower(3, 1, 5)
    # ((1+pi)^3 - 1)/pi = pi^2 + 3 pi + 3
    pi = TowerElem.pi(T)
    assert pi * pi + pi.scale(3) + 3 == TowerElem.zero(T)
    assert eisenstein_at_pi(T) == TowerElem.zero(T)


def test_tower_cache_stays_bounded():
    from dworkzeta import padic

    bound = padic.build_tower.cache_info().maxsize
    F = build_field(3, 2, 0)
    towers = [build_tower(F, N) for N in range(1, bound + 6)]
    assert padic.build_tower.cache_info().currsize == bound
    assert build_tower(F, bound + 5) is towers[-1]
    # a tower is paired with the model object it was asked for, even when
    # another object models the same field
    twin = FieldCtx(F.pp, seed=0)
    assert all(T.field is F for T in towers)
    assert build_tower(twin, 4).field is twin
    assert build_tower(F, 4).field is F


def test_live_gauss_sources_are_bounded():
    # one source per field model, kept for as many models as the cache
    # holds: the towers read theirs by model and keep no reference to it
    padic._sources.cache_clear()
    bound = padic._sources.cache_info().maxsize
    refs = []
    for seed in range(bound + 8):
        F = build_field(3, 2, seed)
        TowerCtx(F, 4).gauss_table()
        refs.append(weakref.ref(gauss_source(F, 4)))
    gc.collect()
    assert [ref() is not None for ref in refs] == [False] * 8 + [True] * bound


def test_tower_below_its_source_holds_no_sequence_of_its_own():
    # the y^0 sequence and the traces live on the source alone; a tower
    # keeps its reduced Teichmuller powers and its Gauss sums
    padic._sources.cache_clear()
    F = build_field(5, 3, 0)
    TowerCtx(F, 19).gauss_table()
    source = gauss_source(F, 19)
    assert source.N == 25  # 5^19 needs two 30-bit digits, as 5^25 does
    for N in (13, 19, source.N):
        T = TowerCtx(F, N)
        T.gauss_table()
        T.teich_pows()
        assert gauss_source(F, N) is source
        held = [name for name, v in vars(T).items()
                if isinstance(v, list) and len(v) == T.q - 1]
        assert held == ["_teich_pows"]
        assert all(type(t) is tuple for t in T._teich_pows)
    assert {len(source.y0), len(source.traces)} == {F.pp.q - 1}


def test_build_tower_gf9_shape():
    T = tower(3, 2, 4)
    assert len(TowerElem.zero(T).rows) == 2
    assert all(len(row) == 2 for row in TowerElem.zero(T).rows)


def test_eisenstein_constant_term_is_p():
    # pi is a root of E, whose constant term p has the valuation of pi^{p-1}
    for p, r in FIELDS + [(11, 1), (13, 1)]:
        T = tower(p, r, 4)
        assert eisenstein_at_pi(T) == TowerElem.zero(T)
        assert pi_valuation(TowerElem.from_int(T, p)).numerator == p - 1
        assert pi_valuation(TowerElem.pi(T) ** (p - 1)).numerator == p - 1


def test_zeta_p_is_pth_root_of_unity():
    for p, r in FIELDS:
        T = tower(p, r, 6)
        z = TowerElem.zeta_p(T)
        assert z ** p == TowerElem.one(T)
        if p > 2:
            assert z != TowerElem.one(T)


def test_teich_basics():
    T = tower(3, 2, 6)
    assert TowerElem.from_w(T, T.teich(0)) == TowerElem.zero(T)
    assert TowerElem.from_w(T, T.teich(1)) == TowerElem.one(T)
    q = 9
    for a in range(1, q):
        t = TowerElem.from_w(T, T.teich(a))
        assert t ** (q - 1) == TowerElem.one(T)
        # reduction mod p recovers the field element's coefficient vector
        assert tuple(c % 3 for c in t.rows[0]) == T.field.coeffs(a)



def test_pow_takes_bitlen_plus_popcount_minus_two_multiplies(monkeypatch):
    T = tower(5, 3, 6)
    x = TowerElem.from_w(T, T.teich(T.field.generator)) + TowerElem.zeta_p(T)
    naive = [TowerElem.one(T)]
    for _ in range(T.q):
        naive.append(naive[-1] * x)
    real, muls = TowerCtx._mul_coeffs, []

    def spy(ctx, a, b, blocks):
        muls.append(blocks)
        return real(ctx, a, b, blocks)

    monkeypatch.setattr(TowerCtx, "_mul_coeffs", spy)
    q = T.q
    for e, want in ((0, 0), (1, 0), (2, 1), (11, 5),
                    (q, q.bit_count() + q.bit_length() - 2)):
        muls.clear()
        assert (x ** e).c == naive[e].c, e
        assert muls == [T.p] * want, (e, len(muls))


def _ring_teich(T, a):
    """teich(a) by t -> t^q through the ring multiply, from the lift of the
    coefficients of a."""
    t = TowerElem.from_w(T, T.field.coeffs(a))
    for _ in range(T.N + 1):
        nxt = t ** T.q
        if nxt == t:
            return t
        t = nxt
    raise AssertionError("Teichmuller iteration did not stabilize")


def _power_teich(T, a):
    """teich(a) as t^(q^(N-1)) in W, t the lift of the coefficients of a:
    exact since t = teich(a) mod p."""
    t = tuple(v % T.pN for v in T.field.coeffs(a))
    mul = functools.partial(T._mul_coeffs, blocks=1)
    return _power(t, T.q ** (T.N - 1), mul)


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2),
                                 (7, 2), (11, 2)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 9, 17, 33])
def test_teich_newton_matches_power_lift(p, r, N):
    T = TowerCtx(build_field(p, r, 0), N)
    for a in range(T.q):
        assert T.teich(a) == _power_teich(T, a), a


@pytest.mark.parametrize("N", [1, 2, 5, 17])
def test_teich_takes_floor_log2_n_qth_powers(monkeypatch, N):
    # at most floor(log2 N) q-th powers; over GF(25) a Newton step takes
    # the precision v to 2v + 2 (1 -> 4 -> 10 -> 22), so N = 17 takes 3
    T = TowerCtx(build_field(5, 2, 0), N)
    calls = []

    def spy(x, e, mul):
        calls.append(e)
        return _power(x, e, mul)

    monkeypatch.setattr(padic, "_power", spy)
    T.teich(T.field.generator)
    assert calls == [T.q] * {1: 0, 2: 1, 5: 2, 17: 3}[N]
    assert len(calls) <= N.bit_length() - 1


def test_a_replacing_source_lifts_from_the_replaced_lift(monkeypatch):
    # GF(27) at N = 13 gets a source at N = 18; N = 19 replaces it by one at
    # N = 37, whose Newton lift starts from the old lift, exact to 18
    # digits: one q-th power takes it to 2 * 18 + 3 = 39 digits
    padic._sources.cache_clear()
    F = build_field(3, 3, 0)
    TowerCtx(F, 13).gauss_table()
    calls = []

    def spy(x, e, mul):
        calls.append(e)
        return _power(x, e, mul)

    monkeypatch.setattr(padic, "_power", spy)
    TowerCtx(F, 19).gauss_table()
    source = gauss_source(F, 19)
    assert (source.N, calls) == (37, [27])
    monkeypatch.undo()
    assert source._teich_generator == GaussSource(F, 37)._teich_generator


def test_generator_is_lifted_once_per_tower(monkeypatch):
    # the twists (teich_pows) and the Gauss sums (the y^0 sequence) share
    # one Newton lift of g, made once per Gauss source: the towers below
    # the source's precision read it reduced
    real, calls = TowerCtx.teich, []

    def teich(self, a):
        calls.append((self.N, a))
        return real(self, a)

    monkeypatch.setattr(TowerCtx, "teich", teich)
    padic._sources.cache_clear()
    F = build_field(5, 2, 0)
    for N in (6, 4, 6, 5):
        T = TowerCtx(F, N)
        T.teich_pows()
        T.gauss_table()
    source = gauss_source(F, 6)
    source.y0
    assert calls == [(source.N, F.generator)]


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (5, 2), (3, 3), (5, 3),
                                 (11, 2)])
def test_teich_table_matches_ring_powers(p, r):
    # teich and teich_pows hand out values of W, r residues mod p^N: the
    # coordinates of the oracle ring's powers, which stay on x^0
    T = TowerCtx(build_field(p, r, 0), 6)
    for a in range(T.q):
        _assert_coordinates(T, T.teich(a), r)
    tg = _ring_teich(T, T.field.generator)
    assert TowerElem.from_w(T, T.teich(T.field.generator)).c == tg.c
    tp = T.teich_pows()
    assert len(tp) == T.q - 1
    power = TowerElem.one(T)
    for j, t in enumerate(tp):
        _assert_coordinates(T, t, r)
        assert TowerElem.from_w(T, t).c == power.c, j
        power = power * tg
    assert power == TowerElem.one(T)


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3),
                                 (7, 2), (5, 3), (11, 2)])
def test_gauss_sums_lie_in_zp_zeta_p(p, r):
    # acc[m] summed over all r coordinates of W has no y^j part, j >= 1,
    # and G(k) = sum_m x^m acc[m] has the coordinates of the y^0-only sums,
    # which gauss_sums hands out as p residues mod p^N
    T = TowerCtx(build_field(p, r, 0), 4)
    F, q1 = T.field, T.q - 1
    tg = _ring_teich(T, F.generator)
    tp = [TowerElem.one(T)]
    for _ in range(q1 - 1):
        tp.append(tp[-1] * tg)
    traces = [F.trace(F.exp_table[j]) for j in range(q1)]
    fast = T.gauss_sums(range(1, q1))
    for G in T.gauss_sums(range(q1 + 1)):
        _assert_coordinates(T, G, p)
    for k in range(1, q1):
        acc = [TowerElem.zero(T)] * p
        for j, m in enumerate(traces):
            acc[m] = acc[m] + tp[(-k * j) % q1]
        assert all(v == 0 for a in acc for v in a.c[1:]), (p, r, k)
        G = sum((a * TowerElem.zeta_p(T) ** m for m, a in enumerate(acc)),
                TowerElem.zero(T))
        assert G.c == TowerElem.from_zp(T, fast[k - 1]).c, (p, r, k)


# the pure cosets: the characters of order m with p^t = -1 mod m, 2t | r
# (m = 3, 5 over GF(16); m = 2, 3, 6 over GF(25); m = 3, 9 over GF(64)),
# none at odd r
PURE_COSETS = {(2, 4): 2, (5, 2): 3, (3, 3): 0, (2, 6): 2, (5, 3): 0}


@pytest.mark.parametrize("p,r,cosets", [(2, 4, 4), (5, 2, 13), (3, 3, 9),
                                        (2, 6, 12), (5, 3, 43)])
def test_gauss_sums_once_per_cyclotomic_coset(monkeypatch, p, r, cosets):
    # G(p k mod (q-1)) = G(k): the memo sums one index per p-cyclotomic
    # coset of 0 < k < q-1, its least member; 0 and q-1 are conventions.
    # Each coset is computed once per source, by the closed form or by the
    # fold, never both
    field = build_field(p, r, 0)
    q1 = p ** r - 1
    fresh = TowerCtx(field, 4)
    oracle = gauss_sums_direct(fresh)
    real_pure, real_fold, asks = GaussSource._pure, GaussSource._fold, []

    def spy_pure(source, c):
        G = real_pure(source, c)
        if G is not None:
            asks.append(("pure", c))
        return G

    def spy_fold(source, c):
        asks.append(("fold", c))
        return real_fold(source, c)

    monkeypatch.setattr(GaussSource, "_pure", spy_pure)
    monkeypatch.setattr(GaussSource, "_fold", spy_fold)
    padic._sources.cache_clear()
    T = TowerCtx(field, 4)
    G = T.gauss_sums(range(q1 + 1))
    assert G[1:q1] == oracle
    assert [TowerElem.from_zp(T, v) for v in (G[0], G[q1])] == \
        [TowerElem.from_int(T, q1), TowerElem.from_int(T, -q1 - 1)]
    orbits = {frozenset(k * p ** i % q1 for i in range(r))
              for k in range(1, q1)}
    assert len(orbits) == cosets
    assert sorted(c for _, c in asks) == sorted(min(o) for o in orbits)
    assert sum(route == "pure" for route, _ in asks) == PURE_COSETS[p, r]
    assert T.gauss_sums(range(q1 + 1)) == G  # all kept
    # so are the source's: a second tower, below its precision, computes
    # none
    assert TowerCtx(field, 3).gauss_sums(range(q1 + 1)) == \
        [tuple(v % p ** 3 for v in g) for g in G]
    assert len(asks) == cosets


@pytest.mark.parametrize("p,r,m", [(3, 1, 2), (2, 2, 2), (5, 1, 2),
                                   (3, 1, 3), (7, 1, 2), (3, 2, 2),
                                   (5, 1, 3)])
def test_gauss_sums_over_an_extension_match_its_table(monkeypatch, p, r, m):
    # gauss_sums(ks, m) on the tower over GF(q) is the table of GF(q^m) at
    # every multiple of (Q-1)/(q-1), the boundary indices included
    T = TowerCtx(build_field(p, r, 0), 8)
    table = TowerCtx(build_field(p, r * m, 0), 8).gauss_table()
    q, Q1 = p ** r, p ** (r * m) - 1
    step = Q1 // (q - 1)
    ks = range(0, Q1 + 1, step)
    assert T.gauss_sums(ks, m) == [table[k] for k in ks]
    for k in (1, Q1 + 1):
        with pytest.raises(ValueError, match=f"multiple of {step}"):
            T.gauss_sums([k], m)
    # the m-th powers are kept: two passes take one per coset minimum
    real, powers = ZpCyclic.power, []

    def power(ring, a, e):
        powers.append((ring.tower, ring.g, e))
        return real(ring, a, e)

    monkeypatch.setattr(ZpCyclic, "power", power)
    T = TowerCtx(T.field, 8)
    for _ in range(2):
        T.gauss_sums(ks, m)
    minima = {min(t * p ** i % (q - 1) for i in range(r))
              for t in range(1, q - 1)}
    assert powers == [(T, 1, m)] * len(minima)


def _z_parts(ring, v):
    """The x-coordinates of each z^c part of v, c < g, read as the z^0 part
    of v z^{g-c}."""
    T, g = ring.tower, ring.g
    zero, one = (0,) * T.p, (1,) + (0,) * (T.p - 1)
    return [list(ring.coords(ring.mul(
        v, ring.pack([zero] * ((g - c) % g) + [one]))))
        for c in range(g)]


def _g_prime_to(p):
    return 5 if p != 5 else 4


@pytest.mark.parametrize("p,r,N", [(2, 1, 9), (3, 2, 12), (5, 1, 19),
                                   (5, 3, 23), (11, 1, 16)])
def test_zp_product_sums_worst_case_slots(p, r, N):
    # the packed ring Z_p[zeta_p][z]/(z^g - 1), g = 5 (4 at p = 5), with
    # every x-coordinate p^N - 1 in every z^c part: P = E (1 + ... +
    # z^{g-1}) has P^5 = g^4 E^5 (1 + ... + z^{g-1}), and a key summing
    # 28 terms (p^N - 1) P^5 adds 28 times that
    T = TowerCtx(build_field(p, r, 0), N)
    top = T.pN - 1
    E = TowerElem.from_zp(T, (top,) * p)
    for g in (1, _g_prime_to(p)):
        want = list((E ** 5).scale(g ** 4).c[::r])
        ring = ZpCyclic(T, g, 28)
        P5 = ring.power(ring.pack([(top,) * p] * g), 5)
        assert _z_parts(ring, P5) == [want] * g
        key = ring.coords(sum(top * P5 for _ in range(28)))
        assert list(key) == [v * top * 28 % T.pN for v in want]


@pytest.mark.parametrize("p,r,N", [(2, 1, 9), (3, 2, 12), (5, 1, 19),
                                   (5, 3, 23), (11, 1, 16), (7, 1, 3)])
def test_zp_cyclic_slot_width_is_sharp(p, r, N):
    # operands at the limit `mul` allows, every slot 2 p^N - 1, and a key
    # summing `terms` terms of (p^N - 1) times such a product: the ring
    # gets them right, and a copy two bits narrower does not
    T = TowerCtx(build_field(p, r, 0), N)
    g, terms = _g_prime_to(p), 3
    E = TowerElem.from_zp(T, (T.pN - 1,) * p)
    want = list((E ** 5).scale(g ** 4).c[::r])
    ring = ZpCyclic(T, g, terms)
    narrow = copy.copy(ring)
    narrow._set_width(ring.bits - 2)

    def fifth_power(ring):
        P = ring.pack([(2 * T.pN - 1,) * p] * g)
        return ring.power(P, 5)

    assert list(ring.coords(fifth_power(ring))) == want
    assert list(narrow.coords(fifth_power(narrow))) != want
    # with p^N small the terms set the width: 2000 terms (p^N - 1) times a
    # value whose slots are 2 p^N - 1
    T = TowerCtx(build_field(3, 1, 0), 1)
    ring = ZpCyclic(T, 2, 2000)
    assert ring.bits == (2 * 2000 * 3 ** 2).bit_length()
    narrow = copy.copy(ring)
    narrow._set_width(ring.bits - 2)
    for r_, ok in ((ring, True), (narrow, False)):
        v = r_.pack([(5, 5, 5)] * 2)
        got = r_.coords(sum(2 * v for _ in range(2000)))
        assert (got == (2 * 5 * 2000 % 3,) * 3) == ok


@pytest.mark.parametrize("p,N,terms", [(2, 1, 600), (3, 1, 300),
                                       (2, 3, 2000)])
def test_zp_product_sums_many_terms_on_one_key(p, N, terms):
    # with p^N small the Barrett step's slot width leaves less room than a
    # key's sum of T terms needs: T terms (p^N - 1) E of slots (p^N - 1)^2
    # overflow a slot sized without 2 T (p^N)^2
    T = TowerCtx(build_field(p, 1, 0), N)
    top = T.pN - 1
    elem = TowerElem(T, (top,) * p)
    for g in (1, 5):
        ring = ZpCyclic(T, g, terms)
        v = ring.pack([zp_coords(elem)])
        got = ring.coords(sum(top * v for _ in range(terms)))
        assert got == elem.scale(top * terms).c


def test_zp_product_sums_refuses_a_factor_outside_zp_zeta_p():
    T = TowerCtx(build_field(3, 2, 0), 4)
    y = TowerElem.from_w(T, (0, 1))
    with pytest.raises(ValueError, match="not in Z_p"):
        zp_coords(y)
    with pytest.raises(ValueError, match="prime to 3"):
        ZpCyclic(T, 3, 1)


def test_zp_cyclic_reads_a_factor_from_another_field():
    # a factor from a tower of the same p and N, over another field, is read
    T = TowerCtx(build_field(3, 1, 0), 4)
    ring = ZpCyclic(T, 2, 1)
    same = TowerCtx(build_field(3, 2, 0), 4)
    got = ring.coords(2 * ring.pack([zp_coords(TowerElem.pi(same))]))
    assert got == (TowerElem.pi(T) * 2).c


def test_teich_cube_roots_sum_to_zero():
    T = tower(2, 2, 5)
    F = T.field
    w = F.generator
    w2 = F.mul(w, w)
    assert TowerElem.from_w(T, T.teich(w)) + \
        TowerElem.from_w(T, T.teich(w2)) + TowerElem.one(T) == \
        TowerElem.zero(T)


def test_teich_multiplicative_gf7_exhaustive():
    T = tower(7, 1, 5)
    F = T.field
    for a in range(1, 7):
        for b in range(1, 7):
            ta, tb = T.teich(a), T.teich(b)
            assert TowerElem.from_w(T, ta) * TowerElem.from_w(T, tb) == \
                TowerElem.from_w(T, T.teich(F.mul(a, b)))


def test_additive_character_orthogonality():
    for p, r in FIELDS:
        T = tower(p, r, 6)
        z = TowerElem.zeta_p(T)
        total = TowerElem.zero(T)
        for a in range(T.q):
            total = total + z ** T.field.trace(a)
        assert total == TowerElem.zero(T)


def test_gauss_sum_boundary_conventions():
    for p, r in FIELDS:
        T = tower(p, r, 6)
        G0, Gq1 = T.gauss_sums([0, T.q - 1])
        assert TowerElem.from_zp(T, G0) == TowerElem.from_int(T, T.q - 1)
        assert TowerElem.from_zp(T, Gq1) == TowerElem.from_int(T, -T.q)
        with pytest.raises(ValueError):
            T.gauss_sums([T.q])


def test_gauss_sum_gf4_k1_is_two():
    T = tower(2, 2, 5)
    assert [TowerElem.from_zp(T, G) for G in T.gauss_sums([1])] == \
        [TowerElem.from_int(T, 2)]


def test_gauss_table_matches_single_sums():
    T = tower(5, 1, 6)
    table = T.gauss_table()
    T2 = build_tower(build_field(5, 1, 0), 6)
    assert T2 is T  # cached
    # the memo hands back the sums it computed for the table
    assert all(a is b for a, b in zip(T.gauss_sums([3, 1, 3]),
                                      (table[3], table[1], table[3])))
    fresh = TowerCtx(build_field(5, 1, 0), 7)
    for k in range(5):
        assert TowerElem.from_zp(T, table[k]).rows == \
            TowerElem.from_zp(T, fresh.gauss_sums([k])[0]).rows


def test_tower_modulus_reduces_to_field_modulus():
    for p, r in FIELDS:
        T = tower(p, r, 5)
        assert tuple(c % p for c in T.unramified_modulus) == T.field.modulus


def test_stickelberger_exhaustive():
    # includes fields up to q = 128
    for p, r in FIELDS + [(2, 5), (2, 6), (2, 7), (3, 3), (5, 2), (11, 1)]:
        T = tower(p, r, 8)
        table = T.gauss_table()
        for k in range(T.q):
            v = pi_valuation(TowerElem.from_zp(T, table[k]))
            assert v.exact
            assert v.numerator == digit_sum(k, T.pp), (p, r, k)


def test_interpolation_identity_exhaustive():
    # zeta_p^{Tr(a)} = sum_k G(k)/(q-1) chi(a)^k for every a, exactly at any N,
    # on fields up to q = 64
    for p, r in FIELDS + [(2, 5), (2, 6), (3, 3), (5, 2)]:
        T = tower(p, r, 7)
        q, q1 = T.q, T.q - 1
        inv_q1 = pow(q1, -1, T.pN)
        table = [TowerElem.from_zp(T, G) for G in T.gauss_table()]
        tp = [TowerElem.from_w(T, t) for t in T.teich_pows()]
        z = TowerElem.zeta_p(T)
        F = T.field
        for a in range(q):
            rhs = TowerElem.zero(T)
            if a == 0:
                rhs = table[0].scale(inv_q1)  # only k=0 survives, chi(0)^0 = 1
            else:
                la = F.dlog(a)
                for k in range(q):
                    rhs = rhs + table[k].scale(inv_q1) * tp[(la * k) % q1]
            lhs = z ** F.trace(a)
            assert lhs == rhs, (p, r, a)


def test_gauss_norm_relation():
    # G(k) G(q-1-k) = teich(-1)^k q for 1 <= k <= q-2
    for p, r in FIELDS:
        T = tower(p, r, 7)
        table = [TowerElem.from_zp(T, G) for G in T.gauss_table()]
        F = T.field
        minus_one = TowerElem.from_w(T, T.teich(F.from_int(-1)))
        for k in range(1, T.q - 1):
            lhs = table[k] * table[T.q - 1 - k]
            rhs = (minus_one ** k).scale(T.q)
            assert lhs == rhs, (p, r, k)


def test_precision_stability():
    for p, r in [(3, 1), (2, 2), (5, 1)]:
        lo = tower(p, r, 5)
        hi = build_tower(build_field(p, r, 0), 7)
        for k in range(p ** r):
            assert TowerElem.from_zp(lo, hi.gauss_sums([k])[0]) == \
                TowerElem.from_zp(lo, lo.gauss_sums([k])[0])
        for a in range(p ** r):
            assert tuple(c % lo.pN for c in hi.teich(a)) == lo.teich(a)


def test_pi_valuation_examples():
    T = tower(3, 1, 6)
    v = pi_valuation(TowerElem.from_int(T, 3))
    assert v.ord_q == Fraction(1, 1) and v.exact
    vpi = pi_valuation(TowerElem.pi(T))
    assert vpi.ord_q == Fraction(1, 2)
    vz = pi_valuation(TowerElem.zero(T))
    assert not vz.exact

    T2 = tower(3, 2, 6)
    # ord_q(p) = 1/r
    assert pi_valuation(TowerElem.from_int(T2, 3)).ord_q == Fraction(1, 2)


def test_as_integer_certification():
    T = tower(5, 1, 4)
    assert TowerElem.from_int(T, 37).as_integer() == 37
    with pytest.raises(NonIntegralResult):
        TowerElem.pi(T).as_integer()


def _slot_integer(T, terms):
    """zp_integer of the (x, w) terms, or None where it refuses."""
    try:
        return T.zp_integer(terms)
    except NonIntegralResult:
        return None


def _as_integer(x):
    try:
        return x.as_integer()
    except NonIntegralResult:
        return None


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2), (2, 3), (7, 1)])
def test_slot_certification_agrees_with_as_integer(p, r):
    from dworkzeta.counting import _certified_count

    T = tower(p, r, 6)
    one = (1,) + (0,) * (r - 1)  # in W
    one_plus = TowerElem.zero(T)  # 1 + x + ... + x^(p-1) = 0 mod Phi_p
    for i in range(p):
        one_plus = one_plus + TowerElem.zeta_p(T) ** i
    ints = [TowerElem.from_int(T, n) for n in (0, 1, 37, T.pN - 1)]
    # not the 0-slot form
    ints.append(TowerElem.from_int(T, 12) + one_plus.scale(5))
    pi = TowerElem.pi(T)
    others = [pi, TowerElem.zeta_p(T), pi ** 2 + 3, one_plus + pi]
    for x in ints + others:
        assert _slot_integer(T, [(zp_coords(x), one)]) == _as_integer(x), x
    assert all(_as_integer(x) is not None for x in ints)
    # pi = -2 at p = 2
    assert (_as_integer(TowerElem.pi(T)) is None) == (p > 2)
    # a combination of terms, weighted
    weights = [3 * s + 1 for s in range(len(ints))]
    assert T.zp_integer([(zp_coords(x), (w,) + one[1:])
                         for x, w in zip(ints, weights)]) == \
        sum(w * x.as_integer() for x, w in zip(ints, weights)) % T.pN
    if r > 1:
        y = (0, 1) + one[2:]
        for x in (TowerElem.one(T), one_plus, one_plus + 4):
            # x y has a y^1 part; it is 0 mod Phi_p only for one_plus
            assert _slot_integer(T, [(zp_coords(x), y)]) == \
                _as_integer(x * TowerElem.from_w(T, y)), x
        assert _as_integer(TowerElem.from_w(T, y)) is None
        assert _as_integer(one_plus * TowerElem.from_w(T, y)) == 0
    q = T.q
    v = T.zp_integer([(zp_coords(TowerElem.from_int(T, q * 7)), one)])
    assert _certified_count(v, q, q * 7, "q * count") == 7
    with pytest.raises(NonIntegralResult, match="a-priori bound"):
        _certified_count(v, q, q * 7 - 1, "q * count")
    with pytest.raises(NonIntegralResult, match="not divisible"):
        _certified_count(v + 1, q, q * 8, "q * count")


@pytest.mark.parametrize("p,r,N", [(3, 1, 9), (5, 1, 19), (2, 2, 12),
                                   (3, 2, 7), (7, 1, 5)])
def test_zp_integer_worst_case_terms(p, r, N):
    # q-1 classes on each of 3 values of s, every x-coordinate p^N - 1 and
    # every coordinate of the twist p^N - 1, against the oracle ring: each
    # y^j part is 0 mod Phi_p.  With the x^0 coordinate alone p^N - 1, and
    # the twist's y^0 coordinate alone, the sum is a nonzero integer.
    T = TowerCtx(build_field(p, r, 0), N)
    top, classes = T.pN - 1, 3 * (T.q - 1)
    for x in ((top,) * p, (top,) + (0,) * (p - 1)):
        for w in ((top,) * r, (top,) + (0,) * (r - 1)):
            term = TowerElem.from_zp(T, x) * TowerElem.from_w(T, w)
            want = _as_integer(term.scale(classes))
            assert _slot_integer(T, [(x, w)] * classes) == want, (x, w)
    assert want == top * top * classes % T.pN != 0


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                                 (7, 2), (5, 3), (3, 8)])
@pytest.mark.parametrize("N", [1, 2, 5, 17])
def test_teich_y0_recurrence_matches_the_powers(p, r, N):
    source = GaussSource(build_field(p, r, 0), N)
    assert source.y0 == [t[0] for t in source.teich_pows]


@pytest.mark.parametrize("p,r", [(2, r) for r in range(1, 7)]
                         + [(3, r) for r in range(1, 7)]
                         + [(5, 2), (5, 3), (7, 2), (11, 2), (3, 8)])
def test_tower_traces_match_the_field_trace(p, r):
    # the source's traces t(j), read off its y^0 sequence, reduce mod p to
    # the Frobenius sum Tr(g^j) = a + a^p + ... + a^(p^(r-1)) in the field;
    # GF(2^r) and GF(3^r) have short Frobenius orbits, the elements of
    # proper subfields
    F = build_field(p, r, 0)
    want = [F.trace(F.gen_pow(j)) for j in range(F.pp.q - 1)]
    for N in (1, 4):
        assert [t % p for t in GaussSource(F, N).traces] == want, N


@pytest.mark.parametrize("p,r,N", [
    (2, 1, 8), (2, 2, 8), (2, 3, 8), (2, 4, 8), (2, 6, 8),
    (3, 1, 8), (3, 2, 8), (3, 3, 8), (3, 4, 8), (3, 6, 8),
    (5, 1, 8), (5, 2, 8), (5, 3, 8),
    (7, 1, 8), (7, 2, 8), (11, 1, 8), (11, 2, 8),
    (2, 5, 50),  # a source above two int digits
])
def test_fold_matches_the_direct_sum(p, r, N):
    # the trace-1 fold against the sum over every unit, at every interior
    # k: GF(2^4) and GF(3^6) have subfields whose trace-1 elements are
    # none (p | r/d), GF(p) a trace-1 set of {1}, p = 2 a one-term
    # teich(m) table
    padic._sources.cache_clear()
    T = TowerCtx(build_field(p, r, 0), N)
    q1 = T.q - 1
    assert T.gauss_sums(range(1, q1)) == gauss_sums_direct(T)


PURE_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8), (3, 2), (3, 3), (3, 4),
               (3, 6), (5, 2), (5, 3), (5, 4), (7, 2), (7, 4), (11, 2),
               (13, 2), (17, 2), (19, 2), (23, 2), (29, 2), (31, 2)]


@pytest.mark.parametrize("p,r,N", [(p, r, N) for p, r in PURE_FIELDS
                                   for N in (3, 8, 20)]
                         + [(2, 4, 50)])  # a source above one int digit
@pytest.mark.parametrize("seed", [0, 1])
def test_closed_form_matches_the_direct_sum(p, r, N, seed):
    # Stickelberger's pure sums against the sum over every unit, at every
    # interior c where the closed form fires; the cases include p = 2,
    # m = 2 (every odd p at even r), t = 2 (m = 5 over GF(2^4) and
    # GF(3^4)) and gamma = 2 (m = 3 over GF(2^4), m = 2 over GF(3^4)).
    # At even r the character of order 2 (of order 3 at p = 2) is pure; at
    # odd r no character is, 2t | r failing
    padic._sources.cache_clear()
    F = build_field(p, r, seed)
    T = TowerCtx(F, N)
    source = gauss_source(F, N)
    pure = [c for c in range(1, T.q - 1) if source._pure(c) is not None]
    want = gauss_sums_direct(T, pure)
    assert [tuple(v % T.pN for v in source._pure(c)) for c in pure] == want
    assert T.gauss_sums(pure) == want
    assert bool(pure) == (r % 2 == 0)


def _fresh_gauss_layer(p, N) -> dict:
    """What GF(p^3) at precision N reads from a source at N itself, with
    every cache emptied first: its Gauss table, its Teichmuller powers, its
    `gauss` dump and the rows of `congruence --k 3` at n = (N - 7) / 3,
    whose tower over GF(p^3) has that precision (N = 13, 16, 19 for
    n = 2, 3, 4)."""
    F = build_field(p, 3, 0)
    counting._family_sums.cache_clear()
    build_tower.cache_clear()
    padic._sources.cache_clear()
    padic._sources(F)[0] = GaussSource(F, N)
    T = TowerCtx(F, N)
    return {"sums": T.gauss_table(), "teich": T.teich_pows(),
            **_gauss_commands(p, N)}


def _gauss_commands(p, N) -> dict:
    out = {}
    for name, argv in (
            ("dump", ["gauss", "--p", p, "--r", 3, "--N", N]),
            ("rows", ["congruence", "--n", (N - 7) // 3, "--p", p,
                      "--lambda", "all", "--k", 3])):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([str(a) for a in argv]) == 0
        out[name] = buf.getvalue()
    return out


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("order", [(13, 16, 19), (19, 16, 13),
                                   (16, 13, 19)],
                         ids=["ascending", "descending", "interleaved"])
def test_gauss_layer_does_not_depend_on_request_order(p, order):
    # one process asks for GF(p^3) at N = 13, 16 and 19: GF(125) takes all
    # three from one source at N = 25, GF(27) replaces its N = 18 source by
    # one at N = 37 when 3^19 needs a second digit
    fresh = {N: _fresh_gauss_layer(p, N) for N in order}
    counting._family_sums.cache_clear()
    build_tower.cache_clear()
    padic._sources.cache_clear()
    F = build_field(p, 3, 0)
    for N in order:
        T = TowerCtx(F, N)
        got = {"sums": T.gauss_table(), "teich": T.teich_pows(),
               **_gauss_commands(p, N)}
        assert got == fresh[N], N
    assert gauss_source(F, 13).N == {3: 37, 5: 25}[p]


def test_threads_racing_on_one_source_read_the_fresh_sums():
    # threads that read one model's source and replace it by higher ones
    # (3^19 and 3^40 need a second and a third 30-bit digit): every tower
    # still reads what a tower on a source at its own precision reads
    F = build_field(3, 3, 0)
    Ns = (5, 13, 19, 30, 40) * 8
    want = {}
    for N in set(Ns):
        padic._sources.cache_clear()
        padic._sources(F)[0] = GaussSource(F, N)
        want[N] = TowerCtx(F, N).gauss_table()
    padic._sources.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda N: TowerCtx(F, N).gauss_table(), N)
                       for N in Ns]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[N] for N in Ns]
    assert gauss_source(F, 1).N == 56


def test_digit_sum():
    from dworkzeta.ff import PrimePower

    pp = PrimePower(5, 2)
    assert digit_sum(0, pp) == 0
    assert digit_sum(24, pp) == 8  # q-1 = 24 = (4,4), r(p-1) = 8
    assert digit_sum(13, pp) == 5  # 13 = 3 + 2*5


rows_strategy = st.integers(min_value=0, max_value=3 ** 6 - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(rows_strategy, min_size=4, max_size=4),
       st.lists(rows_strategy, min_size=4, max_size=4),
       st.lists(rows_strategy, min_size=4, max_size=4))
def test_ring_axioms_random_triples(xs, ys, zs):
    T = tower(3, 2, 6)

    def make(vals):
        return TowerElem.from_w(T, (vals[0], vals[1])) + \
            TowerElem.pi(T) * TowerElem.from_w(T, (vals[2], vals[3]))

    x, y, z = make(xs), make(ys), make(zs)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z


# (2, 3) is already in FIELDS
ORACLE_FIELDS = FIELDS + [(11, 1), (13, 1), (5, 2)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_mul_matches_pi_basis_oracle(data):
    p, r = data.draw(st.sampled_from(ORACLE_FIELDS))
    T = tower(p, r, 6)
    elems = st.lists(st.integers(min_value=0, max_value=T.pN - 1),
                     min_size=p * r, max_size=p * r).map(
        lambda c: TowerElem(T, tuple(c)))
    a, b = data.draw(elems), data.draw(elems)
    assert (a * b).rows == _oracle_mul(T, a.rows, b.rows)
