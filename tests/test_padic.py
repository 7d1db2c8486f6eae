from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dworkzeta.errors import NonIntegralResult
from dworkzeta.ff import FieldCtx, build_field
from dworkzeta.padic import (
    TowerCtx,
    TowerElem,
    build_tower,
    digit_sum,
    pi_valuation,
)

FIELDS = [(2, 2), (3, 1), (3, 2), (5, 1), (7, 1), (2, 3)]


def tower(p, r, N=8):
    return build_tower(build_field(p, r, 0), N)


def truncate(x, ctx):
    """x reduced into a lower-precision tower over the same field."""
    return TowerElem(ctx, tuple(c % ctx.pN for c in x.c))


def eisenstein_at_pi(T):
    """E(pi) for E = ((1+pi)^p - 1)/pi = sum_i binom(p, i+1) pi^i."""
    pi = T.pi()
    return sum((pi ** i).scale(comb(T.p, i + 1)) for i in range(T.p))


def _oracle_mul(T, a, b):
    """The pi-basis product of two row arrays: schoolbook products in W,
    reduced by the lifted field modulus, then pi-degrees >= p-1 reduced by
    the Eisenstein polynomial."""
    p, r, pN, mod = T.p, T.r, T.pN, T.unramified_modulus
    d = p - 1
    eis = [comb(p, i + 1) for i in range(p)]

    def w_mul(u, v):
        out = [0] * (2 * r - 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                out[i + j] += ui * vj
        for i in range(2 * r - 2, r - 1, -1):  # y^r = -sum_{j<r} m_j y^j
            for j in range(r):
                out[i - r + j] -= out[i] * mod[j]
        return out[:r]

    out = [[0] * r for _ in range(2 * d - 1)]
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            for t, v in enumerate(w_mul(ra, rb)):
                out[i + j][t] += v
    for i in range(2 * d - 2, d - 1, -1):  # pi^d = -sum_{j<d} E_j pi^j
        for j in range(d):
            for t in range(r):
                out[i - d + j][t] -= eis[j] * out[i][t]
    return tuple(tuple(v % pN for v in row) for row in out[:d])


def test_build_tower_gf2_trivial_ramification():
    T = tower(2, 1, 8)
    assert eisenstein_at_pi(T) == T.zero()  # pi + 2 = 0
    assert T.pi() == T.from_int(-2)
    assert T.zeta_p() == T.from_int(-1)
    assert len(T.zero().rows) == 1


def test_build_tower_gf3_eisenstein():
    T = tower(3, 1, 5)
    # ((1+pi)^3 - 1)/pi = pi^2 + 3 pi + 3
    pi = T.pi()
    assert pi * pi + pi.scale(3) + T.from_int(3) == T.zero()
    assert eisenstein_at_pi(T) == T.zero()


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


def test_build_tower_gf9_shape():
    T = tower(3, 2, 4)
    assert len(T.zero().rows) == 2
    assert all(len(row) == 2 for row in T.zero().rows)


def test_eisenstein_constant_term_is_p():
    # pi is a root of E, whose constant term p has the valuation of pi^{p-1}
    for p, r in FIELDS + [(11, 1), (13, 1)]:
        T = tower(p, r, 4)
        assert eisenstein_at_pi(T) == T.zero()
        assert pi_valuation(T.from_int(p)).numerator == p - 1
        assert pi_valuation(T.pi() ** (p - 1)).numerator == p - 1


def test_zeta_p_is_pth_root_of_unity():
    for p, r in FIELDS:
        T = tower(p, r, 6)
        z = T.zeta_p()
        assert z ** p == T.one()
        if p > 2:
            assert z != T.one()


def test_teich_basics():
    T = tower(3, 2, 6)
    assert T.teich(0) == T.zero()
    assert T.teich(1) == T.one()
    q = 9
    for a in range(1, q):
        t = T.teich(a)
        assert t ** (q - 1) == T.one()
        # reduction mod p recovers the field element's coefficient vector
        assert tuple(c % 3 for c in t.rows[0]) == T.field.coeffs(a)


def test_teich_cube_roots_sum_to_zero():
    T = tower(2, 2, 5)
    F = T.field
    w = F.generator
    w2 = F.mul(w, w)
    assert T.teich(w) + T.teich(w2) + T.one() == T.zero()


def test_teich_multiplicative_gf7_exhaustive():
    T = tower(7, 1, 5)
    F = T.field
    for a in range(1, 7):
        for b in range(1, 7):
            assert T.teich(a) * T.teich(b) == T.teich(F.mul(a, b))


def test_additive_character_orthogonality():
    for p, r in FIELDS:
        T = tower(p, r, 6)
        z = T.zeta_p()
        total = T.zero()
        for a in range(T.q):
            total = total + z ** T.field.trace(a)
        assert total == T.zero()


def test_gauss_sum_boundary_conventions():
    for p, r in FIELDS:
        T = tower(p, r, 6)
        G0, Gq1 = T.gauss_sums([0, T.q - 1])
        assert G0 == T.from_int(T.q - 1)
        assert Gq1 == T.from_int(-T.q)
        with pytest.raises(ValueError):
            T.gauss_sums([T.q])


def test_gauss_sum_gf4_k1_is_two():
    T = tower(2, 2, 5)
    assert T.gauss_sums([1]) == [T.from_int(2)]


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
        assert table[k].rows == truncate(fresh.gauss_sums([k])[0], T).rows


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
            v = pi_valuation(table[k])
            assert v.exact
            assert v.numerator == digit_sum(k, T.pp), (p, r, k)


def test_interpolation_identity_exhaustive():
    # zeta_p^{Tr(a)} = sum_k G(k)/(q-1) chi(a)^k for every a, exactly at any N,
    # on fields up to q = 64
    for p, r in FIELDS + [(2, 5), (2, 6), (3, 3), (5, 2)]:
        T = tower(p, r, 7)
        q, q1 = T.q, T.q - 1
        inv_q1 = pow(q1, -1, T.pN)
        table = T.gauss_table()
        tp = T.teich_pows()
        z = T.zeta_p()
        F = T.field
        for a in range(q):
            rhs = T.zero()
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
        table = T.gauss_table()
        F = T.field
        minus_one = T.teich(F.neg(1))
        for k in range(1, T.q - 1):
            lhs = table[k] * table[T.q - 1 - k]
            rhs = (minus_one ** k).scale(T.q)
            assert lhs == rhs, (p, r, k)


def test_precision_stability():
    for p, r in [(3, 1), (2, 2), (5, 1)]:
        lo = tower(p, r, 5)
        hi = build_tower(build_field(p, r, 0), 7)
        for k in range(p ** r):
            assert truncate(hi.gauss_sums([k])[0], lo) == \
                lo.gauss_sums([k])[0]
        for a in range(p ** r):
            assert truncate(hi.teich(a), lo) == lo.teich(a)


def test_pi_valuation_examples():
    T = tower(3, 1, 6)
    v = pi_valuation(T.from_int(3))
    assert v.ord_q == Fraction(1, 1) and v.exact
    vpi = pi_valuation(T.pi())
    assert vpi.ord_q == Fraction(1, 2)
    vz = pi_valuation(T.zero())
    assert not vz.exact

    T2 = tower(3, 2, 6)
    assert pi_valuation(T2.from_int(3)).ord_q == Fraction(1, 2)  # ord_q(p) = 1/r


def test_as_integer_certification():
    T = tower(5, 1, 4)
    assert T.from_int(37).as_integer() == 37
    assert T.from_int(-3).as_integer(centered=True) == -3
    with pytest.raises(NonIntegralResult):
        T.pi().as_integer()


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
        return T.from_w((vals[0], vals[1])) + \
            T.pi() * T.from_w((vals[2], vals[3]))

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
