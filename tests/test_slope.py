from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dworkzeta.counting import DworkInstance
from dworkzeta.errors import DimensionMismatch
from dworkzeta.ff import build_field
from dworkzeta.slope import (
    HodgeData,
    SlopeZeta,
    hodge_numbers_dwork,
    hodge_polygon,
    newton_above_hodge,
    newton_polygon,
    ordinarity_test,
    ordinary_slope_zeta,
    slope_fe_check,
    slope_zeta,
)
from dworkzeta.zeta import IntPoly, ZetaData, recover_mirror_zeta, trivial_factors


F = Fraction


def test_newton_polygon_examples():
    # 1 - 4T + 4T^2 over GF(4): heights v_2/2, hull (0,0)-(2,1): slope 1/2
    np_ = newton_polygon(IntPoly([1, -4, 4]), 2, 2)
    assert np_.segments == ((F(1, 2), 2),)
    # ordinary elliptic: slopes 0 and 1
    np2 = newton_polygon(IntPoly([1, -3, 7]), 7, 1)
    assert np2.segments == ((F(0), 1), (F(1), 1))
    # 1 - T: single slope 0
    assert newton_polygon(IntPoly([1, -1]), 5, 1).segments == ((F(0), 1),)
    # zero coefficients are skipped: 1 + 125 T^3 over GF(5)
    np3 = newton_polygon(IntPoly([1, 0, 0, 125]), 5, 1)
    assert np3.segments == ((F(1), 3),)
    # the degree-21 n = 3 shape Q * (1-5T)^9 (1+5T)^9: slopes {0:1, 1:19, 2:1}
    P = IntPoly([1, 1, -5, -125])
    for _ in range(9):
        P = P * IntPoly([1, -5]) * IntPoly([1, 5])
    assert newton_polygon(P, 5, 1).segments == ((F(0), 1), (F(1), 19), (F(2), 1))


def test_newton_polygon_height_interpolation():
    np_ = newton_polygon(IntPoly([1, 1, -5, -125]), 5, 1)
    assert np_.segments == ((F(0), 1), (F(1), 1), (F(2), 1))
    assert np_.height_at(2) == 1
    assert np_.height_at(3) == 3
    assert np_.height_at(F(5, 2)) == 2


def test_slope_zeta_elliptic_cancellation():
    # ordinary elliptic curve: numerator slopes {0,1} cancel the trivial part
    zd = ZetaData(variety="X", n=2, p=7, r=1, q=7, lam_dlog=None,
                  numerator=IntPoly([1, -3, 7]), numerator_exponent=1,
                  trivial=trivial_factors("X", 2))
    assert slope_zeta(zd).is_one


def test_slope_zeta_supersingular():
    zd = ZetaData(variety="X", n=2, p=2, r=2, q=4, lam_dlog=None,
                  numerator=IntPoly([1, 4, 4]), numerator_exponent=1,
                  trivial=trivial_factors("X", 2))
    S = slope_zeta(zd)
    assert S.terms == {F(1, 2): 2, F(0): -1, F(1): -1}
    assert slope_fe_check(S, 1, 0)
    assert S.render() == "(1-T)^-1 (1-u^(1/2)T)^2 (1-uT)^-1"


def test_slope_zeta_k3_mirror_mechanical_value():
    # n=3, q=5, lam=0: ordinary Q = 1 + T - 5T^2 - 125T^3, all factors are
    # poles, so the reduced slope zeta is (1-T)^-2 (1-uT)^-2 (1-u^2T)^-2
    F5 = build_field(5, 1, 0)
    zd = recover_mirror_zeta(DworkInstance(n=3, field=F5, lam=0))
    S = slope_zeta(zd)
    assert S.terms == {F(0): -2, F(1): -2, F(2): -2}
    assert slope_fe_check(S, 2, 6)


def test_slope_fe_check_examples():
    k3 = SlopeZeta({F(0): -2, F(1): -20, F(2): -2})
    assert slope_fe_check(k3, 2, 24)
    assert slope_fe_check(SlopeZeta({}), 3, 0)
    assert not slope_fe_check(SlopeZeta({F(0): -1, F(1): -3}), 1)
    assert not slope_fe_check(k3, 2, 10)  # wrong Euler characteristic


def test_slope_zeta_algebra_and_json():
    a = SlopeZeta({F(0): 1, F(1, 2): 2})
    b = SlopeZeta({F(0): -1, F(1): 5})
    assert (a * b).terms == {F(1, 2): 2, F(1): 5}
    assert (a * a ** -1).is_one
    assert (a ** 3).terms == {F(0): 3, F(1, 2): 6}
    d = (a * b).to_json_dict()
    assert d == {"1/2": 2, "1/1": 5}


def test_hodge_numbers_quintic():
    hd = hodge_numbers_dwork(4)
    assert hd.d == 3
    assert hd.h[2][1] == 101 and hd.h[1][2] == 101
    assert hd.h[0][3] == 1 and hd.h[0][0] == 1
    assert hd.euler == -200
    assert hd.e_vector == (0, 100, 100, 0)
    assert all(isinstance(e, int) for e in hd.e_vector)


def test_hodge_numbers_k3_and_curve():
    k3 = hodge_numbers_dwork(3)
    assert k3.h[1][1] == 20 and k3.h[0][2] == 1
    assert k3.euler == 24
    assert k3.e_vector == (-2, -20, -2)
    assert k3.middle_row() == ((0, 1), (1, 20), (2, 1))
    assert k3.middle_row(primitive=True) == ((0, 1), (1, 19), (2, 1))

    curve = hodge_numbers_dwork(2)
    assert curve.h[1][0] == 1  # genus one
    assert curve.euler == 0


def test_ordinary_slope_zeta_displays():
    quintic = ordinary_slope_zeta(hodge_numbers_dwork(4))
    assert quintic.terms == {F(1): 100, F(2): 100}
    k3 = ordinary_slope_zeta(hodge_numbers_dwork(3))
    assert k3.terms == {F(0): -2, F(1): -20, F(2): -2}
    assert slope_fe_check(quintic, 3, -200)
    assert slope_fe_check(k3, 2, 24)


def test_mirror_symmetry_of_ordinary_forms():
    # e_j(Y) = (-1)^d e_j(X) under the Hodge flip: S_p(X) = S_p(Y)^{(-1)^d}
    for n in (3, 4, 5):
        hd = hodge_numbers_dwork(n)
        d = hd.d
        flipped = HodgeData(d=d, h=tuple(
            tuple(hd.h[d - i][j] for j in range(d + 1)) for i in range(d + 1)))
        sx = ordinary_slope_zeta(hd)
        sy = ordinary_slope_zeta(flipped)
        assert sx == sy ** ((-1) ** d)


def test_ordinarity_and_newton_above_hodge():
    ordinary = newton_polygon(IntPoly([1, -3, 7]), 7, 1)
    assert ordinarity_test(ordinary, [(0, 1), (1, 1)])
    ss = newton_polygon(IntPoly([1, 4, 4]), 2, 2)
    assert not ordinarity_test(ss, [(0, 1), (1, 1)])
    assert newton_above_hodge(ss, [(0, 1), (1, 1)])
    assert newton_above_hodge(ordinary, [(0, 1), (1, 1)])
    with pytest.raises(DimensionMismatch):
        ordinarity_test(ordinary, [(0, 1), (1, 1), (2, 1)])
    # K3 mirror numerator at q=5, lam=0 is ordinary for its (1,1,1) row
    np_q = newton_polygon(IntPoly([1, 1, -5, -125]), 5, 1)
    assert ordinarity_test(np_q, [(0, 1), (1, 1), (2, 1)])


def test_hodge_polygon_shape():
    hp = hodge_polygon([(0, 1), (1, 19), (2, 1)])
    assert hp.vertices == ((0, F(0)), (1, F(0)), (20, F(19)), (21, F(21)))


def test_fractional_separation_raises():
    # two adjacent fractional slopes with no integer in between
    P = IntPoly([1, 0, 0, 5, 0, 0, 125])  # hull (0,0)-(3,1)-(6,3)
    np_ = newton_polygon(P, 5, 1)
    assert np_.segments == ((F(1, 3), 3), (F(2, 3), 3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3),
                          st.integers(0, 3), st.integers(0, 3), st.booleans()),
                min_size=1, max_size=5))
def test_newton_polygon_of_products(p, factors):
    # a factor (1 - p^a u T^m), u a unit, is one segment of slope a/m and
    # length m; the Newton polygon of a product is the Minkowski sum of the
    # factors' polygons: their segments merged and sorted by slope
    P = IntPoly([1])
    lengths: dict = {}
    for a, m, u, t, neg in factors:
        unit = (u * p + 1 + t % (p - 1)) * (-1 if neg else 1)
        P = P * IntPoly([1] + [0] * (m - 1) + [-p ** a * unit])
        lengths[F(a, m)] = lengths.get(F(a, m), 0) + m
    for r in (1, 2):
        want = tuple((s / r, ln) for s, ln in sorted(lengths.items()))
        assert newton_polygon(P, p, r).segments == want


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.fractions(min_value=0, max_value=3),
                       st.integers(-5, 5), max_size=5),
       st.integers(1, 4))
def test_symmetrized_slope_zeta_satisfies_fe(terms, d):
    S = SlopeZeta(terms)
    sym = S * SlopeZeta({Fraction(d) - s: m for s, m in S.terms.items()})
    assert slope_fe_check(sym, d)
