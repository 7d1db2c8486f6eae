import pytest
from hypothesis import given, settings, strategies as st

from dworkzeta.counting import DworkInstance, count_brute, count_X
from dworkzeta.errors import (
    InsufficientData,
    NoConsistentSign,
    NonIntegralCoefficient,
    NotDivisible,
    SubstitutionNotIntegral,
)
from dworkzeta.ff import build_field
from dworkzeta.zeta import (
    IntPoly,
    ZetaData,
    coeffs_from_power_sums,
    counts_budget,
    divide_check,
    expected_degree_P,
    numerator_exponent,
    power_sums_from_counts,
    r_poly,
    recover_mirror_zeta,
    recover_numerator,
    recover_pencil_zeta,
    square_free_part,
    trivial_factors,
    weight_purity_check,
    weil_bound_ok,
    zeta_from_counts,
)


def test_expected_degree_P():
    assert expected_degree_P(2) == 2
    assert expected_degree_P(3) == 21
    assert expected_degree_P(4) == 204


def test_intpoly_basics():
    with pytest.raises(ValueError):
        IntPoly([2, 1])
    P = IntPoly([1, -4, 4])
    assert P.degree == 2
    Q = IntPoly([1, 1])
    assert (P * Q).coeffs == (1, -3, 0, 4)
    assert P.scale_variable(2).coeffs == (1, -8, 16)


def test_power_sums_elliptic():
    # 1 - aT + qT^2: s_1 = a, s_2 = a^2 - 2q, s_3 = a^3 - 3aq
    a, q = -4, 4
    P = IntPoly([1, -a, q])
    assert P.power_sums(3) == [a, a * a - 2 * q, a ** 3 - 3 * a * q]


def test_trivial_factors_shapes():
    assert trivial_factors("X", 2) == ((0, -1), (1, -1))
    assert trivial_factors("Y", 3) == ((0, -1), (1, -1), (2, -1))
    assert numerator_exponent(2) == 1 and numerator_exponent(3) == -1


def test_power_sums_from_counts_fermat_cubic():
    # #X(F_4) = 9 for the Fermat cubic; trivial part 1 + q; numerator in the
    # numerator for even n, so s_1 = -(9 - 5) = -4
    assert power_sums_from_counts([9], "X", 2, 4) == [-4]


def test_coeffs_from_power_sums_and_non_integral():
    assert coeffs_from_power_sums([-4, 8], 2) == [1, 4, 4]
    with pytest.raises(NonIntegralCoefficient):
        coeffs_from_power_sums([1, 2], 2)  # a_2 = -(2 + 1)/2 not integral
    with pytest.raises(InsufficientData):
        coeffs_from_power_sums([1], 2)


def test_recover_fermat_cubic_numerator_both_ways():
    F4 = build_field(2, 2, 0)
    inst = DworkInstance(n=2, field=F4, lam=0)
    counts = []
    for k in (1, 2):
        nf = count_brute(inst, inst.M, k, torus=False)
        counts.append(count_X(nf, 4 ** k))
    assert counts[0] == 9
    psums = power_sums_from_counts(counts, "X", 2, 4)
    full, _ = recover_numerator(psums, 2, 1, 4)
    assert full.coeffs == (1, 4, 4)  # P = (1 + 2T)^2, roots of modulus 2
    via_fe, sign = recover_numerator(psums[:1], 2, 1, 4)
    assert via_fe == full and sign == 1


def test_recover_numerator_synthetic_degree4_fe():
    q, w = 7, 1
    P = IntPoly([1, -1, 7]) * IntPoly([1, 3, 7])
    psums = P.power_sums(2)
    got, sign = recover_numerator(psums, 4, w, q)
    assert got == P
    assert sign == 1


def test_recover_numerator_no_consistent_sign():
    # s_1 = 5 forces |a_1| = 5 > 2*sqrt(4)*C(2,1): no Weil-pure candidate
    with pytest.raises(NoConsistentSign):
        recover_numerator([5], 2, 1, 4)


_NO_SIGN = "no functional-equation sign yields an integral, pure numerator"
_AMBIGUOUS = "both functional-equation signs yield valid numerators; ambiguous"


@pytest.mark.parametrize("psums,degree,weight,q,outcome", [
    # a_1 = +-sqrt(5) is not an integer
    ([], 1, 1, 5, NoConsistentSign(_NO_SIGN)),
    # 1 - 2T and 1 + 2T both have the root modulus 1/2
    ([], 1, 1, 4, NoConsistentSign(_AMBIGUOUS)),
    # even degree, zero middle coefficient: 1 + 5T^2 and 1 - 5T^2
    ([0], 2, 1, 5, NoConsistentSign(_AMBIGUOUS)),
    # the middle coefficient -2 is its own partner, so only sign +1
    ([2], 2, 1, 5, (IntPoly([1, -2, 5]), 1)),
])
def test_recover_numerator_fe_outcomes(psums, degree, weight, q, outcome):
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome)) as exc:
            recover_numerator(psums, degree, weight, q)
        assert str(exc.value) == str(outcome)
    else:
        assert recover_numerator(psums, degree, weight, q) == outcome


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=6),
       st.lists(st.integers(-9, 9), max_size=6))
def test_newton_identities_roundtrip_random(cs, other):
    P, Q = IntPoly([1] + cs), IntPoly([1] + other)
    for m in range(max(P.degree, 1), P.degree + 4):
        s = P.power_sums(m)
        assert coeffs_from_power_sums(s, P.degree) == list(P.coeffs)
        assert s[:-1] == P.power_sums(m - 1)
        # power sums add over a product of polynomials
        assert (P * Q).power_sums(m) == [
            a + b for a, b in zip(s, Q.power_sums(m))]


def test_recover_numerator_insufficient():
    # the functional equation needs floor(degree/2) power sums
    with pytest.raises(InsufficientData):
        recover_numerator([1], 4, 1, 7)
    with pytest.raises(InsufficientData):
        recover_numerator([], 3, 1, 7)


def test_weight_purity_check():
    assert weight_purity_check(IntPoly([1, -4, 4]), 4, 1).passed
    rep = weight_purity_check(IntPoly([1, -1]), 4, 1)
    assert not rep.passed and rep.max_deviation > 0.4
    assert weight_purity_check(IntPoly([1]), 4, 1).passed  # vacuous


def _sympy_sqf_part(P):
    from sympy import Poly, symbols

    cs = Poly(list(reversed(P.coeffs)), symbols("T")).sqf_part().all_coeffs()
    cs = [int(c) for c in reversed(cs)]
    return IntPoly(cs if cs[0] == 1 else [-c for c in cs])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-5, 5), min_size=1, max_size=3),
                          st.integers(1, 3)),
                min_size=1, max_size=5))
def test_square_free_part_matches_sympy(factors):
    P = IntPoly([1])
    for cs, mult in factors:
        for _ in range(mult):
            P = P * IntPoly([1] + cs)
    assert square_free_part(P) == _sympy_sqf_part(P)


def test_square_free_part_degree21_shape():
    Q = IntPoly([1, 1, -5, -125])
    P = Q
    for _ in range(9):
        P = P * IntPoly([1, -5]) * IntPoly([1, 5])
    # Q = (1 - 5T)(1 + 6T + 25T^2) shares the factor 1 - 5T
    want = IntPoly([1, 6, 25]) * IntPoly([1, 0, -25])
    assert square_free_part(P) == _sympy_sqf_part(P) == want


def test_weil_bound():
    assert weil_bound_ok((1, 4, 4), 4, 1)
    assert not weil_bound_ok((1, 5, 4), 4, 1)  # |a_1| > 2*sqrt(4)


def test_divide_check_and_r_poly():
    Q = IntPoly([1, 1, -5, -125])  # mirror numerator at n=3, q=5, lam=0
    # R_n candidates have roots +-1; build R = (1-T)^2 (1+T)
    R = IntPoly([1, -1]) * IntPoly([1, -1]) * IntPoly([1, 1])
    P = Q * R.scale_variable(5)
    got = divide_check(P, Q)
    assert got == R.scale_variable(5)
    with pytest.raises(NotDivisible):
        divide_check(IntPoly([1, 1, 1]), IntPoly([1, 3]))
    with pytest.raises(SubstitutionNotIntegral):
        r_poly(Q * IntPoly([1, 3]), Q, 5, 2)  # quotient 1 + 3T, 3 not div by 5


def test_r_poly_full_degree_identity():
    # realistic shape for n = 3: deg R = 21 - 3 = 18 with roots +-1
    Q = IntPoly([1, 1, -5, -125])
    R = IntPoly([1])
    for _ in range(9):
        R = R * IntPoly([1, -1]) * IntPoly([1, 1])
    assert R.degree == 18
    P = Q * R.scale_variable(5)
    assert P.degree == 21
    got = r_poly(P, Q, 5, 3)
    assert got == R
    rep = weight_purity_check(got, 5, 0)
    assert rep.passed  # weight 0: all roots on the unit circle


def test_zeta_data_count_roundtrip_and_json():
    zd = ZetaData(variety="X", n=2, p=4, r=1, q=4, lam_dlog=None,
                  numerator=IntPoly([1, 4, 4]), numerator_exponent=1,
                  trivial=trivial_factors("X", 2))
    # #X(F_{4^k}) = 1 + 4^k - s_k
    assert zd.count(1) == 9
    assert zd.count(2) == 9
    assert zd.count(3) == 1 + 64 + 16
    d = zd.to_json_dict()
    assert d["numerator_coeffs"] == ["1", "4", "4"]
    assert d["trivial_factors"] == [[0, -1], [1, -1]]


def test_zeta_from_counts_rejects_wrong_shape():
    with pytest.raises(NonIntegralCoefficient):
        # counts of the Fermat cubic fed with the wrong degree/extra data
        zeta_from_counts("X", [9, 9, 100], 2, 2, 2, 4, None, 2, 1)


def test_recover_mirror_zeta_frozen_value():
    # n=3, q=5, lam=0: brute-force torus counts gave #Y = 30, 662, 16110 and
    # the Weil-pure numerator 1 + T - 5T^2 - 125T^3 (weight 2)
    F5 = build_field(5, 1, 0)
    inst = DworkInstance(n=3, field=F5, lam=0)
    zd = recover_mirror_zeta(inst)
    assert zd.numerator.coeffs == (1, 1, -5, -125)
    assert zd.count(1) == 30 and zd.count(2) == 662 and zd.count(3) == 16110
    assert weight_purity_check(zd.numerator, 5, 2).passed


def test_recover_mirror_zeta_via_fe_from_two_counts():
    # degree-3 Q from k = 1, 2 plus the functional equation, then validate
    # against the k = 3 count
    F5 = build_field(5, 1, 0)
    inst = DworkInstance(n=3, field=F5, lam=0)
    full = recover_mirror_zeta(inst, k_budget=3)
    via_fe = recover_mirror_zeta(inst, k_budget=2)
    assert via_fe.numerator == full.numerator
    assert via_fe.count(3) == 16110


def test_pencil_mirror_congruence_high_extensions():
    # Fermat quartic over F_5: #X from the character sum engine at k = 4
    # stays congruent to #Y predicted by the recovered mirror numerator
    from dworkzeta.counting import charsum_count, count_X

    F5 = build_field(5, 1, 0)
    inst = DworkInstance(n=3, field=F5, lam=0)
    frozen_x = {1: 0, 2: 1112, 3: 15360, 4: 402072}
    for k in (1, 2):  # brute cross-check where cheap
        nf = count_brute(inst, inst.M, k, torus=False)
        assert count_X(nf, 5 ** k) == frozen_x[k]
    zy = recover_mirror_zeta(inst)
    for k, x in frozen_x.items():
        nf = charsum_count(inst, inst.M, k, torus=False)
        assert count_X(nf, 5 ** k) == x
        assert (x - zy.count(k)) % 5 ** k == 0


def test_recover_mirror_zeta_over_gf9():
    # non-prime base field: towers over GF(9^k); frozen values cross-checked
    # against brute-force torus counts at k = 1
    from dworkzeta.counting import count_brute, count_Y
    from dworkzeta.slope import newton_polygon, ordinarity_test

    F9 = build_field(3, 2, 0)
    super_singular = DworkInstance(n=3, field=F9, lam=0)
    zy0 = recover_mirror_zeta(super_singular)
    assert zy0.numerator.coeffs == (1, -27, 243, -729)
    np0 = newton_polygon(zy0.numerator, 3, 2)
    assert np0.segments == ((1, 3),)  # all slopes 1: not ordinary

    generic = DworkInstance(n=3, field=F9, lam=4)
    zy = recover_mirror_zeta(generic)
    assert zy.numerator.coeffs == (1, -7, 63, -729)
    assert ordinarity_test(newton_polygon(zy.numerator, 3, 2),
                           [(0, 1), (1, 1), (2, 1)])
    for inst, zd in ((super_singular, zy0), (generic, zy)):
        ng = count_brute(inst, inst.Nmat)
        assert zd.count(1) == count_Y(ng, 3, 9)


def test_recover_pencil_matches_mirror_for_n2():
    # R_2 = 1: the cubic curve and its mirror share the numerator exactly
    F7 = build_field(7, 1, 0)
    for lam in (0, 3, 5):  # smooth members over F_7
        inst = DworkInstance(n=2, field=F7, lam=lam)
        zx = recover_pencil_zeta(inst)
        zy = recover_mirror_zeta(inst)
        assert zx.numerator == zy.numerator
        assert r_poly(zx.numerator, zy.numerator, 7, 2) == IntPoly([1])
        for k in (1, 2):
            assert (zx.count(k) - zy.count(k)) % 7 ** k == 0


def test_recovered_zeta_model_independent():
    for seed in (0, 5):
        F = build_field(7, 1, seed)
        inst = DworkInstance(n=2, field=F, lam=3)
        zx = recover_pencil_zeta(inst)
        assert zx.numerator == recover_pencil_zeta(
            DworkInstance(n=2, field=build_field(7, 1, 0), lam=3)).numerator


def test_counts_budget():
    assert counts_budget(2) == 2
    assert counts_budget(3) == 3
    assert counts_budget(21) == 12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_divide_roundtrip_random(qs, rs):
    Q = IntPoly([1] + qs)
    R = IntPoly([1] + rs)
    assert divide_check(Q * R, Q) == R
