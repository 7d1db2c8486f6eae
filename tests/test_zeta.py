from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from dworkzeta.counting import (
    DworkInstance,
    count_brute,
    count_record,
    count_X,
    is_singular,
)
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
    _mul,
    _primitive,
    _sign_changes,
    _sturm_sequence,
    coeffs_from_power_sums,
    counts_budget,
    divide_check,
    expected_degree_P,
    is_weil_pure,
    numerator_exponent,
    power_sums_from_counts,
    r_poly,
    recover_mirror_zeta,
    recover_numerator,
    recover_pencil_zeta,
    trivial_factors,
    weil_bound_ok,
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
    assert is_weil_pure(IntPoly([1, -4, 4]), 4, 1)
    assert not is_weil_pure(IntPoly([1, -1]), 4, 1)
    assert is_weil_pure(IntPoly([1]), 4, 1)  # vacuous


def _sympy_poly(P):
    from sympy import Poly, symbols

    return Poly(list(reversed(P.coeffs)), symbols("T"))


def _sympy_sqf_part(P):
    cs = [int(c) for c in reversed(_sympy_poly(P).sqf_part().all_coeffs())]
    return IntPoly(cs if cs[0] == 1 else [-c for c in cs])


def _square_free_part(P):
    """P / gcd(P, P'), the gcd read off the end of the remainder sequence
    and checked against sympy's.  It is primitive and divides P, so by
    Gauss's lemma its constant term divides P(0) = 1."""
    g = _primitive(_sturm_sequence(list(P.coeffs))[-1])
    want = _sympy_poly(P).gcd(_sympy_poly(P).diff()).all_coeffs()
    assert g == [int(c) * (1 if g[-1] > 0 else -1) for c in reversed(want)]
    return divide_check(P, IntPoly(g if g[0] == 1 else [-c for c in g]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-5, 5), min_size=1, max_size=3),
                          st.integers(1, 3)),
                min_size=1, max_size=5))
def test_square_free_part_matches_sympy(factors):
    P = IntPoly([1])
    for cs, mult in factors:
        for _ in range(mult):
            P = P * IntPoly([1] + cs)
    assert _square_free_part(P) == _sympy_sqf_part(P)


def _degree21_P():
    """Criterion 8's P at n = 3, q = 5, lam = 0: Q R_3(5T)."""
    P = IntPoly([1, 1, -5, -125])
    for _ in range(9):
        P = P * IntPoly([1, -5]) * IntPoly([1, 5])
    return P


def test_square_free_part_degree21_shape():
    # Q = (1 - 5T)(1 + 6T + 25T^2) shares the factor 1 - 5T
    want = IntPoly([1, 6, 25]) * IntPoly([1, 0, -25])
    P = _degree21_P()
    assert _square_free_part(P) == _sympy_sqf_part(P) == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, -1, 2, -3]),
       st.lists(st.integers(-6, 12).filter(lambda r: r not in (0, 8)),
                max_size=5),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 5)),
                max_size=2))
@example(-1, [1, -1], [])  # 1 - u^2: one pseudo-division step by -u
def test_sturm_count_is_the_number_of_distinct_real_roots(lead, roots,
                                                          quads):
    # lead * prod (u - r) * prod ((u + b)^2 + k), counted on (0, 8); a
    # negative leading coefficient needs the pseudo-remainder's positive
    # multiplier
    H = [lead]
    for r in roots:
        H = _mul(H, [-r, 1])
    for b, k in quads:
        H = _mul(H, [b * b + k, 2 * b, 1])
    seq = _sturm_sequence(H)
    assert _sign_changes(seq, 0) - _sign_changes(seq, 8) == len(
        {r for r in roots if 0 < r < 8})


def _oracle_pure(P, q, w):
    """The floating-point purity check: every root of the square-free part
    (sympy) has |root| q^{w/2} within 1e-8 of 1, roots by mpmath at 256
    bits."""
    import mpmath as mp

    if P.degree == 0:
        return True
    cs = _sympy_poly(P).sqf_part().all_coeffs()
    with mp.workprec(256):
        roots = mp.polyroots([mp.mpf(int(c)) for c in cs], maxsteps=600,
                             extraprec=300)
        scale = mp.power(mp.mpf(q), mp.mpf(w) / 2)
        return max(abs(abs(rt) * scale - 1) for rt in roots) <= 1e-8


def _nudged(coeffs, indices):
    """coeffs with one coefficient a_i, i in `indices`, moved by +-1."""
    for i in indices:
        for d in (1, -1):
            yield IntPoly(coeffs[:i] + (coeffs[i] + d,) + coeffs[i + 1:])


# Every numerator that `zeta --lambda all` recovers at seed 0 for n = 2..4
# over GF(8), GF(9), GF(5), GF(7), GF(11) and GF(13), with every
# functional-equation candidate that the recovery checked for purity
# (1 +- q^6 T^4 at the ambiguous n = 4 Fermat fibers).  Keyed by (n, p, r).
GRID_NUMERATORS = {
    (2, 2, 3): [(1, -3, 8), (1, 0, 8), (1, 1), (1, 3, 8)],
    (2, 3, 2): [(1,), (1, -4, 9), (1, -1, 9), (1, 2, 9), (1, 5, 9)],
    (2, 5, 1): [(1, -3, 5), (1, 0, 5), (1, 1), (1, 3, 5)],
    (2, 7, 1): [(1, -1), (1, 1, 7)],
    (2, 11, 1): [(1, -6, 11), (1, -3, 11), (1, 0, 11), (1, 1), (1, 3, 11),
        (1, 6, 11)],
    (2, 13, 1): [(1, -5, 13), (1, -1), (1, 4, 13)],
    (3, 2, 3): [(1,), (1, -17, 136, -512), (1, -1, 8, -512), (1, 7, -56, -512)],
    (3, 3, 2): [(1, -27, 243, -729), (1, -7, 63, -729), (1, 14, 81)],
    (3, 5, 1): [(1, 0, -25), (1, 1, -5, -125)],
    (3, 7, 1): [(1, -7, -49, 343), (1, 0, -49), (1, 1, 7, 343),
        (1, 3, -21, -343)],
    (3, 11, 1): [(1, -14, 121), (1, -11, -121, 1331), (1, -5, 55, -1331),
        (1, -3, -33, 1331), (1, 7, -77, -1331), (1, 21, 231, 1331)],
    (3, 13, 1): [(1, -23, 299, -2197), (1, -13, -169, 2197), (1, 0, -169),
        (1, 19, 247, 2197)],
    (4, 2, 3): [(1, -25, 1000, -12800, 262144), (1, 0, 0, 0, -262144),
        (1, 0, 0, 0, 262144), (1, 15, -40, 7680, 262144), (1, 31, 696, 4096)],
    (4, 3, 2): [(1, -25, 1008, -18225, 531441), (1, -10, 558, -7290, 531441),
        (1, -4, 684, -6561), (1, 0, 1458, 0, 531441),
        (1, 5, -792, 3645, 531441), (1, 65, 2133, 47385, 531441)],
    (4, 5, 1): [(1,), (1, -16, 180, -2000, 15625), (1, -1, -45, -125, 15625),
        (1, 4, 130, 500, 15625), (1, 14, 230, 1750, 15625)],
    (4, 7, 1): [(1, -35, 805, -12005, 117649), (1, -5, -210, -1715, 117649),
        (1, 0, 0, 0, -117649), (1, 0, 0, 0, 117649), (1, 1, 301, 2401),
        (1, 5, 385, 1715, 117649), (1, 10, 420, 3430, 117649),
        (1, 25, 350, 8575, 117649)],
    (4, 11, 1): [(1, -89, 3861, -118459, 1771561),
        (1, -14, 836, -18634, 1771561), (1, 32, 858, -14641)],
    (4, 13, 1): [(1, -120, 7670, -263640, 4826809),
        (1, -25, 1300, -54925, 4826809), (1, -25, 3575, -54925, 4826809),
        (1, -15, -260, -32955, 4826809), (1, -5, 2080, -10985, 4826809),
        (1, -5, 3380, -10985, 4826809), (1, 0, 0, 0, -4826809),
        (1, 0, 0, 0, 4826809), (1, 10, -910, 21970, 4826809),
        (1, 15, 1560, 32955, 4826809), (1, 20, -1170, 43940, 4826809),
        (1, 25, 1300, 54925, 4826809), (1, 41, 2561, 28561),
        (1, 85, 5265, 186745, 4826809)],
}


@pytest.mark.parametrize("n,p,r", list(GRID_NUMERATORS), ids=str)
def test_is_weil_pure_matches_oracle_on_grid_numerators(n, p, r):
    q, w = p ** r, n - 1
    for cs in GRID_NUMERATORS[n, p, r]:
        for P in [IntPoly(cs), *_nudged(cs, range(1, len(cs)))]:
            assert is_weil_pure(P, q, w) == _oracle_pure(P, q, w), P


def _R3():
    """Criterion 8's R_3 = (1 - T)^9 (1 + T)^9, weight 0."""
    R = IntPoly([1])
    for _ in range(9):
        R = R * IntPoly([1, -1]) * IntPoly([1, 1])
    return R


@pytest.mark.parametrize("P,q,w", [(_degree21_P(), 5, 2), (_R3(), 1, 0)],
                         ids=["P-n3-q5", "R3"])
def test_is_weil_pure_matches_oracle_at_criterion_8(P, q, w):
    # every root on the boundary u = 4c; the oracle takes about a second a
    # nudge here, so only a_1 is nudged
    assert is_weil_pure(P, q, w) and _oracle_pure(P, q, w)
    for nudged in _nudged(P.coeffs, [1]):
        assert is_weil_pure(nudged, q, w) == _oracle_pure(nudged, q, w)


def test_is_weil_pure_boundaries():
    # u = t^2 = 0: alpha = +-i sqrt(c); u = 4c: alpha = +-sqrt(c), here
    # also with multiplicity, beside an impure root
    c = 4 ** 3
    assert is_weil_pure(IntPoly([1, 0, c]), 4, 3)
    assert is_weil_pure(IntPoly([1, 0, c]) * IntPoly([1, 0, c]), 4, 3)
    assert is_weil_pure(IntPoly([1, -8]) * IntPoly([1, 8]), 4, 3)
    assert not is_weil_pure(IntPoly([1, -8]) * IntPoly([1, -8])
                            * IntPoly([1, -9]), 4, 3)
    # q = 1, w = 0: roots +-1 on the unit circle, at u = 4c = 4
    assert is_weil_pure(IntPoly([1, -1]), 1, 0)
    assert is_weil_pure(IntPoly([1, -1]) * IntPoly([1, -1]), 1, 0)
    assert is_weil_pure(IntPoly([1, 0, 1]) * IntPoly([1, 1]), 1, 0)
    assert not is_weil_pure(IntPoly([1, -1]) * IntPoly([1, -1])
                            * IntPoly([1, -3]), 1, 0)
    assert not is_weil_pure(IntPoly([1, -2]), 1, 0)


def _pure_factor(c):
    """A factor whose reciprocal roots all have |alpha|^2 = c."""
    s = isqrt(c)
    t_max = isqrt(4 * c)
    choices = [st.integers(-t_max, t_max).map(lambda t: [1, -t, c]),
               st.sampled_from([[1, 0, c], [1, 0, -c]])]
    if s * s == c:
        choices.append(st.sampled_from([[1, s], [1, -s]]))
    return st.one_of(choices)


@st.composite
def _products(draw):
    q, w = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    c, P, pure = q ** w, IntPoly([1]), True
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            f = draw(_pure_factor(c))
        else:  # 1 - aT with a^2 != c
            a = draw(st.integers(-12, 12).filter(lambda a: a and a * a != c))
            f, pure = [1, -a], False
        for _ in range(draw(st.integers(1, 2))):
            P = P * IntPoly(f)
    return P, q, w, pure


@settings(max_examples=60, deadline=None)
@given(_products())
def test_is_weil_pure_matches_oracle_on_products(case):
    P, q, w, pure = case
    assert is_weil_pure(P, q, w) == _oracle_pure(P, q, w) == pure


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
    assert is_weil_pure(got, 5, 0)  # weight 0: all roots on the unit circle


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
    with pytest.raises(NoConsistentSign):
        # counts of the Fermat cubic fed with the wrong degree/extra data
        recover_numerator(power_sums_from_counts([9, 9, 100], "X", 2, 4),
                          2, 1, 4)


@pytest.mark.parametrize("p", [2, 3, 7, 11])
def test_singular_mirror_is_recovered_from_newton_alone(p):
    # a singular fiber is counted to deg Q = n and takes no functional
    # equation: its Q drops degree
    F = build_field(p, 1, 0)
    fibers = [DworkInstance(n=4, field=F, lam=lam) for lam in range(p)]
    fibers = [inst for inst in fibers if is_singular(inst)]
    assert len(fibers) == (5 if p == 11 else 1)
    for inst in fibers:
        zd = recover_mirror_zeta(inst)
        assert zd == recover_mirror_zeta(inst, k_budget=4)
        assert zd.numerator.degree == 3


def test_singular_route_checks_its_extra_power_sums():
    # a k_budget past the degree gives power sums that Newton's identities
    # do not read; the recovered numerator must reproduce them.  n = 2 over
    # GF(7) at lam code 1 is singular (1 = (-3)^3 mod 7), and its Q = 1 - T
    inst = DworkInstance(n=2, field=build_field(7, 1, 0), lam=1)
    assert is_singular(inst)
    records = [count_record(inst, k) for k in (1, 2, 3)]
    zd = recover_mirror_zeta(inst, k_budget=3, records=records)
    assert zd.numerator.coeffs == (1, -1)
    records[2] = records[2]._replace(Y=records[2].Y + 1)
    with pytest.raises(NonIntegralCoefficient, match="extra power sums"):
        recover_mirror_zeta(inst, k_budget=3, records=records)


def test_full_power_sums_without_a_functional_equation_are_refused():
    # 1 + T + 2T^2 has the two power sums but satisfies no functional
    # equation at weight 1 over GF(5): a_2 = 2 is not +-5
    with pytest.raises(NoConsistentSign):
        recover_numerator(IntPoly([1, 1, 2]).power_sums(2), 2, 1, 5)


def test_recover_mirror_zeta_frozen_value():
    # n=3, q=5, lam=0: brute-force torus counts gave #Y = 30, 662, 16110 and
    # the Weil-pure numerator 1 + T - 5T^2 - 125T^3 (weight 2)
    F5 = build_field(5, 1, 0)
    inst = DworkInstance(n=3, field=F5, lam=0)
    zd = recover_mirror_zeta(inst)
    assert zd.numerator.coeffs == (1, 1, -5, -125)
    assert zd.count(1) == 30 and zd.count(2) == 662 and zd.count(3) == 16110
    assert is_weil_pure(zd.numerator, 5, 2)


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
