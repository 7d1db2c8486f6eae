"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 recovers the degree-21 P at n = 3, q = 5, lam = 0 from
character-sum counts over GF(5^k), k <= 11: the Hasse-Davenport lift reads
every Gauss sum over GF(5), so it runs in well under a second.  Criterion 8a
drives the same recovery path on synthetic counts.

Criterion 9's "mirror side equals 1" sub-check is implemented faithfully and
expected to fail: with the zeta shape Z(Y) =
Q^{(-1)^n} / ((1-T)(1-qT)...(1-q^{n-1}T)) and Q Weil-pure (verified here
against brute-force counts), every factor of Z(Y) for n = 3 sits on the
pole side, so the reduced slope zeta of an ordinary mirror is
(1-T)^-2 (1-uT)^-2 (1-u^2T)^-2, not 1.  See notes in the README.
"""
import time
from fractions import Fraction

import pytest
from conftest import each_solution, gauss_elems

from dworkzeta.counting import (
    DworkInstance,
    charsum_count,
    count_brute,
    count_X,
    count_Y,
    dwork_matrix_M,
    is_singular,
)
from dworkzeta.ff import build_field
from dworkzeta.oracles import (
    TowerElem,
    count_Y_strata_brute,
    digit_sum,
    pi_valuation,
)
from dworkzeta.padic import build_tower
from dworkzeta.slope import (
    hodge_numbers_dwork,
    newton_above_hodge,
    newton_polygon,
    ordinarity_test,
    ordinary_slope_zeta,
    slope_fe_check,
    slope_zeta,
    SlopeZeta,
)
from dworkzeta.zeta import (
    IntPoly,
    expected_degree_P,
    is_weil_pure,
    power_sums_from_counts,
    r_poly,
    recover_mirror_zeta,
    recover_numerator,
    recover_pencil_zeta,
)

FIELDS_12 = [(2, 2), (3, 1), (3, 2), (5, 1), (7, 1), (2, 3)]


def _report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


def test_criterion_01_gauss_interpolation():
    t0 = time.monotonic()
    checks = 0
    for p, r in FIELDS_12:
        T = build_tower(build_field(p, r, 0), 12)
        q, q1 = T.q, T.q - 1
        inv_q1 = pow(q1, -1, T.pN)
        table = gauss_elems(T)
        tp = [TowerElem.from_w(T, t) for t in T.teich_pows()]
        zeta = TowerElem.zeta_p(T)
        F = T.field
        assert table[0] == TowerElem.from_int(T, q - 1)
        assert table[q1] == TowerElem.from_int(T, -q)
        for a in range(q):
            rhs = TowerElem.zero(T)
            if a == 0:
                rhs = table[0].scale(inv_q1)
            else:
                la = F.dlog(a)
                for k in range(q):
                    rhs = rhs + table[k].scale(inv_q1) * tp[(la * k) % q1]
            assert zeta ** F.trace(a) == rhs, (p, r, a)
            checks += 1
    dt = time.monotonic() - t0
    _report("ACCEPT-01 gauss-interpolation-N12", dt < 10,
            f"{checks} exact identities, {dt:.2f}s < 10s")


def test_criterion_02_stickelberger():
    t0 = time.monotonic()
    checks = 0
    for p, r in FIELDS_12:
        T = build_tower(build_field(p, r, 0), 12)
        for k in range(T.q):
            v = pi_valuation(TowerElem.from_zp(T, T.gauss_table()[k]))
            assert v.exact and v.numerator == digit_sum(k, T.pp), (p, r, k)
            checks += 1
    dt = time.monotonic() - t0
    _report("ACCEPT-02 stickelberger-valuations", dt < 10,
            f"ord_pi G(k) = digit sum for {checks} cases, {dt:.2f}s < 10s")


def test_criterion_03_charsum_equals_brute():
    t0 = time.monotonic()
    cases = 0
    for n in (2, 3):
        for p, r in [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
            F = build_field(p, r, 0)
            for lam in range(F.pp.q):
                inst = DworkInstance(n=n, field=F, lam=lam)
                nf = charsum_count(inst, inst.M, torus=False)
                ngstar = charsum_count(inst, inst.Nmat)
                assert nf == count_brute(inst, inst.M, torus=False), \
                    (n, p, r, lam)
                assert ngstar == count_brute(inst, inst.Nmat), (n, p, r, lam)
                cases += 1
    dt = time.monotonic() - t0
    _report("ACCEPT-03 counting-oracle-equivalence", dt < 120,
            f"{cases} instances bit-exact, {dt:.2f}s < 120s")


def test_criterion_04_mirror_congruence():
    t0 = time.monotonic()
    rows = 0
    for q in (3, 5, 7):
        base = build_field(q, 1, 0)
        for k in (1, 2, 3):
            qk = q ** k
            for n in (2, 3, 4):
                for lam in range(q):
                    inst = DworkInstance(n=n, field=base, lam=lam)
                    nf = charsum_count(inst, inst.M, k, torus=False)
                    ngstar = charsum_count(inst, inst.Nmat, k)
                    x, y = count_X(nf, qk), count_Y(ngstar, n, qk)
                    assert (x - y) % qk == 0, (n, q, k, lam, x, y)
                    rows += 1
    dt = time.monotonic() - t0
    _report("ACCEPT-04 mirror-congruence-mod-q^k", dt < 600,
            f"{rows} congruences exact, zero failures, {dt:.2f}s < 600s")


def test_criterion_05_projective_mirror_count_identity():
    t0 = time.monotonic()
    cases = 0
    for n in (2, 3):
        for p, r in [(3, 1), (2, 2), (5, 1)]:
            F = build_field(p, r, 0)
            for lam in range(F.pp.q):
                inst = DworkInstance(n=n, field=F, lam=lam)
                ngstar = count_brute(inst, inst.Nmat)
                assert count_Y(ngstar, n, F.pp.q) == count_Y_strata_brute(inst)
                cases += 1
    dt = time.monotonic() - t0
    _report("ACCEPT-05 mirror-count-formula-vs-strata", dt < 60,
            f"{cases} instances bit-exact, {dt:.2f}s < 60s")


def test_criterion_06_gauss_product_valuations(solution_class):
    t0 = time.monotonic()
    nonzero_checked = admissible_checked = 0
    for n in (2, 3, 4):
        for p, r in [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]:
            F = build_field(p, r, 0)
            q = F.pp.q
            T = build_tower(F, (n + 2) * r + 2)
            table = gauss_elems(T)
            units = r * (p - 1)  # ord_q = 1 in pi-valuation units
            for k, s in each_solution(dwork_matrix_M(n), q):
                cls = solution_class(k, s, n, q)
                if cls == "zero":
                    continue
                prod = TowerElem.one(T)
                for kj in k:
                    prod = prod * table[kj]
                v = pi_valuation(prod)
                assert v.exact and v.ord_q >= 1, (n, p, r, k)
                nonzero_checked += 1
                if cls == "admissible":
                    assert v.ord_q >= 2, (n, p, r, k)
                    admissible_checked += 1
    dt = time.monotonic() - t0
    _report("ACCEPT-06 gauss-product-valuations", dt < 120,
            f"{nonzero_checked} nonzero (ord_q >= 1), "
            f"{admissible_checked} admissible (ord_q >= 2), {dt:.2f}s < 120s")


def _smooth_lambdas(n, q):
    F = build_field(q, 1, 0)
    out = []
    for lam in range(q):
        inst = DworkInstance(n=n, field=F, lam=lam)
        if not is_singular(inst):
            out.append(lam)
    return F, out


def test_criterion_07_n2_zeta_P_equals_Q():
    t0 = time.monotonic()
    fibers = 0
    for q in (5, 7, 13):
        F, smooth = _smooth_lambdas(2, q)
        assert smooth, q
        for lam in smooth:
            inst = DworkInstance(n=2, field=F, lam=lam)
            zx = recover_pencil_zeta(inst)
            zy = recover_mirror_zeta(inst)
            assert zx.numerator.degree == 2 == zy.numerator.degree
            assert zx.numerator == zy.numerator, (q, lam)
            R2 = r_poly(zx.numerator, zy.numerator, q, 2)
            assert R2 == IntPoly([1]), (q, lam)
            assert is_weil_pure(zx.numerator, q, 1), (q, lam)
            fibers += 1
    dt = time.monotonic() - t0
    _report("ACCEPT-07 n2-P-equals-Q-and-R2-trivial", dt < 60,
            f"{fibers} smooth fibers, Weil-pure, {dt:.2f}s < 60s")


def test_criterion_08_pipeline_selfcheck_synthetic():
    """The full degree-21 recovery path on synthetic counts with the expected
    factor shape; the character-sum run is the test below."""
    t0 = time.monotonic()
    q = 5
    Q = IntPoly([1, 1, -5, -125])
    R = IntPoly([1])
    for _ in range(9):
        R = R * IntPoly([1, -1]) * IntPoly([1, 1])
    P = Q * R.scale_variable(q)
    assert P.degree == 21
    counts = [1 + q ** k + q ** (2 * k) + s
              for k, s in enumerate(P.power_sums(11), start=1)]
    got, _ = recover_numerator(power_sums_from_counts(counts, "X", 3, q),
                               21, 2, q)
    assert got == P
    R3 = r_poly(got, Q, q, 3)
    assert R3.degree == 18
    assert is_weil_pure(R3, 1, 0)
    dt = time.monotonic() - t0
    _report("ACCEPT-08a degree21-recovery-selfcheck(ci, synthetic counts)",
            True, f"FE completion from 11 power sums, R_3 roots +-1, {dt:.2f}s")


def test_criterion_08_n3_q5_full_recovery():
    t0 = time.monotonic()
    q = 5
    F5 = build_field(5, 1, 0)
    # over F_5 every unit lambda has lambda^4 = 4^4, so the only
    # delta-regular fiber in the base field is lambda = 0
    inst = DworkInstance(n=3, field=F5, lam=0)
    zy = recover_mirror_zeta(inst, k_budget=3)
    assert zy.numerator.degree == 3
    zx = recover_pencil_zeta(inst, k_budget=11)
    assert zx.numerator.degree == 21 == expected_degree_P(3)
    R3 = r_poly(zx.numerator, zy.numerator, q, 3)
    assert R3.degree == 18
    assert is_weil_pure(R3, 1, 0)
    dt = time.monotonic() - t0
    _report("ACCEPT-08 n3-q5-full-recovery", True,
            f"deg P = 21, Q | P, R_3 roots +-1 (Weil-pure), {dt:.1f}s")


def _recovered_zetas_for_fe():
    """A representative batch of recovered zeta data for slope checks."""
    batch = []
    F7, smooth7 = _smooth_lambdas(2, 7)
    for lam in smooth7:
        inst = DworkInstance(n=2, field=F7, lam=lam)
        batch.append(recover_pencil_zeta(inst))
        batch.append(recover_mirror_zeta(inst))
    for q, lam in [(5, 0), (7, 0), (7, 1), (7, 2)]:
        F = build_field(q, 1, 0)
        inst = DworkInstance(n=3, field=F, lam=lam)
        if is_singular(inst):
            continue
        batch.append(recover_mirror_zeta(inst))
    return batch


def test_criterion_09_slope_zeta_fe_and_k3_display():
    t0 = time.monotonic()
    checked = 0
    for zd in _recovered_zetas_for_fe():
        S = slope_zeta(zd)
        assert slope_fe_check(S, zd.n - 1), (zd.variety, zd.q, zd.lam_dlog)
        checked += 1
    # ordinary K3: the pencil side of the display form via the ordinary
    # closed form; e(K3) = 24
    k3 = hodge_numbers_dwork(3)
    sx = ordinary_slope_zeta(k3)
    display = SlopeZeta({Fraction(0): -2, Fraction(1): -20, Fraction(2): -2})
    assert sx == display
    assert slope_fe_check(sx, 2, k3.euler)
    dt = time.monotonic() - t0
    _report("ACCEPT-09 slope-fe-and-k3-pencil-display", dt < 60,
            f"FE exact on {checked} recovered zetas; S_p(X) matches the "
            f"ordinary K3 form, {dt:.2f}s < 60s")


@pytest.mark.xfail(strict=True, reason=(
    "faithful check of the asserted identity S_p(Y_lam, u, T) = 1 for n = 3; "
    "mechanically Z(Y) = 1/[Q (1-T)(1-qT)(1-q^2T)] with Q Weil-pure "
    "(verified against brute-force counts), so every slope has negative "
    "multiplicity and nothing can cancel: the reduced value for an ordinary "
    "fiber is (1-T)^-2 (1-uT)^-2 (1-u^2T)^-2.  See the decisions ledger."))
def test_criterion_09_mirror_side_equals_one():
    F5 = build_field(5, 1, 0)
    inst = DworkInstance(n=3, field=F5, lam=0)  # ordinary fiber (p = 1 mod 4)
    zy = recover_mirror_zeta(inst)
    np_y = newton_polygon(zy.numerator, 5, 1)
    assert ordinarity_test(np_y, [(0, 1), (1, 1), (2, 1)])  # ordinary indeed
    sy = slope_zeta(zy)
    print(f"ACCEPT-09b mirror-side-equals-one: computed S_p(Y) = {sy.render()}")
    assert sy.is_one, f"S_p(Y) = {sy.render()} != 1"


def test_criterion_10_ordinary_closed_form_quintic():
    t0 = time.monotonic()
    hd = hodge_numbers_dwork(4)
    assert hd.e_vector == (0, 100, 100, 0)
    S = ordinary_slope_zeta(hd)
    # the printed quotient (1-T)(1-uT)^101(1-u^2T)^101(1-u^3T) over
    # (1-T)(1-uT)(1-u^2T)(1-u^3T) after cancellation
    display = SlopeZeta({Fraction(1): 101 - 1, Fraction(2): 101 - 1})
    assert S == display
    dt = time.monotonic() - t0
    _report("ACCEPT-10 quintic-ordinary-closed-form", dt < 1,
            f"e_j = (0, 100, 100, 0), display matches, {dt:.3f}s < 1s")


def test_criterion_11_newton_above_hodge_everywhere():
    t0 = time.monotonic()
    pairs = 0
    for zd in _recovered_zetas_for_fe():
        np_ = newton_polygon(zd.numerator, zd.p, zd.r)
        if zd.variety == "X":
            row = hodge_numbers_dwork(zd.n).middle_row(primitive=True)
        else:
            row = [(j, 1) for j in range(zd.n)]
        if np_.total_length != sum(m for _, m in row):
            continue  # degenerate fiber: no comparable Hodge row
        assert newton_above_hodge(np_, row), (zd.variety, zd.q, zd.lam_dlog)
        pairs += 1
    # supersingular fibers too: lam = 0 mirrors at p = 3 mod 4
    for q in (7, 3):
        F = build_field(q, 1, 0)
        zd = recover_mirror_zeta(DworkInstance(n=3, field=F, lam=0))
        np_ = newton_polygon(zd.numerator, q, 1)
        assert newton_above_hodge(np_, [(0, 1), (1, 1), (2, 1)])
        pairs += 1
    dt = time.monotonic() - t0
    _report("ACCEPT-11 newton-above-hodge", dt < 120,
            f"{pairs} polygon pairs, zero violations, {dt:.2f}s < 120s")
