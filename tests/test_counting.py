import itertools
from math import comb, gcd

import pytest

from dworkzeta.config import Caps
from dworkzeta.counting import (
    CountRecord,
    DworkInstance,
    charsum_qcounts,
    count_affine_brute,
    count_record,
    count_torus_brute,
    count_torus_f_brute,
    count_X,
    count_Y,
    count_Y_strata_brute,
    dwork_matrix_M,
    dwork_matrix_N,
    enumerate_solutions,
    gauss_field_degree,
    is_singular,
    required_precision,
)
from dworkzeta.errors import (
    DivisibilityViolation,
    FieldTooLarge,
    PrecisionInsufficient,
)
from dworkzeta.ff import FieldCtx, build_field, factorize
from dworkzeta.padic import TowerCtx, build_tower, pi_valuation


def inst(n, p, r, lam, seed=0):
    return DworkInstance(n=n, field=build_field(p, r, seed), lam=lam)


def test_matrices_match_their_displays():
    assert dwork_matrix_M(2) == (
        (1, 1, 1, 1),
        (3, 0, 0, 1),
        (0, 3, 0, 1),
        (0, 0, 3, 1),
    )
    assert dwork_matrix_N(2) == (
        (1, 1, 1, 1),
        (1, 0, -1, 0),
        (0, 1, -1, 0),
    )
    M4 = dwork_matrix_M(4)
    assert len(M4) == 6 and all(len(r) == 6 for r in M4)
    assert all(M4[i][i - 1] == 5 and M4[i][5] == 1 for i in range(1, 6))


def brute_solutions(matrix, q, lam_zero):
    q1 = q - 1
    ncols = len(matrix[0])
    out = set()
    for k in itertools.product(range(q), repeat=ncols):
        if lam_zero and k[-1] != 0:
            continue
        v = [sum(m * kk for m, kk in zip(row, k)) for row in matrix]
        if all(x % q1 == 0 for x in v):
            out.add(k)
    return out


@pytest.mark.parametrize("n,q_spec", [(2, (2, 1)), (2, (5, 1)), (2, (7, 1)),
                                      (3, (2, 2)), (3, (5, 1)), (2, (3, 2))])
@pytest.mark.parametrize("lam_zero", [False, True])
def test_enumerate_solutions_matches_brute_scan(n, q_spec, lam_zero):
    p, r = q_spec
    q = p ** r
    for matrix in (dwork_matrix_M(n), dwork_matrix_N(n)):
        got = {sol.k for sol in enumerate_solutions(matrix, q, lam_zero)}
        want = brute_solutions(matrix, q, lam_zero)
        assert got == want
        # no duplicates
        count = sum(1 for _ in enumerate_solutions(matrix, q, lam_zero))
        assert count == len(got)


def _lam_zero_scan_N(n, q):
    """The N-matrix solutions at lam = 0 by a scan over every residue a,
    keeping those with (n+1) a = 0 mod (q-1)."""
    q1 = q - 1
    for a in range(q1):
        if ((n + 1) * a) % q1:
            continue
        head = [(0, q1) if a == 0 else (a,)] * (n + 1)
        yield from itertools.product(*head, (0,))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lam_zero_enumeration_steps_over_the_scanned_residues(n):
    prime_powers = [q for q in range(2, 50) if len(factorize(q)) == 1]
    for q in prime_powers:
        got = [sol.k for sol in enumerate_solutions(dwork_matrix_N(n), q,
                                                    lam_zero=True)]
        assert got == list(_lam_zero_scan_N(n, q)), (n, q)


def test_solution_classification():
    n, q = 2, 7
    sols = {sol.k: sol for sol in enumerate_solutions(dwork_matrix_M(n), q)}
    zero = sols[(0, 0, 0, 0)]
    assert zero.cls == "zero" and zero.s_of_k == 0
    boundary = sols[(0, 0, 0, 6)]
    assert boundary.cls == "trivial" and boundary.s_of_k == n + 2
    diag = [s for s in sols.values() if s.cls == "diagonal"]
    assert diag and all(0 < s.k[0] == s.k[1] == s.k[2] < 6 for s in diag)
    adm = [s for s in sols.values() if s.cls == "admissible"]
    assert adm and all(s.s_of_k == n + 2 for s in adm)
    for s in adm:
        assert len(set(s.k[: n + 1])) > 1


def test_affine_brute_examples():
    assert count_affine_brute(inst(2, 2, 1, 0)) == 4
    assert count_affine_brute(inst(2, 2, 2, 0)) == 28
    # the origin is always a solution
    assert count_affine_brute(inst(3, 3, 1, 1)) >= 1


def test_torus_brute_examples():
    assert count_torus_brute(inst(2, 2, 1, 0)) == 0
    F3 = build_field(3, 1, 0)
    got = count_torus_brute(DworkInstance(n=2, field=F3, lam=1))
    by_hand = 0
    for x in (1, 2):
        for y in (1, 2):
            inv = pow(x * y, -1, 3) if (x * y) % 3 else 0
            by_hand += (x + y + inv + 1) % 3 == 0
    assert got == by_hand
    assert count_torus_brute(inst(3, 2, 2, 0)) <= 27


def brute_projective_count(n, F, lam):
    q = F.pp.q
    q1 = q - 1
    d = n + 1
    pow_d = [0] + [F.gen_pow((F.dlog(x) * d) % q1) for x in range(1, q)]
    cnt = 0
    for pivot in range(d):
        for rest in itertools.product(range(q), repeat=d - pivot - 1):
            x = (0,) * pivot + (1,) + rest
            v = 0
            for xi in x:
                v = F.add(v, pow_d[xi])
            if lam and all(x):
                lsum = sum(F.log_table[xi] for xi in x)
                v = F.add(v, F.mul(lam, F.gen_pow(lsum % q1)))
            if v == 0:
                cnt += 1
    return cnt


def test_count_X_examples_and_independent_oracle():
    assert count_X(4, 2) == 3
    assert count_X(28, 4) == 9
    with pytest.raises(DivisibilityViolation):
        count_X(5, 4)
    for (n, p, lam) in [(3, 5, 0), (2, 7, 3), (3, 3, 1)]:
        F = build_field(p, 1, 0)
        nf = count_affine_brute(DworkInstance(n=n, field=F, lam=lam))
        assert count_X(nf, p) == brute_projective_count(n, F, lam)


def test_count_Y_examples():
    assert count_Y(0, 2, 2) == 3
    # congruence (12): #Y = N_g* + 1 - n(-1)^{n-1} mod q
    for (n, p, lam) in [(2, 5, 1), (3, 5, 2), (2, 7, 0), (4, 3, 1)]:
        F = build_field(p, 1, 0)
        ng = count_torus_brute(DworkInstance(n=n, field=F, lam=lam))
        y = count_Y(ng, n, p)
        assert (y - (ng + 1 - n * (-1) ** (n - 1))) % p == 0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1)])
def test_count_Y_matches_strata_oracle(n, p, r):
    F = build_field(p, r, 0)
    for lam in range(F.pp.q):
        ii = DworkInstance(n=n, field=F, lam=lam)
        ng = count_torus_brute(ii)
        assert count_Y(ng, n, F.pp.q) == count_Y_strata_brute(ii)


def test_stratum_identity_symbolic():
    # sum over faces ((q-1)^dim + (-1)^{dim+1}) = q (q^n - 1)/(q - 1)
    for n in range(2, 7):
        for q in (2, 3, 4, 5, 7, 9, 25):
            total = sum(
                comb(n + 1, d + 1) * ((q - 1) ** d + (-1) ** (d + 1))
                for d in range(n + 1))
            assert total == q * (q ** n - 1) // (q - 1)


@pytest.mark.parametrize("n,p,r", [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1),
                                   (3, 2, 1), (3, 3, 1)])
def test_charsum_matches_brute_all_lambda(n, p, r):
    F = build_field(p, r, 0)
    for lam in range(F.pp.q):
        ii = DworkInstance(n=n, field=F, lam=lam)
        nf, nfstar, ngstar, _prec = charsum_qcounts(ii)
        assert nf == count_affine_brute(ii), (n, p, r, lam)
        assert ngstar == count_torus_brute(ii), (n, p, r, lam)
        assert nfstar == count_torus_f_brute(ii), (n, p, r, lam)


def test_charsum_extension_field_consistency():
    # counting over GF(q^2) directly == counting the same lam upstairs
    ii = inst(2, 3, 1, 2)
    nf2, _, ng2, _ = charsum_qcounts(ii, k=2)
    F9 = build_field(3, 2, 0)
    from dworkzeta.ff import extend

    lam9 = extend(build_field(3, 1, 0), 2).embed(2)
    ii9 = DworkInstance(n=2, field=F9, lam=lam9)
    nf9, _, ng9, _ = charsum_qcounts(ii9)
    assert (nf2, ng2) == (nf9, ng9)
    assert nf2 == count_affine_brute(ii, k=2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_charsum_matches_brute_n4(p):
    F = build_field(p, 1, 0)
    for lam in range(p):
        ii = DworkInstance(n=4, field=F, lam=lam)
        nf, _, ngstar, _ = charsum_qcounts(ii)
        assert nf == count_affine_brute(ii), (p, lam)
        assert ngstar == count_torus_brute(ii), (p, lam)


def test_charsum_extension_over_nonprime_base():
    # base GF(4), counted over GF(16): the engine and brute force agree
    ii = inst(2, 2, 2, 3)
    nf, _, ng, _ = charsum_qcounts(ii, k=2)
    assert nf == count_affine_brute(ii, k=2)
    assert ng == count_torus_brute(ii, k=2)


def test_charsum_trivial_part_identity():
    # the all-boundary terms of the mirror sum add up to (-1)^n/(q-1)
    for (n, p, r, lam) in [(2, 5, 1, 2), (3, 3, 1, 1), (2, 2, 2, 2)]:
        F = build_field(p, r, 0)
        q = F.pp.q
        ii = DworkInstance(n=n, field=F, lam=lam)
        T = build_tower(F, required_precision(p, q, n))
        table = T.gauss_table()
        acc = T.zero()
        for sol in enumerate_solutions(ii.Nmat, q):
            if not all(ki in (0, q - 1) for ki in sol.k):
                continue
            prod = T.one()
            for kj in sol.k:
                prod = prod * table[kj]
            acc = acc + prod  # chi(lam)^{k_last} = 1 on boundary lifts
        inv_q1 = pow(q - 1, -1, T.pN)
        assert acc.scale(inv_q1) == T.from_int((-1) ** n).scale(inv_q1)


@pytest.mark.parametrize("n,p,r", [(2, 5, 1), (3, 2, 2), (2, 7, 1), (4, 3, 1),
                                   (3, 5, 1), (2, 2, 2), (3, 2, 6), (4, 2, 6)])
def test_gauss_product_valuations_small(n, p, r):
    # every nonzero solution has ord_q(prod G) >= 1; admissible ones >= 2
    F = build_field(p, r, 0)
    q = F.pp.q
    T = build_tower(F, (n + 2) * r + 2)
    table = T.gauss_table()
    units = r * (p - 1)
    for sol in enumerate_solutions(dwork_matrix_M(n), q):
        if sol.cls == "zero":
            continue
        prod = T.one()
        for kj in sol.k:
            prod = prod * table[kj]
        v = pi_valuation(prod)
        assert v.exact
        assert v.numerator >= units, (sol, v)
        if sol.cls == "admissible":
            assert v.numerator >= 2 * units, (sol, v)


def test_admissible_closed_under_digit_rotation():
    n, p, r = 2, 3, 2
    q = p ** r
    sols = {s.k: s for s in enumerate_solutions(dwork_matrix_M(n), q)}

    def rot(ki):
        if ki == 0:
            return 0
        v = (p * ki) % (q - 1)
        return q - 1 if v == 0 else v

    admissible = [s for s in sols.values() if s.cls == "admissible"]
    assert admissible
    for s in admissible:
        rk = tuple(rot(ki) for ki in s.k)
        assert rk in sols and sols[rk].cls == "admissible"


def _find_singular_point(F: FieldCtx, n: int, lam: int):
    """First projective point with f = 0 and all partials zero, else None."""
    q = F.pp.q
    q1 = q - 1
    d = n + 1
    pow_d = [0] + [F.gen_pow((F.dlog(x) * d) % q1) for x in range(1, q)]
    pow_n = [0] + [F.gen_pow((F.dlog(x) * n) % q1) for x in range(1, q)]
    d_mod = F.from_int(d)
    add, mul = F.add, F.mul

    for pivot in range(d):
        # x_0 = ... = x_{pivot-1} = 0, x_pivot = 1, rest free
        for rest in itertools.product(range(q), repeat=d - pivot - 1):
            x = (0,) * pivot + (1,) + rest
            zeros = [i for i, xi in enumerate(x) if xi == 0]
            if len(zeros) == 0:
                prod_all = 0
                lsum = 0
                for xi in x:
                    lsum += F.log_table[xi]
                prod_all = F.gen_pow(lsum % q1)
            f_val = 0
            for xi in x:
                f_val = add(f_val, pow_d[xi])
            if lam and not zeros:
                f_val = add(f_val, mul(lam, prod_all))
            if f_val != 0:
                continue
            singular = True
            for i in range(d):
                # partial_i = (n+1) x_i^n + lam * prod_{j != i} x_j
                term = mul(d_mod, pow_n[x[i]])
                if lam:
                    if not zeros:
                        prod_others = F.div(prod_all, x[i])
                    elif zeros == [i]:
                        lsum = sum(F.log_table[xj] for j, xj in enumerate(x) if j != i)
                        prod_others = F.gen_pow(lsum % q1)
                    else:
                        prod_others = 0
                    term = add(term, mul(lam, prod_others))
                if term != 0:
                    singular = False
                    break
            if singular:
                return x
    return None


# (n, field sizes p^r): every lam of each field is compared with the oracle
SINGULARITY_GRID = [
    (2, [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25]),
    (3, [2, 3, 4, 5, 7, 8, 9]),
    (4, [2, 3, 4, 5, 7]),
]


def test_is_singular_matches_brute_force_oracle():
    fibers = singular = 0
    for n, qs in SINGULARITY_GRID:
        for q in qs:
            (p, r), = factorize(q).items()
            F = build_field(p, r, 0)
            for lam in range(q):
                ii = DworkInstance(n=n, field=F, lam=lam)
                verdict = is_singular(ii)
                # the closed form's singular points are GF(q)-rational
                assert verdict == (_find_singular_point(F, n, lam) is not None), \
                    (n, q, lam)
                if (q * q) ** n <= 10 ** 5:
                    F2, lam2 = ii.extension(2)
                    assert verdict == \
                        (_find_singular_point(F2, n, lam2) is not None), \
                        (n, q, lam, "GF(q^2)")
                fibers += 1
                singular += verdict
    assert (fibers, singular) == (162, 56)


def test_printed_delta_regularity_misses_singular_fibers():
    # Finding: the paper prints the delta-regularity condition as
    # lam^n != (n+1)^{n+1}.  At n = 2 over GF(7), 27 = 6 is a non-square, so
    # the printed condition calls every fiber regular, yet lam^3 = -27 makes
    # lam = 1, 2, 4 singular.  The exponent n+1 (is_singular) is the right one.
    F = build_field(7, 1, 0)
    assert all(pow(lam, 2, 7) != 27 % 7 for lam in range(7))
    singular = [lam for lam in range(7)
                if is_singular(DworkInstance(n=2, field=F, lam=lam))]
    assert singular == [1, 2, 4]
    for lam in singular:
        assert _find_singular_point(F, 2, lam) is not None


def test_count_record_json_and_both_method():
    rec = count_record(inst(2, 5, 1, 1), method="both", with_nfstar=True)
    d = rec.to_json_dict()
    assert d["schema"] == 1
    assert d["lambda_dlog"] == 0  # dlog(1) = 0
    assert isinstance(d["Nf"], str) and int(d["Nf"]) == rec.Nf
    assert rec.X * 4 == rec.Nf - 1

    rec0 = count_record(inst(2, 5, 1, 0), method="brute")
    assert rec0.to_json_dict()["lambda_dlog"] is None
    assert rec0.precision is None


def test_charsum_precision_guard():
    with pytest.raises(PrecisionInsufficient):
        charsum_qcounts(inst(2, 5, 1, 1), caps=Caps(precision_override=2))


def test_model_independence_across_seeds():
    # lam in the prime subfield has the same code in every model
    for seed in (0, 3):
        F = build_field(7, 1, seed)
        ii = DworkInstance(n=2, field=F, lam=3)
        assert count_affine_brute(ii) == count_affine_brute(inst(2, 7, 1, 3))
        nf, _, ng, _ = charsum_qcounts(ii)
        assert nf == count_affine_brute(ii)
        assert ng == count_torus_brute(ii)


def test_required_precision():
    assert 5 ** required_precision(5, 5, 2) > 2 * 5 ** 4
    assert 2 ** required_precision(2, 4, 3) > 2 * 4 ** 5


def _direct_qcounts(ii, k=1):
    """(N_f, N_f*, N_g*) from the character sum taken solution by solution,
    chi(lam)^{k_last} applied to each term: the oracle for the engine's
    family/fiber split.  Its own tower, not the engine's cached one, so it
    reads no Gauss sum the engine computed."""
    F, lam = ii.extension(k)
    n, p, q = ii.n, F.pp.p, F.pp.q
    q1 = q - 1
    T = TowerCtx(F, required_precision(p, q, n))
    table, tp = T.gauss_table(), T.teich_pows()

    def terms(matrix):
        for sol in enumerate_solutions(matrix, q, lam == 0):
            prod = T.one()
            for kj in sol.k:
                prod = prod * table[kj]
            if lam:
                prod = prod * tp[(F.dlog(lam) * sol.k[-1]) % q1]
            yield sol.s_of_k, prod

    inv_q1 = pow(q1, -1, T.pN)
    q_nf, q_nfstar = T.zero(), T.from_int(q1 ** (n + 1))
    for s, prod in terms(ii.M):
        q_nf = q_nf + prod.scale(pow(q * inv_q1, n + 2 - s, T.pN))
        q_nfstar = q_nfstar + prod
    q_ngstar = T.from_int(q1 ** n)
    for _s, prod in terms(ii.Nmat):
        q_ngstar = q_ngstar + prod.scale(inv_q1)
    out = []
    for elem in (q_nf, q_nfstar, q_ngstar):
        v = elem.as_integer()
        assert v % q == 0
        out.append(v // q)
    return tuple(out)


@pytest.mark.parametrize("n,p,r,k", [(2, 5, 1, 1), (2, 5, 1, 3), (3, 3, 1, 3),
                                     (4, 5, 1, 2), (2, 3, 2, 2), (3, 2, 3, 1)])
def test_charsum_matches_direct_sum_every_lambda(n, p, r, k):
    F = build_field(p, r, 0)
    for lam in range(F.pp.q):  # lam = 0 included
        ii = DworkInstance(n=n, field=F, lam=lam)
        assert charsum_qcounts(ii, k)[:3] == _direct_qcounts(ii, k), \
            (n, p, r, k, lam)


# lam = 0 reads Gauss sums over GF(q^f), f = ord_g(q), g = gcd(n+1, q^k-1)
_LIFT_CASES = ([(n, q, k) for q in (3, 5) for n in (2, 3, 4)
                for k in range(1, 5)]
               + [(n, 7, k) for n in (2, 3, 4) for k in range(1, 4)]
               + [(3, 11, k) for k in range(1, 4)])


def _lift_degree(n, q, k):
    g = gcd(n + 1, q ** k - 1)
    return min(f for f in range(1, k + 1) if (q ** f - 1) % g == 0)


def test_lam_zero_lift_matches_direct_table():
    for n, q, k in _LIFT_CASES:
        ii = inst(n, q, 1, 0)
        assert charsum_qcounts(ii, k)[:3] == _direct_qcounts(ii, k), (n, q, k)
    f2 = {case for case in _LIFT_CASES if _lift_degree(*case) == 2}
    assert f2 >= {(2, 5, 2), (2, 5, 4), (3, 3, 2), (3, 3, 4)}


def test_gauss_field_degree_is_the_lift_degree():
    for n, q, k in _LIFT_CASES:
        assert gauss_field_degree(inst(n, q, 1, 0), k) == _lift_degree(n, q, k)
        assert gauss_field_degree(inst(n, q, 1, 1), k) == k


def test_each_gauss_sum_is_computed_once_per_tower(capsys, monkeypatch):
    from dworkzeta import counting
    from dworkzeta.cli import main

    real = TowerCtx._gauss_sums
    asks = []

    def spy(tower, ks):
        ks = list(ks)
        asks.extend((tower, k) for k in ks)
        return real(tower, ks)

    counting._gauss_product_sums.cache_clear()
    build_tower.cache_clear()
    monkeypatch.setattr(TowerCtx, "_gauss_sums", spy)
    assert main(["congruence", "--n", "2", "--p", "5", "--lambda", "all",
                 "--k", "2"]) == 0
    capsys.readouterr()
    assert asks and len(asks) == len(set(asks))


def test_lam_zero_count_builds_no_extension_field():
    rec = count_record(inst(3, 5, 1, 0), 11,
                       caps=Caps(field_table_max_q=25))
    assert rec.precision == required_precision(5, 5 ** 11, 3) == 56
    # lam != 0 still builds GF(5^3)
    with pytest.raises(FieldTooLarge):
        count_record(inst(3, 5, 1, 1), 3, caps=Caps(field_table_max_q=25))


def test_family_part_walks_solutions_once_per_class(capsys, monkeypatch):
    from dworkzeta import counting
    from dworkzeta.cli import main

    real = counting.enumerate_solutions
    walks = []

    def spy(matrix, q, lam_zero=False):
        walks.append((matrix, q, lam_zero))
        return real(matrix, q, lam_zero)

    counting._gauss_product_sums.cache_clear()
    monkeypatch.setattr(counting, "enumerate_solutions", spy)
    assert main(["congruence", "--n", "2", "--p", "5", "--lambda", "all",
                 "--k", "2"]) == 0
    capsys.readouterr()
    # M and N, over GF(5) and GF(25), for lam = 0 and lam != 0
    assert len(walks) == 8 and len(set(walks)) == 8
    ii = inst(2, 5, 1, 1)
    assert count_record(ii, 1, with_nfstar=True).Nfstar == \
        count_torus_f_brute(ii)
    assert count_record(ii, 1).Nfstar is None
