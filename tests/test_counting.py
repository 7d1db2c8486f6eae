import collections
import functools
import itertools
from math import comb, gcd

import pytest
from conftest import each_solution, gauss_elems

from dworkzeta.config import Caps
from dworkzeta.counting import (
    CountRecord,
    DworkInstance,
    charsum_count,
    count_brute,
    count_record,
    count_X,
    count_Y,
    dwork_matrix_M,
    dwork_matrix_N,
    gauss_field_degree,
    is_singular,
    required_precision,
)
from dworkzeta.errors import (
    DivisibilityViolation,
    EnumerationTooLarge,
    FieldTooLarge,
    PrecisionInsufficient,
)
from dworkzeta.family import _matvec
from dworkzeta.ff import FieldCtx, build_field, embed, factorize
from dworkzeta.oracles import (
    TowerElem,
    count_Y_strata_brute,
    enumerate_solutions,
    pi_valuation,
)
from dworkzeta.padic import GaussSource, TowerCtx, ZpCyclic, build_tower


def inst(n, p, r, lam, seed=0):
    return DworkInstance(n=n, field=build_field(p, r, seed), lam=lam)


def charsum_triple(ii, k=1, caps=Caps()):
    """(N_f, N_f*, N_g*) over GF(q^k) from the character sum."""
    return (charsum_count(ii, ii.M, k, False, caps),
            charsum_count(ii, ii.M, k, True, caps),
            charsum_count(ii, ii.Nmat, k, True, caps))


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
                                      (3, (2, 2)), (3, (5, 1)), (2, (3, 2)),
                                      (4, (2, 1)), (4, (3, 1)), (4, (2, 2)),
                                      (4, (5, 1)), (2, (2, 3)), (3, (2, 3)),
                                      (3, (3, 2))])
@pytest.mark.parametrize("lam_zero", [False, True])
def test_enumerate_solutions_matches_brute_scan(n, q_spec, lam_zero):
    p, r = q_spec
    q = p ** r
    for matrix in (dwork_matrix_M(n), dwork_matrix_N(n)):
        nb = len(matrix) - 1
        assert all(list(k[:nb]) == sorted(k[:nb]) for k, _, _
                   in enumerate_solutions(matrix, q, lam_zero))
        got = list(each_solution(matrix, q, lam_zero))
        vectors = {k for k, _ in got}
        assert len(vectors) == len(got)  # no duplicates
        assert vectors == brute_solutions(matrix, q, lam_zero)
        # s(k) is constant on each class of block reorderings
        assert all(s == sum(1 for x in _matvec(matrix, k) if x)
                   for k, s in got)


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
        got = [k for k, _ in each_solution(dwork_matrix_N(n), q,
                                           lam_zero=True)]
        assert len(got) == len(set(got)), (n, q)
        assert sorted(got) == sorted(_lam_zero_scan_N(n, q)), (n, q)


def test_solution_classification(solution_class):
    n, q = 2, 7
    sols = dict(each_solution(dwork_matrix_M(n), q))
    cls = {k: solution_class(k, s, n, q) for k, s in sols.items()}
    assert cls[0, 0, 0, 0] == "zero" and sols[0, 0, 0, 0] == 0
    assert cls[0, 0, 0, 6] == "trivial" and sols[0, 0, 0, 6] == n + 2
    diag = [k for k, c in cls.items() if c == "diagonal"]
    assert diag and all(0 < k[0] == k[1] == k[2] < 6 for k in diag)
    adm = [k for k, c in cls.items() if c == "admissible"]
    assert adm and all(sols[k] == n + 2 for k in adm)
    for k in adm:
        assert len(set(k[: n + 1])) > 1


def test_affine_brute_examples():
    M2 = dwork_matrix_M(2)
    assert count_brute(inst(2, 2, 1, 0), M2, torus=False) == 4
    assert count_brute(inst(2, 2, 2, 0), M2, torus=False) == 28
    # the origin is always a solution
    assert count_brute(inst(3, 3, 1, 1), dwork_matrix_M(3), torus=False) >= 1


def test_torus_brute_examples():
    assert count_brute(inst(2, 2, 1, 0), dwork_matrix_N(2)) == 0
    F3 = build_field(3, 1, 0)
    got = count_brute(DworkInstance(n=2, field=F3, lam=1), dwork_matrix_N(2))
    by_hand = 0
    for x in (1, 2):
        for y in (1, 2):
            inv = pow(x * y, -1, 3) if (x * y) % 3 else 0
            by_hand += (x + y + inv + 1) % 3 == 0
    assert got == by_hand
    assert count_brute(inst(3, 2, 2, 0), dwork_matrix_N(3)) <= 27


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
        nf = count_brute(DworkInstance(n=n, field=F, lam=lam),
                         dwork_matrix_M(n), torus=False)
        assert count_X(nf, p) == brute_projective_count(n, F, lam)


def test_count_Y_examples():
    assert count_Y(0, 2, 2) == 3
    # congruence (12): #Y = N_g* + 1 - n(-1)^{n-1} mod q
    for (n, p, lam) in [(2, 5, 1), (3, 5, 2), (2, 7, 0), (4, 3, 1)]:
        F = build_field(p, 1, 0)
        ng = count_brute(DworkInstance(n=n, field=F, lam=lam),
                         dwork_matrix_N(n))
        y = count_Y(ng, n, p)
        assert (y - (ng + 1 - n * (-1) ** (n - 1))) % p == 0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1)])
def test_count_Y_matches_strata_oracle(n, p, r):
    F = build_field(p, r, 0)
    for lam in range(F.pp.q):
        ii = DworkInstance(n=n, field=F, lam=lam)
        ng = count_brute(ii, ii.Nmat)
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
        nf, nfstar, ngstar = charsum_triple(ii)
        assert nf == count_brute(ii, ii.M, torus=False), (n, p, r, lam)
        assert ngstar == count_brute(ii, ii.Nmat), (n, p, r, lam)
        assert nfstar == count_brute(ii, ii.M), (n, p, r, lam)


def test_charsum_extension_field_consistency():
    # counting over GF(q^2) directly == counting the same lam upstairs
    ii = inst(2, 3, 1, 2)
    nf2, _, ng2 = charsum_triple(ii, k=2)
    F9 = build_field(3, 2, 0)
    lam9 = embed(build_field(3, 1, 0), F9, 2)
    ii9 = DworkInstance(n=2, field=F9, lam=lam9)
    nf9, _, ng9 = charsum_triple(ii9)
    assert (nf2, ng2) == (nf9, ng9)
    assert nf2 == count_brute(ii, ii.M, k=2, torus=False)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_charsum_matches_brute_n4(p):
    F = build_field(p, 1, 0)
    for lam in range(p):
        ii = DworkInstance(n=4, field=F, lam=lam)
        nf, _, ngstar = charsum_triple(ii)
        assert nf == count_brute(ii, ii.M, torus=False), (p, lam)
        assert ngstar == count_brute(ii, ii.Nmat), (p, lam)


def test_charsum_extension_over_nonprime_base():
    # base GF(4), counted over GF(16): the engine and brute force agree
    ii = inst(2, 2, 2, 3)
    nf, _, ng = charsum_triple(ii, k=2)
    assert nf == count_brute(ii, ii.M, k=2, torus=False)
    assert ng == count_brute(ii, ii.Nmat, k=2)


def test_charsum_trivial_part_identity():
    # the all-boundary terms of the mirror sum add up to (-1)^n/(q-1)
    for (n, p, r, lam) in [(2, 5, 1, 2), (3, 3, 1, 1), (2, 2, 2, 2)]:
        F = build_field(p, r, 0)
        q = F.pp.q
        ii = DworkInstance(n=n, field=F, lam=lam)
        T = build_tower(F, required_precision(p, q, n))
        table = gauss_elems(T)
        acc = TowerElem.zero(T)
        for k, _ in each_solution(ii.Nmat, q):
            if not all(ki in (0, q - 1) for ki in k):
                continue
            prod = TowerElem.one(T)
            for kj in k:
                prod = prod * table[kj]
            acc = acc + prod  # chi(lam)^{k_last} = 1 on boundary lifts
        inv_q1 = pow(q - 1, -1, T.pN)
        assert acc.scale(inv_q1) == \
            TowerElem.from_int(T, (-1) ** n).scale(inv_q1)


@pytest.mark.parametrize("n,p,r", [(2, 5, 1), (3, 2, 2), (2, 7, 1), (4, 3, 1),
                                   (3, 5, 1), (2, 2, 2), (3, 2, 6), (4, 2, 6)])
def test_gauss_product_valuations_small(n, p, r, solution_class):
    # every nonzero solution has ord_q(prod G) >= 1; admissible ones >= 2
    F = build_field(p, r, 0)
    q = F.pp.q
    T = build_tower(F, (n + 2) * r + 2)
    table = gauss_elems(T)
    units = r * (p - 1)
    for k, s in each_solution(dwork_matrix_M(n), q):
        cls = solution_class(k, s, n, q)
        if cls == "zero":
            continue
        prod = TowerElem.one(T)
        for kj in k:
            prod = prod * table[kj]
        v = pi_valuation(prod)
        assert v.exact
        assert v.numerator >= units, (k, v)
        if cls == "admissible":
            assert v.numerator >= 2 * units, (k, v)


def test_admissible_closed_under_digit_rotation(solution_class):
    n, p, r = 2, 3, 2
    q = p ** r
    cls = {k: solution_class(k, s, n, q)
           for k, s in each_solution(dwork_matrix_M(n), q)}

    def rot(ki):
        if ki == 0:
            return 0
        v = (p * ki) % (q - 1)
        return q - 1 if v == 0 else v

    admissible = [k for k, c in cls.items() if c == "admissible"]
    assert admissible
    for k in admissible:
        rk = tuple(rot(ki) for ki in k)
        assert cls.get(rk) == "admissible"


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
                        prod_others = F.mul(prod_all, F.pow(x[i], -1))
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
        charsum_triple(inst(2, 5, 1, 1), caps=Caps(precision_override=2))


def test_model_independence_across_seeds():
    # lam in the prime subfield has the same code in every model
    for seed in (0, 3):
        F = build_field(7, 1, seed)
        ii = DworkInstance(n=2, field=F, lam=3)
        assert count_brute(ii, ii.M, torus=False) == count_brute(
            inst(2, 7, 1, 3), ii.M, torus=False)
        nf, _, ng = charsum_triple(ii)
        assert nf == count_brute(ii, ii.M, torus=False)
        assert ng == count_brute(ii, ii.Nmat)


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
    table = gauss_elems(T)
    tp = [TowerElem.from_w(T, t) for t in T.teich_pows()]

    def terms(matrix):
        for k, s in each_solution(matrix, q, lam == 0):
            prod = TowerElem.one(T)
            for kj in k:
                prod = prod * table[kj]
            if lam:
                prod = prod * tp[(F.dlog(lam) * k[-1]) % q1]
            yield s, prod

    inv_q1 = pow(q1, -1, T.pN)
    q_nf, q_nfstar = TowerElem.zero(T), TowerElem.from_int(T, q1 ** (n + 1))
    for s, prod in terms(ii.M):
        q_nf = q_nf + prod.scale(pow(q * inv_q1, n + 2 - s, T.pN))
        q_nfstar = q_nfstar + prod
    q_ngstar = TowerElem.from_int(T, q1 ** n)
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
        assert charsum_triple(ii, k) == _direct_qcounts(ii, k), \
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
        assert charsum_triple(ii, k) == _direct_qcounts(ii, k), (n, q, k)
    f2 = {case for case in _LIFT_CASES if _lift_degree(*case) == 2}
    assert f2 >= {(2, 5, 2), (2, 5, 4), (3, 3, 2), (3, 3, 4)}


def test_gauss_field_degree_is_the_lift_degree():
    for n, q, k in _LIFT_CASES:
        assert gauss_field_degree(inst(n, q, 1, 0), k) == _lift_degree(n, q, k)
        assert gauss_field_degree(inst(n, q, 1, 1), k) == k


def test_each_gauss_sum_is_computed_once_per_tower(capsys, monkeypatch):
    # once per (field model, source precision): the towers of a run read
    # their model's one Gauss source, and GF(125), asked for at N = 13, 16
    # and 19 by n = 2, 3 and 4, folds each coset once
    from dworkzeta import counting, padic
    from dworkzeta.cli import main

    real = GaussSource._fold
    asks = []

    def spy(source, c):
        asks.append((source.tower.field, source.N, c))
        return real(source, c)

    counting._family_sums.cache_clear()
    build_tower.cache_clear()
    padic._sources.cache_clear()
    monkeypatch.setattr(GaussSource, "_fold", spy)
    assert main(["congruence", "--n", "2", "--p", "5", "--lambda", "all",
                 "--k", "2"]) == 0
    assert asks and len(asks) == len(set(asks))
    for n in (2, 3, 4):
        assert main(["congruence", "--n", str(n), "--p", "5", "--lambda",
                     "all", "--k", "3"]) == 0
    capsys.readouterr()
    assert len(asks) == len(set(asks))
    gf125 = [(N, c) for F, N, c in asks if F.pp.q == 125]
    assert {N for N, _ in gf125} == {25}
    assert len({c for _, c in gf125}) == len(gf125) == 43


def test_charsum_count_refuses_a_foreign_matrix_or_class(monkeypatch):
    from dworkzeta import counting

    ii = inst(2, 5, 1, 2)
    with pytest.raises(ValueError, match="matrices M and N"):
        charsum_count(ii, dwork_matrix_M(3))

    class Part:  # a family part keyed by a class outside [0, q-1) = [0, 4)
        mirror = {4: (0,) * 5}

    monkeypatch.setattr(counting, "_family_sums", lambda *args: Part)
    with pytest.raises(ValueError, match="class 4 is not a residue mod 4"):
        charsum_count(ii, ii.Nmat)


def test_no_counter_counts_the_mirror_off_the_torus(monkeypatch):
    # N's column for 1/(x_1...x_n) has no value at 0: both counters refuse
    # an affine count of it before they build a field or a tower
    from dworkzeta import counting

    def build(*args, **kwargs):
        raise AssertionError("built something")

    ii = inst(2, 5, 1, 1)
    monkeypatch.setattr(counting, "build_field", build)
    monkeypatch.setattr(counting, "build_tower", build)
    monkeypatch.setattr(DworkInstance, "extension", build)
    for count in (count_brute, charsum_count):
        with pytest.raises(ValueError, match="no affine count"):
            count(ii, ii.Nmat, 1, torus=False)


def test_lam_zero_count_builds_no_teichmuller_table():
    # at lam = 0 the class c = k_last mod (q-1) is pinned to 0, so no term
    # is twisted and the base tower's Teichmuller table stays unbuilt; at
    # n = 2 a count at lam != 0 twists (k_last = -3a) and fills it
    from dworkzeta import counting

    counting._family_sums.cache_clear()
    build_tower.cache_clear()
    F = build_field(5, 1, 0)
    for n in (3, 2):
        towers = []
        for k in (1, 2, 3):
            count_record(DworkInstance(n, F, 0), k, with_nfstar=True)
            towers.append(build_tower(F, required_precision(5, 5 ** k, n)))
        assert [T._teich_pows for T in towers] == [None] * 3
    count_record(DworkInstance(2, F, 2), 1)
    assert towers[0]._teich_pows is not None


def test_lam_zero_count_builds_no_extension_field():
    rec = count_record(inst(3, 5, 1, 0), 11,
                       caps=Caps(field_table_max_q=25))
    assert rec.precision == required_precision(5, 5 ** 11, 3) == 56
    # lam != 0 still builds GF(5^3)
    with pytest.raises(FieldTooLarge):
        count_record(inst(3, 5, 1, 1), 3, caps=Caps(field_table_max_q=25))


def test_charsum_count_embeds_nothing(monkeypatch):
    # the character sum reads lam in the base field: only the brute-force
    # route embeds it into GF(q^k)
    from dworkzeta import counting

    real, calls = counting.embed, []

    def embed(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(counting, "embed", embed)
    ii = DworkInstance(2, build_field(3, 2), 3)
    count_record(ii, 2, method="charsum")
    assert calls == []
    count_record(ii, 2, method="both")  # which checks charsum == brute
    assert calls


def test_family_part_walks_solutions_once_per_class(capsys, monkeypatch):
    # no count path walks the solutions: one family pass per field and lam
    # mode serves M and N
    from dworkzeta import counting, family as fam, oracles
    from dworkzeta.cli import main

    real_walk, real_family, real_pencil = oracles.enumerate_solutions, \
        counting._family_sums.__wrapped__, fam._FamilyPass._pencil_sums
    walks, passes, pencils = [], [], []

    def walk(*args):
        walks.append(args)
        return real_walk(*args)

    def family(*args):
        passes.append(args)
        return real_family(*args)

    def pencil(self, *inputs):
        pencils.append(self)
        return real_pencil(self, *inputs)

    monkeypatch.setattr(oracles, "enumerate_solutions", walk)
    monkeypatch.setattr(counting, "_family_sums",
                        functools.lru_cache(maxsize=64)(family))
    monkeypatch.setattr(fam._FamilyPass, "_pencil_sums", pencil)
    assert main(["congruence", "--n", "2", "--p", "5", "--lambda", "all",
                 "--k", "2"]) == 0
    capsys.readouterr()
    assert walks == []
    # over GF(5) and GF(25), for lam = 0 and lam != 0, X's part once each
    assert len(passes) == 4 and len(set(passes)) == 4
    assert len(pencils) == 4
    # a count of Y alone leaves X's part unsummed
    ii = inst(3, 5, 1, 1)
    assert charsum_count(ii, ii.Nmat, 2) == count_brute(ii, ii.Nmat, 2)
    assert len(passes) == 5 and len(pencils) == 4
    ii = inst(2, 5, 1, 1)
    assert count_record(ii, 1, with_nfstar=True).Nfstar == \
        count_brute(ii, ii.M)
    assert count_record(ii, 1).Nfstar is None


def _reachable_ids(obj, seen) -> set:
    """The ids of obj and of everything reachable from it through tuples,
    lists, sets and dicts."""
    if id(obj) not in seen:
        seen.add(id(obj))
        if isinstance(obj, dict):
            obj = [*obj.keys(), *obj.values()]
        if isinstance(obj, (tuple, list, set, frozenset)):
            for x in obj:
                _reachable_ids(x, seen)
    return seen


def test_pass_for_y_alone_keeps_no_gauss_sum(monkeypatch):
    # a count of Y leaves X's part unsummed; the pass then holds its two
    # parts, Y's keyed by class c and, at g = 1, X's leader terms keyed by
    # (s, c), and besides them only what its matrices and field give: none
    # of the Gauss sums the towers and their sources keep and no
    # per-leader value
    from dworkzeta import counting, padic
    from dworkzeta.family import _solution_shapes

    real, passes, towers = counting._family_sums.__wrapped__, [], set()

    def family(*args):
        towers.update(a for a in args if isinstance(a, TowerCtx))
        passes.append((real(*args), args))
        return passes[-1][0]

    monkeypatch.setattr(counting, "_family_sums", family)
    for n, q, lam, k in ((3, 5, 1, 1), (2, 5, 1, 2), (4, 11, 1, 1),
                         (3, 5, 0, 2), (2, 5, 1, 1)):
        ii = inst(n, q, 1, lam)
        assert charsum_count(ii, ii.Nmat, k) == count_brute(ii, ii.Nmat, k)
    kept = {id(G) for T in towers for G in T._gauss_memo.values()}
    assert kept
    kept |= {id(G) for T in towers
             for G in padic.gauss_source(T.field, T.N)._gauss.values()}
    # (2, 5, 1, 1) is at g = 1, where X's leader terms are summed with Y's
    assert [bool(part._x_sums) for part, _ in passes] == [False] * 4 + [True]
    for part, (_, q, M, Nm, lam_zero, *_) in passes:
        assert part._pencil is None
        held = dict(vars(part))
        assert not kept & _reachable_ids(held, set())
        assert all(c in range(q - 1) for c in held.pop("mirror"))
        assert all(len(key) == 2 for key in held.pop("_x_sums"))
        assert [held.pop(name) for name in ("_diagonal", "_x_lifts")] == \
            list(_solution_shapes(M, Nm, lam_zero))
        assert all(isinstance(v, (int, type(None), TowerCtx,
                                  functools.partial))
                   for v in held.values()), held


def _per_vector_sums(F, N, matrix, lam_zero, m=1, q=None, by_class=False):
    """The family part summed one solution vector at a time on a fresh
    tower over F = GF(q_f), every Gauss sum over GF(Q), Q = q_f^m, read
    from the lifted table G_Q(t (Q-1)/(q_f-1)) = (-1)^{m-1} G_{q_f}(t)^m
    (boundaries included), except G_Q(0) = Q-1; keyed like
    `_family_sums`, by (s(k), c) or, by_class, by c alone (summed over s),
    c = k_last folded mod q-1 for the base field GF(q) (q_f by default),
    values as Z_p coordinates."""
    T = TowerCtx(F, N)
    table = gauss_elems(T)
    Q1 = F.pp.q ** m - 1
    step = Q1 // (F.pp.q - 1)
    q1 = (q or F.pp.q) - 1
    sums, seen = {}, set()
    for k, s in each_solution(matrix, Q1 + 1, lam_zero):
        prod = TowerElem.one(T)
        for kj in k:
            prod = prod * (TowerElem.from_int(T, Q1) if kj == 0 else
                           (table[kj // step] ** m).scale((-1) ** (m - 1)))
        key = k[-1] % q1 if by_class else (s, k[-1] % q1)
        sums[key] = sums[key] + prod if key in sums else prod
        seen.update(kj for kj in k if kj in (0, Q1))
    return {key: _zp_rows(v) for key, v in sums.items()}, len(seen) == 2


def _zp_rows(x):
    """The pi-coordinates of x, a value of Z_p[zeta_p]: its y^0 column,
    after checking that every other coordinate is 0."""
    assert all(v == 0 for row in x.rows for v in row[1:]), x
    return tuple(row[0] for row in x.rows)


def _family_cases():
    """(n, p, r, f, m, lam_zero): base field GF(p^r), Gauss sums over
    GF(p^(r f)), lifted to GF(p^(r f m))."""
    cases = [(n, p, r, 1, 1, lam_zero) for n in (2, 3, 4)
             for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2),
                          (5, 2)) for lam_zero in (True, False)]
    # lam = 0 over GF(q^k) reads GF(q^f), f = the lift degree, m = k/f
    cases += [(n, q, 1, _lift_degree(n, q, k), k // _lift_degree(n, q, k),
               True) for n, q, k in _LIFT_CASES if k > 1]
    # lam != 0 over GF(q^k) reads GF(q^k) and twists by chi(lam) from GF(q)
    cases += [(n, p, r, k, 1, False) for n in (2, 3, 4)
              for p, r, k in ((2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2),
                              (3, 1, 3), (5, 1, 3), (2, 2, 3))]
    # the deepest products: n = 4 over GF(11)
    cases += [(4, 11, 1, 1, 1, lam_zero) for lam_zero in (True, False)]
    assert {(2, 5, 1, 2, 1, True), (3, 3, 1, 2, 2, True),
            (3, 3, 1, 3, 1, False)} <= set(cases)
    return cases


def _family_part(n, p, r, f, m, lam_zero):
    """(base tower, Gauss field, N, {X, Y} parts as Z_p rows) of one
    uncached family pass."""
    from dworkzeta.family import _family_sums

    F, Ff = build_field(p, r, 0), build_field(p, r * f, 0)
    N = required_precision(p, Ff.pp.q ** m, n)
    base = TowerCtx(F, N)
    family = _family_sums.__wrapped__(
        TowerCtx(Ff, N), base.q, dwork_matrix_M(n), dwork_matrix_N(n),
        lam_zero, m)
    return base, Ff, N, [{key: _zp_rows(TowerElem.from_zp(base, x))
                          for key, x in part.items()}
                         for part in (family.pencil(), family.mirror)]


def test_family_part_matches_per_vector_sum_key_by_key():
    # one pass gives X's part, equal to M's per-vector sum key by key, and
    # Y's, equal to N's summed over s class by class
    for n, p, r, f, m, lam_zero in _family_cases():
        base, Ff, N, parts = _family_part(n, p, r, f, m, lam_zero)
        for matrix, fast, by_class in zip(
                (dwork_matrix_M(n), dwork_matrix_N(n)), parts, (False, True)):
            slow, both = _per_vector_sums(Ff, N, matrix, lam_zero, m,
                                          base.q, by_class)
            assert both, "G(0) and G(Q-1) must both occur"
            assert fast == slow, (n, p, r, f, m, lam_zero, matrix)


def test_mirror_part_is_the_diagonal_of_the_pencil():
    # the N solutions are the M solutions whose block residues are all
    # equal: Y's family part is the sum of M's per-vector terms over those,
    # keyed by their class k_last mod (q-1) alone
    gs = set()
    for n in (2, 3, 4):
        for p, r in ((2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (2, 3), (5, 2),
                     (11, 1), (13, 1)):
            Q1 = p ** r - 1
            gs.add(gcd(n + 1, Q1) > 1)
            for lam_zero in (True, False):
                base, F, N, (_, y) = _family_part(n, p, r, 1, 1, lam_zero)
                T = TowerCtx(F, N)
                table = gauss_elems(T)
                want = {}
                for k, _ in each_solution(dwork_matrix_M(n), Q1 + 1,
                                          lam_zero):
                    if len({kj % Q1 for kj in k[:n + 1]}) > 1:
                        continue
                    prod = TowerElem.one(T)
                    for kj in k:
                        prod = prod * table[kj]
                    key = k[-1] % Q1
                    want[key] = want[key] + prod if key in want else prod
                assert y == {key: _zp_rows(v) for key, v in want.items()}, \
                    (n, p, r, lam_zero)
    assert gs == {False, True}  # g = 1 and g > 1 both occur


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_walk_weights_match_every_solution(n):
    # over GF(Q), Q = p^e, and each proper subfield GF(base_q): the orbit
    # representatives, weighted by their counts, carry every invariant the
    # family part reads, as often as the unreduced walk does
    for p, e in ((2, 3), (3, 2), (5, 2), (3, 3), (2, 6), (5, 3)):
        Q1 = p ** e - 1
        least = {kj: min(kj * p ** i % Q1 for i in range(e))
                 for kj in range(1, Q1)}
        for f in (f for f in range(1, e) if e % f == 0):
            base_q = p ** f

            def key(k, s):
                return (s, k[-1] % (base_q - 1),
                        tuple(sorted(least[kj] for kj in k if 0 < kj < Q1)),
                        k.count(0), k.count(Q1))

            for matrix in (dwork_matrix_M(n), dwork_matrix_N(n)):
                for lam_zero in (False, True):
                    want = collections.Counter(
                        key(k, s) for k, s in
                        each_solution(matrix, Q1 + 1, lam_zero))
                    got = collections.Counter()
                    for k, s, count in enumerate_solutions(
                            matrix, Q1 + 1, lam_zero, base_q):
                        got[key(k, s)] += count
                    assert got == want, (n, Q1 + 1, base_q, lam_zero)


def test_family_part_walks_one_class_per_orbit(monkeypatch):
    from dworkzeta import family
    from dworkzeta.family import _family_sums

    T = TowerCtx(build_field(5, 3, 0), required_precision(5, 125, 3))
    T.gauss_table()
    M = dwork_matrix_M(3)
    # GF(125) over GF(5), lam != 0: a -> 5 a has order 3 mod d = 31, so the
    # 31 residue classes a fall into {0} and ten orbits of three
    reps = list(enumerate_solutions(M, 125, False, 5))
    assert len(reps) == 140
    assert len(list(enumerate_solutions(M, 125, False))) == 340
    assert sum(count for _, _, count in reps) == 2234 == \
        sum(1 for _ in each_solution(M, 125))

    real_power, real_leaders, powers, walks = ZpCyclic.power, \
        family._orbit_leaders, [], []

    def power(ring, a, e):
        powers.append((ring.tower, ring.g, e))
        return real_power(ring, a, e)

    def orbit_leaders(*args):
        walks.append([])
        for a, size in real_leaders(*args):
            walks[-1].append(size)
            yield a, size

    monkeypatch.setattr(ZpCyclic, "power", power)
    monkeypatch.setattr(family, "_orbit_leaders", orbit_leaders)
    part = _family_sums.__wrapped__(T, 5, M, dwork_matrix_N(3), False)
    assert len(walks) == 1
    part.pencil()
    # Y's part, then X's at g = 4: each walks one class per orbit
    assert [sorted(sizes) for sizes in walks] == [[1] + [3] * 10] * 2
    # at m = 1 every power is a family power, to e = n+1 = 4: no
    # Hasse-Davenport power
    assert powers and {e for _, _, e in powers} == {4}
    # at m > 1 the Hasse-Davenport powers G^m, one per coset minimum, on
    # the g = 1 ring of the Gauss tower; the rest are family powers
    powers.clear()
    T1 = TowerCtx(build_field(5, 1, 0), required_precision(5, 25, 3))
    part = _family_sums.__wrapped__(T1, 5, M, dwork_matrix_N(3), True, 2)
    inner = {kj for k, _ in each_solution(M, 25, True) for kj in k
             if 0 < kj < 24}
    assert part.pencil() and part.mirror
    assert [x for x in powers if x[2] != 4] == \
        [(T1, 1, 2)] * len({min(kj, kj * 5 % 24) for kj in inner})
    # at g = 1 (n = 2 over GF(5)) X's leader terms are Y's: only Y walks
    walks.clear()
    T5 = TowerCtx(build_field(5, 1, 0), required_precision(5, 5, 2))
    _family_sums.__wrapped__(T5, 5, dwork_matrix_M(2), dwork_matrix_N(2),
                             False).pencil()
    assert walks == [[1, 1, 1, 1]]


@pytest.mark.parametrize("n", [3, 2])
def test_fiber_part_twists_at_most_once_per_class(n, capsys, monkeypatch):
    # chi(lam) for lam in GF(q) has order dividing q-1: the classes are
    # k_last mod (q-1), so a count passes `zp_integer` one term per key of
    # the family part, (s, c) for X and c for Y, and X's each s, or Y's
    # classes in all, at most q-2 twisted terms.
    # Every k_last is a multiple of n+1, so at n = 3, q = 5 no term is
    # twisted.
    from dworkzeta import counting
    from dworkzeta.cli import main

    real_count, real_family = counting.charsum_count, counting._family_sums
    real_integer = TowerCtx.zp_integer
    counts, seen = [], {}  # [twisted terms, s values, q] per count

    def family(*args):
        seen["pass"] = real_family(*args)
        return seen["pass"]

    def integer(tower, terms):
        seen["tower"], seen["terms"] = tower, list(terms)
        return real_integer(tower, seen["terms"])

    def count(inst, matrix, k, torus, caps):
        seen.clear()
        out = real_count(inst, matrix, k, torus, caps)
        part = (seen["pass"].pencil() if matrix == inst.M
                else seen["pass"].mirror)
        # one term per key, in the part's order, untwisted where c = 0:
        # its W value is its weight alone
        T, terms = seen["tower"], seen["terms"]
        v, m, Q, pN = len(matrix), len(matrix[0]), inst.field.pp.q ** k, T.pN
        assert [x for x, _ in terms] == list(part.values())
        keys = list(part) if matrix == inst.M else [(None, c) for c in part]
        twisted = 0
        for (s, c), (_, w) in zip(keys, terms):
            weight = (pow(Q - 1, v - m, pN) if torus else
                      pow(Q - 1, s - m, pN) * Q ** (v - s) % pN)
            if tuple(u % pN for u in w) != (weight,) + (0,) * (T.r - 1):
                assert c, (s, c, w)
                twisted += 1
        counts.append([twisted, len({s for s, _ in keys}), T.q])
        return out

    monkeypatch.setattr(counting, "_family_sums", family)
    monkeypatch.setattr(TowerCtx, "zp_integer", integer)
    monkeypatch.setattr(counting, "charsum_count", count)
    assert main(["congruence", "--n", str(n), "--p", "5", "--lambda", "all",
                 "--k", "3"]) == 0
    capsys.readouterr()
    # M and N for k = 1..3, at lam = 0 and at the four lam != 0
    assert len(counts) == 2 * 3 * 5
    assert all(twisted <= s_values * (q - 2)
               for twisted, s_values, q in counts), counts
    assert (max(twisted for twisted, _, _ in counts) > 0) == (n == 2), counts


def test_brute_force_caps_are_sharp(tmp_path, capsys):
    import json

    from dworkzeta.cli import main

    # n = 2 over GF(5): N_f walks 5^3 = 125 points, N_f* 4^3 = 64 and
    # N_g* 4^2 = 16
    ii = inst(2, 5, 1, 1)
    counts = {"Nf": lambda caps: count_brute(ii, ii.M, torus=False, caps=caps),
              "Nfstar": lambda caps: count_brute(ii, ii.M, caps=caps),
              "Ngstar": lambda caps: count_brute(ii, ii.Nmat, caps=caps)}

    def refused(**caps):
        caps = Caps(**{"affine_enum_max": 125, "torus_enum_max": 64, **caps})
        out = set()
        for name, count in counts.items():
            try:
                count(caps)
            except EnumerationTooLarge:
                out.add(name)
        return out

    assert refused() == set()
    assert refused(affine_enum_max=124) == {"Nf"}
    assert refused(torus_enum_max=63) == {"Nfstar"}
    assert refused(torus_enum_max=15) == {"Nfstar", "Ngstar"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"caps": {"affine_enum_max": 124}}))
    assert main(["count", "--n", "2", "--p", "5", "--lambda", "zero",
                 "--method", "brute", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("cap exceeded: ")
