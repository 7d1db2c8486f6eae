"""One-line faults in the counting path, each installed by the `fault`
fixture of conftest.py: a command whose output a fault changes must exit
non-zero, with no brute-force count to compare against."""
import json

import pytest

from dworkzeta import cli
from dworkzeta.cli import main

N2_Q13 = ("--n", "2", "--p", "13")


def _zeta(capsys, argv):
    code = main(["zeta", *argv, "--lambda", "all"])
    return code, [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("name,argv,errors", [
    # lam = 0 is counted over GF(13^2) at m = 2 there, and the negated
    # sums leave no functional-equation sign for its numerators
    ("hd_sign", N2_Q13, 1),
    # the relabelling swaps smooth and singular fibers: each smooth fiber
    # gets a singular fiber's counts, whose numerator lacks full degree,
    # and each singular fiber a smooth fiber's, whose Q is not of the
    # conifold degree n - 1
    ("twist", ("--n", "3", "--p", "13"), 8),
    ("twist", ("--n", "3", "--p", "7"), 4),
])
def test_fault_that_changes_the_output_exits_6(capsys, fault, name, argv,
                                               errors):
    clean_code, clean = _zeta(capsys, argv)
    assert clean_code == cli.EXIT_OK
    fault(name)
    code, rows = _zeta(capsys, argv)
    assert rows != clean
    assert code == cli.EXIT_RECOVERY
    assert sum("error" in row for row in rows) == errors


def _numerators(rows) -> dict:
    """lambda_dlog -> the numerator coefficients of each zeta row, Q and,
    on a smooth fiber, P."""
    return {row["Y"]["lambda_dlog"]: [row[v]["numerator_coeffs"]
                                      for v in ("Y", "X") if v in row]
            for row in rows}


def test_twist_fault_relabels_lam_as_its_inverse(capsys, fault):
    # chi(lam)^{-c} = chi(1/lam)^c: every fiber prints the zeta of 1/lam,
    # a self-consistent row
    _, clean = _zeta(capsys, N2_Q13)
    fault("twist")
    code, rows = _zeta(capsys, N2_Q13)
    assert code == cli.EXIT_OK and rows != clean
    got, want = _numerators(rows), _numerators(clean)
    assert got == {e: want[None if e is None else -e % 12] for e in want}


@pytest.mark.xfail(strict=True, reason=(
    "the twist fault relabels lam as 1/lam and the smooth fibers of n = 2 "
    "over GF(13) are closed under inversion, so every row passes its "
    "checks; it needs a lam-dependent check that does not use the "
    "character sum, the Hasse-Witt rung s_1(Q) = N(F_1(z)) mod p of the "
    "unit-root certificate in ROADMAP.md"))
def test_twist_fault_on_an_inversion_closed_family_exits_non_zero(capsys,
                                                                   fault):
    fault("twist")
    code, _ = _zeta(capsys, N2_Q13)
    assert code != cli.EXIT_OK


@pytest.mark.parametrize("argv", [
    ("zeta", *N2_Q13),
    ("zeta", "--n", "2", "--p", "5", "--r", "2"),
    ("congruence", "--n", "3", "--p", "13", "--k", "2"),
])
def test_orbit_weight_fault_exits_4(fault, argv):
    # X's and Y's terms both lose their orbit lengths: a count leaves its
    # a-priori bound or is no longer 1 mod q - 1
    fault("orbit_weight")
    assert main([*argv, "--lambda", "all"]) == cli.EXIT_ORACLE


@pytest.mark.parametrize("argv", [
    ("zeta", *N2_Q13),
    # Y alone is recovered at n = 3: its lam = 0 fiber reads only the
    # mirror's a = 0 terms, where G(0) and G(Q-1) enter
    ("zeta", "--n", "3", "--p", "7"),
    ("congruence", "--n", "3", "--p", "13", "--k", "2"),
])
def test_ends_swapped_fault_exits_4(fault, argv):
    # G(0) and G(Q-1) swapped: a count leaves its a-priori bound
    fault("ends_swapped")
    assert main([*argv, "--lambda", "all"]) == cli.EXIT_ORACLE


def _by_lam(rows) -> dict:
    return {row["lambda_dlog"] if "error" in row else row["Y"]["lambda_dlog"]:
            row for row in rows}


def test_twist_fault_on_a_singular_fiber_is_caught(capsys, fault):
    # each singular fiber of n = 3 over GF(13) gets a smooth fiber's
    # counts, whose full-degree Q fails the conifold shape deg Q = n - 1
    argv = ("--n", "3", "--p", "13")
    _, clean = _zeta(capsys, argv)
    singular = {lam: row for lam, row in _by_lam(clean).items()
                if row.get("smoothness") == "singular"}
    assert len(singular) == 4
    fault("twist")
    _, rows = _zeta(capsys, argv)
    faulty = _by_lam(rows)
    assert all("error" in faulty[lam] for lam in singular)


C1_TO_C5 = {
    "C1": ("zeta", *N2_Q13),
    "C2": ("zeta", "--n", "3", "--p", "7"),
    "C3": ("zeta", "--n", "2", "--p", "5", "--r", "2"),
    "C4": ("zeta", "--n", "3", "--p", "3", "--r", "2"),
    "C5": ("congruence", "--n", "3", "--p", "13", "--k", "2"),
}


@pytest.mark.parametrize("name,changed", [
    # teich(m)^c = teich(m)^{-c} when (p-1) | 2c, so at p = 3 every sum
    # is unchanged; every other command reads some odd c at p = 5, 7, 13
    ("omega_sign", ("C1", "C2", "C3", "C5")),
    # GF(25) and GF(9) (C3, C4) have short trace-1 orbits, and so have
    # the GF(13^k) and GF(7^k), k = 2, that C1, C2 and C5 count over
    ("short_orbits", ("C1", "C2", "C3", "C4", "C5")),
    # the closed form negated: the lam = 0 fibers of C2, C3 and C4 are
    # supersingular, their sums over GF(49), GF(25) and GF(9) pure, and
    # the GF(13^2) that C1 and C5 count over has pure characters of
    # order 2, 7 and 14
    ("pure_sign", ("C1", "C2", "C3", "C4", "C5")),
])
@pytest.mark.parametrize("cmd", sorted(C1_TO_C5))
def test_fold_fault_exits_4_where_it_changes_the_output(capsys, fault, name,
                                                        changed, cmd):
    # the faults of the fold and of the closed form leave a count off its
    # a-priori bound, or not divisible by q: every command whose output
    # moves exits 4
    argv = [*C1_TO_C5[cmd], "--lambda", "all"]
    clean_code = main(argv)
    clean = capsys.readouterr().out
    assert clean_code == cli.EXIT_OK
    fault(name)
    code = main(argv)
    out = capsys.readouterr().out
    if cmd in changed:
        assert code == cli.EXIT_ORACLE and out != clean
    else:
        assert code == cli.EXIT_OK and out == clean
