import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dworkzeta
from dworkzeta import cli, counting
from dworkzeta.cli import main
from dworkzeta.errors import NoConsistentSign


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, rows


def test_count_all_lambdas_oracle_consistent(capsys):
    code, rows = run(capsys, "count", "--n", "2", "--p", "7", "--r", "1",
                     "--lambda", "all", "--method", "both")
    assert code == 0
    assert len(rows) == 7  # lambda = 0 and the six units
    assert sum(1 for rec in rows if rec["lambda_dlog"] is None) == 1
    for rec in rows:
        assert int(rec["X"]) * 6 == int(rec["Nf"]) - 1


def test_count_extension_records(capsys):
    code, rows = run(capsys, "count", "--n", "3", "--p", "2", "--r", "1",
                     "--k", "3", "--lambda", "zero", "--method", "both")
    assert code == 0
    assert [rec["k"] for rec in rows] == [1, 2, 3]


def test_count_missing_n_is_config_error(capsys):
    code = main(["count", "--p", "7"])
    assert code == cli.EXIT_CONFIG


def test_bad_lambda_is_config_error(capsys):
    code = main(["count", "--n", "2", "--p", "7", "--lambda", "nope"])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv,config", [
    (["count", "--n", "2", "--p", "4"], None),
    (["count", "--n", "1", "--p", "5"], None),
    (["count", "--n", "2", "--p", "5", "--r", "0"], None),
    (["gauss", "--p", "5", "--N", "0"], None),
    (["sweep"], {"prime_list": [4]}),
    (["sweep"], {"n_list": [1]}),
], ids=["p-not-prime", "n-1", "r-0", "N-0", "sweep-p-not-prime", "sweep-n-1"])
def test_bad_parameters_exit_2_without_traceback(tmp_path, capsys, argv,
                                                 config):
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(argv) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_zeta_does_not_import_sympy():
    src = str(Path(dworkzeta.__file__).resolve().parents[1])
    code = ("import contextlib, io, sys\n"
            "from dworkzeta.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['zeta', '--n', '3', '--p', '7', '--lambda', 'all'])\n"
            "assert code == 0, code\n"
            "assert 'sympy' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_congruence_all_pass(capsys):
    code, rows = run(capsys, "congruence", "--n", "2", "--p", "7",
                     "--lambda", "all", "--k", "2")
    assert code == 0
    summary = rows[-1]
    assert summary["failures"] == 0 and summary["rows"] == 14
    assert all(r["verdict"] == "pass" for r in rows[:-1])
    assert all(r["x_torus_form"] == "pass" for r in rows[:-1])


def test_congruence_detects_perturbed_count(capsys, monkeypatch):
    real = counting.count_Y

    def perturbed(ngstar, n, q):
        return real(ngstar, n, q) + 1

    monkeypatch.setattr(counting, "count_Y", perturbed)
    code, rows = run(capsys, "congruence", "--n", "2", "--p", "5",
                     "--lambda", "zero", "--k", "1")
    assert code == cli.EXIT_CONGRUENCE
    assert rows[0]["verdict"] == "fail"
    assert rows[0]["residue_diff"] != "0"


def test_count_lambda_dlog_matches_congruence_at_every_k(capsys):
    argv = ["--n", "2", "--p", "5", "--lambda", "all", "--k", "3"]
    code, counts = run(capsys, "count", *argv, "--method", "charsum")
    assert code == 0
    code, cong = run(capsys, "congruence", *argv)
    assert code == 0
    cong = cong[:-1]  # drop the summary row
    assert len(counts) == len(cong) == 15
    for i in range(0, 15, 3):
        dlogs = {row["lambda_dlog"] for row in counts[i:i + 3] + cong[i:i + 3]}
        assert len(dlogs) == 1
    assert [row["lambda_dlog"] for row in counts[::3]] == [None, 0, 1, 3, 2]


def test_zeta_smooth_lambda(capsys):
    # lambda token is a dlog exponent; 0 means lambda = 1, smooth over F_5
    code, rows = run(capsys, "zeta", "--n", "2", "--p", "5", "--lambda", "0")
    assert code == 0
    row = rows[0]
    assert row["schema"] == 2 and row["smoothness"] == "smooth"
    assert row["X"]["numerator_coeffs"] == row["Y"]["numerator_coeffs"]
    assert len(row["X"]["numerator_coeffs"]) == 3
    assert row["R_coeffs"] == ["1"]
    assert float(row["purity_X_dev"]) < 1e-8


def test_zeta_singular_lambda_guarded(capsys):
    # dlog 1 -> lambda = 2 over F_5, a degenerate fiber: Q only, no P
    code, rows = run(capsys, "zeta", "--n", "2", "--p", "5", "--lambda", "1")
    assert code == 0
    row = rows[0]
    assert row["schema"] == 2 and row["smoothness"] == "singular"
    assert "Y" in row and "X" not in row


def test_slope_command_elliptic(capsys):
    code, rows = run(capsys, "slope", "--n", "2", "--p", "7", "--lambda", "zero")
    assert code == 0
    row = rows[0]
    assert row["fe_X"] == "pass" and row["fe_Y"] == "pass"
    assert row["slope_zeta_X"] == {} == row["slope_zeta_Y"]
    assert row["slope_mirror_symmetry"] is True
    assert row["X_ordinary"] is True
    assert row["X_newton_above_hodge"] is True


def test_slope_command_k3_mirror(capsys):
    # p = 5 = 1 mod 4: the lam = 0 mirror is ordinary
    code, rows = run(capsys, "slope", "--n", "3", "--p", "5", "--lambda", "zero")
    assert code == 0
    row = rows[0]
    assert row["fe_Y"] == "pass"
    assert row["Y_ordinary"] is True
    assert row["slope_zeta_Y"] == {"0/1": -2, "1/1": -2, "2/1": -2}


def test_slope_command_k3_supersingular_fiber(capsys):
    # p = 7 = 3 mod 4: the lam = 0 mirror numerator has slopes {1,1,1}
    code, rows = run(capsys, "slope", "--n", "3", "--p", "7", "--lambda", "zero")
    assert code == 0
    row = rows[0]
    assert row["fe_Y"] == "pass"
    assert row["Y_ordinary"] is False
    assert row["slope_zeta_Y"] == {"0/1": -1, "1/1": -4, "2/1": -1}


def test_gauss_dump_matches_engine(capsys):
    code, rows = run(capsys, "gauss", "--p", "3", "--r", "2", "--N", "4")
    assert code == 0
    header, table = rows[0], rows[1:]
    assert header["p"] == 3 and header["r"] == 2 and header["N"] == 4
    assert len(table) == 9  # one record per k in [0, q-1]
    from dworkzeta.ff import build_field
    from dworkzeta.padic import TowerCtx

    T = TowerCtx(build_field(3, 2, 0), 4)  # not the command's cached tower
    for rec in table:
        g = T.gauss_sums([rec["k"]])[0]
        flat = [str(c) for row_ in g.rows for c in row_]
        assert rec["coords"] == flat


def test_slope_reports_a_failed_fiber_and_goes_on(capsys):
    # the lam = 0 Fermat fiber admits both functional-equation signs
    code, rows = run(capsys, "slope", "--n", "4", "--p", "3",
                     "--lambda", "all")
    assert code == cli.EXIT_RECOVERY
    assert len(rows) == 3
    assert rows[0] == {"schema": 2, "n": 4, "p": 3, "r": 1,
                       "lambda_dlog": None, "error": rows[0]["error"]}
    assert "ambiguous" in rows[0]["error"]
    assert [row["lambda_dlog"] for row in rows[1:]] == [0, 1]
    assert all("error" not in row for row in rows[1:])


def test_sweep_roundtrip(tmp_path, capsys):
    cfg = {"n_list": [2], "prime_list": [3, 5], "r_list": [1], "k_max": 2,
           "lambda_mode": "all", "zeta_n_max": 2, "seed": 0,
           "out_dir": str(tmp_path / "a")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "a")])
    assert code == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["congruence_failures"] == 0
    assert summary["completed"] == summary["instances"] == 8
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["failures"] == []
    # determinism: rerun into a second directory, compare bytes
    code = main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "b"), "--threads", "2"])
    assert code == 0
    for name in ("counts.jsonl", "congruence.jsonl", "zeta.jsonl",
                 "summary.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_sweep_empty_grid(tmp_path, capsys):
    cfg = {"n_list": [], "prime_list": [5], "r_list": [1], "k_max": 1,
           "lambda_mode": "all", "seed": 0, "out_dir": str(tmp_path / "e")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "e")])
    assert code == 0
    summary = json.loads((tmp_path / "e" / "summary.json").read_text())
    assert summary["instances"] == 0


def test_sweep_cap_exceeded(tmp_path, capsys):
    # lam = 1 (dlog 0) would build GF(5^20)
    cfg = {"n_list": [2], "prime_list": [5], "r_list": [1], "k_max": 20,
           "lambda_mode": "list", "seed": 0, "out_dir": str(tmp_path / "c"),
           "lambda_list": [0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "c")])
    assert code == cli.EXIT_CAP
    assert "instance 2,5,1 exceeds caps" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()  # refused before any cell ran


def test_sweep_cap_guard_reads_the_lam_zero_lift_field(tmp_path, capsys):
    # the Fermat fiber over GF(5^k), k <= 12, reads its Gauss sums over
    # GF(5^f) with f <= 2, far below the caps
    cfg = {"n_list": [3], "prime_list": [5], "k_max": 12,
           "lambda_mode": "zero"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "z"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--threads", "1"]) == 0
    counts = [json.loads(line)
              for line in (out / "counts.jsonl").read_text().splitlines()]
    assert [row["k"] for row in counts] == list(range(1, 13))


# SHA-256 of the deterministic sweep outputs for GOLDEN_CONFIG, captured
# from the brute-force-probe implementation that closed-form smoothness
# replaced.  manifest.json was re-serialized without the retired
# caps.probe_enum_max key; every other file is byte-for-byte as it wrote it.
GOLDEN_CONFIG = {"n_list": [2, 3], "prime_list": [2, 3, 5], "k_max": 2,
                 "lambda_mode": "all", "zeta_n_max": 2, "seed": 0}
GOLDEN_SHA256 = {
    "counts.jsonl":
        "e00dc345b4868e09b5a533436373dfe77281e1578a9e5d69a277bad47bbf8166",
    "congruence.jsonl":
        "37dfe0423cbe2e02a5e97a9090e84afeda42354eba7944b6b67d1fc289a4071f",
    "zeta.jsonl":
        "b85e6e3388453fc2f7eb10389defde9910f5359e5c094c82bd9fcc2d374a6e53",
    "summary.json":
        "bdb66e809eb36567e29daac31597e8df6d80973a32203eafae4239f2b6115d01",
    "manifest.json":
        "87c0f4c229c751682217fbf4fd1dea051d80602c9b9d76c8ebf07e5c10806bf6",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_golden_digests(tmp_path, capsys, threads):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(GOLDEN_CONFIG))
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--threads", threads])
    assert code == 0
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            digest, name


def test_unknown_config_keys_are_config_errors(tmp_path, capsys):
    # caps.probe_enum_max belonged to the retired brute-force smoothness probe
    old = {"n_list": [2], "prime_list": [5], "k_max": 1,
           "caps": {"probe_enum_max": 8388608}}
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps(old))
    code = main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "probe_enum_max" in capsys.readouterr().err
    code = main(["zeta", "--n", "2", "--p", "5", "--config", str(cfg_path)])
    assert code == cli.EXIT_CONFIG
    assert "probe_enum_max" in capsys.readouterr().err

    cfg_path.write_text(json.dumps({"n_list": [2], "k_maximum": 1}))
    code = main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "k_maximum" in capsys.readouterr().err


@pytest.mark.parametrize("key,config", [
    ("k_max", {"k_max": "2"}), ("seed", {"seed": "0"}),
    ("zeta_n_max", {"zeta_n_max": "2"}), ("threads", {"threads": "1"}),
    ("k_max", {"k_max": True}), ("prime_list", {"prime_list": ["3"]}),
    ("n_list", {"n_list": [2.0]}), ("r_list", {"r_list": "1"}),
    ("lambda_list", {"lambda_mode": "list", "lambda_list": [None]}),
    ("field_table_max_q", {"caps": {"field_table_max_q": "25"}}),
], ids=["k_max", "seed", "zeta_n_max", "threads", "k_max-bool",
        "prime_list", "n_list", "r_list", "lambda_list", "caps"])
def test_non_integer_config_values_are_config_errors(tmp_path, capsys, key,
                                                     config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [2], "prime_list": [3],
                                    "k_max": 1, **config}))
    code = main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and key in err


def test_sweep_config_tier_is_kept(tmp_path, capsys):
    cfg = {"n_list": [2], "prime_list": [3], "k_max": 1,
           "lambda_mode": "zero", "tier": "extended"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for argv, tier in (([], "extended"), (["--tier", "ci"], "ci")):
        out = tmp_path / tier
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]
                    + argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["tier"] == tier


@pytest.mark.parametrize("key,value", [("tier", "extnded"),
                                       ("lambda_mode", "every")])
def test_unknown_tier_or_lambda_mode_is_config_error(tmp_path, capsys,
                                                      monkeypatch, key, value):
    # refused at load, before any field is built
    monkeypatch.setattr(cli, "build_field", None)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [2], "prime_list": [3],
                                    key: value}))
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert repr(value) in capsys.readouterr().err
    assert not out.exists()


def test_sweep_recovery_failure_exits_6(tmp_path, capsys, monkeypatch):
    def no_sign(inst, **_kw):
        raise NoConsistentSign("injected")

    monkeypatch.setattr(cli, "recover_mirror_zeta", no_sign)
    cfg = {"n_list": [2], "prime_list": [5], "k_max": 1,
           "lambda_mode": "zero", "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "f"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--threads", "1"])
    assert code == cli.EXIT_RECOVERY
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == [
        {"key": [2, 5, 1, 0], "error": "NoConsistentSign: injected"}]


# SHA-256 of stdout and the exit code of single-instance commands, captured
# before zeta, slope, congruence and sweep shared one per-instance report;
# `count` after its lambda_dlog became the base-field log at every k; the
# zeta error rows after they carried the fiber's lambda_dlog; `gauss`
# before the p-adic ring moved to the x^p - 1 basis.
# Covered: singular fibers (n = 2, p = 5), an n = 3 slope, an r = 2 field,
# the per-lambda recovery-error rows of zeta (n = 4, p = 2), and Gauss
# tables over GF(8), GF(9) and GF(13).  The n = 3, p = 7 zeta rows were
# captured while `square_free_part` still called sympy: their first fiber
# has Q = (1 - 7T)^2 (1 + 7T), a purity check on a repeated root.
COMMAND_SHA256 = [
    (["zeta", "--n", "2", "--p", "5", "--lambda", "all"], 0,
     "6e4383dec51181cfcf2e2db4d13d67c01099b551d60647ebcae9fe23b67db7a8"),
    (["slope", "--n", "2", "--p", "5", "--lambda", "all"], 0,
     "5ebce2fe0afa97bf7ae9b3a7350a4f2fee9514e4e01d6dd065b496caa1f06603"),
    (["congruence", "--n", "2", "--p", "5", "--lambda", "all", "--k", "2"], 0,
     "21d06177003aa359403c2ceec0d9703e302135e450175cb55c7005fd1190a754"),
    (["slope", "--n", "3", "--p", "3", "--lambda", "all"], 0,
     "82397d769d7b5e09fd7da9e914648e2719fb9d668012fa35385af629d0906945"),
    (["zeta", "--n", "2", "--p", "3", "--r", "2", "--lambda", "all"], 0,
     "44a9e816902c9ce3fcde63dd5262a0eac0246ae410c73cba646568ce2302b123"),
    (["slope", "--n", "2", "--p", "3", "--r", "2", "--lambda", "all"], 0,
     "72335665cc1b0e8a51e155673e8de1381c1ec2d2c9da7ecbf686770711945fae"),
    (["congruence", "--n", "2", "--p", "3", "--r", "2", "--lambda", "all",
      "--k", "2"], 0,
     "66e11bbe7876a9e7620a2a834b11010a228e2ce2adae55fd75f65fdeae30b656"),
    (["zeta", "--n", "4", "--p", "2", "--lambda", "all"], cli.EXIT_RECOVERY,
     "1925f92c60b543572947066e694b40d1f2a9fdff76782cebd2dba1976e7a89f4"),
    (["zeta", "--n", "3", "--p", "7", "--lambda", "all"], 0,
     "6a7c273f1da7cb21eb6b9efa0e7d5c5cc38ab241af684b91e29e098e08ab30cd"),
    (["count", "--n", "2", "--p", "5", "--lambda", "all", "--k", "2",
      "--method", "both", "--nfstar"], 0,
     "381b4903441364f2d6e1190ba5c16b6e1dc730cee483521410d87269639e6b36"),
    # the pi-major `coords` are the one byte-level read-out of the p-adic ring
    (["gauss", "--p", "2", "--r", "3", "--N", "6"], 0,
     "ca75eb68fa7aa5d2c2ee310413acfb7c6d6eb4859240dc02d2da85e4b8aa7a27"),
    (["gauss", "--p", "3", "--r", "2", "--N", "8"], 0,
     "780cd6155735d3d40b0b45b412918ec09899c998d5f637cb1c74579787c2db9a"),
    (["gauss", "--p", "13", "--r", "1", "--N", "9"], 0,
     "02e2a0ec480a1253c794d2b54861d5eaa032e028b7ee066a08353332f150d1b0"),
]


@pytest.mark.parametrize("argv,exit_code,digest", COMMAND_SHA256,
                         ids=lambda v: "-".join(v) if isinstance(v, list)
                         else "")
def test_command_golden_digests(capsys, argv, exit_code, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_worker_exception_is_a_failure_row(tmp_path, capsys,
                                                 monkeypatch):
    real = counting.charsum_qcounts

    def broken(inst, *args, **kw):
        if inst.lam == 1:
            raise RuntimeError("injected")
        return real(inst, *args, **kw)

    monkeypatch.setattr(counting, "charsum_qcounts", broken)
    cfg = {"n_list": [2], "prime_list": [5], "k_max": 1,
           "lambda_mode": "all", "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "w"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--threads", "1"])
    assert code == cli.EXIT_ORACLE
    assert "RuntimeError: injected" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == [
        {"key": [2, 5, 1, 1], "error": "RuntimeError: injected"}]
    assert manifest["summary"]["completed"] == 4
    # the other lambdas' rows are written; over GF(5) lam = 2 is singular
    assert len((out / "counts.jsonl").read_text().splitlines()) == 4
    assert len((out / "zeta.jsonl").read_text().splitlines()) == 3


def test_sweep_failed_write_keeps_previous_files(tmp_path, capsys,
                                                 monkeypatch):
    out = tmp_path / "s"
    cfg = {"n_list": [2], "prime_list": [3], "k_max": 1,
           "lambda_mode": "all", "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out),
            "--threads", "1"]
    assert main(argv) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert "manifest.json" in before

    real_dump = json.dump

    def dump(obj, fh, **kw):
        if "manifest.json" in fh.name:
            raise OSError("injected: disk full")
        real_dump(obj, fh, **kw)

    monkeypatch.setattr(json, "dump", dump)
    cfg_path.write_text(json.dumps({**cfg, "seed": 1}))
    with pytest.raises(OSError, match="injected"):
        main(argv)
    assert (out / "manifest.json").read_bytes() == before["manifest.json"]
    # the files written before the failure are replaced whole; no
    # temporary file is left behind
    assert sorted(f.name for f in out.iterdir()) == sorted(before)
