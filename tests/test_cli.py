import concurrent.futures
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
from dworkzeta.config import Caps, SweepConfig
from dworkzeta.errors import (
    DivisibilityViolation,
    FieldTooLarge,
    NoConsistentSign,
    NonIntegralCoefficient,
)


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


@pytest.mark.parametrize("command", ["count", "congruence", "zeta", "slope"])
def test_bad_lambda_says_why_and_writes_no_file(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, "--n", "2", "--p", "5", "--lambda", "foo",
                 "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("bad configuration: ") and "'foo'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,config", [
    (["count", "--n", "2", "--p", "4"], None),
    (["count", "--n", "1", "--p", "5"], None),
    (["count", "--n", "2", "--p", "5", "--r", "0"], None),
    (["gauss", "--p", "5", "--N", "0"], None),
    (["gauss", "--p", "3", "--N", "1001"], None),
    (["sweep"], {"prime_list": [4]}),
    (["sweep"], {"n_list": [1]}),
    ([], None),
    (["frob", "--n", "2", "--p", "5"], None),
    (["count", "--n", "2", "--p", "5", "--bogus"], None),
    (["count", "--p", "5", "--n"], None),
    (["count", "--n", "--p", "5"], None),
    (["count", "--n", "2", "--p", "5", "--tier", "prod"], None),
    (["count", "--n", "2", "--p", "5", "--method", "fast"], None),
    (["count", "--n", "two", "--p", "5"], None),
    (["count", "--n", "2"], None),
    (["count", "--n", "2", "--p", "5", "--t", "ci"], None),
    (["count", "--n", "2", "--p", "5", "--nfstar=yes"], None),
], ids=["p-not-prime", "n-1", "r-0", "N-0", "N-1001", "sweep-p-not-prime",
        "sweep-n-1", "no-command", "unknown-command", "unknown-option",
        "no-value", "value-is-option", "bad-tier", "bad-method", "bad-int",
        "missing-p", "ambiguous-prefix", "flag-with-value"])
def test_bad_parameters_exit_2_without_traceback(tmp_path, capsys, argv,
                                                 config):
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(argv) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("bad configuration: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_option_forms_read_alike(capsys):
    base = ["count", "--n", "2", "--p", "5", "--method", "charsum"]
    outs = []
    for extra in (["--k", "3", "--lambda", "zero"],
                  ["--k=3", "--lam", "zero"],
                  ["--k", "1", "--lambda=zero", "--k", "3"]):
        assert main(base + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2] and len(outs[0].splitlines()) == 3


@pytest.mark.parametrize("argv,names", [
    (["-h"], ["count", "congruence", "zeta", "slope", "sweep", "gauss"]),
    (["count", "--help"], ["--n", "--p", "--r", "--seed", "--lambda", "--k",
                           "--method", "--nfstar", "--config", "--out",
                           "--threads", "--tier"]),
    (["gauss", "--p", "3", "-h"], ["--p", "--r", "--seed", "--N", "--config",
                                   "--out", "--threads", "--tier"]),
], ids=["commands", "count", "gauss"])
def test_help_names_every_command_or_option(capsys, argv, names):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [line.split()[0] for line in out.splitlines()[1:]] == names


def test_module_entry_point_prints_the_in_process_rows(capsys):
    argv = ["congruence", "--n", "2", "--p", "5", "--k", "2"]
    assert main(argv) == 0
    proc = subprocess.run([sys.executable, "-m", "dworkzeta.cli", *argv],
                          env=_fresh_env(), capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout == capsys.readouterr().out and proc.stderr == ""


def _fresh_env() -> dict:
    """The environment of a new Python process that imports this checkout."""
    src = str(Path(dworkzeta.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_fresh_interpreter(code: str, *flags: str):
    subprocess.run([sys.executable, *flags, "-c", code], env=_fresh_env(),
                   check=True, timeout=120)


def test_zeta_does_not_import_sympy():
    _run_fresh_interpreter(
        "import contextlib, io, sys\n"
        "from dworkzeta.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['zeta', '--n', '3', '--p', '7', '--lambda', 'all'])\n"
        "assert code == 0, code\n"
        "assert 'sympy' not in sys.modules\n")


# modules a command never needs: the record types are plain classes and
# namedtuples (dataclasses pulls in inspect, ast, dis and tokenize), no
# annotation is evaluated (typing), only a sweep with more than one worker
# starts a process pool, the oracles serve the tests alone, and the command
# line is read from cli's own option table (argparse would load gettext)
_DENIED_AT_IMPORT = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                     "typing", "multiprocessing", "concurrent.futures",
                     "dworkzeta.oracles", "argparse", "gettext")


def test_cli_import_loads_no_denied_module():
    # -S: a site hook that preloads one of them cannot hide a regression
    _run_fresh_interpreter(
        "import sys, dworkzeta.cli\n"
        f"loaded = [name for name in {_DENIED_AT_IMPORT!r}\n"
        "          if name in sys.modules]\n"
        "assert not loaded, loaded\n", "-S")


def test_commands_load_no_argument_parser_or_locale():
    # the option table needs neither argparse nor its message catalogue
    # (gettext, which loads locale), on a usage error or a run
    _run_fresh_interpreter(
        "import contextlib, io, sys\n"
        "from dworkzeta.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert main(['count', '--n', '2', '--p', '5', '--bogus']) == 2\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['count', '--n', '2', '--p', '5']) == 0\n"
        "loaded = [name for name in ('argparse', 'gettext', 'locale')\n"
        "          if name in sys.modules]\n"
        "assert not loaded, loaded\n", "-S")


def test_cli_import_holds_no_tower_element():
    # the runtime computes on coordinate tuples and packed integers; the
    # ring of tower elements is the tests' oracle, outside the package's
    # namespace and its exports
    _run_fresh_interpreter(
        "import sys, dworkzeta, dworkzeta.cli\n"
        "assert not hasattr(sys.modules['dworkzeta.padic'], 'TowerElem')\n"
        "assert not hasattr(dworkzeta, 'TowerElem')\n"
        "assert 'TowerElem' not in dworkzeta.__all__\n"
        "assert 'dworkzeta.oracles' not in sys.modules\n", "-S")


def test_cli_import_does_not_load_mpmath():
    _run_fresh_interpreter("import sys, dworkzeta.cli\n"
                           "assert 'mpmath' not in sys.modules\n")


def test_sweep_does_not_load_mpmath(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [2, 3, 4],
                                    "prime_list": [2, 3, 5], "k_max": 2}))
    _run_fresh_interpreter(
        "import sys\n"
        "from dworkzeta.cli import main\n"
        f"code = main(['sweep', '--config', {str(cfg_path)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--threads', '1'])\n"
        "assert code == 0, code\n"
        "assert 'mpmath' not in sys.modules\n")


def test_runs_without_mpmath():
    # purity is decided exactly: no command needs mpmath, including the
    # functional-equation completion of the degree-21 P at n = 3, q = 5
    _run_fresh_interpreter(
        "import contextlib, io, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from dworkzeta.cli import main\n"
        "for argv in (['zeta', '--n', '3', '--p', '7', '--lambda', 'all'],\n"
        "             ['zeta', '--n', '3', '--p', '5', '--lambda', 'zero',\n"
        "              '--tier', 'extended'],\n"
        "             ['slope', '--n', '3', '--p', '3', '--lambda', 'all']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    assert code == 0, (argv, code)\n")


def test_closed_stdout_exits_quietly():
    # the reader takes one line and closes the pipe; the dump (~280 KB) is
    # several times a pipe's 64 KiB, so a write always meets the closed pipe
    with subprocess.Popen(
            [sys.executable, "-m", "dworkzeta.cli", "gauss", "--p", "2",
             "--r", "11", "--N", "200"],
            env=_fresh_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        assert json.loads(proc.stdout.readline())["schema"] == 1
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""


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
    assert row["purity_X"] == row["purity_Y"] == "pass"


def test_zeta_singular_lambda_guarded(capsys):
    # dlog 1 -> lambda = 2 over F_5, a degenerate fiber: Q only, no P
    code, rows = run(capsys, "zeta", "--n", "2", "--p", "5", "--lambda", "1")
    assert code == 0
    row = rows[0]
    assert row["schema"] == 2 and row["smoothness"] == "singular"
    assert "Y" in row and "X" not in row


def test_zeta_subfield_reads_the_prime_field_fibers(capsys):
    # GF(25) over GF(5): the fibers are lam = 0 and the multiples of
    # (q-1)/(p-1) = 6 among the discrete logs
    code, rows = run(capsys, "zeta", "--n", "2", "--p", "5", "--r", "2",
                     "--lambda", "subfield")
    assert code == 0
    assert [row["Y"]["lambda_dlog"] for row in rows] == [None, 0, 18, 6, 12]


def test_sweep_runs_a_fiber_named_twice_once(tmp_path, capsys):
    # over GF(5) the dlogs 0 and 4 both name lam = 1, and -1 names lam = 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n_list": [2], "prime_list": [5], "k_max": 2, "lambda_mode": "list",
        "lambda_list": [0, 4, -1, -1]}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["instances"] == summary["completed"] == 2
    assert summary["ordinarity_fractions"]["n=2,p=5,r=1"]["tested"] == 2
    zeta = (out / "zeta.jsonl").read_text().splitlines()
    assert [json.loads(row)["key"][3] for row in zeta] == [1, 0]
    counts = (out / "counts.jsonl").read_text().splitlines()
    assert [json.loads(row)["lambda_dlog"] for row in counts] == \
        [0, 0, None, None]


def test_sweep_subfield_lambda_mode(tmp_path, capsys):
    cfg = {"n_list": [2], "prime_list": [5], "r_list": [2], "k_max": 2,
           "lambda_mode": "subfield", "zeta_n_max": 2, "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "out")]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["completed"] == summary["instances"] == 5
    counts = (tmp_path / "out" / "counts.jsonl").read_text().splitlines()
    assert [(row["lambda_dlog"], row["k"]) for row in map(json.loads, counts)
            ] == [(e, k) for e in (None, 0, 18, 6, 12) for k in (1, 2)]


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
    from dworkzeta.oracles import TowerElem
    from dworkzeta.padic import TowerCtx

    T = TowerCtx(build_field(3, 2, 0), 4)  # not the command's cached tower
    for rec in table:
        g = TowerElem.from_zp(T, T.gauss_sums([rec["k"]])[0])
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


def test_sweep_cap_guard_reads_the_zeta_row_counts(tmp_path, capsys):
    # k_max = 2, but the zeta row of the smooth n = 3 fiber counts Y up to
    # k = 3, over GF(7^3) = GF(343), above the cap
    cfg = {"n_list": [3], "prime_list": [7], "k_max": 2,
           "lambda_mode": "list", "lambda_list": [0], "zeta_n_max": 3,
           "caps": {"field_table_max_q": 100}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "z"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--threads", "1"])
    assert code == cli.EXIT_CAP
    assert "instance 3,7,1 exceeds caps" in capsys.readouterr().err
    assert not out.exists()  # refused before any cell ran
    # without the zeta row the counts stop at k = 2, over GF(49)
    cfg["zeta_n_max"] = 2
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--threads", "1"]) == 0


@pytest.mark.parametrize("n,k_max", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_sweep_cell_counts_each_matrix_once_per_k(monkeypatch, n, k_max):
    # the zeta row reads the cell's CountRecords and counts only the k
    # beyond them: Y up to 3 at n = 3, X and Y up to 2 at n = 2
    real, calls = counting.charsum_count, []

    def spy(inst, matrix, k, torus, caps):
        calls.append((matrix, k, torus))
        return real(inst, matrix, k, torus, caps)

    monkeypatch.setattr(counting, "charsum_count", spy)
    cfg = SweepConfig(k_max=k_max, zeta_n_max=3)
    cell = cli._sweep_instance(cfg, cfg.caps, (n, 5, 1, 1 if n == 2 else 0))
    assert cell["error"] is None and cell["zeta"] is not None
    assert len(calls) == len(set(calls))
    assert max(k for _, k, _ in calls) == max(k_max, 2 if n == 2 else 3)


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



_COUNT = ["count", "--n", "2", "--p", "5", "--lambda", "zero",
          "--method", "charsum"]
_BAD_CONFIG_FILES = {"missing": None, "truncated": '{"n_list": [2',
                     "top-level-list": "[1, 2]",
                     "caps-list": '{"caps": [1, 2]}',
                     "negative-precision":
                         '{"caps": {"precision_override": -1}}',
                     "precision-above-max":
                         '{"caps": {"precision_override": 1001}}'}


@pytest.mark.parametrize("command,case", [
    *((c, case) for c in ("count", "sweep") for case in _BAD_CONFIG_FILES),
    ("count", "unknown-key")])
def test_bad_config_files_are_config_errors(tmp_path, capsys, command, case):
    cfg_path = tmp_path / "cfg.json"
    text = _BAD_CONFIG_FILES.get(case, '{"capz": {}, "n_list": [9]}')
    if text is not None:
        cfg_path.write_text(text)
    argv = _COUNT if command == "count" else ["sweep", "--out",
                                              str(tmp_path / "o")]
    assert main(argv + ["--config", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("bad configuration: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_too_low_precision_override_is_a_config_error(tmp_path, capsys):
    # p^N = 5^2 certifies no count of n = 2 over GF(5), which needs
    # p^N > 2 q^{n+2} = 1250: the config is at fault, not the engine
    text = "p-adic precision too low: need modulus > 1250, have 25"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n_list": [2], "prime_list": [5], "k_max": 1, "lambda_mode": "zero",
        "caps": {"precision_override": 2}}))
    assert main(["congruence", "--n", "2", "--p", "5", "--lambda", "zero",
                 "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"bad configuration: {text}\n"
    # a sweep whose one cell fails so exits 2 too, not 0
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--threads", "1"]) == cli.EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == [
        {"key": [2, 5, 1, 0], "error": f"PrecisionInsufficient: {text}"}]
    # 2 ranks below 4 and above every other failure
    assert cli._most_severe({cli.EXIT_CONFIG, cli.EXIT_ORACLE}) == \
        cli.EXIT_ORACLE
    for code in (cli.EXIT_RECOVERY, cli.EXIT_SLOPE_FE, cli.EXIT_CAP,
                 cli.EXIT_CONGRUENCE):
        assert cli._most_severe({code, cli.EXIT_CONFIG}) == cli.EXIT_CONFIG


@pytest.mark.parametrize("key,config", [
    ("k_max", {"k_max": "2"}), ("seed", {"seed": "0"}),
    ("zeta_n_max", {"zeta_n_max": "2"}), ("threads", {"threads": "1"}),
    ("k_max", {"k_max": True}), ("prime_list", {"prime_list": ["3"]}),
    ("n_list", {"n_list": [2.0]}), ("r_list", {"r_list": "1"}),
    ("lambda_list", {"lambda_mode": "list", "lambda_list": [None]}),
    ("field_table_max_q", {"caps": {"field_table_max_q": "25"}}),
    ("out_dir", {"out_dir": 5}),
], ids=["k_max", "seed", "zeta_n_max", "threads", "k_max-bool",
        "prime_list", "n_list", "r_list", "lambda_list", "caps", "out_dir"])
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


@pytest.mark.parametrize("command", ["congruence", "sweep"])
def test_unusable_out_is_config_error(tmp_path, capsys, monkeypatch,
                                      command):
    # --out names an existing file, so no directory can be made there
    out = tmp_path / "taken"
    out.write_text("")
    cells = []
    monkeypatch.setattr(cli, "_sweep_instance", lambda *a: cells.append(a))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [2], "prime_list": [3],
                                    "k_max": 1}))
    argv = (["congruence", "--n", "2", "--p", "3", "--k", "1"]
            if command == "congruence" else
            ["sweep", "--config", str(cfg_path)])
    assert main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("bad configuration: ") and "Traceback" not in err
    assert cells == [] and out.read_text() == ""


def test_largest_precision_is_accepted(tmp_path):
    assert Caps(precision_override=1000).precision_override == 1000
    assert main(["gauss", "--p", "3", "--N", "1000", "--out",
                 str(tmp_path)]) == 0


def test_extended_tier_raises_only_the_brute_force_caps():
    caps = Caps(field_table_max_q=81, affine_enum_max=100, torus_enum_max=7,
                precision_override=5)
    assert caps.with_tier("ci") is caps and caps.with_tier(None) is caps
    assert caps.with_tier("extended") == Caps(
        field_table_max_q=81, affine_enum_max=1600, torus_enum_max=112,
        precision_override=5)


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
# tables over GF(8), GF(9) and GF(13).  The three zeta digests were
# re-captured when the purity deviations became exact pass/fail verdicts;
# every other field of their rows was unchanged.  The n = 3, p = 7 rows'
# first fiber has Q = (1 - 7T)^2 (1 + 7T), a purity check on a repeated
# root.
COMMAND_SHA256 = [
    (["zeta", "--n", "2", "--p", "5", "--lambda", "all"], 0,
     "d06660006d2099bbfabcdc3c351b16bc05d31239037c0320c9e3ddb5a621eb27"),
    (["slope", "--n", "2", "--p", "5", "--lambda", "all"], 0,
     "5ebce2fe0afa97bf7ae9b3a7350a4f2fee9514e4e01d6dd065b496caa1f06603"),
    (["congruence", "--n", "2", "--p", "5", "--lambda", "all", "--k", "2"], 0,
     "21d06177003aa359403c2ceec0d9703e302135e450175cb55c7005fd1190a754"),
    (["slope", "--n", "3", "--p", "3", "--lambda", "all"], 0,
     "82397d769d7b5e09fd7da9e914648e2719fb9d668012fa35385af629d0906945"),
    (["zeta", "--n", "2", "--p", "3", "--r", "2", "--lambda", "all"], 0,
     "0a1d113d0a32a1815bd6e9b0fd41fa499a1f72f71965f1dad8d8b750a13e6f3d"),
    (["slope", "--n", "2", "--p", "3", "--r", "2", "--lambda", "all"], 0,
     "72335665cc1b0e8a51e155673e8de1381c1ec2d2c9da7ecbf686770711945fae"),
    (["congruence", "--n", "2", "--p", "3", "--r", "2", "--lambda", "all",
      "--k", "2"], 0,
     "66e11bbe7876a9e7620a2a834b11010a228e2ce2adae55fd75f65fdeae30b656"),
    (["zeta", "--n", "4", "--p", "2", "--lambda", "all"], cli.EXIT_RECOVERY,
     "1925f92c60b543572947066e694b40d1f2a9fdff76782cebd2dba1976e7a89f4"),
    (["zeta", "--n", "3", "--p", "7", "--lambda", "all"], 0,
     "3d66c7c78d7ad2f1a20274109390d964ef208a8db5cdc58da633ff42b8508474"),
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
    # lam = 0 counts whose Gauss sums are Hasse-Davenport lifts: m up to 11
    # over GF(5); f = 2 at k = 2 and m = 3 at k = 3 over GF(11); coset
    # minima over GF(9), m up to 4
    (["count", "--n", "3", "--p", "5", "--lambda", "zero", "--k", "11",
      "--method", "charsum"], 0,
     "6a1131b9e70b698e97b269578b6934c976c731cf235acdde429656c7486c0b5d"),
    (["count", "--n", "3", "--p", "11", "--lambda", "zero", "--k", "3",
      "--method", "charsum"], 0,
     "90325ea9622e77de89564c46bb84ee5ed1db971eb6a18a1fbac51b951db0c3b9"),
    (["count", "--n", "3", "--p", "3", "--r", "2", "--lambda", "zero",
      "--k", "4", "--method", "charsum"], 0,
     "f4207ef65160222818f7346a4bf76f978d0d8dde68456fedae7bf2a77067687c"),
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
    real = counting.charsum_count

    def broken(inst, *args, **kw):
        if inst.lam == 1:
            raise RuntimeError("injected")
        return real(inst, *args, **kw)

    monkeypatch.setattr(counting, "charsum_count", broken)
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


@pytest.mark.parametrize("recovery_lam,fe_lam", [(0, 1), (1, 0)])
def test_slope_exit_code_does_not_depend_on_fiber_order(capsys, monkeypatch,
                                                       recovery_lam, fe_lam):
    # a recovery failure (6) outranks a functional-equation failure (7),
    # whichever fiber comes first
    real_recover, real_fe = cli.recover_mirror_zeta, cli.slope_fe_check
    fiber = {}

    def recover(inst, **kw):
        fiber["lam"] = inst.lam
        if inst.lam == recovery_lam:
            raise NoConsistentSign("injected")
        return real_recover(inst, **kw)

    def fe_check(sz, d):
        return fiber["lam"] != fe_lam and real_fe(sz, d)

    monkeypatch.setattr(cli, "recover_mirror_zeta", recover)
    monkeypatch.setattr(cli, "slope_fe_check", fe_check)
    code, rows = run(capsys, "slope", "--n", "2", "--p", "5", "--lambda", "all")
    assert code == cli.EXIT_RECOVERY
    assert rows[recovery_lam]["error"] == "injected"
    assert rows[fe_lam]["fe_Y"] == rows[fe_lam]["fe_X"] == "fail"
    assert rows[fe_lam]["smoothness"] == "smooth"


@pytest.mark.parametrize("command", ["count", "congruence", "zeta", "slope"])
def test_out_is_atomic(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "d"
    argv = [command, "--n", "2", "--p", "5", "--lambda", "all", "--out",
            str(out)]
    assert main(argv) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert len(before) == 1 and next(iter(before.values()))
    real = cli.DworkInstance

    def second_fiber_too_large(n, field, lam):
        if lam == 1:
            raise FieldTooLarge(5, 4)
        return real(n=n, field=field, lam=lam)

    monkeypatch.setattr(cli, "DworkInstance", second_fiber_too_large)
    assert main(argv) == cli.EXIT_CAP
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_zeta_slope_and_sweep_rows_share_one_report(tmp_path, capsys):
    code, zeta = run(capsys, "zeta", "--n", "2", "--p", "5", "--lambda", "all")
    assert code == 0
    code, slope = run(capsys, "slope", "--n", "2", "--p", "5", "--lambda",
                      "all")
    assert code == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [2], "prime_list": [5],
                                    "k_max": 1, "lambda_mode": "all"}))
    assert main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "s")]) == 0
    sweep = [json.loads(line) for line in
             (tmp_path / "s" / "zeta.jsonl").read_text().splitlines()]
    # the sweep keeps the smooth fibers only
    assert [row["key"][3] for row in sweep] == [
        lam for lam, row in enumerate(zeta) if row["smoothness"] == "smooth"]
    assert len(sweep) == 4
    for row in sweep:
        lam = row["key"][3]
        for key in ("Y", "X", "R_coeffs"):
            assert row[key] == zeta[lam][key], key
        for key in ("slope_zeta_Y", "slope_zeta_X", "Y_ordinary",
                    "Y_newton_above_hodge", "X_ordinary",
                    "X_newton_above_hodge", "slope_mirror_symmetry"):
            assert row[key] == slope[lam][key], key
        for key in ("fe_Y", "fe_X"):
            assert row[key] is True and slope[lam][key] == "pass"


def test_lambda_dlog_and_sweep_list_read_negative_logs_apart(tmp_path, capsys):
    # --lambda -1 is g^-1 = g^(q-2); only a sweep's lambda_list reads -1 as 0
    code, rows = run(capsys, "count", "--n", "2", "--p", "5", "--lambda", "-1",
                     "--method", "charsum")
    assert code == 0 and [row["lambda_dlog"] for row in rows] == [3]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [2], "prime_list": [5],
                                    "k_max": 1, "lambda_mode": "list",
                                    "lambda_list": [-1, 3]}))
    assert main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "s")]) == 0
    counts = (tmp_path / "s" / "counts.jsonl").read_text().splitlines()
    assert [json.loads(line)["lambda_dlog"] for line in counts] == [None, 3]


def test_max_k_is_not_an_option(capsys):
    assert main(["zeta", "--n", "2", "--p", "5", "--max-k", "3"]) == \
        cli.EXIT_CONFIG
    assert main(["slope", "--n", "2", "--p", "5", "--max-k", "3"]) == \
        cli.EXIT_CONFIG


def _recovery_raising(monkeypatch, error, lam=None):
    """Make cli.recover_mirror_zeta raise `error` on the fiber lam (every
    fiber when lam is None)."""
    real = cli.recover_mirror_zeta

    def recover(inst, **kw):
        if lam is None or inst.lam == lam:
            raise error("injected")
        return real(inst, **kw)

    monkeypatch.setattr(cli, "recover_mirror_zeta", recover)


def _sweep_zero_fiber(tmp_path) -> int:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [2], "prime_list": [5],
                                    "k_max": 1, "lambda_mode": "zero"}))
    return main(["sweep", "--config", str(cfg_path), "--out",
                 str(tmp_path / "s"), "--threads", "1"])


def test_sweep_failed_cell_writes_none_of_its_rows(tmp_path, capsys,
                                                   monkeypatch):
    # lam = 1 fails after its counts were taken; over GF(5) lam = 2 is
    # singular and has no zeta row
    _recovery_raising(monkeypatch, NoConsistentSign, lam=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [2], "prime_list": [5],
                                    "k_max": 1, "lambda_mode": "all"}))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--threads", "1"]) == cli.EXIT_RECOVERY
    for name, rows in (("counts.jsonl", 4), ("congruence.jsonl", 4),
                       ("zeta.jsonl", 3)):
        assert len((out / name).read_text().splitlines()) == rows, name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == [
        {"key": [2, 5, 1, 1], "error": "NoConsistentSign: injected"}]


def test_recovery_failure_is_an_error_row(tmp_path, capsys, monkeypatch):
    # an error row for lam = 1, then the remaining fibers
    _recovery_raising(monkeypatch, NonIntegralCoefficient, lam=1)
    code, rows = run(capsys, "zeta", "--n", "2", "--p", "5", "--lambda", "all")
    assert code == cli.EXIT_RECOVERY
    assert len(rows) == 5
    assert rows[1] == {"schema": 2, "n": 2, "p": 5, "r": 1,
                       "lambda_dlog": 0, "error": "injected"}
    assert all("error" not in row for i, row in enumerate(rows) if i != 1)
    _recovery_raising(monkeypatch, NonIntegralCoefficient)
    assert _sweep_zero_fiber(tmp_path) == cli.EXIT_RECOVERY


def test_broken_contract_is_an_oracle_mismatch(tmp_path, capsys, monkeypatch):
    _recovery_raising(monkeypatch, DivisibilityViolation, lam=1)
    assert main(["zeta", "--n", "2", "--p", "5", "--lambda", "all"]) == \
        cli.EXIT_ORACLE
    assert capsys.readouterr().err.startswith("oracle mismatch: injected")
    _recovery_raising(monkeypatch, DivisibilityViolation)
    assert _sweep_zero_fiber(tmp_path) == cli.EXIT_ORACLE


@pytest.mark.parametrize("config,argv", [
    ({"lambda_mode": "list", "lambda_list": [-5]}, []),
    ({"threads": 0}, []),
    ({}, ["--threads", "0"]),
], ids=["lambda_list", "config-threads", "cli-threads"])
def test_sweep_inputs_are_bounded(tmp_path, capsys, monkeypatch, config, argv):
    # refused before any field is built
    monkeypatch.setattr(cli, "build_field", None)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [2], "prime_list": [5],
                                    "k_max": 1, **config}))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]
                + argv) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_sweep_starts_no_more_workers_than_cells(tmp_path, capsys,
                                                 monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    files = {}
    for n_list, threads in (([2], 1), ([2], 64), ([], 2)):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_list": n_list, "prime_list": [2],
                                        "k_max": 1, "threads": threads}))
        out = tmp_path / f"{len(n_list)}-{threads}"
        assert main(["sweep", "--config", str(cfg_path), "--out",
                     str(out)]) == 0
        files[threads] = {f.name: f.read_bytes() for f in out.iterdir()
                          if f.name != "timings.json"}
    assert started == [2]  # the 2-cell grid; no pool for 1 or 0 cells
    assert files[64] == files[1]
