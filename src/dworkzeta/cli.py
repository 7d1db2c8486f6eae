"""Command-line driver: count, congruence, zeta, slope, sweep, gauss.

All machine-readable output is JSONL with a schema field and decimal strings
for unbounded integers.  Exit codes: 2 bad configuration, 3 cap exceeded,
4 oracle mismatch, 5 congruence failure, 6 zeta recovery failure,
7 slope functional-equation failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .config import Caps, SweepConfig
from .counting import (
    DworkInstance,
    count_record,
    gauss_field_degree,
    is_singular,
)
from .errors import (
    ConfigError,
    DworkZetaError,
    EnumerationTooLarge,
    FieldTooLarge,
    InsufficientData,
    NoConsistentSign,
    NonIntegralCoefficient,
    NonIntegralResult,
    NotDivisible,
    PrecisionInsufficient,
    SubstitutionNotIntegral,
)
from .ff import build_field
from .padic import build_tower
from .slope import (
    hodge_numbers_dwork,
    newton_above_hodge,
    newton_polygon,
    ordinarity_test,
    ordinary_slope_zeta,
    slope_fe_check,
    slope_zeta,
)
from .zeta import (
    r_poly,
    recover_mirror_zeta,
    recover_pencil_zeta,
    weight_purity_check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_ORACLE = 4
EXIT_CONGRUENCE = 5
EXIT_RECOVERY = 6
EXIT_SLOPE_FE = 7

_CAP_ERRORS = (EnumerationTooLarge, FieldTooLarge)
_RECOVERY_ERRORS = (InsufficientData, NoConsistentSign, NonIntegralCoefficient,
                    NotDivisible, SubstitutionNotIntegral)


def _emit(line: dict, out):
    out.write(json.dumps(line, sort_keys=True) + "\n")


def _parse_lambdas(spec: str, field) -> list:
    """Element codes for a lambda specification: all | zero | subfield | dlog."""
    q, p = field.pp.q, field.pp.p
    if spec == "all":
        return list(range(q))
    if spec == "zero":
        return [0]
    if spec == "subfield":
        return list(range(p))
    try:
        e = int(spec)
    except ValueError:
        raise ConfigError(f"--lambda must be all, zero, subfield or a "
                          f"discrete log, got {spec!r}") from None
    return [field.gen_pow(e)]


def _open_out(args, name: str):
    if args.out:
        path = Path(args.out)
        path.mkdir(parents=True, exist_ok=True)
        return open(path / name, "w", encoding="utf-8")
    return sys.stdout


def cmd_count(args) -> int:
    caps = _caps_for(args)
    field = build_field(args.p, args.r, _seed_of(args), cap=caps.field_table_max_q)
    lams = _parse_lambdas(args.lam_spec, field)
    out = _open_out(args, "counts.jsonl")
    try:
        for lam in lams:
            inst = DworkInstance(n=args.n, field=field, lam=lam)
            for k in range(1, args.k + 1):
                rec = count_record(inst, k, method=args.method, caps=caps,
                                   with_nfstar=args.nfstar)
                _emit(rec.to_json_dict(), out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _pass_fail(ok: bool) -> str:
    return "pass" if ok else "fail"


def _count_records(inst, k_max: int, caps) -> list:
    """Character-sum CountRecords of one instance for k = 1..k_max."""
    return [count_record(inst, k, caps=caps) for k in range(1, k_max + 1)]


def _congruence_row(rec) -> dict:
    """The mirror congruence #X = #Y mod q^k for one CountRecord, plus its
    direct form against the raw torus count."""
    qk = (rec.p ** rec.r) ** rec.k
    diff = (rec.X - rec.Y) % qk
    t51 = (rec.X - (rec.Ngstar + 1 - rec.n * (-1) ** (rec.n - 1))) % qk == 0
    return {
        "schema": 1, "n": rec.n, "p": rec.p, "r": rec.r,
        "lambda_dlog": rec.lam_dlog, "k": rec.k, "modulus": str(qk),
        "X": str(rec.X), "Y": str(rec.Y),
        "residue_diff": str(diff),
        "verdict": _pass_fail(diff == 0),
        "x_torus_form": _pass_fail(t51),
        "precision": rec.precision,
    }


def cmd_congruence(args) -> int:
    caps = _caps_for(args)
    field = build_field(args.p, args.r, _seed_of(args), cap=caps.field_table_max_q)
    lams = _parse_lambdas(args.lam_spec, field)
    out = _open_out(args, "congruence.jsonl")
    failures = 0
    rows = 0
    try:
        for lam in lams:
            inst = DworkInstance(n=args.n, field=field, lam=lam)
            for rec in _count_records(inst, args.k, caps):
                row = _congruence_row(rec)
                rows += 1
                if row["verdict"] != "pass" or row["x_torus_form"] != "pass":
                    failures += 1
                _emit(row, out)
        _emit({"schema": 1, "summary": True, "rows": rows,
               "failures": failures}, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK if failures == 0 else EXIT_CONGRUENCE


def _report(inst, caps, pencil: bool, max_k=None) -> dict:
    """Zeta and slope data of one instance, shared by `zeta`, `slope` and
    `sweep`.  Every count it needs is taken once per k from the instance.

    Z(Y) always; on a singular fiber without functional-equation completion
    (allowing a degree drop in the numerator) and without the pencil side.
    With `pencil`, a smooth fiber also gets Z(X) (up to `max_k` counts),
    R_n = P/Q and the X-side slope data.  Y_ordinary and
    Y_newton_above_hodge are present only when the Newton polygon of Q has
    length n.
    """
    n, d = inst.n, inst.n - 1
    p, r, q = inst.field.pp.p, inst.field.pp.r, inst.field.pp.q
    singular = is_singular(inst)
    if singular:
        zy = recover_mirror_zeta(inst, caps=caps, use_fe=False, k_budget=n)
    else:
        zy = recover_mirror_zeta(inst, caps=caps)
    rep = {"smoothness": "singular" if singular else "smooth",
           "Y": zy, "X": None}
    if pencil and not singular:
        zx = recover_pencil_zeta(inst, caps=caps, k_budget=max_k)
        rep["X"] = zx
        rep["R"] = r_poly(zx.numerator, zy.numerator, q, n)
    sy = slope_zeta(zy)
    np_y = newton_polygon(zy.numerator, p, r)
    rep.update(slope_zeta_Y=sy, fe_Y=slope_fe_check(sy, d), newton_Y=np_y)
    if np_y.total_length == n:
        mirror_row = [(j, 1) for j in range(n)]
        rep["Y_ordinary"] = ordinarity_test(np_y, mirror_row)
        rep["Y_newton_above_hodge"] = newton_above_hodge(np_y, mirror_row)
    if rep["X"] is not None:
        sx = slope_zeta(rep["X"])
        np_x = newton_polygon(rep["X"].numerator, p, r)
        prim = hodge_numbers_dwork(n).middle_row(primitive=True)
        rep.update(slope_zeta_X=sx, fe_X=slope_fe_check(sx, d), newton_X=np_x,
                   slope_mirror_symmetry=sx == sy ** ((-1) ** d),
                   X_ordinary=ordinarity_test(np_x, prim),
                   X_newton_above_hodge=newton_above_hodge(np_x, prim))
    return rep


def _fiber_reports(args, lams, field, caps, out):
    """The `_report` of each fiber in lams for `zeta` and `slope`, or None
    after writing the error row of a fiber whose recovery failed."""
    for lam in lams:
        inst = DworkInstance(n=args.n, field=field, lam=lam)
        try:
            rep = _report(inst, caps, args.n == 2 or args.tier == "extended",
                          args.max_k)
        except _RECOVERY_ERRORS as exc:
            _emit({"schema": 2, "n": args.n, "p": args.p, "r": args.r,
                   "lambda_dlog": inst.lam_dlog, "error": str(exc)}, out)
            rep = None
        yield rep


def cmd_zeta(args) -> int:
    caps = _caps_for(args)
    field = build_field(args.p, args.r, _seed_of(args), cap=caps.field_table_max_q)
    lams = _parse_lambdas(args.lam_spec, field)
    out = _open_out(args, "zeta.jsonl")
    code = EXIT_OK
    try:
        for rep in _fiber_reports(args, lams, field, caps, out):
            if rep is None:
                code = EXIT_RECOVERY
                continue
            q, w = field.pp.q, args.n - 1
            row = {"schema": 2, "smoothness": rep["smoothness"],
                   "Y": rep["Y"].to_json_dict()}
            if rep["X"] is not None:
                row["X"] = rep["X"].to_json_dict()
                row["R_coeffs"] = [str(c) for c in rep["R"].coeffs]
                purity_x = weight_purity_check(rep["X"].numerator, q, w)
                row["purity_X_dev"] = f"{purity_x.max_deviation:.3e}"
            if rep["smoothness"] == "smooth":
                purity_y = weight_purity_check(rep["Y"].numerator, q, w)
                row["purity_Y_dev"] = f"{purity_y.max_deviation:.3e}"
            _emit(row, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return code


def _np_json(np_):
    return [[x, f"{y.numerator}/{y.denominator}"] for x, y in np_.vertices]


def cmd_slope(args) -> int:
    caps = _caps_for(args)
    field = build_field(args.p, args.r, _seed_of(args), cap=caps.field_table_max_q)
    lams = _parse_lambdas(args.lam_spec, field)
    out = _open_out(args, "slopes.jsonl")
    code = EXIT_OK
    try:
        for rep in _fiber_reports(args, lams, field, caps, out):
            if rep is None:
                code = EXIT_RECOVERY
                continue
            row = {"schema": 2, "n": args.n, "p": args.p, "r": args.r,
                   "lambda_dlog": rep["Y"].lam_dlog,
                   "smoothness": rep["smoothness"],
                   "slope_zeta_Y": rep["slope_zeta_Y"].to_json_dict(),
                   "fe_Y": _pass_fail(rep["fe_Y"]),
                   "slope_zeta_Y_display": rep["slope_zeta_Y"].render(),
                   "newton_vertices_Y": _np_json(rep["newton_Y"])}
            if not rep["fe_Y"] and rep["smoothness"] == "smooth":
                code = EXIT_SLOPE_FE
            for key in ("Y_ordinary", "Y_newton_above_hodge"):
                if key in rep:
                    row[key] = rep[key]
            if rep["X"] is not None:
                row.update({
                    "slope_zeta_X": rep["slope_zeta_X"].to_json_dict(),
                    "slope_zeta_X_display": rep["slope_zeta_X"].render(),
                    "fe_X": _pass_fail(rep["fe_X"]),
                    "slope_mirror_symmetry": rep["slope_mirror_symmetry"],
                    "newton_vertices_X": _np_json(rep["newton_X"]),
                    "X_ordinary": rep["X_ordinary"],
                    "X_newton_above_hodge": rep["X_newton_above_hodge"],
                })
                if not rep["fe_X"]:
                    code = EXIT_SLOPE_FE
            row["ordinary_closed_form_X"] = \
                ordinary_slope_zeta(hodge_numbers_dwork(args.n)).to_json_dict()
            _emit(row, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return code


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_instance(job: dict) -> dict:
    """One (n, p, r, lambda) cell of the sweep grid; pickle-friendly.  Any
    exception becomes a failure row: DworkZetaErrors by their class, other
    exceptions (a bug) as exit 4 with the traceback on stderr."""
    n, p, r = job["n"], job["p"], job["r"]
    caps = Caps(**job["caps"])
    lam = job["lam"]
    out = {"key": [n, p, r, lam], "counts": [], "congruence": [],
           "zeta": None, "ok": True, "error": None}
    try:
        field = build_field(p, r, job["seed"], cap=caps.field_table_max_q)
        inst = DworkInstance(n=n, field=field, lam=lam)
        for rec in _count_records(inst, job["k_max"], caps):
            row = rec.to_json_dict()
            del row["Nfstar"]
            out["counts"].append(row)
            row = _congruence_row(rec)
            for key in ("X", "Y", "x_torus_form", "precision"):
                del row[key]
            out["congruence"].append(row)
        if n <= job["zeta_n_max"] and not is_singular(inst):
            rep = _report(inst, caps, pencil=n == 2)
            zrow = {key: rep[key] for key in (
                "fe_Y", "Y_ordinary", "Y_newton_above_hodge")}
            zrow["Y"] = rep["Y"].to_json_dict()
            zrow["slope_zeta_Y"] = rep["slope_zeta_Y"].to_json_dict()
            if rep["X"] is not None:
                zrow.update({key: rep[key] for key in (
                    "fe_X", "slope_mirror_symmetry", "X_ordinary",
                    "X_newton_above_hodge")})
                zrow["X"] = rep["X"].to_json_dict()
                zrow["R_coeffs"] = [str(c) for c in rep["R"].coeffs]
                zrow["slope_zeta_X"] = rep["slope_zeta_X"].to_json_dict()
            out["zeta"] = zrow
    except Exception as exc:  # noqa: BLE001 - the worker boundary
        if not isinstance(exc, DworkZetaError):
            traceback.print_exc(file=sys.stderr)
        out["ok"] = False
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["exit"] = (EXIT_CAP if isinstance(exc, _CAP_ERRORS) else
                       EXIT_RECOVERY if isinstance(exc, _RECOVERY_ERRORS) else
                       EXIT_ORACLE)
    return out


@contextmanager
def _atomic_open(path: Path):
    """A text file written under a temporary name in its directory and
    renamed over `path` only once the write has finished."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _dump_json(obj, path: Path, **kw):
    with _atomic_open(path) as fh:
        json.dump(obj, fh, **kw)
        fh.write("\n")


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(args.config) if args.config else SweepConfig()
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads:
        cfg.threads = args.threads
    if args.tier:
        cfg.tier = args.tier
    caps = cfg.caps.with_tier(cfg.tier)

    jobs = []
    for n in cfg.n_list:
        for p in cfg.prime_list:
            for r in cfg.r_list:
                field = build_field(p, r, cfg.seed, cap=caps.field_table_max_q)
                if cfg.lambda_mode == "all":
                    lams = list(range(field.pp.q))
                elif cfg.lambda_mode == "subfield":
                    lams = list(range(p))
                elif cfg.lambda_mode == "zero":
                    lams = [0]
                else:  # "list"; SweepConfig rejects other modes
                    lams = [field.gen_pow(e) if e >= 0 else 0
                            for e in cfg.lambda_list]
                for lam in lams:
                    # fail fast on a cell whose largest field, GF(q^f)
                    # over k <= k_max, exceeds the caps
                    inst = DworkInstance(n=n, field=field, lam=lam)
                    f_top = max(gauss_field_degree(inst, k)
                                for k in range(1, cfg.k_max + 1))
                    if field.pp.q ** f_top > caps.field_table_max_q:
                        sys.stderr.write(f"instance {n},{p},{r} exceeds caps\n")
                        return EXIT_CAP
                    jobs.append({"n": n, "p": p, "r": r, "lam": lam,
                                 "seed": cfg.seed, "k_max": cfg.k_max,
                                 "zeta_n_max": cfg.zeta_n_max,
                                 "caps": caps.__dict__.copy()})

    t0 = time.time()
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(_sweep_instance, jobs))
    else:
        results = [_sweep_instance(job) for job in jobs]
    elapsed = time.time() - t0

    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = []
    failure_exits = set()
    cong_failures = 0
    ordinary_stats: dict = {}
    slope_sets: dict = {}
    with (_atomic_open(outdir / "counts.jsonl") as counts_f,
          _atomic_open(outdir / "congruence.jsonl") as cong_f,
          _atomic_open(outdir / "zeta.jsonl") as zeta_f):
        for res in results:
            n, p, r, lam = res["key"]
            if not res["ok"]:
                failures.append({"key": res["key"], "error": res["error"]})
                failure_exits.add(res["exit"])
                continue
            for row in res["counts"]:
                _emit(row, counts_f)
            for row in res["congruence"]:
                if row["verdict"] != "pass":
                    cong_failures += 1
                _emit(row, cong_f)
            if res["zeta"] is not None:
                _emit({"key": res["key"], **res["zeta"]}, zeta_f)
                fam = f"n={n},p={p},r={r}"
                stats = ordinary_stats.setdefault(fam, [0, 0])
                stats[1] += 1
                if res["zeta"]["Y_ordinary"]:
                    stats[0] += 1
                sset = slope_sets.setdefault(fam, set())
                sset.add(json.dumps(res["zeta"]["slope_zeta_Y"],
                                    sort_keys=True))

    summary = {
        "schema": 1,
        "instances": len(jobs),
        "completed": len(jobs) - len(failures),
        "congruence_failures": cong_failures,
        "ordinarity_fractions": {
            fam: {"ordinary": s[0], "tested": s[1]}
            for fam, s in sorted(ordinary_stats.items())},
        "observed_slope_zeta_sets": {
            fam: sorted(ss) for fam, ss in sorted(slope_sets.items())},
    }
    cfg_echo = cfg.to_dict()
    # execution-only parameters do not affect results and would break
    # byte-identical reproducibility of the manifest
    cfg_echo.pop("out_dir", None)
    cfg_echo.pop("threads", None)
    manifest = {
        "schema": 1,
        "version": __version__,
        "config": cfg_echo,
        "failures": failures,
        "summary": summary,
    }
    _dump_json(summary, outdir / "summary.json", sort_keys=True, indent=1)
    _dump_json(manifest, outdir / "manifest.json", sort_keys=True, indent=1)
    _dump_json({"elapsed_seconds": elapsed, "finished_at": time.time(),
                "threads": cfg.threads, "out_dir": str(outdir)},
               outdir / "timings.json")
    # the most severe failure class decides: a mismatch, then a recovery
    # failure, then a cap
    for code in (EXIT_ORACLE, EXIT_RECOVERY, EXIT_CAP):
        if code in failure_exits:
            return code
    if cong_failures:
        return EXIT_CONGRUENCE
    return EXIT_OK


def cmd_gauss(args) -> int:
    caps = _caps_for(args)
    field = build_field(args.p, args.r, _seed_of(args), cap=caps.field_table_max_q)
    tower = build_tower(field, args.N)
    out = _open_out(args, "gauss.jsonl")
    try:
        _emit({"schema": 1, "p": args.p, "r": args.r, "N": args.N,
               "seed": _seed_of(args),
               "modulus": [int(c) for c in field.modulus]}, out)
        table = tower.gauss_table()
        for k, g in enumerate(table):
            coords = [str(c) for row in g.rows for c in row]  # pi-major
            _emit({"k": k, "coords": coords}, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _seed_of(args) -> int:
    return args.seed if args.seed is not None else 0


def _caps_for(args) -> Caps:
    cfg = SweepConfig.from_json(args.config) if args.config else SweepConfig()
    return cfg.caps.with_tier(args.tier)  # None: the ci caps


def _int_from(lo: int):
    """argparse type: an integer >= lo."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below {lo}")
        return value
    return parse


def _add_common(sp, with_lambda=True, with_k=False):
    sp.add_argument("--n", type=_int_from(2), required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=_int_from(1), default=1)
    if with_lambda:
        sp.add_argument("--lambda", dest="lam_spec", default="all",
                        help="all | zero | subfield | <dlog exponent>")
    if with_k:
        sp.add_argument("--k", type=_int_from(1), default=1,
                        help="count over GF(q^j) for j = 1..k")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--threads", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    # None keeps a sweep config's own tier; other commands fall back to ci
    common.add_argument("--tier", choices=["ci", "extended"], default=None)

    ap = argparse.ArgumentParser(
        prog="dworkzeta",
        description="Point counts, congruences, zeta functions and slope "
                    "invariants for the Dwork pencil and its toric mirror.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", help="point counts", parents=[common])
    _add_common(sp, with_k=True)
    sp.add_argument("--method", choices=["brute", "charsum", "both"],
                    default="both")
    sp.add_argument("--nfstar", action="store_true",
                    help="also count f = 0 on the torus")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("congruence", help="mirror congruence checks",
                        parents=[common])
    _add_common(sp, with_k=True)
    sp.set_defaults(func=cmd_congruence)

    sp = sub.add_parser("zeta", help="numerator recovery and R_n",
                        parents=[common])
    _add_common(sp)
    sp.add_argument("--max-k", type=_int_from(1), default=None,
                    help="override the extension-degree budget")
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("slope", help="slope zeta functions and polygons",
                        parents=[common])
    _add_common(sp)
    sp.add_argument("--max-k", type=_int_from(1), default=None)
    sp.set_defaults(func=cmd_slope)

    sp = sub.add_parser("sweep", help="run the full grid from a config",
                        parents=[common])
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("gauss", help="dump a Gauss-sum table",
                        parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=_int_from(1), default=1)
    sp.add_argument("--N", type=_int_from(1), required=True)
    sp.set_defaults(func=cmd_gauss)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches our config exit code
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"bad configuration: {exc}\n")
        return EXIT_CONFIG
    except _CAP_ERRORS as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except (NonIntegralResult, PrecisionInsufficient) as exc:
        sys.stderr.write(f"oracle mismatch: {exc}\n")
        return EXIT_ORACLE
    except _RECOVERY_ERRORS as exc:
        sys.stderr.write(f"recovery failure: {exc}\n")
        return EXIT_RECOVERY
    except DworkZetaError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_RECOVERY
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
