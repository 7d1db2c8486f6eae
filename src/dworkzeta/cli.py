"""Command-line driver: count, congruence, zeta, slope, sweep, gauss.

All machine-readable output is JSONL with a schema field and decimal strings
for unbounded integers, written to stdout or, under `--out`, to files that
are renamed into place only once complete.  `count`, `congruence`, `zeta`
and `slope` run one fiber loop (`_run_fibers`) over the lambdas that
`--lambda` names; `zeta`, `slope` and `sweep` pick their rows from one
report per instance (`_report`).  Exit codes: 2 bad configuration
(ConfigError), 3 cap exceeded (CapExceeded), 4 oracle mismatch (any other
error), 5 congruence failure, 6 zeta recovery failure (RecoveryFailure), 7
slope functional-equation failure.  A command whose fibers fail in several
ways exits with the most severe: 4, then 2, 6, 7, 3 and 5.  A reader that
closes stdout early makes the command exit 1, quietly.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path

from . import __version__
from .config import MAX_PRECISION, Caps, SweepConfig
from .counting import (
    DworkInstance,
    count_record,
    gauss_field_degree,
    is_singular,
)
from .errors import CapExceeded, ConfigError, DworkZetaError, RecoveryFailure
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
    counts_budget,
    r_poly,
    recover_mirror_zeta,
    recover_pencil_zeta,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_ORACLE = 4
EXIT_CONGRUENCE = 5
EXIT_RECOVERY = 6
EXIT_SLOPE_FE = 7
# the failure classes, most severe first; the first one that occurs decides
_SEVERITY = (EXIT_ORACLE, EXIT_CONFIG, EXIT_RECOVERY, EXIT_SLOPE_FE,
             EXIT_CAP, EXIT_CONGRUENCE)

# exit code and stderr label of each error class; any other exception is a
# broken contract
_FAILURES = ((ConfigError, EXIT_CONFIG, "bad configuration"),
             (CapExceeded, EXIT_CAP, "cap exceeded"),
             (RecoveryFailure, EXIT_RECOVERY, "recovery failure"))


def _failure(exc: Exception) -> tuple:
    """(exit code, stderr label) of an exception."""
    return next(((code, label) for cls, code, label in _FAILURES
                 if isinstance(exc, cls)), (EXIT_ORACLE, "oracle mismatch"))


def _most_severe(codes) -> int:
    return next((code for code in _SEVERITY if code in codes), EXIT_OK)


def _emit(line: dict, out):
    out.write(json.dumps(line, sort_keys=True) + "\n")


def _lambda_codes(spec, field) -> list:
    """Element codes of the fibers `spec` names: all, zero, subfield, or a
    list of discrete logs in which None stands for lam = 0."""
    if spec == "all":
        return list(range(field.pp.q))
    if spec == "zero":
        return [0]
    if spec == "subfield":
        return list(range(field.pp.p))
    return [0 if e is None else field.gen_pow(e) for e in spec]


def _lambda_arg(text: str):
    """The `_lambda_codes` spec of a --lambda value; an integer is one
    discrete log."""
    if text in ("all", "zero", "subfield"):
        return text
    try:
        return [int(text)]
    except ValueError:
        raise ConfigError(f"--lambda must be all, zero, subfield or a "
                          f"discrete log, got {text!r}") from None


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


def _make_out_dir(name: str):
    """Make the output directory `name` if it is missing; ConfigError if it
    cannot be made."""
    try:
        Path(name).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot make output directory {name}: {exc}") from exc


@contextmanager
def _output(args, name: str):
    """stdout, or the file `name` in the --out directory, written
    atomically."""
    if not args.out:
        yield sys.stdout
        return
    _make_out_dir(args.out)
    with _atomic_open(Path(args.out) / name) as fh:
        yield fh


def _run_fibers(args, filename: str, fiber_rows, summary: bool = False) -> int:
    """Write the rows of every fiber that --lambda names: `fiber_rows(args,
    inst, caps)` yields (row, exit code) pairs, and a fiber whose recovery
    fails gets an error row instead.  With `summary`, a last row counts the
    rows and the failed ones.  Returns the most severe exit code."""
    caps = _caps_for(args)
    spec = _lambda_arg(args.lam_spec)
    field = build_field(args.p, args.r, _seed_of(args), cap=caps.field_table_max_q)
    codes = []
    with _output(args, filename) as out:
        for lam in _lambda_codes(spec, field):
            inst = DworkInstance(n=args.n, field=field, lam=lam)
            try:
                for row, code in fiber_rows(args, inst, caps):
                    _emit(row, out)
                    codes.append(code)
            except RecoveryFailure as exc:
                _emit({"schema": 2, "n": args.n, "p": args.p, "r": args.r,
                       "lambda_dlog": inst.lam_dlog, "error": str(exc)}, out)
                codes.append(EXIT_RECOVERY)
        if summary:
            _emit({"schema": 1, "summary": True, "rows": len(codes),
                   "failures": sum(map(bool, codes))}, out)
    return _most_severe(codes)


def _count_rows(args, inst, caps):
    for k in range(1, args.k + 1):
        rec = count_record(inst, k, method=args.method, caps=caps,
                           with_nfstar=args.nfstar)
        yield rec.to_json_dict(), EXIT_OK


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


def _congruence_rows(args, inst, caps):
    for rec in _count_records(inst, args.k, caps):
        row = _congruence_row(rec)
        failed = "fail" in (row["verdict"], row["x_torus_form"])
        yield row, EXIT_CONGRUENCE if failed else EXIT_OK


def _variety_values(rep: dict, v: str, z, d: int):
    """Put the zeta function of variety `v`, its slope zeta function, the
    functional-equation check and the Newton polygon into `rep`."""
    sz = slope_zeta(z)
    np_ = newton_polygon(z.numerator, z.p, z.r)
    rep.update({v: z.to_json_dict(), f"slope_zeta_{v}": sz.to_json_dict(),
                f"slope_zeta_{v}_display": sz.render(),
                f"fe_{v}": slope_fe_check(sz, d),
                f"newton_vertices_{v}": [[x, f"{y.numerator}/{y.denominator}"]
                                         for x, y in np_.vertices]})
    return sz, np_


def _report(inst, caps, pencil: bool, records=()) -> dict:
    """The row values of one instance under the keys the rows print, shared
    by `zeta`, `slope` and `sweep`.  Every count it needs is taken once per
    k: the CountRecords of `records`, k = 1, 2, ..., are not counted again.

    Z(Y) always; on a singular fiber by Newton's identities alone (allowing
    a degree drop in the numerator) and without the pencil side.  With
    `pencil`, a smooth fiber also gets Z(X), R_n = P/Q and the X-side slope
    data.  Y_ordinary and Y_newton_above_hodge are present only when the
    Newton polygon of Q has length n.
    """
    n, d = inst.n, inst.n - 1
    singular = is_singular(inst)
    zy = recover_mirror_zeta(inst, caps=caps, records=records)
    zx = (recover_pencil_zeta(inst, caps=caps, records=records)
          if pencil and not singular else None)
    rep = {"smoothness": "singular" if singular else "smooth"}
    sy, np_y = _variety_values(rep, "Y", zy, d)
    if np_y.total_length == n:
        mirror_row = [(j, 1) for j in range(n)]
        rep["Y_ordinary"] = ordinarity_test(np_y, mirror_row)
        rep["Y_newton_above_hodge"] = newton_above_hodge(np_y, mirror_row)
    if zx is not None:
        R = r_poly(zx.numerator, zy.numerator, inst.field.pp.q, n)
        sx, np_x = _variety_values(rep, "X", zx, d)
        prim = hodge_numbers_dwork(n).middle_row(primitive=True)
        rep.update(R_coeffs=[str(c) for c in R.coeffs],
                   slope_mirror_symmetry=sx == sy ** ((-1) ** d),
                   X_ordinary=ordinarity_test(np_x, prim),
                   X_newton_above_hodge=newton_above_hodge(np_x, prim))
    return rep


def _zeta_rows(args, inst, caps):
    rep = _report(inst, caps, args.n == 2 or args.tier == "extended")
    row = {"schema": 2, **{key: rep[key] for key in (
        "smoothness", "Y", "X", "R_coeffs") if key in rep}}
    if rep["smoothness"] == "smooth":  # its recovery certified it pure
        row.update({f"purity_{v}": "pass" for v in ("X", "Y") if v in rep})
    yield row, EXIT_OK


def _slope_rows(args, inst, caps):
    rep = _report(inst, caps, args.n == 2 or args.tier == "extended")
    row = {"schema": 2, "n": args.n, "p": args.p, "r": args.r,
           "lambda_dlog": inst.lam_dlog,
           "ordinary_closed_form_X":
               ordinary_slope_zeta(hodge_numbers_dwork(args.n)).to_json_dict(),
           **{key: v for key, v in rep.items()
              if key not in ("Y", "X", "R_coeffs")}}
    failed = ((not rep["fe_Y"] and rep["smoothness"] == "smooth")
              or rep.get("fe_X") is False)
    for key in ("fe_Y", "fe_X"):
        if key in row:
            row[key] = _pass_fail(row[key])
    yield row, EXIT_SLOPE_FE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_ZETA_KEYS = ("Y", "slope_zeta_Y", "fe_Y", "Y_ordinary",
                    "Y_newton_above_hodge", "X", "R_coeffs", "slope_zeta_X",
                    "fe_X", "slope_mirror_symmetry", "X_ordinary",
                    "X_newton_above_hodge")


def _gets_zeta_row(cfg: SweepConfig, inst) -> bool:
    """Whether the sweep cell of `inst` gets a zeta row: n <= zeta_n_max
    and a smooth fiber."""
    return inst.n <= cfg.zeta_n_max and not is_singular(inst)


def _sweep_instance(cfg: SweepConfig, caps: Caps, key: tuple) -> dict:
    """The rows of the sweep cell key = (n, p, r, lambda) under `cfg`, with
    `caps` at its tier; all three pickle.  Any exception makes the cell a
    failure without rows: DworkZetaErrors exit by their class, other
    exceptions (a bug) as exit 4 with the traceback on stderr."""
    n, p, r, lam = key
    out = {"key": list(key), "counts": [], "congruence": [], "zeta": None,
           "error": None, "exit": EXIT_OK}
    try:
        field = build_field(p, r, cfg.seed, cap=caps.field_table_max_q)
        inst = DworkInstance(n=n, field=field, lam=lam)
        records = _count_records(inst, cfg.k_max, caps)
        for rec in records:
            row = rec.to_json_dict()
            del row["Nfstar"]
            out["counts"].append(row)
            row = _congruence_row(rec)
            for name in ("X", "Y", "x_torus_form", "precision"):
                del row[name]
            out["congruence"].append(row)
        if _gets_zeta_row(cfg, inst):
            rep = _report(inst, caps, pencil=n == 2, records=records)
            out["zeta"] = {name: rep[name] for name in _SWEEP_ZETA_KEYS
                           if name in rep}
    except Exception as exc:  # noqa: BLE001 - the worker boundary
        if not isinstance(exc, DworkZetaError):
            import traceback  # loaded on this failure path only
            traceback.print_exc(file=sys.stderr)
        out.update(counts=[], congruence=[],
                   error=f"{type(exc).__name__}: {exc}",
                   exit=_failure(exc)[0])
    return out


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

    spec = (cfg.lambda_mode if cfg.lambda_mode != "list" else
            [e if e >= 0 else None for e in cfg.lambda_list])
    keys = []
    for n in cfg.n_list:
        for p in cfg.prime_list:
            for r in cfg.r_list:
                field = build_field(p, r, cfg.seed, cap=caps.field_table_max_q)
                for lam in _lambda_codes(spec, field):
                    # fail fast on a cell whose largest field, GF(q^f)
                    # over the k its counts and zeta row reach, exceeds
                    # the caps
                    inst = DworkInstance(n=n, field=field, lam=lam)
                    k_top = max(cfg.k_max, counts_budget(n)) \
                        if _gets_zeta_row(cfg, inst) else cfg.k_max
                    f_top = max(gauss_field_degree(inst, k)
                                for k in range(1, k_top + 1))
                    if field.pp.q ** f_top > caps.field_table_max_q:
                        sys.stderr.write(f"instance {n},{p},{r} exceeds caps\n")
                        return EXIT_CAP
                    keys.append((n, p, r, lam))

    _make_out_dir(cfg.out_dir)  # an unusable --out fails before any cell
    t0 = time.time()
    cell = partial(_sweep_instance, cfg, caps)
    # a pool forks all its workers at the first submit: never more than
    # cells; multiprocessing is loaded only when a pool is needed
    workers = min(cfg.threads, len(keys))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(cell, keys))
    else:
        results = list(map(cell, keys))
    elapsed = time.time() - t0

    outdir = Path(cfg.out_dir)
    with (_atomic_open(outdir / "counts.jsonl") as counts_f,
          _atomic_open(outdir / "congruence.jsonl") as cong_f,
          _atomic_open(outdir / "zeta.jsonl") as zeta_f):
        for res in results:
            for row in res["counts"]:
                _emit(row, counts_f)
            for row in res["congruence"]:
                _emit(row, cong_f)
            if res["zeta"] is not None:
                _emit({"key": res["key"], **res["zeta"]}, zeta_f)

    failures = [{"key": res["key"], "error": res["error"]}
                for res in results if res["error"] is not None]
    cong_failures = sum(row["verdict"] != "pass"
                        for res in results for row in res["congruence"])
    families: dict = {}
    for res in results:
        if res["zeta"] is not None:
            n, p, r, _ = res["key"]
            families.setdefault(f"n={n},p={p},r={r}", []).append(res["zeta"])
    summary = {
        "schema": 1,
        "instances": len(keys),
        "completed": len(keys) - len(failures),
        "congruence_failures": cong_failures,
        "ordinarity_fractions": {
            fam: {"ordinary": sum(z["Y_ordinary"] for z in zs),
                  "tested": len(zs)}
            for fam, zs in sorted(families.items())},
        "observed_slope_zeta_sets": {
            fam: sorted({json.dumps(z["slope_zeta_Y"], sort_keys=True)
                         for z in zs})
            for fam, zs in sorted(families.items())},
    }
    manifest = {
        "schema": 1,
        "version": __version__,
        # execution-only parameters do not affect results and would break
        # byte-identical reproducibility of the manifest
        "config": {key: v for key, v in cfg.to_json_dict().items()
                   if key not in ("out_dir", "threads")},
        "failures": failures,
        "summary": summary,
    }
    _dump_json(summary, outdir / "summary.json", sort_keys=True, indent=1)
    _dump_json(manifest, outdir / "manifest.json", sort_keys=True, indent=1)
    _dump_json({"elapsed_seconds": elapsed, "finished_at": time.time(),
                "threads": cfg.threads, "out_dir": str(outdir)},
               outdir / "timings.json")
    return _most_severe({res["exit"] for res in results}
                        | {EXIT_CONGRUENCE if cong_failures else EXIT_OK})


def cmd_gauss(args) -> int:
    caps = _caps_for(args)
    field = build_field(args.p, args.r, _seed_of(args), cap=caps.field_table_max_q)
    tower = build_tower(field, args.N)
    with _output(args, "gauss.jsonl") as out:
        _emit({"schema": 1, "p": args.p, "r": args.r, "N": args.N,
               "seed": _seed_of(args),
               "modulus": [int(c) for c in field.modulus]}, out)
        for k, g in enumerate(tower.gauss_table()):  # G(k) is y^0 only
            coords = [str(c) for row in tower.pi_rows(g)  # pi-major
                      for c in row + (0,) * (args.r - 1)]
            _emit({"k": k, "coords": coords}, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _seed_of(args) -> int:
    return args.seed if args.seed is not None else 0


def _caps_for(args) -> Caps:
    cfg = SweepConfig.from_json(args.config) if args.config else SweepConfig()
    return cfg.caps.with_tier(args.tier)  # None: the ci caps


def _int_from(lo: int, hi: float = float("inf")):
    """argparse type: an integer in [lo, hi]."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below {lo}")
        if value > hi:
            raise argparse.ArgumentTypeError(f"{value} is above {hi}")
        return value
    return parse


def _add_common(sp, with_k=False):
    sp.add_argument("--n", type=_int_from(2), required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=_int_from(1), default=1)
    sp.add_argument("--lambda", dest="lam_spec", default="all",
                    help="all | zero | subfield | <dlog exponent>")
    if with_k:
        sp.add_argument("--k", type=_int_from(1), default=1,
                        help="count over GF(q^j) for j = 1..k")


# Built once per process: the parser binds `_run_fibers` (in partials),
# `cmd_sweep` and `cmd_gauss` as they are at the first build, so patching
# one of those names later does not reach `main`; every other name they
# call is looked up at call time.
@cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--threads", type=_int_from(1), default=None,
                        help="worker processes; read by sweep only")
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
    sp.set_defaults(func=partial(_run_fibers, filename="counts.jsonl",
                                 fiber_rows=_count_rows))

    sp = sub.add_parser("congruence", help="mirror congruence checks",
                        parents=[common])
    _add_common(sp, with_k=True)
    sp.set_defaults(func=partial(_run_fibers, filename="congruence.jsonl",
                                 fiber_rows=_congruence_rows, summary=True))

    sp = sub.add_parser("zeta", help="numerator recovery and R_n",
                        parents=[common])
    _add_common(sp)
    sp.set_defaults(func=partial(_run_fibers, filename="zeta.jsonl",
                                 fiber_rows=_zeta_rows))

    sp = sub.add_parser("slope", help="slope zeta functions and polygons",
                        parents=[common])
    _add_common(sp)
    sp.set_defaults(func=partial(_run_fibers, filename="slopes.jsonl",
                                 fiber_rows=_slope_rows))

    sp = sub.add_parser("sweep", help="run the full grid from a config",
                        parents=[common])
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("gauss", help="dump a Gauss-sum table",
                        parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=_int_from(1), default=1)
    sp.add_argument("--N", type=_int_from(1, MAX_PRECISION), required=True)
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
    except DworkZetaError as exc:
        code, label = _failure(exc)
        sys.stderr.write(f"{label}: {exc}\n")
        return code
    except BrokenPipeError:
        # the reader closed stdout; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
