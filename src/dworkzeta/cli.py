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

import json
import os
import sys
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from types import SimpleNamespace

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
    """Option type of --lambda: the `_lambda_codes` spec it names; an
    integer is one discrete log."""
    if text in ("all", "zero", "subfield"):
        return text
    try:
        return [int(text)]
    except ValueError:
        raise ValueError(f"must be all, zero, subfield or a discrete log, "
                         f"got {text!r}") from None


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


def _run_fibers(filename: str, fiber_rows, args, summary: bool = False) -> int:
    """Write the rows of every fiber that --lambda names: `fiber_rows(args,
    inst, caps)` yields (row, exit code) pairs, and a fiber whose recovery
    fails gets an error row instead.  With `summary`, a last row counts the
    rows and the failed ones.  Returns the most severe exit code."""
    caps = _caps_for(args)
    field = build_field(args.p, args.r, args.seed, cap=caps.field_table_max_q)
    codes = []
    with _output(args, filename) as out:
        for lam in _lambda_codes(args.lam_spec, field):
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
    for key in ("seed", "threads", "tier"):  # the options given win
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
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
    keys = list(dict.fromkeys(keys))  # a fiber named twice is one cell

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
    field = build_field(args.p, args.r, args.seed, cap=caps.field_table_max_q)
    tower = build_tower(field, args.N)
    with _output(args, "gauss.jsonl") as out:
        _emit({"schema": 1, "p": args.p, "r": args.r, "N": args.N,
               "seed": args.seed,
               "modulus": [int(c) for c in field.modulus]}, out)
        for k, g in enumerate(tower.gauss_table()):  # G(k) is y^0 only
            coords = [str(c) for row in tower.pi_rows(g)  # pi-major
                      for c in row + (0,) * (args.r - 1)]
            _emit({"k": k, "coords": coords}, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def _caps_for(args) -> Caps:
    cfg = SweepConfig.from_json(args.config) if args.config else SweepConfig()
    return cfg.caps.with_tier(args.tier)  # None: the ci caps


def _int_from(lo: int, hi: float = float("inf")):
    """Option type: an integer in [lo, hi]."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise ValueError(f"{value} is below {lo}")
        if value > hi:
            raise ValueError(f"{value} is above {hi}")
        return value
    return parse


def _one_of(*names: str):
    """Option type: one of `names`."""
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"{text!r} is not one of {' | '.join(names)}")
        return text
    return parse


# An option is (flag, attribute, type, default, help): the type parses the
# value's text, raising ValueError on a bad one, or is None for a flag,
# which sets True; an option whose default is ... must be given.
_SHARED = (
    ("--config", "config", str, None, "JSON config file"),
    ("--out", "out", str, None, "output directory"),
    ("--threads", "threads", _int_from(1), None, "worker processes (sweep)"),
    # None keeps a sweep config's own tier; other commands fall back to ci
    ("--tier", "tier", _one_of("ci", "extended"), None, "ci | extended"))
_FIELD = (("--p", "p", int, ..., "the characteristic"),
          ("--r", "r", _int_from(1), 1, "the field is GF(p^r)"),
          ("--seed", "seed", int, 0, "field-model seed"))
_FIBERS = (("--n", "n", _int_from(2), ..., "the dimension"), *_FIELD, (
    "--lambda", "lam_spec", _lambda_arg, "all", "all, zero, subfield, dlog"))
_K = (("--k", "k", _int_from(1), 1, "count over GF(q^j) for j = 1..k"),)
# command -> (entry function, help, options besides _SHARED)
_COMMANDS = {
    "count": (partial(_run_fibers, "counts.jsonl", _count_rows),
              "point counts", (*_FIBERS, *_K, (
                  "--method", "method", _one_of("brute", "charsum", "both"),
                  "both", "brute | charsum | both"), (
                  "--nfstar", "nfstar", None, False,
                  "also count f = 0 on the torus"))),
    "congruence": (partial(_run_fibers, "congruence.jsonl", _congruence_rows,
                           summary=True), "mirror congruence checks",
                   _FIBERS + _K),
    "zeta": (partial(_run_fibers, "zeta.jsonl", _zeta_rows),
             "numerator recovery and R_n", _FIBERS),
    "slope": (partial(_run_fibers, "slopes.jsonl", _slope_rows),
              "slope zeta functions and polygons", _FIBERS),
    "sweep": (cmd_sweep, "run the full grid from a config", (
        ("--seed", "seed", int, None, "field-model seed over the config's"),)),
    "gauss": (cmd_gauss, "dump a Gauss-sum table", (*_FIELD, (
        "--N", "N", _int_from(1, MAX_PRECISION), ..., "p-adic digits"))),
}


def _help(args) -> int:
    """Print the commands, or the options of `args.command`, to stdout."""
    rows = ([(name, text) for name, (_, text, _) in _COMMANDS.items()]
            if args.command is None else
            [(flag if kind is None else f"{flag} {flag[2:].upper()}",
              text + (" (required)" if default is ... else ""))
             for flag, _, kind, default, text in
             _COMMANDS[args.command][2] + _SHARED])
    print(f"usage: dworkzeta {args.command or '<command>'} [options]",
          *(f"  {name:<20}{text}" for name, text in rows), sep="\n")
    return EXIT_OK


def parse_args(argv):
    """The command and options of `argv` as attributes, `func` (the
    command's entry, or the help under -h or --help) among them.  Options
    take `--opt value` or `--opt=value`, the last repeat winning, and a
    unique prefix of a flag stands for it.  ConfigError on a usage error."""
    command, *rest = argv or [None]
    if {"-h", "--help"}.intersection(argv):
        return SimpleNamespace(
            func=_help, command=command if command in _COMMANDS else None)
    if command not in _COMMANDS:
        raise ConfigError(f"the command must be one of {', '.join(_COMMANDS)}"
                          f", got {command!r}")
    func, _, options = _COMMANDS[command]
    options += _SHARED
    values = {opt[1]: opt[3] for opt in options}
    tokens = iter(rest)
    for token in tokens:
        flag, eq, text = token.partition("=")
        found = [opt for opt in options if opt[0] == flag] or [
            opt for opt in options if opt[0].startswith(flag)]
        if len(found) != 1:
            raise ConfigError(f"{'ambiguous' if found else 'unknown'} option "
                              f"{flag!r} of {command}")
        flag, dest, kind = found[0][:3]
        if kind is None and eq:
            raise ConfigError(f"{flag} takes no value")
        if kind is not None and not eq:
            text = next(tokens, "-")  # a value, or a negative integer
            if text[:1] == "-" and not text[1:].isdigit():
                raise ConfigError(f"{flag} needs a value")
        try:
            values[dest] = True if kind is None else kind(text)
        except ValueError as exc:
            raise ConfigError(f"{flag}: {exc}") from None
    missing = [opt[0] for opt in options if values[opt[1]] is ...]
    if missing:
        raise ConfigError(f"{command} needs {', '.join(missing)}")
    return SimpleNamespace(func=func, command=command, **values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
