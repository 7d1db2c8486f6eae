"""One benchmark pass, in a fresh interpreter so that every module cache of
dworkzeta starts cold, as it does for a CLI user.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds `src` (the directory that holds the dworkzeta package),
`commands` (CLI argument vectors, run in order through `dworkzeta.cli.main`),
`setup_only`, `trace` and `spans_path`.  The pass prints one JSON object:
`ready` (CLOCK_MONOTONIC after `dworkzeta.cli` is imported), `wall_s`,
`peak_rss_mb`, per-command exit codes and output rows, and with tracing on
the per-layer values.
"""
import sys
import time


def _rows_of(command: dict, stdout: str) -> list:
    import json
    import os

    out_dir = command.get("out_dir")
    if not out_dir:
        return [json.loads(line) for line in stdout.splitlines() if line]
    rows = []
    for name in ("counts.jsonl", "zeta.jsonl"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):  # a sweep that exits early writes nothing
            with open(path, encoding="utf-8") as fh:
                rows += [json.loads(line) for line in fh if line.strip()]
    path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            rows += [{"error": f["error"], "key": f["key"]}
                     for f in json.load(fh)["failures"]]
    return rows


def main() -> int:
    import json

    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from dworkzeta import cli
    ready = time.monotonic()

    import contextlib
    import io
    import os
    import resource
    import traceback

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"dworkzeta.cli imported from {cli.__file__}, "
                         f"not from {src}\n")
        return 3
    if spec["setup_only"]:
        print(json.dumps({"ready": ready}))
        return 0

    run, tracer = cli.main, None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)

    outputs = []
    t0 = time.perf_counter()
    for command in spec["commands"]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = run(command["argv"])
        except Exception:  # a crash fails the command's rows, not the pass
            traceback.print_exc()
            code = -1
        outputs.append((code, buf))
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [{"exit": code, "rows": _rows_of(command, buf.getvalue())}
               for command, (code, buf) in zip(spec["commands"], outputs)]
    report = {"ready": ready, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "commands": results}
    if tracer is not None:
        rows_out = sum(len(r["rows"]) for r in results)
        report["layers"] = tracer.layer_metrics(wall_s, rows_out)
        tracer.write_jsonl(spec["spans_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
