"""dworkzeta benchmark: time the public CLI on one workload, check its output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

A pass runs every command of the workload (see workloads.py) through
`dworkzeta.cli.main` at --threads 1, in a fresh interpreter (child.py), so
that the field, tower and Gauss caches start cold.  The seed is passed to
every command as the field-model seed.  Passes repeat until --seconds is
used up (at least MIN_PASSES); every row of every pass is checked against
reference.json (check.py).

--trace 0 reports the end-to-end metrics, medians over the passes:
wall_s (first call into dworkzeta to the last output row), setup_s (process
spawn until dworkzeta.cli is imported; also sampled by import-only spawns),
and peak_rss_mb.  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of tracing.py, medians over the traced
passes, plus trace.overhead_s (traced minus untraced wall_s).  The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2
SETUP_SAMPLES = 11
PASS_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "counting.probe_s": "s", "counting.probe_calls": "count",
    "counting.probe_points_max": "count",
    "padic.gauss_table_s": "s", "padic.gauss_tables_built": "count",
    "padic.gauss_ring_adds": "count",
    "padic.tower_muls": "count", "padic.tower_mul_s": "s",
    "counting.solution_vectors": "count", "counting.charsum_s": "s",
    "counting.charsum_calls": "count",
    "counting.charsum_unique_ratio": "ratio",
    "ff.build_s": "s", "ff.fields_built": "count",
    "ff.table_entries": "count",
    "zeta.recover_s": "s", "zeta.purity_s": "s",
    "zeta.purity_dev_max": "ratio", "slope.zeta_s": "s",
    "cli.self_s": "s", "cli.rows_out": "count",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def _spawn(spec: dict) -> tuple:
    """Run child.py on `spec`; (spawn time, parsed report)."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    sys.stderr.write(err)  # the program's own messages about failed rows
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("pass process printed no report")
    return spawned, json.loads(lines[-1])


class Workload:
    def __init__(self, name: str, scale: str, seed: int, reference: dict):
        self.name = name
        self.seed = seed
        self.commands = workloads.commands(name, scale)
        self.reference = reference.get(name, {}).get(scale, [])

    def spawn_pass(self, trace: bool, setup_only: bool = False) -> dict:
        """One pass in a fresh process; its report plus setup_s."""
        pass_dir = OUT / f"pass-{os.getpid()}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        try:
            commands = []
            for i, command in enumerate(self.commands):
                argv = command["argv"] + ["--seed", str(self.seed),
                                          "--threads", "1"]
                entry = {"argv": argv}
                if command["sweep_config"] is not None:
                    out_dir = pass_dir / f"sweep-{i}"
                    config = pass_dir / f"sweep-{i}.json"
                    config.write_text(json.dumps(command["sweep_config"]))
                    argv += ["--config", str(config), "--out", str(out_dir)]
                    entry["out_dir"] = str(out_dir)
                commands.append(entry)
            spec = {"src": str(SRC), "commands": commands,
                    "setup_only": setup_only, "trace": trace,
                    "spans_path": str(OUT / f"spans-{self.name}.jsonl")}
            spawned, report = _spawn(spec)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        report["setup_s"] = report["ready"] - spawned
        return report

    def run_pass(self, trace: bool) -> dict:
        """One checked pass; its report gains attempted and failed."""
        if len(self.reference) != len(self.commands):
            raise BenchError(f"reference.json has no entry for each command "
                             f"of {self.name}")
        report = self.spawn_pass(trace)
        attempted = failed = 0
        for result, ref in zip(report.pop("commands"), self.reference):
            a, f = check.check_command(result["exit"], result["rows"], ref)
            attempted += a
            failed += f
        report["attempted"], report["failed"] = attempted, failed
        return report


def measure(workload: Workload, seconds: float, trace: bool) -> tuple:
    """Run passes until `seconds` is used up; (passes, setup samples)."""
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(workload.run_pass(traced))
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and \
                elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setup = [p["setup_s"] for p in passes]
    while len(setup) < SETUP_SAMPLES:
        setup.append(workload.spawn_pass(False, setup_only=True)["setup_s"])
    return passes, setup


def summarize(passes: list, setup: list, trace: bool) -> dict:
    if not trace:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
        }
        return {k: {"value": values[k], "unit": u}
                for k, u in END_TO_END.items()}
    traced = [p for p in passes if "layers" in p]
    plain = [p for p in passes if "layers" not in p]
    values = {k: statistics.median(p["layers"][k] for p in traced)
              for k in PER_LAYER if k != "trace.overhead_s"}
    values["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain))
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="'small' runs the self-test's shrunken commands")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = ap.parse_args(argv)

    try:
        if not (SRC / "dworkzeta" / "cli.py").is_file():
            raise BenchError(f"no dworkzeta sources under {SRC}")
        workload = Workload(args.workload, args.scale, args.seed,
                            load_reference(args.reference))
        passes, setup = measure(workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = summarize(passes, setup, bool(args.trace))
    walls = " ".join(f"{p['wall_s']:.3f}{'t' if 'layers' in p else ''}"
                     for p in passes)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"setup_samples={len(setup)} pass wall_s: {walls}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':32s} {failed / attempted:.6g} ratio "
          f"({failed}/{attempted} rows)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
