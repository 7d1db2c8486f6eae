"""Self-test of the benchmark on shrunken workloads (about a minute).

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that
  * every workload, at --scale small, emits exactly the end-to-end metrics
    of BENCHMARK.json with --trace 0 and its per-layer metrics with
    --trace 1, each with its declared unit, and passes the output check;
  * a deliberately corrupted reference row makes the run report failed
    rows (failed_frac > 0, correct false);
  * without the program's sources the benchmark exits nonzero and prints
    no result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "5", "--seconds", "0.1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc, res = bench("--workload", workload, "--scale", "small",
                              "--trace", str(trace))
            what = f"{workload} --trace {trace}"
            if res is None:
                expect(False, f"{what}: exit {proc.returncode} "
                              f"{proc.stderr.strip()[-500:]}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want[trace], f"{what}: metrics and units")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0, f"{what}: output check")
            expect("failed_frac" in proc.stdout, f"{what}: failed_frac line")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    reference = json.loads((HERE / "reference.json").read_text())
    counts = reference["congruence-tower"]["small"][0]["counts"]
    family = sorted(counts)[0]
    counts[family][0][0] = str(int(counts[family][0][0]) + 1)
    corrupt = SCRATCH / "corrupt-reference.json"
    corrupt.write_text(json.dumps(reference))
    proc, res = bench("--workload", "congruence-tower", "--scale", "small",
                      "--reference", str(corrupt))
    expect(res is not None and res["failed"] > 0 and not res["correct"],
           "a corrupted reference row raises failed_frac above 0")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, res = bench("--workload", "fermat-deep", cwd=bare,
                      script=bare / HERE.name / "run.py")
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without sources: nonzero exit and no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
