"""Capture reference.json from the code in the checkout.

Usage: python3 perfbench/capture_reference.py

Runs every workload at every scale once with field-model seed 0 and once
with seed 1, requires the two to agree (the reference must not depend on
the model), and writes the per-command families of check.reference_of.
Run it only on code whose output is trusted; the benchmark never rewrites
the reference itself.
"""
import json
import sys

import check
import run
import workloads


def capture(name: str, scale: str, seed: int) -> list:
    wl = run.Workload(name, scale, seed, {})
    report = wl.spawn_pass(trace=False)
    refs = []
    for result in report["commands"]:
        if result["exit"] != 0:
            raise SystemExit(f"{name}/{scale}: a command exited "
                             f"{result['exit']}")
        refs.append(check.reference_of(result["rows"]))
    return refs


def main() -> int:
    reference: dict = {}
    for name in workloads.WORKLOADS:
        for scale in workloads.SCALES:
            refs = capture(name, scale, 0)
            if capture(name, scale, 1) != refs:
                raise SystemExit(f"{name}/{scale}: output depends on the "
                                 "field model")
            reference.setdefault(name, {})[scale] = refs
            print(f"{name}/{scale}: {len(refs)} commands", flush=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
