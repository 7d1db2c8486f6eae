"""The benchmark's workloads: the dworkzeta CLI commands that one pass runs.

Each workload maps a scale ("full" for the measured benchmark, "small" for
the self-test) to a list of commands.  A command is a CLI argument vector
without the shared flags; `run.py` appends `--seed <seed> --threads 1`.
A `sweep` command also carries the grid it runs, which `run.py` writes to a
config file next to the sweep's output directory.
"""
from __future__ import annotations

SCALES = ("full", "small")


def _sweep(**grid) -> dict:
    config = {"r_list": [1], "k_max": 2, "lambda_mode": "all",
              "zeta_n_max": 2}
    config.update(grid)
    return {"argv": ["sweep"], "sweep_config": config}


def _command(*argv) -> dict:
    return {"argv": list(argv), "sweep_config": None}


def sweep_grid(scale: str) -> list:
    if scale == "small":
        return [_sweep(n_list=[2, 3], prime_list=[2, 3])]
    # The README grid minus its costliest families (see design.json): every
    # lambda of n = 2..4 over p in {2, 3, 5}, plus one smooth n = 4, p = 7
    # fiber (lambda = g^0 = 1), whose brute-force probe dominates the pass.
    return [_sweep(n_list=[2, 3, 4], prime_list=[2, 3, 5]),
            _sweep(n_list=[4], prime_list=[7], lambda_mode="list",
                   lambda_list=[0])]


def fermat_deep(scale: str) -> list:
    if scale == "small":
        return [_command("count", "--n", "3", "--p", "5", "--lambda", "zero",
                         "--k", "2", "--method", "charsum")]
    return [_command("count", "--n", "3", "--p", "11", "--lambda", "zero",
                     "--k", "3", "--method", "charsum")]


def congruence_tower(scale: str) -> list:
    if scale == "small":
        grid, k = [(2, 3), (3, 3)], 2
    else:
        grid, k = [(n, p) for n in (2, 3, 4) for p in (3, 5)], 3
    return [_command("congruence", "--n", str(n), "--p", str(p),
                     "--lambda", "all", "--k", str(k)) for n, p in grid]


WORKLOADS = {
    "sweep-grid": sweep_grid,
    "fermat-deep": fermat_deep,
    "congruence-tower": congruence_tower,
}


def commands(workload: str, scale: str) -> list:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}")
    return WORKLOADS[workload](scale)
