"""Check one pass's output rows against the stored reference.

The reference is model-independent: for every command of a workload it
holds, per (n, q, k) family, the sorted multiset of (X, Y) counts and, for
sweeps, per (n, q) family the sorted multiset of recovered numerators.
Counts over a family do not depend on the field model, so the same
reference holds for every --seed.

A row fails if it is an error row, carries a failed verdict, breaks
X = Y mod q^k (recomputed here, not read from the row's verdict), or
cannot be matched to an unused reference entry.  A reference entry that no
row matched is a missing row and fails too.  A command with a nonzero exit
code fails all of its rows.
"""
from __future__ import annotations

from collections import Counter

VERDICT_FIELDS = ("verdict", "x_torus_form", "fe_Y", "fe_X")


def count_key(row: dict) -> str:
    return f"{row['n']},{row['p'] ** row['r']},{row['k']}"


def zeta_key(row: dict) -> str:
    y = row["Y"]
    return f"{y['n']},{y['p'] ** y['r']}"


def zeta_value(row: dict) -> list:
    x = row.get("X")
    return [row["Y"]["numerator_coeffs"],
            x["numerator_coeffs"] if x else None,
            row.get("R_coeffs")]


def classify(row: dict):
    """(kind, family key, value) of an output row; kind is None for rows
    that carry no result (the congruence command's summary row)."""
    if "error" in row:
        return "error", None, None
    if "Y" in row and isinstance(row["Y"], dict):
        return "zeta", zeta_key(row), zeta_value(row)
    if row.get("summary"):
        return None, None, None
    return "counts", count_key(row), [row["X"], row["Y"]]


def row_ok(row: dict) -> bool:
    """Verdicts and the mirror congruence, recomputed from X and Y."""
    for name in VERDICT_FIELDS:
        if name in row and row[name] not in ("pass", True):
            return False
    if "X" in row and "k" in row:
        qk = (row["p"] ** row["r"]) ** row["k"]
        if "modulus" in row and int(row["modulus"]) != qk:
            return False
        if (int(row["X"]) - int(row["Y"])) % qk:
            return False
    return True


def reference_of(rows: list) -> dict:
    """The reference entry for one command's rows (used when capturing)."""
    ref: dict = {"counts": {}, "zeta": {}}
    for row in rows:
        kind, key, value = classify(row)
        if kind in ("counts", "zeta"):
            ref[kind].setdefault(key, []).append(value)
    for table in ref.values():
        for values in table.values():
            values.sort(key=repr)
    return ref


def check_command(exit_code: int, rows: list, ref: dict):
    """(attempted, failed) for one command's rows against its reference."""
    expected = {kind: {key: Counter(repr(v) for v in values)
                       for key, values in table.items()}
                for kind, table in ref.items()}
    n_expected = sum(len(values) for table in ref.values()
                     for values in table.values())
    rows_seen = not_ok = 0
    for row in rows:
        kind, key, value = classify(row)
        if kind is None:
            continue
        rows_seen += 1
        pool = expected.get(kind, {}).get(key)
        v = repr(value)
        if kind == "error" or not row_ok(row) or not pool or not pool[v]:
            not_ok += 1
            continue
        pool[v] -= 1
    leftover = sum(c for table in expected.values()
                   for pool in table.values() for c in pool.values())
    attempted = max(rows_seen, n_expected, 1)
    failed = max(not_ok, leftover)
    if exit_code != 0:
        failed = attempted
    return attempted, failed
