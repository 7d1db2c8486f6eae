"""Timing wrappers around dworkzeta's public functions, installed from the
benchmark's own pass process.

A span is [name, start, end, parent index]; spans stay in memory and are
written as JSONL when the pass ends.  Layer metrics are self times (span
duration minus the time covered by its child spans) and counters taken at
the same call boundaries.  A wrapped name that the code under test no
longer has is skipped, so the per-layer metrics of removed code read 0.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> per-layer time metric that its self time counts toward
LAYER_OF_SPAN = {
    "ff.build_field": "ff.build_s",
    "ff.extend": "ff.build_s",
    "padic.build_tower": "padic.build_tower_s",
    "padic.gauss_table": "padic.gauss_table_s",
    "padic.tower_mul": "padic.tower_mul_s",
    "counting.charsum_qcounts": "counting.charsum_s",
    "counting.smoothness_probe": "counting.probe_s",
    "zeta.recover_mirror_zeta": "zeta.recover_s",
    "zeta.recover_pencil_zeta": "zeta.recover_s",
    "zeta.weight_purity_check": "zeta.purity_s",
    "cli.main": "cli.self_s",
}
SLOPE_FUNCTIONS = ("slope_zeta", "slope_fe_check", "newton_polygon",
                   "ordinarity_test", "newton_above_hodge",
                   "hodge_numbers_dwork", "ordinary_slope_zeta")
for _name in SLOPE_FUNCTIONS:
    LAYER_OF_SPAN[f"slope.{_name}"] = "slope.zeta_s"

COUNTERS = ("counting.probe_calls", "counting.probe_points_max",
            "padic.gauss_tables_built", "padic.gauss_ring_adds",
            "counting.solution_vectors",
            "counting.charsum_calls", "ff.fields_built", "ff.table_entries")


class Tracer:
    """Spans and counters of one pass."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.charsum_keys: set = set()
        self.purity_dev_max = 0.0
        self._fields_seen: set = set()

    def wrap(self, name, fn, before=None, after=None):
        """`fn` inside a span; `before(args, kwargs)` returns a token that
        is passed to `after(token, result, args, kwargs)`, both outside the
        span's interval."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(token, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters taken at the wrapped boundaries ---------------------------

    def _field_built(self, _token, ctx, _args, _kwargs):
        if id(ctx) in self._fields_seen:
            return
        self._fields_seen.add(id(ctx))
        q = ctx.pp.q
        self.counters["ff.fields_built"] += 1
        # the log/exp tables, plus the q x q addition table when one is kept
        has_add = getattr(ctx, "_add_table", None) is not None
        self.counters["ff.table_entries"] += q + (q * q if has_add else 0)

    def _gauss_before(self, args, _kwargs):
        return getattr(args[0], "_gauss", None) is None

    def _gauss_after(self, building, _table, args, _kwargs):
        if building:
            q = args[0].q
            self.counters["padic.gauss_tables_built"] += 1
            self.counters["padic.gauss_ring_adds"] += (q - 1) * (q - 2)

    def _charsum_after(self, _token, _result, args, kwargs):
        inst = args[0]
        k = args[1] if len(args) > 1 else kwargs.get("k", 1)
        pp = inst.field.pp
        self.charsum_keys.add(
            (inst.n, pp.p, pp.r, inst.field.seed, inst.lam, k))
        self.counters["counting.charsum_calls"] += 1

    def _probe_after(self, _token, _result, args, kwargs):
        inst = args[0]
        k_max = args[1] if len(args) > 1 else kwargs.get("k_max", 2)
        caps = args[2] if len(args) > 2 else kwargs.get("caps")
        cap = getattr(caps, "probe_enum_max", 1 << 23)
        q, n = inst.field.pp.q, inst.n
        # upper bound on the points the probe scans: sum_s (q^s)^n
        for s in range(1, k_max + 1):
            if (q ** s) ** n > cap:
                break
            self.counters["counting.probe_points_max"] += (q ** s) ** n
        self.counters["counting.probe_calls"] += 1

    def _purity_after(self, _token, report, _args, _kwargs):
        self.purity_dev_max = max(self.purity_dev_max,
                                  float(report.max_deviation))

    def _counted_solutions(self, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            for sol in fn(*args, **kwargs):
                counters["counting.solution_vectors"] += 1
                yield sol

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the public functions in every dworkzeta module namespace that
        holds them, and the methods on their classes."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "dworkzeta" or name.startswith("dworkzeta.")]
        mod = {m.__name__.rpartition(".")[2]: m for m in modules}

        def patch(owner_name, attr, make):
            owner = mod.get(owner_name)
            orig = getattr(owner, attr, None) if owner else None
            if orig is None:
                return
            wrapped = make(orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

        def patch_method(module_name, cls_name, attr, make):
            cls = getattr(mod.get(module_name), cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                return
            wrapped = make(orig)
            for key, val in list(vars(cls).items()):
                if val is orig:  # aliases such as __rmul__ = __mul__
                    setattr(cls, key, wrapped)

        def span(name, before=None, after=None):
            return lambda fn: self.wrap(name, fn, before, after)

        patch("ff", "build_field", span("ff.build_field",
                                        after=self._field_built))
        patch("ff", "extend", span("ff.extend"))
        patch("padic", "build_tower", span("padic.build_tower"))
        patch_method("padic", "TowerCtx", "gauss_table",
                     span("padic.gauss_table", self._gauss_before,
                          self._gauss_after))
        patch_method("padic", "TowerElem", "__mul__",
                     span("padic.tower_mul"))
        patch("counting", "enumerate_solutions", self._counted_solutions)
        patch("counting", "charsum_qcounts",
              span("counting.charsum_qcounts", after=self._charsum_after))
        patch("counting", "smoothness_probe",
              span("counting.smoothness_probe", after=self._probe_after))
        patch("zeta", "recover_mirror_zeta", span("zeta.recover_mirror_zeta"))
        patch("zeta", "recover_pencil_zeta", span("zeta.recover_pencil_zeta"))
        patch("zeta", "weight_purity_check",
              span("zeta.weight_purity_check", after=self._purity_after))
        for name in SLOPE_FUNCTIONS:
            patch("slope", name, span(f"slope.{name}"))

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _parent), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def layer_metrics(self, wall_s: float, rows_out: int) -> dict:
        """Per-layer values of one traced pass (units in run.py)."""
        metrics = dict.fromkeys(sorted(set(LAYER_OF_SPAN.values())), 0.0)
        named = 0.0
        for name, self_s in self.self_times().items():
            metrics[LAYER_OF_SPAN[name]] += self_s
            if name != "cli.main":
                named += self_s
        metrics.update(self.counters)
        metrics["padic.tower_muls"] = sum(
            1 for rec in self.spans if rec[0] == "padic.tower_mul")
        calls = self.counters["counting.charsum_calls"]
        metrics["counting.charsum_unique_ratio"] = (
            len(self.charsum_keys) / calls if calls else 0.0)
        metrics["zeta.purity_dev_max"] = self.purity_dev_max
        metrics["cli.rows_out"] = rows_out
        metrics["trace.coverage"] = named / wall_s if wall_s > 0 else 0.0
        return metrics

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
