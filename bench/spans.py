"""Span tracing wrapped around regulab's layer entry points, from outside.

``Tracer.install`` replaces each traced function at every module-level
name that refers to it (the names its callers look up), so nothing
under ``src/`` changes.  Each wrapped call records one span: name,
start, end, parent span and run id (the pass index).  Counters read
work done from what the calls receive and return.  Spans stay in memory
until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median


# span name -> (module, attribute, counter function or None); a counter
# gets (args, kwargs, result) and returns {counter name: amount}
TARGETS = {
    "io.load_graph": ("regulab.io", "load_graph", None),
    "io.load_pair": ("regulab.io", "load_pair", None),
    "io.load_partition": ("regulab.io", "load_partition", None),
    "io.dump_report": ("regulab.io", "dump_report",
                       lambda a, k, r: {"io.report_bytes": len(r)}),
    "partition.build_regular_partition": ("regulab.partition", "build_regular_partition", None),
    "partition.classify_pairs": (
        "regulab.partition", "classify_pairs",
        lambda a, k, r: {"partition.pairs": r[1]["n_pairs"],
                         "partition.clusters": len(a[2]),
                         "partition.singletons": sum(len(c) == 1 for c in a[2])}),
    "regularity.check_partition": ("regulab.regularity", "check_partition", None),
    "regularity.check_pair": ("regulab.regularity", "check_pair", None),
    "core.rho_sum": ("regulab.core", "rho_sum", None),
    "decomposition.strong_decompose": ("regulab.decomposition", "strong_decompose",
                                       lambda a, k, r: {"decomposition.terms": len(r.terms)}),
    "decomposition.best_basic": ("regulab.decomposition", "_best_basic", None),
    "decomposition.project_structured": ("regulab.decomposition", "project_structured", None),
    "quasirandom.check_quasirandom": ("regulab.quasirandom", "check_quasirandom", None),
    "enumerate.ternary_assignment_sums": (
        "regulab._enumerate", "ternary_assignment_sums",
        lambda a, k, r: {"enumerate.ternary_states": 3 ** len(a[1])}),
    "enumerate.scan_subset_pairs": (
        "regulab._enumerate", "scan_subset_pairs",
        lambda a, k, r: {"enumerate.scan_cells": 2 ** len(a[1]) * 2 ** len(a[2]),
                         "enumerate.qualifying": r.n_qualifying}),
    "search.disjoint_pair_search": (
        "regulab._search", "disjoint_pair_search",
        lambda a, k, r: {"search.moves": r.moves, "search.restarts": r.restarts}),
    "search.pair_witness_search": (
        "regulab._search", "pair_witness_search",
        lambda a, k, r: {"search.moves": r.moves, "search.restarts": r.restarts}),
}

PER_LAYER = (
    "cli.partition_s", "cli.verify_s", "cli.check_qr_s", "cli.check_pair_s", "cli.decompose_s",
    "io.load_s", "io.dump_s", "io.report_mb",
    "partition.build_s", "partition.classify_s", "partition.pairs", "partition.singleton_frac",
    "regularity.check_partition_s", "regularity.check_pair_calls", "regularity.check_pair_self_s",
    "core.rho_sum_calls", "core.rho_sum_s",
    "decomposition.decompose_s", "decomposition.best_basic_calls", "decomposition.best_basic_s",
    "decomposition.project_s", "decomposition.terms",
    "quasirandom.check_self_s",
    "enumerate.ternary_s", "enumerate.ternary_states", "enumerate.scan_s", "enumerate.scan_calls",
    "enumerate.scan_cells", "enumerate.qualifying_frac",
    "search.disjoint_s", "search.pair_s", "search.moves", "search.moves_per_restart",
    "trace.spans", "trace.self_total_s", "trace.overhead_s",
)


class Tracer:
    def __init__(self) -> None:
        # one entry per span in each parallel list, indexed by span id;
        # flat lists of numbers keep the garbage collector's work constant
        self.parent: list[int] = []
        self.name: list[str] = []
        self.run: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, counter=None, **kwargs):
        """Call fn inside a span named ``name``."""
        sid = len(self.name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name)
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[sid] = time.perf_counter()
            self.start[sid] = t0
            self._stack.pop()
        if counter is not None:
            bucket = self.counters[self.run_id]
            for key, amount in counter(args, kwargs, result).items():
                bucket[key] += amount
        return result

    def install(self) -> None:
        """Wrap every TARGETS function at all regulab names bound to it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "regulab" or name.startswith("regulab."))]
        for span_name, (mod_name, attr, counter) in TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrapper(span_name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrapper(self, name: str, fn, counter):
        def wrapped(*args, **kwargs):
            return self.span(name, fn, *args, counter=counter, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[sid] - self.start[sid]
        return out

    def pass_metrics(self, untraced_pipeline_s: float) -> dict[str, float]:
        """Per-layer metrics: the median over traced passes of each pass's total."""
        self_t = self.self_times()
        runs = sorted(set(self.run))
        per_run = [self._one_pass(r, self_t) for r in runs]
        metrics = {name: median(p[name] for p in per_run) for name in PER_LAYER[:-1]}
        traced = median(p["trace.pipeline_s"] for p in per_run)
        metrics[PER_LAYER[-1]] = traced - untraced_pipeline_s  # trace.overhead_s
        return metrics

    def _one_pass(self, run: int, self_t: list[float]) -> dict[str, float]:
        dur: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        roots = 0.0
        count = 0
        for sid, name in enumerate(self.name):
            if self.run[sid] != run:
                continue
            span_s = self.end[sid] - self.start[sid]
            dur[name] += span_s
            own[name] += self_t[sid]
            calls[name] += 1
            count += 1
            if self.parent[sid] < 0:
                roots += span_s
        c = self.counters[run]
        cells = c["enumerate.scan_cells"]
        restarts = c["search.restarts"]
        clusters = c["partition.clusters"]
        return {
            "cli.partition_s": dur["cli.partition"],
            "cli.verify_s": dur["cli.verify"],
            "cli.check_qr_s": dur["cli.check-qr"],
            "cli.check_pair_s": dur["cli.check-pair"],
            "cli.decompose_s": dur["cli.decompose"],
            "io.load_s": dur["io.load_graph"] + dur["io.load_pair"] + dur["io.load_partition"],
            "io.dump_s": dur["io.dump_report"],
            "io.report_mb": c["io.report_bytes"] / 1e6,
            "partition.build_s": dur["partition.build_regular_partition"],
            "partition.classify_s": dur["partition.classify_pairs"],
            "partition.pairs": c["partition.pairs"],
            "partition.singleton_frac": c["partition.singletons"] / clusters if clusters else 0.0,
            "regularity.check_partition_s": dur["regularity.check_partition"],
            "regularity.check_pair_calls": calls["regularity.check_pair"],
            "regularity.check_pair_self_s": own["regularity.check_pair"],
            "core.rho_sum_calls": calls["core.rho_sum"],
            "core.rho_sum_s": dur["core.rho_sum"],
            "decomposition.decompose_s": dur["decomposition.strong_decompose"],
            "decomposition.best_basic_calls": calls["decomposition.best_basic"],
            "decomposition.best_basic_s": dur["decomposition.best_basic"],
            "decomposition.project_s": dur["decomposition.project_structured"],
            "decomposition.terms": c["decomposition.terms"],
            "quasirandom.check_self_s": own["quasirandom.check_quasirandom"],
            "enumerate.ternary_s": dur["enumerate.ternary_assignment_sums"],
            "enumerate.ternary_states": c["enumerate.ternary_states"],
            "enumerate.scan_s": dur["enumerate.scan_subset_pairs"],
            "enumerate.scan_calls": calls["enumerate.scan_subset_pairs"],
            "enumerate.scan_cells": cells,
            "enumerate.qualifying_frac": c["enumerate.qualifying"] / cells if cells else 0.0,
            "search.disjoint_s": dur["search.disjoint_pair_search"],
            "search.pair_s": dur["search.pair_witness_search"],
            "search.moves": c["search.moves"],
            "search.moves_per_restart": c["search.moves"] / restarts if restarts else 0.0,
            "trace.spans": count,
            "trace.self_total_s": sum(own.values()),
            "trace.pipeline_s": roots,
        }

    def layer_table(self) -> list[tuple[str, int, float, float]]:
        """(span name, calls, total s, self s) per traced pass, heaviest self first."""
        self_t = self.self_times()
        runs = max(1, len(set(self.run)))
        rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name in enumerate(self.name):
            row = rows[name]
            row[0] += 1
            row[1] += self.end[sid] - self.start[sid]
            row[2] += self_t[sid]
        table = [(name, round(r[0] / runs), r[1] / runs, r[2] / runs) for name, r in rows.items()]
        return sorted(table, key=lambda row: -row[3])

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, name in enumerate(self.name):
                fh.write(json.dumps({"id": sid, "parent": self.parent[sid], "name": name,
                                     "run": self.run[sid], "start": self.start[sid],
                                     "end": self.end[sid]}) + "\n")
