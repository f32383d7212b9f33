"""In-memory span tracer installed around qnroute's public functions.

Tracing is done from outside the package: every module-level binding of a
traced function inside ``qnroute`` is replaced by a wrapper, because
``from .x import y`` copies the binding into the importing module and patching
only the defining module would miss those call sites. ``RoutingTable.find``
runs hundreds of thousands of times per report, so it is counted, not spanned.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index of
the enclosing span or -1, and ``request`` is the operation label the workload
set when the span opened. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name); span names double as per-layer metric stems.
TRACED = (
    ("topology", "generate_graph", "topology.generate_graph"),
    ("topology", "all_neighborhoods", "topology.all_neighborhoods"),
    ("topology", "all_pairs_optimal", "topology.all_pairs_optimal"),
    ("topology", "optimal_cost", "topology.optimal_cost"),
    ("clustering", "build_anchor_set_greedy", "clustering.build_anchor_set_greedy"),
    ("clustering", "build_anchor_set_random", "clustering.build_anchor_set_random"),
    ("clustering", "build_tracked_sets", "clustering.build_tracked_sets"),
    ("clustering", "assign_all_tracking", "clustering.assign_all_tracking"),
    ("clustering", "verify_coverage", "clustering.verify_coverage"),
    ("routing", "build_tables", "routing.build_tables"),
    ("routing", "evaluate_all_pairs", "routing.evaluate_all_pairs"),
    ("routing", "resolve", "routing.resolve"),
    ("routing", "verify_bound_chain", "routing.verify_bound_chain"),
    ("routing", "swap_and_replenish", "routing.swap_and_replenish"),
    ("routing", "replenish", "routing.replenish"),
    ("qsearch", "routing_lookup_via_search", "qsearch.lookup"),
    ("qsearch", "instance_from_table", "qsearch.instance_from_table"),
    ("qsearch", "run_search", "qsearch.run_search"),
    ("serialize", "scheme_to_dict", "serialize.scheme_to_dict"),
    ("serialize", "scheme_from_dict", "serialize.scheme_from_dict"),
    ("serialize", "dump_json", "serialize.dump_json"),
    ("serialize", "load_json", "serialize.load_json"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "build_scheme_for_trial", "harness.build_scheme"),
    ("harness", "write_report", "harness.write_report"),
)


class Tracer:
    """Records spans and counts while installed; restores every binding on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        from qnroute.routing import RoutingTable

        for module_name, _, _ in TRACED:
            importlib.import_module("qnroute." + module_name)
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "qnroute" or name.startswith("qnroute.")
        ]
        for module_name, func_name, span_name in TRACED:
            original = getattr(sys.modules["qnroute." + module_name], func_name)
            wrapper = self._wrap(span_name, original, _OBSERVERS.get(span_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        find = RoutingTable.find
        counts = self.counts

        def counted_find(table, peer):
            counts["routing.table_find_calls"] += 1
            return find(table, peer)

        self._restore.append((RoutingTable, "find", find))
        RoutingTable.find = counted_find
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, sorted durations."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[idx]
            agg["durations"].append(end - start)
        for agg in out.values():
            agg["durations"].sort()
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                    )
                    + "\n"
                )


def _observe_resolve(counts, path) -> None:
    counts["routing.case_" + path.case.value] += 1


def _observe_delivery(counts, record) -> None:
    counts["routing.deliveries_retried"] += int(record.retried)


def _observe_replenish(counts, added) -> None:
    counts["routing.ebits_refilled"] += added


def _observe_lookup(counts, result) -> None:
    counts["qsearch.found"] += int(result.found)
    counts["qsearch.classical_fallback"] += int(result.classical_fallback)


def _observe_search(counts, outcome) -> None:
    counts["qsearch.max_hits"] = max(counts["qsearch.max_hits"], len(outcome.hit_labels))


_OBSERVERS = {
    "routing.resolve": _observe_resolve,
    "routing.swap_and_replenish": _observe_delivery,
    "routing.replenish": _observe_replenish,
    "qsearch.lookup": _observe_lookup,
    "qsearch.run_search": _observe_search,
}
