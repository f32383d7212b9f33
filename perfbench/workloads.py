"""The qnroute benchmark workloads: seeded inputs, measurement loops, checks.

Every workload drives qnroute's public API with inputs generated here from
the workload seed, on ``erdos_renyi`` graphs with
``edge_prob = max(0.12, 2 ln n / n)``, ``k = isqrt(n_e)``, ``f = 1`` and a
greedy anchor cover (the ROADMAP baseline table uses the same settings).

* ``allpairs-partial`` and ``allpairs-full`` time whole reports: one
  ``harness.run_experiment`` call with outputs written, as ``qnroute report``
  runs it. Between set-up and the reports, rounds of read-only route queries
  (``routing.resolve`` on a built scheme, as ``qnroute route`` without
  ``--send``) give per-request latencies.
* ``serve-stream`` is a closed loop with one client: each request is a table
  lookup through the amplified search, a resolution, and a delivery that
  debits ebits, so every request sees the ebits its predecessors left.

An untraced run repeats its set-up ``SETUP_REPEATS`` times and its main
operation (a report, or a pass over the request stream) as often as fits in
``seconds``, at least ``MIN_REPEATS`` times, and reports medians; every
request is repeated identically in each round or pass and its latency is its
median over them. Times are rescaled to a reference CPU speed by
``speed.SpeedProbe``. A traced run does one untraced main operation as the
overhead baseline, then one set-up and one main operation under the tracer,
with raw wall times, so its per-layer totals cover a fixed amount of work.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from qnroute import harness, qsearch, routing, serialize
from speed import SpeedProbe

SETUP_REPEATS = 5
MIN_REPEATS = 3
QUERY_COUNT = 4000
QUERY_ROUNDS = 7
REQUEST_COUNT = 8000
REPLENISH_EVERY = 64
REPLENISH_RATE = 2
ZIPF_EXPONENT = 1.0
EPOCH = 250
STRETCH_BOUND = {"partial": 5.0, "full": 3.0}
TOL = 1e-9

END_TO_END = {
    "report_s": "s",
    "pairs_per_s": "1/s",
    "setup_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "served_share": "share",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "topology.generate_graph_s": "s",
    "topology.all_neighborhoods_s": "s",
    "topology.all_pairs_optimal_s": "s",
    "topology.optimal_cost_calls": "count",
    "topology.optimal_cost_s": "s",
    "clustering.cover_s": "s",
    "routing.build_tables_self_s": "s",
    "routing.resolve_calls": "count",
    "routing.resolve_self_s": "s",
    "routing.resolve_p50_us": "us",
    "routing.resolve_p99_us": "us",
    "routing.table_find_calls": "count",
    "routing.case_I": "count",
    "routing.case_II": "count",
    "routing.case_III": "count",
    "routing.case_fallback": "count",
    "routing.case_failure": "count",
    "routing.resolved_share": "share",
    "routing.verify_bound_chain_calls": "count",
    "routing.verify_bound_chain_s": "s",
    "routing.swap_and_replenish_s": "s",
    "routing.deliveries_retried": "count",
    "routing.replenish_s": "s",
    "routing.ebits_refilled": "count",
    "qsearch.lookup_calls": "count",
    "qsearch.lookup_p50_us": "us",
    "qsearch.lookup_p99_us": "us",
    "qsearch.instance_from_table_s": "s",
    "qsearch.run_search_s": "s",
    "qsearch.search_runs": "count",
    "qsearch.found_share": "share",
    "qsearch.classical_fallback": "count",
    "qsearch.max_hits": "count",
    "serialize.scheme_to_dict_s": "s",
    "serialize.scheme_from_dict_self_s": "s",
    "serialize.dump_json_s": "s",
    "serialize.load_json_s": "s",
    "serialize.scheme_doc_bytes": "bytes",
    "harness.build_scheme_s": "s",
    "harness.write_report_s": "s",
    "harness.chain_checked": "count",
    "harness.csv_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "allpairs" or "serve"
    n_e: int
    scheme: str
    metric: str
    trials: int
    queries: int = QUERY_COUNT
    requests: int = REQUEST_COUNT

    def trial_seeds(self, seed: int) -> list[int]:
        return [self.trials * seed + t for t in range(self.trials)]

    def config(self, seed: int, out_dir: str) -> harness.ExperimentConfig:
        n = self.n_e
        return harness.ExperimentConfig(
            n_e=n,
            graph_model="erdos_renyi",
            graph_params={"edge_prob": max(0.12, 2 * math.log(n) / n)},
            metric=self.metric,
            scheme=self.scheme,
            anchor_method="greedy",
            f=1,
            ebit_budget=4,
            k_override=math.isqrt(n),
            seeds=self.trial_seeds(seed),
            output_dir=out_dir,
            name=self.name,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("allpairs-partial", "allpairs", 256, "partial", "hop", trials=1),
        Workload("allpairs-full", "allpairs", 128, "full", "uniform", trials=2),
        Workload("serve-stream", "serve", 256, "partial", "hop", trials=1),
    )
}


@dataclass
class Outcome:
    """What one run measured and every check that failed."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.failed += 1


def request_stream(
    n_e: int, seed: int, count: int, salt: str, exponent: float
) -> list[tuple[int, int, int]]:
    """``(source, dest, lookup_seed)`` triples with both ends drawn with
    weight ``rank ** -exponent`` over a seeded node permutation: exponent 0
    gives uniform pairs, exponent 1 a Zipf skew where a few hot pairs recur.

    The permutation is redrawn every ``EPOCH`` requests. One permutation
    would let the few hottest nodes of a seed set the cost of the whole
    stream; several average that over a run.
    """
    rng = random.Random(f"{salt}:{seed}")
    order = list(range(n_e))
    cum = list(itertools.accumulate((r + 1) ** -exponent for r in range(n_e)))
    out = []
    while len(out) < count:
        rng.shuffle(order)
        epoch_end = min(count, len(out) + EPOCH)
        while len(out) < epoch_end:
            source, dest = rng.choices(order, cum_weights=cum, k=2)
            if source != dest:
                out.append((source, dest, rng.getrandbits(63)))
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _timed(fn):
    """Call ``fn`` and return its wall interval and result. Garbage left by
    earlier iterations is collected first, outside the interval, so every
    timed call starts from the heap a fresh process would have."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return (start, time.perf_counter()), result


def _another(done: list, interval_of, deadline: float) -> bool:
    """Repeat until ``MIN_REPEATS``, then while the next repeat, as long as
    the last one, still ends before the deadline."""
    if len(done) < MIN_REPEATS:
        return True
    start, end = interval_of(done[-1])
    return time.perf_counter() + (end - start) <= deadline


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_metrics(rounds: list, loops: list, seconds, out: Outcome) -> None:
    """Request metrics from identical rounds over one request list.

    ``rounds`` holds one list of per-request intervals per round and
    ``loops`` the interval of each round's loop; ``seconds(start, end)``
    converts an interval. A request's latency is its median over the rounds,
    and the request rate is that of the median round, which drops a pause
    that hit one round only.
    """
    latencies = sorted(
        statistics.median(seconds(*r[i]) for r in rounds) for i in range(len(rounds[0]))
    )
    out.metrics["req_per_s"] = len(latencies) / statistics.median(
        seconds(start, end) for start, end in loops
    )
    out.metrics["req_p50_ms"] = percentile(latencies, 0.50) * 1e3
    out.metrics["req_p99_ms"] = percentile(latencies, 0.99) * 1e3
    out.notes.append(
        f"request latency: {len(latencies)} requests, each the median of {len(rounds)} rounds"
    )


# ---------------------------------------------------------------------------
# allpairs-partial, allpairs-full


def _report(config, out: Outcome) -> tuple[tuple[float, float], object, str, int]:
    interval, report = _timed(lambda: harness.run_experiment(config))
    for line in harness.assertion_lines(report):
        if not line.startswith("PASS"):
            out.fail(f"report assertion: {line}")
    expected_rows = config.n_e * (config.n_e - 1)
    for trial in report.trials:
        if len(trial.rows) != expected_rows:
            out.fail(f"trial {trial.seed}: {len(trial.rows)} rows, expected {expected_rows}")
    csv_path = os.path.join(config.output_dir, config.name + "_pairs.csv")
    with open(csv_path, "rb") as fh:
        data = fh.read()
    return interval, report, hashlib.sha256(data).hexdigest(), len(data)


def _queries(schemes, pairs, tracer) -> tuple[list, tuple[float, float], list]:
    intervals = []
    answers = []
    clock = time.perf_counter
    gc.collect()
    start = clock()
    for idx, (source, dest, _) in enumerate(pairs):
        if tracer is not None:
            tracer.request = f"query:{idx}"
        tables = schemes[idx % len(schemes)]
        t0 = clock()
        path = routing.resolve(tables, source, dest)
        intervals.append((t0, clock()))
        answers.append(path)
    return intervals, (start, clock()), answers


def _check_queries(config, report, pairs, answers, out: Outcome) -> None:
    """Every query must match the report's row for the same trial and pair."""
    n = config.n_e
    trials = report.trials
    for idx, ((source, dest, _), path) in enumerate(zip(pairs, answers)):
        trial = trials[idx % len(trials)]
        row = trial.rows[source * (n - 1) + (dest if dest < source else dest - 1)]
        if row[:4] != (source, dest, path.case.value, path.total_cost):
            out.fail(f"query {idx} ({source},{dest}) on seed {trial.seed}: {path.case.value} "
                     f"cost {path.total_cost} != report row {row}")


def run_allpairs(w: Workload, seed: int, seconds: float, tracer, work_dir: str, pinned: dict,
                 to_seconds) -> Outcome:
    out = Outcome()
    config = w.config(seed, work_dir)
    config.validate()
    pairs = request_stream(w.n_e, seed, w.queries, "queries", exponent=0.0)

    def setup():
        return [harness.build_scheme_for_trial(config, s)[0] for s in config.seeds]

    if tracer is None:
        setups = []
        for _ in range(SETUP_REPEATS):
            schemes = None  # drop the previous copy so peak RSS holds one
            interval, schemes = _timed(setup)
            setups.append(interval)
        deadline = time.perf_counter() + seconds
        rounds = [_queries(schemes, pairs, None) for _ in range(QUERY_ROUNDS)]
        schemes = None
        reports = []
        while _another(reports, lambda r: r[0], deadline):
            interval, report, digest, size = _report(config, out)
            reports.append((interval, digest, size))
    else:
        baseline = _report(config, out)[0]
        with tracer:
            tracer.request = "setup"
            interval, schemes = _timed(setup)
            setups = [interval]
            rounds = [_queries(schemes, pairs, tracer)]
            tracer.request = "report"
            interval, report, digest, size = _report(config, out)
            reports = [(interval, digest, size)]
    for _, _, answers in rounds:
        _check_queries(config, report, pairs, answers, out)

    digests = {digest for _, digest, _ in reports}
    if len(digests) != 1:
        out.fail(f"reports of one config wrote different CSVs: {sorted(digests)}")
    want = pinned.get(w.name, {}).get(str(seed))
    if want is None:
        out.notes.append(f"csv sha256 {digest} (seed {seed} is not pinned; not gated)")
    elif digest != want:
        out.fail(f"csv sha256 {digest} != pinned {want} for seed {seed}")
    else:
        out.notes.append(f"csv sha256 {digest} matches the pinned digest for seed {seed}")

    pairs_per_report = len(config.seeds) * config.n_e * (config.n_e - 1)
    resolved = sum(sum(t.case_counts.get(c, 0) for c in ("I", "II", "III")) for t in report.trials)
    out.attempted = pairs_per_report * len(reports) + len(pairs) * len(rounds)
    out.metrics["report_s"] = statistics.median(to_seconds(*r[0]) for r in reports)
    out.metrics["pairs_per_s"] = pairs_per_report / out.metrics["report_s"]
    out.metrics["setup_s"] = statistics.median(to_seconds(*i) for i in setups)
    _latency_metrics([r[0] for r in rounds], [r[1] for r in rounds], to_seconds, out)
    out.metrics["served_share"] = resolved / pairs_per_report
    out.metrics["peak_rss_mb"] = _peak_rss_mb()
    out.notes.append(f"reports: {len(reports)}, set-ups: {len(setups)}")
    if tracer is not None:
        out.metrics.update(
            layer_metrics(
                tracer,
                overhead=_length(reports[0][0]) / _length(baseline),
                chain_checked=sum(t.chain_checked for t in report.trials),
                csv_bytes=size,
                doc_bytes=0,
            )
        )
    return out


def _length(interval: tuple[float, float]) -> float:
    return interval[1] - interval[0]


# ---------------------------------------------------------------------------
# serve-stream


@dataclass
class _Pass:
    interval: tuple  # the stream and its delivery log
    stream: tuple  # the request loop alone
    requests: list  # per-request intervals
    digest: str
    served: int


def _serve_pass(tables, requests, log_path: str, tracer, out: Outcome) -> _Pass:
    """One pass over the request stream, then its delivery log."""
    clock = time.perf_counter
    intervals = []
    records = []
    lookups = []
    gc.collect()
    start = clock()
    for idx, (source, dest, lookup_seed) in enumerate(requests):
        if tracer is not None:
            tracer.request = f"request:{idx}"
        t0 = clock()
        lookup = qsearch.routing_lookup_via_search(tables, source, dest, seed=lookup_seed)
        path = routing.resolve(tables, source, dest)
        first_hop = tables.table(source).find(path.nodes[1]) if path.resolved else None
        packet = routing.make_packet(
            tables.plan, source, dest, descriptors=first_hop.partitions if first_hop else ()
        )
        records.append(routing.swap_and_replenish(tables, path, packet))
        intervals.append((t0, clock()))
        lookups.append(lookup)
        if (idx + 1) % REPLENISH_EVERY == 0:
            if tracer is not None:
                tracer.request = f"replenish:{idx}"
            routing.replenish(tables, REPLENISH_RATE)
    stream_end = clock()
    serialize.write_delivery_log(records, log_path)
    end = clock()

    budget = tables.ebit_budget
    bound = STRETCH_BOUND[tables.scheme.value]
    lines = []
    served = 0
    for idx, ((source, dest, _), lookup, rec) in enumerate(zip(requests, lookups, records)):
        if lookup.found and dest not in tables.table(source).entries[lookup.entry_label].reach:
            out.fail(f"request {idx}: lookup label {lookup.entry_label} of node {source} "
                     f"does not hold target {dest} in its classical mirror")
        on_path = rec.success and rec.path.resolved
        if on_path and rec.path.stretch > bound + TOL:
            out.fail(f"request {idx}: delivered stretch {rec.path.stretch} > {bound}")
        served += on_path
        lines.append(
            f"{idx},{source},{dest},{int(lookup.found)},{lookup.entry_label},"
            f"{int(lookup.classical_fallback)},{rec.path.case.value},"
            f"{'-'.join(map(str, rec.path.nodes))},{int(rec.success)},{int(rec.retried)}\n"
        )
    for table in tables.tables:
        for entry in table.entries:
            if not 0 <= entry.ebits <= budget:
                out.fail(f"node {table.owner} entry {entry.e_hop}: ebits {entry.ebits} "
                         f"outside [0, {budget}]")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    return _Pass((start, end), (start, stream_end), intervals, digest, served)


def run_serve(w: Workload, seed: int, seconds: float, tracer, work_dir: str, pinned: dict,
              to_seconds) -> Outcome:
    out = Outcome()
    config = w.config(seed, work_dir)
    config.validate()
    requests = request_stream(w.n_e, seed, w.requests, "requests", ZIPF_EXPONENT)
    doc_path = os.path.join(work_dir, "scheme.json")
    log_path = os.path.join(work_dir, "deliveries.csv")

    def setup():
        built, _ = harness.build_scheme_for_trial(config, seed)
        serialize.dump_json(
            serialize.scheme_to_dict(built, config.metric, config.metric_params), doc_path
        )
        del built  # only the read-back copy serves, as after `qnroute cluster`
        tables, _, _ = serialize.scheme_from_dict(serialize.load_json(doc_path))
        return tables

    if tracer is None:
        setups = []
        for _ in range(SETUP_REPEATS):
            tables = None  # drop the previous copy so peak RSS holds one
            interval, tables = _timed(setup)
            setups.append(interval)
        deadline = time.perf_counter() + seconds
        passes = []
        while _another(passes, lambda p: p.interval, deadline):
            if passes:
                # a full refill restores the state every entry was built with
                routing.replenish(tables, tables.ebit_budget)
            passes.append(_serve_pass(tables, requests, log_path, None, out))
    else:
        baseline = _serve_pass(setup(), requests, log_path, None, out)
        with tracer:
            tracer.request = "setup"
            interval, tables = _timed(setup)
            setups = [interval]
            passes = [_serve_pass(tables, requests, log_path, tracer, out)]

    digests = {p.digest for p in passes}
    if tracer is not None:
        digests.add(baseline.digest)
    if len(digests) != 1:
        out.fail(f"passes over one request stream disagree: {sorted(digests)}")
    out.notes.append(f"request outcome sha256 {passes[-1].digest}")

    out.attempted = w.requests * len(passes)
    out.metrics["report_s"] = statistics.median(to_seconds(*p.interval) for p in passes)
    out.metrics["pairs_per_s"] = w.requests / out.metrics["report_s"]
    out.metrics["setup_s"] = statistics.median(to_seconds(*i) for i in setups)
    _latency_metrics([p.requests for p in passes], [p.stream for p in passes], to_seconds, out)
    out.metrics["served_share"] = passes[-1].served / w.requests
    out.metrics["peak_rss_mb"] = _peak_rss_mb()
    out.notes.append(f"passes: {len(passes)}, set-ups: {len(setups)}")
    if tracer is not None:
        out.metrics.update(
            layer_metrics(
                tracer,
                overhead=_length(passes[0].interval) / _length(baseline.interval),
                chain_checked=0,
                csv_bytes=0,
                doc_bytes=os.path.getsize(doc_path),
            )
        )
    return out


RUNNERS = {"allpairs": run_allpairs, "serve": run_serve}


def run(w: Workload, seed: int, seconds: float, tracer, work_dir: str, pinned: dict) -> Outcome:
    """Run one workload. Untraced, under a speed probe, with times rescaled
    to the probe's reference speed; traced, with raw wall times."""
    runner = RUNNERS[w.kind]
    if tracer is not None:
        return runner(w, seed, seconds, tracer, work_dir, pinned, lambda start, end: end - start)
    with SpeedProbe() as probe:
        out = runner(w, seed, seconds, None, work_dir, pinned, probe.seconds)
    out.notes.append(
        f"speed probe: {len(probe.durations)} samples; the host ran {probe.factor():.3f}x "
        "the reference probe time; times are rescaled to the reference speed"
    )
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer, overhead: float, chain_checked: int, csv_bytes: int, doc_bytes: int) -> dict:
    spans = tracer.summary()
    counts = tracer.counts
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def span(name: str) -> dict:
        return spans.get(name, empty)

    def pct_us(name: str, q: float) -> float:
        durations = span(name)["durations"]
        return percentile(durations, q) * 1e6 if durations else 0.0

    resolves = span("routing.resolve")["calls"]
    resolved = sum(counts["routing.case_" + c] for c in ("I", "II", "III"))
    lookups = span("qsearch.lookup")["calls"]
    return {
        "topology.generate_graph_s": span("topology.generate_graph")["total_s"],
        "topology.all_neighborhoods_s": span("topology.all_neighborhoods")["total_s"],
        "topology.all_pairs_optimal_s": span("topology.all_pairs_optimal")["total_s"],
        "topology.optimal_cost_calls": span("topology.optimal_cost")["calls"],
        "topology.optimal_cost_s": span("topology.optimal_cost")["total_s"],
        "clustering.cover_s": sum(
            agg["total_s"] for name, agg in spans.items() if name.startswith("clustering.")
        ),
        "routing.build_tables_self_s": span("routing.build_tables")["self_s"],
        "routing.resolve_calls": resolves,
        "routing.resolve_self_s": span("routing.resolve")["self_s"],
        "routing.resolve_p50_us": pct_us("routing.resolve", 0.50),
        "routing.resolve_p99_us": pct_us("routing.resolve", 0.99),
        "routing.table_find_calls": counts["routing.table_find_calls"],
        "routing.case_I": counts["routing.case_I"],
        "routing.case_II": counts["routing.case_II"],
        "routing.case_III": counts["routing.case_III"],
        "routing.case_fallback": counts["routing.case_fallback"],
        "routing.case_failure": counts["routing.case_failure"],
        "routing.resolved_share": resolved / resolves if resolves else 0.0,
        "routing.verify_bound_chain_calls": span("routing.verify_bound_chain")["calls"],
        "routing.verify_bound_chain_s": span("routing.verify_bound_chain")["total_s"],
        "routing.swap_and_replenish_s": span("routing.swap_and_replenish")["total_s"],
        "routing.deliveries_retried": counts["routing.deliveries_retried"],
        "routing.replenish_s": span("routing.replenish")["total_s"],
        "routing.ebits_refilled": counts["routing.ebits_refilled"],
        "qsearch.lookup_calls": lookups,
        "qsearch.lookup_p50_us": pct_us("qsearch.lookup", 0.50),
        "qsearch.lookup_p99_us": pct_us("qsearch.lookup", 0.99),
        "qsearch.instance_from_table_s": span("qsearch.instance_from_table")["total_s"],
        "qsearch.run_search_s": span("qsearch.run_search")["total_s"],
        "qsearch.search_runs": span("qsearch.run_search")["calls"],
        "qsearch.found_share": counts["qsearch.found"] / lookups if lookups else 0.0,
        "qsearch.classical_fallback": counts["qsearch.classical_fallback"],
        "qsearch.max_hits": counts["qsearch.max_hits"],
        "serialize.scheme_to_dict_s": span("serialize.scheme_to_dict")["total_s"],
        "serialize.scheme_from_dict_self_s": span("serialize.scheme_from_dict")["self_s"],
        "serialize.dump_json_s": span("serialize.dump_json")["total_s"],
        "serialize.load_json_s": span("serialize.load_json")["total_s"],
        "serialize.scheme_doc_bytes": doc_bytes,
        "harness.build_scheme_s": span("harness.build_scheme")["total_s"],
        "harness.write_report_s": span("harness.write_report")["total_s"],
        "harness.chain_checked": chain_checked,
        "harness.csv_bytes": csv_bytes,
        "trace.overhead_ratio": overhead,
        "trace.spans": len(tracer.spans),
    }
