"""Experiment orchestration: seeded sweeps, assertion checks, report emission.

A trial is one seed pushed through the whole pipeline: graph,
e-neighborhoods, cover or tracking construction, tables, all-pairs
resolution, sampled inequality-chain replays, and optional quantum-lookup
agreement checks. Each randomized stage draws from its own named stream of
the trial seed, so per-stage changes in randomness consumption do not
cascade. Outputs are a per-pair CSV and a JSON summary, both deterministic
down to the byte for a fixed configuration, plus a timings sidecar that holds
every wall-clock measurement.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import os
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .clustering import (
    assign_all_tracking,
    build_anchor_set_greedy,
    build_anchor_set_random,
    build_tracked_sets,
    neighborhood_size,
    verify_coverage,
)
from .errors import (
    ChainViolationError,
    ConfigError,
    MismatchedSeedsError,
    make_output_dir,
    open_output,
)
from . import metrics, topology
from .metrics import Composition, check_axioms, metric_by_name
from .qsearch import routing_lookup_via_search
from .rng import stream, stream_seed
from .routing import (
    CASE_BY_CODE,
    Case,
    SchemeTables,
    build_tables,
    evaluate_all_pairs,
    resolve,
    table_size_stats,
    verify_bound_chain,
)
from .topology import all_neighborhoods, all_pairs_optimal, generate_graph

OUTPUT_DIR_ENV = "QNROUTE_OUTPUT_DIR"
SCHEMA_VERSION = 1
# Lookups a trial's lookup check samples. On an ER n = 256, k = 16, f = 1
# partial scheme (trial seeds 0-3), a measurement that ignores the amplitudes
# then lands 8.2-9.8 sigma below the expected found count.
QSEARCH_CHECK_LOOKUPS = 1536
# How far, in standard deviations, the found count may stray from its mean.
QSEARCH_CHECK_SIGMAS = 4.0
# Case II/III pairs a trial's chain replay samples: about 20 us each (ER n =
# 128 to 1024, a 2-vCPU host), so 2-3 ms a trial; a chain broken on a share p
# of the pairs escapes one trial's sample with probability (1 - p)^100.
CHAIN_SAMPLES = 100
# Off-diagonal cells the CSV writer groups at a time, in whole source rows.
# Sized in cells, a block holds about as many tails at any n: the writer
# peaked at 0.38 MB under tracemalloc at n = 1024 (ER hop), where blocks of 32
# rows peaked at 2.04 MB, and at 0.96 MB at n = 256 (uniform costs, nearly
# every tail distinct).
CSV_BLOCK_CELLS = 4096


def resolve_output_dir(path: str | None) -> str:
    """``path``, else ``$QNROUTE_OUTPUT_DIR``, else the working directory."""
    return path or os.environ.get(OUTPUT_DIR_ENV, ".")


_SCHEMES = {"partial", "full"}
_ANCHOR_METHODS = {"greedy", "random"}


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment sweep."""

    n_e: int
    graph_model: str = "erdos_renyi"
    graph_params: dict = field(default_factory=dict)
    metric: str = "hop"
    metric_params: dict = field(default_factory=dict)
    scheme: str = "partial"
    anchor_method: str = "greedy"
    m: float = 1.0
    f: int = 1
    ebit_budget: int = 4
    capacity_cap: int | None = None
    k_override: int | None = None
    seeds: list[int] = field(default_factory=lambda: [0])
    qsearch_check: bool = False
    axiom_check: bool = False
    output_dir: str | None = None
    name: str = "experiment"

    def validate(self) -> None:
        """Raise ``ConfigError`` for the first bad field; its message starts
        with the field's name. Each field must have a type its annotation
        names exactly, so a bool is no int, but an int is a float."""
        for name, hint in typing.get_type_hints(ExperimentConfig).items():
            union = isinstance(hint, types.UnionType)
            kinds = typing.get_args(hint) if union else (typing.get_origin(hint) or hint,)
            value = getattr(self, name)
            if type(value) not in kinds + (int,) * (float in kinds):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in kinds)
                raise ConfigError(f"{name}: {value!r} is not {names}")
        for seed in self.seeds:
            if type(seed) is not int:
                raise ConfigError(f"seeds: {seed!r} is not int")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds: {self.seeds} repeats a seed")
        if self.n_e < 2:
            raise ConfigError("n_e: must be at least 2")
        if self.graph_model not in topology._GENERATORS:
            raise ConfigError(f"graph_model: unknown {self.graph_model!r}")
        if self.metric not in metrics._REGISTRY:
            raise ConfigError(f"metric: unknown {self.metric!r}")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme: {self.scheme!r} is not a valid Scheme {sorted(_SCHEMES)}")
        if self.anchor_method not in _ANCHOR_METHODS:
            raise ConfigError(f"anchor_method: must be one of {sorted(_ANCHOR_METHODS)}")
        if not 0 < self.m < math.inf:
            raise ConfigError("m: oversampling constant must be positive and finite")
        if self.k_override is not None and not 1 <= self.k_override < self.n_e:
            raise ConfigError(f"k_override {self.k_override}: must be in [1, {self.n_e})")
        try:
            k = self.effective_k()
        except OverflowError:
            name = "m" if self.n_e <= sys.float_info.max else "n_e"
            raise ConfigError(f"{name}: too large; (1 + m) sqrt(n_e) ln(n_e) overflows") from None
        if not 1 <= self.f <= k:
            raise ConfigError(f"f {self.f}: must be in [1, k={k}]")
        if not self.seeds:
            raise ConfigError("seeds: at least one seed is required")
        if self.ebit_budget < 1:
            raise ConfigError("ebit_budget: must be at least 1")
        if self.capacity_cap is not None and self.capacity_cap < 1:
            raise ConfigError("capacity_cap: must be positive or null")

    def effective_k(self) -> int:
        if self.k_override is not None:
            return self.k_override
        return neighborhood_size(self.n_e, self.m)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as err:
            raise ConfigError(str(err)) from None


# The report's stretch claim by (composition, scheme): name and bound. The
# additive chain bounds a path five-fold via two repeaters (partial), three-fold
# via one (full); min is idempotent, so a min-composed chain bounds it by 1.
_STRETCH_CLAIMS = {
    (Composition.ADDITIVE, "partial"): ("additive-partial-anchor-stretch-at-most-5", 5.0),
    (Composition.ADDITIVE, "full"): ("additive-full-anchor-stretch-at-most-3", 3.0),
    (Composition.MIN, "partial"): ("concave-metric-unit-stretch", 1.0),
    (Composition.MIN, "full"): ("concave-metric-unit-stretch", 1.0),
}


@dataclass
class AssertionResult:
    """One checked claim: the name states the property, not a citation.

    ``checked`` counts the instances the claim was tested on; a claim tested
    on none is vacuous, not passed.
    """

    name: str
    passed: bool
    detail: str
    checked: int


@dataclass
class TrialResult:
    seed: int
    max_stretch: float
    min_stretch: float
    mean_stretch: float
    max_stretch_with_fallback: float
    case_counts: dict
    fallback_fraction: float
    failure_fraction: float
    coverage_failure_fraction: float
    table_stats: dict
    chain_checked: int
    chain_violations: list
    qsearch_agreement: dict | None
    axiom_report: dict | None
    runtime_s: float
    fallback_reasons: dict = field(default_factory=dict)
    stage_s: dict = field(repr=False, default_factory=dict)
    rows: typing.Sequence = field(repr=False, default=())


@dataclass
class StretchReport:
    config: ExperimentConfig
    trials: list[TrialResult]
    assertions: list[AssertionResult]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    @property
    def max_stretch(self) -> float:
        return max((t.max_stretch for t in self.trials), default=0.0)

    def summary_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "note": "graph families are synthetic stand-ins; no agreed-on "
            "backbone topology model exists yet",
            "trials": [
                {
                    k: v
                    for k, v in asdict(replace(t, rows=())).items()
                    if k not in ("rows", "runtime_s", "stage_s", "min_stretch")
                }
                for t in self.trials
            ],
            "overall": {
                "max_stretch": self.max_stretch,
                "mean_stretch": (
                    sum(t.mean_stretch for t in self.trials) / len(self.trials)
                    if self.trials
                    else 0.0
                ),
                "trials": len(self.trials),
                "passed": self.passed,
            },
            "assertions": [asdict(a) for a in self.assertions],
        }


@contextlib.contextmanager
def _stage(stage_s: dict | None, name: str):
    """Record the wall time of the ``with`` body as ``stage_s[name]``, unless
    ``stage_s`` is None."""
    start = time.perf_counter()
    yield
    if stage_s is not None:
        stage_s[name] = time.perf_counter() - start


def build_scheme_for_trial(config: ExperimentConfig, seed: int, stage_s: dict | None = None):
    """Deterministically construct the scheme instance for one trial seed and
    count its coverage: ``(tables, coverage)``. ``stage_s``, when given,
    receives the wall time of each build stage, ``graph`` first, then
    ``build_scheme``'s, then ``coverage``."""
    metric = metric_by_name(config.metric, **config.metric_params)
    with _stage(stage_s, "graph"):
        graph = generate_graph(
            config.graph_model,
            config.n_e,
            config.graph_params,
            metric,
            seed=stream_seed(seed, "graph"),
        )
    tables = build_scheme(config, graph, seed, stage_s)
    with _stage(stage_s, "coverage"):
        coverage = verify_coverage(
            tables.scheme, tables.neighborhoods, anchors=tables.anchors, tracked=tables.tracked
        )
    return tables, coverage


def build_scheme(
    config: ExperimentConfig, graph, seed: int, stage_s: dict | None = None
) -> SchemeTables:
    """Build the tables over a given graph from ``config``'s metric and
    construction fields; ``seed`` draws random anchors and tracking, and
    ``build_tables`` records it in the tables. Reports, ``qnroute cluster`` and scheme
    documents all build here; coverage is counted only for a trial, by
    ``build_scheme_for_trial``. ``stage_s``, when given, receives the wall
    time of each stage: ``pair_costs``, ``neighborhoods``, ``cover`` and
    ``tables``.

    The pair costs are computed once, by ``all_pairs_optimal``; the
    e-neighborhoods and the tables are derived from that one array.
    """
    metric = metric_by_name(config.metric, **config.metric_params)
    with _stage(stage_s, "pair_costs"):
        pair_costs = all_pairs_optimal(graph, metric)
    with _stage(stage_s, "neighborhoods"):
        neighborhoods = all_neighborhoods(graph, config.effective_k(), pair_costs)

    anchors = None
    tracked = None
    with _stage(stage_s, "cover"):
        if config.scheme == "partial":
            if config.anchor_method == "greedy":
                anchors = build_anchor_set_greedy(neighborhoods)
            else:
                anchors = build_anchor_set_random(graph.n_e, seed=seed)
        else:
            tracked = assign_all_tracking(
                build_tracked_sets(graph.n_e), graph.n_e, seed=stream_seed(seed, "tracking")
            )

    with _stage(stage_s, "tables"):
        return build_tables(
            graph,
            metric,
            neighborhoods,
            pair_costs,
            anchors=anchors,
            tracked=tracked,
            f=config.f,
            ebit_budget=config.ebit_budget,
            capacity_cap=config.capacity_cap,
            seed=seed,
        )


def _sample_chain_checks(tables, evaluation, seed: int) -> tuple[int, list]:
    """Replay the stretch-bound chain on sampled one/two-repeater paths.

    Draws a uniform sample of ``CHAIN_SAMPLES`` case II/III pairs of the
    trial's ``evaluation``, or all of them when there are fewer, and resolves
    only those. ``random.sample`` picks ranks from the population's length
    alone, so it draws ranks into the row-major sequence of those pairs, and
    each rank is located in O(n) memory: its row by the cumulative sum of
    per-row counts, counted 64 rows at a time, then its column within that
    row. Returns the number of paths replayed and a witness (pair, path,
    broken step) for each path whose chain broke.
    """

    def repeated(rows: np.ndarray) -> np.ndarray:
        return (rows == 2) | (rows == 3)

    code = evaluation.code
    counts = [np.count_nonzero(repeated(code[b : b + 64]), axis=1) for b in range(0, len(code), 64)]
    # starts[i]: the rank of row i's first case II/III pair
    starts = list(itertools.accumulate(np.concatenate(counts).tolist(), initial=0))
    total = starts[-1]
    drawn = stream(seed, "chain").sample(range(total), min(CHAIN_SAMPLES, total))
    violations = []
    for k in drawn:
        i = bisect.bisect(starts, k) - 1
        d = np.flatnonzero(repeated(code[i])).item(k - starts[i])
        path = resolve(tables, i, d)
        try:
            verify_bound_chain(path, tables.metric, tables.pair_costs)
        except ChainViolationError as err:
            violations.append({"pair": [i, d], "path": list(path.nodes), "broken": str(err)})
    return len(drawn), violations


def _qsearch_agreement(tables, seed: int) -> dict | None:
    """Seeded lookups of held targets: the found count against its mean.

    Each lookup searches a random owner's table for a random target that one
    of its entries holds. Its found flag is a Bernoulli draw with the
    lookup's success probability p, so the found count has mean sum p and
    variance sum p(1 - p). ``uniform_expected_found`` sums h / n_T over the
    same lookups, h of the table's n_T entries holding the target: the mean
    found count of a measurement blind to the amplitudes, so the gap between
    the two sums, in sigmas, is how well the check can tell them apart. None
    when no table of two or more entries holds a target.
    """
    held = {}
    for owner in range(tables.n_e):
        entries = tables.table(owner).entries
        if len(entries) >= 2:
            targets = set().union(*(e.reach for e in entries)) - {owner}
            if targets:
                held[owner] = sorted(targets)
    if not held:
        return None
    rng = stream(seed, "measurement")
    owners = list(held)
    probs = []
    hit_shares = []
    found = 0
    for n in range(QSEARCH_CHECK_LOOKUPS):
        owner = rng.choice(owners)
        target = rng.choice(held[owner])
        result = routing_lookup_via_search(
            tables, owner, target, seed=stream_seed(seed, f"lookup:{n}")
        )
        probs.append(result.success_probability)
        hit_shares.append(len(result.hit_labels) / result.n_t)
        found += result.found
    variance = math.fsum(p * (1.0 - p) for p in probs)
    return {
        "lookups": len(probs),
        "found": found,
        "expected_found": math.fsum(probs),
        "uniform_expected_found": math.fsum(hit_shares),
        "sigma": math.sqrt(max(variance, 0.0)),
    }


def run_trial(config: ExperimentConfig, seed: int) -> TrialResult:
    """One seed through the pipeline; ``stage_s`` holds each stage's wall time."""
    start = time.perf_counter()
    stage_s: dict[str, float] = {}
    tables, coverage = build_scheme_for_trial(config, seed, stage_s)
    with _stage(stage_s, "all_pairs"):
        evaluation = evaluate_all_pairs(tables)
    with _stage(stage_s, "chain_replay"):
        chain_checked, chain_violations = _sample_chain_checks(tables, evaluation, seed)
    qsearch_stats = None
    if config.qsearch_check:
        with _stage(stage_s, "lookup_check"):
            qsearch_stats = _qsearch_agreement(tables, seed)
    axiom_doc = None
    if config.axiom_check:
        with _stage(stage_s, "axiom_check"):
            report = check_axioms(
                tables.metric, tables.pair_costs, seed=stream_seed(seed, "axioms")
            )
        axiom_doc = {
            "passed": report.passed,
            "checked": report.checked_triples,
            "violations": [[name, list(nodes)] for name, nodes in report.violations],
        }
    return TrialResult(
        seed=seed,
        max_stretch=evaluation.max_stretch,
        min_stretch=evaluation.min_stretch,
        mean_stretch=evaluation.mean_stretch,
        max_stretch_with_fallback=evaluation.max_stretch_with_fallback,
        case_counts=dict(evaluation.case_counts),
        fallback_fraction=evaluation.fallback_fraction,
        failure_fraction=evaluation.failure_fraction,
        coverage_failure_fraction=coverage.failure_fraction,
        table_stats=table_size_stats(tables),
        chain_checked=chain_checked,
        chain_violations=chain_violations,
        qsearch_agreement=qsearch_stats,
        axiom_report=axiom_doc,
        runtime_s=time.perf_counter() - start,
        fallback_reasons=dict(evaluation.fallback_reasons),
        stage_s=stage_s,
        rows=evaluation,
    )


def _build_assertions(config: ExperimentConfig, trials: list[TrialResult]) -> list[AssertionResult]:
    metric = metric_by_name(config.metric, **config.metric_params)
    name, bound = _STRETCH_CLAIMS[metric.composition, config.scheme]
    worst = max((t.max_stretch for t in trials), default=0.0)
    resolved = sum(t.case_counts.get(c.value, 0) for t in trials
                   for c in (Case.CASE_I, Case.CASE_II, Case.CASE_III))
    out = [
        AssertionResult(name, worst <= bound + 1e-9, f"worst resolved stretch {worst}", resolved),
        AssertionResult(
            "resolved-stretch-at-least-one",
            all(t.min_stretch >= 1.0 - 1e-9 for t in trials if t.max_stretch > 0),
            "stretch is a ratio against the optimal entangling cost",
            resolved,
        ),
    ]
    chain_checked = sum(t.chain_checked for t in trials)
    violations = [(t.seed, v) for t in trials for v in t.chain_violations]
    if violations:
        seed, first = violations[0]
        chain_detail = (
            f"{len(violations)} of {chain_checked} sampled paths broke the chain; "
            f"first: seed {seed} pair {tuple(first['pair'])} path {first['path']}: "
            f"{first['broken']}"
        )
    else:
        chain_detail = f"{chain_checked} sampled paths verified"
    out.append(
        AssertionResult(
            "bound-chain-replays-clean", not violations, chain_detail, chain_checked
        )
    )
    if config.scheme == "partial" and config.anchor_method == "greedy":
        out.append(
            AssertionResult(
                "greedy-cover-leaves-no-node-uncovered",
                all(t.coverage_failure_fraction == 0.0 for t in trials),
                "greedy set cover guarantees an anchor in every neighborhood",
                config.n_e * len(trials),
            )
        )
    checks = [t.qsearch_agreement for t in trials if t.qsearch_agreement]
    if checks:
        lookups = sum(c["lookups"] for c in checks)
        found = sum(c["found"] for c in checks)
        expected = sum(c["expected_found"] for c in checks)
        out.append(
            AssertionResult(
                "quantum-lookup-found-rate-matches-success-probability",
                # the slack covers a success probability rounded past 1
                all(
                    abs(c["found"] - c["expected_found"])
                    <= QSEARCH_CHECK_SIGMAS * c["sigma"] + 1e-9
                    for c in checks
                ),
                f"{found} of {lookups} lookups found, {expected:.1f} expected; "
                f"each trial must land within {QSEARCH_CHECK_SIGMAS:g} sigma",
                lookups,
            )
        )
    axioms = [t.axiom_report for t in trials if t.axiom_report is not None]
    if axioms:
        axiom_checks = sum(a["checked"] for a in axioms)
        out.append(
            AssertionResult(
                "entangling-cost-axioms-hold-on-derived-costs",
                all(a["passed"] for a in axioms),
                f"{axiom_checks} checks across {len(axioms)} trials",
                axiom_checks,
            )
        )
    return out


def run_experiment(config: ExperimentConfig, write_outputs: bool = True) -> StretchReport:
    """Run every seed, evaluate the claim assertions, and emit CSV + JSON;
    an output directory that cannot be made is refused before any trial."""
    config.validate()
    if write_outputs:
        make_output_dir(resolve_output_dir(config.output_dir))
    trials = [run_trial(config, seed) for seed in sorted(config.seeds)]
    report = StretchReport(
        config=config,
        trials=trials,
        assertions=_build_assertions(config, trials),
    )
    if write_outputs:
        write_report(report)
    return report


def write_report(report: StretchReport) -> tuple[str, str]:
    """Write the per-pair CSV and the summary JSON, whose paths it returns,
    and the ``<name>_timings.json`` sidecar with each trial's wall time, in
    all and per stage, and ``write_s``, the wall time of writing the CSV
    (``pairs_csv``) and the summary (``summary``), into the output directory
    ``run_experiment`` made. The sidecar is written last, so it can time
    both."""
    from .serialize import dump_json

    base = os.path.join(resolve_output_dir(report.config.output_dir), report.config.name)
    csv_path = base + "_pairs.csv"
    json_path = base + "_summary.json"

    write_s: dict[str, float] = {}
    with _stage(write_s, "pairs_csv"):
        write_pairs_csv(csv_path, ((t.seed, t.rows) for t in report.trials))
    with _stage(write_s, "summary"):
        dump_json(report.summary_dict(), json_path)
    dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "trials": [
                {"seed": t.seed, "runtime_s": t.runtime_s, "stage_s": t.stage_s}
                for t in report.trials
            ],
            "write_s": write_s,
        },
        base + "_timings.json",
    )
    return csv_path, json_path


def write_pairs_csv(path: str, trials) -> None:
    """The per-pair CSV: every row of each ``(seed, evaluation)`` in
    ``trials``, one joined string per source. ``report`` and ``eval`` both
    write it here.

    A row is its ``seed,source,dest,`` head and a ``case,cost,optimal,stretch``
    tail, each number its ``repr``. A trial is written in blocks of whole
    source rows, about ``CSV_BLOCK_CELLS`` off-diagonal cells each, whose
    tails ``_block_tails`` gives. A source's row is one join over a list of
    pieces kept for the whole trial: its head, each destination's ``d,``
    column and the destination's tail.
    """
    with open_output(path, newline="\n") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write("seed,source,dest,case,cost,optimal,stretch\n")
        for seed, evaluation in trials:
            n = len(evaluation.code)
            rows = max(1, CSV_BLOCK_CELLS // n)
            cols = [f"{d}," for d in range(n)]
            pieces = [""] * (3 * (n - 1))
            # source 0's columns; source i's differ from source i - 1's only
            # at column i - 1, which takes the place of i
            pieces[1::3] = cols[1:]
            for b in range(0, n, rows):
                for i, cells in enumerate(_block_tails(evaluation, b, min(b + rows, n)), b):
                    if i:
                        pieces[3 * i - 2] = cols[i - 1]
                    pieces[0::3] = [f"{seed},{i},"] * (n - 1)
                    pieces[2::3] = cells
                    fh.write("".join(pieces))


def _block_tails(evaluation, b: int, e: int) -> list[list[str]]:
    """The CSV tails of source rows ``b`` to ``e - 1``, one list a row in
    destination order, without the source itself.

    One ``np.lexsort`` over the block's (code, cost, optimal) cells groups
    the equal triples; each distinct tail is formatted once from Python
    floats, and numpy gathers it into every cell of its group. Every cost is
    positive and finite, so a row whose cost is its optimal has stretch
    exactly 1.0.
    """
    off = np.ones((e - b, len(evaluation.code)), bool)
    off[np.arange(e - b), np.arange(b, e)] = False
    keys = [a[b:e][off] for a in (evaluation.code, evaluation.cost, evaluation.pair_costs)]
    order = np.lexsort(keys[::-1])
    first = np.zeros(len(order), bool)
    first[0] = True
    for key in keys:
        ranked = key[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    group = np.empty(len(order), np.intp)
    group[order] = np.cumsum(first) - 1
    tails = []
    for c, x, o in zip(*(key[order[first]].tolist() for key in keys)):
        if x == o:
            r = repr(x)
            tails.append(f"{CASE_BY_CODE[c]},{r},{r},1.0\n")
        else:
            tails.append(f"{CASE_BY_CODE[c]},{x!r},{o!r},{x / o!r}\n")
    return np.array(tails, object)[group].reshape(e - b, -1).tolist()


def compare_schemes(
    config_a: ExperimentConfig, config_b: ExperimentConfig
) -> dict:
    """Paired-seed comparison of two scheme configurations.

    Both configurations must share the graph model, parameters, metric, and
    seed list, so per-seed differences isolate the scheme choice.
    """
    for name in ("graph_model", "graph_params", "n_e", "metric", "metric_params"):
        if getattr(config_a, name) != getattr(config_b, name):
            raise MismatchedSeedsError(f"configs differ in {name}; comparison unpaired")
    if sorted(config_a.seeds) != sorted(config_b.seeds):
        raise MismatchedSeedsError("configs must share the seed list")

    report_a = run_experiment(config_a, write_outputs=False)
    report_b = run_experiment(config_b, write_outputs=False)
    per_seed = []
    for ta, tb in zip(report_a.trials, report_b.trials):
        per_seed.append(
            {
                "seed": ta.seed,
                "max_stretch_a": ta.max_stretch,
                "max_stretch_b": tb.max_stretch,
                "stretch_delta": ta.max_stretch - tb.max_stretch,
                "mean_table_a": ta.table_stats["mean"],
                "mean_table_b": tb.table_stats["mean"],
                "fully_resolved_a": ta.fallback_fraction + ta.failure_fraction == 0.0,
                "fully_resolved_b": tb.fallback_fraction + tb.failure_fraction == 0.0,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "config_a": config_a.to_dict(),
        "config_b": config_b.to_dict(),
        "per_seed": per_seed,
        "identical_configs": config_a.to_dict() == config_b.to_dict(),
        "max_stretch_a": report_a.max_stretch,
        "max_stretch_b": report_b.max_stretch,
    }


def assertion_lines(report: StretchReport) -> list[str]:
    lines = []
    for a in report.assertions:
        if not a.passed:
            status = "FAIL"
        elif a.checked == 0:
            status = "VACUOUS"
        else:
            status = "PASS"
        lines.append(f"{status} {a.name}: {a.detail}")
    return lines
