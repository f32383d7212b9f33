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

import math
import os
import time
import types
import typing
from dataclasses import asdict, dataclass, field, replace

from .clustering import (
    Scheme,
    assign_all_tracking,
    build_anchor_set_greedy,
    build_anchor_set_random,
    build_tracked_sets,
    neighborhood_size,
    verify_coverage,
)
from .errors import ChainViolationError, ConfigError, MismatchedSeedsError
from . import metrics, topology
from .metrics import Composition, check_axioms, metric_by_name
from .qsearch import routing_lookup_via_search
from .rng import stream, stream_seed
from .routing import (
    Case,
    build_tables,
    evaluate_all_pairs,
    resolve,
    table_size_stats,
    verify_bound_chain,
)
from .topology import all_neighborhoods, all_pairs_optimal, generate_graph

OUTPUT_DIR_ENV = "QNROUTE_OUTPUT_DIR"
SCHEMA_VERSION = 1

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
    chain_samples: int = 100
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
        if not 1 <= self.f <= self.effective_k():
            raise ConfigError(f"f {self.f}: must be in [1, k={self.effective_k()}]")
        if not self.seeds:
            raise ConfigError("seeds: at least one seed is required")
        if self.ebit_budget < 1:
            raise ConfigError("ebit_budget: must be at least 1")
        if self.capacity_cap is not None and self.capacity_cap < 1:
            raise ConfigError("capacity_cap: must be positive or null")
        if self.chain_samples < 0:
            raise ConfigError("chain_samples: must be at least 0")

    def effective_k(self) -> int:
        if self.k_override is not None:
            return self.k_override
        return neighborhood_size(self.n_e, self.m)

    def resolved_output_dir(self) -> str:
        return self.output_dir or os.environ.get(OUTPUT_DIR_ENV, ".")

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
    rows: list = field(repr=False, default_factory=list)


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
                    for k, v in asdict(replace(t, rows=[])).items()
                    if k not in ("rows", "runtime_s")
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


def build_scheme_for_trial(config: ExperimentConfig, seed: int):
    """Deterministically construct the scheme instance for one trial seed."""
    metric = metric_by_name(config.metric, **config.metric_params)
    graph = generate_graph(
        config.graph_model,
        config.n_e,
        config.graph_params,
        metric,
        seed=stream_seed(seed, "graph"),
    )
    return build_scheme(config, graph, metric, seed)


def build_scheme(config: ExperimentConfig, graph, metric, seed: int):
    """Build tables and coverage over a given graph from ``config``'s
    construction fields; ``seed`` draws random anchors and tracking, and the
    tables record it. Reports, ``qnroute cluster`` and scheme documents all
    build here.

    The pair costs are computed once, by ``all_pairs_optimal``; the
    e-neighborhoods and the tables are derived from that one matrix.
    """
    pair_costs = all_pairs_optimal(graph, metric)
    neighborhoods = all_neighborhoods(graph, config.effective_k(), pair_costs)

    anchors = None
    tracked = None
    if config.scheme == "partial":
        if config.anchor_method == "greedy":
            anchors = build_anchor_set_greedy(neighborhoods)
        else:
            anchors = build_anchor_set_random(graph.n_e, seed=seed)
        coverage = verify_coverage(Scheme.PARTIAL_ANCHOR, neighborhoods, anchors=anchors)
    else:
        tracked = assign_all_tracking(
            build_tracked_sets(graph.n_e), graph.n_e, seed=stream_seed(seed, "tracking")
        )
        coverage = verify_coverage(Scheme.FULL_ANCHOR, neighborhoods, tracked=tracked)

    tables = build_tables(
        graph,
        metric,
        neighborhoods,
        pair_costs,
        anchors=anchors,
        tracked=tracked,
        f=config.f,
        ebit_budget=config.ebit_budget,
        capacity_cap=config.capacity_cap,
    )
    tables.seed = seed
    return tables, coverage


def _sample_chain_checks(tables, config: ExperimentConfig, seed: int) -> tuple[int, list]:
    """Replay the stretch-bound chain on sampled one/two-repeater paths.

    Returns the number of paths replayed and a witness (pair, path, broken
    step) for each path whose chain broke.
    """
    rng = stream(seed, "chain")
    pairs = [
        (i, d)
        for i in range(tables.n_e)
        for d in range(tables.n_e)
        if i != d
    ]
    rng.shuffle(pairs)
    checked = 0
    violations = []
    for i, d in pairs:
        if checked >= config.chain_samples:
            break
        path = resolve(tables, i, d)
        if path.case in (Case.CASE_II, Case.CASE_III):
            checked += 1
            try:
                verify_bound_chain(path, tables.metric, tables.pair_costs)
            except ChainViolationError as err:
                violations.append({"pair": [i, d], "path": list(path.nodes), "broken": str(err)})
    return checked, violations


def _qsearch_agreement(tables, seed: int, max_pairs: int = 4) -> dict:
    """Quantum lookup vs classical mirror on a few owners' tables."""
    rng = stream(seed, "measurement")
    owners = list(range(tables.n_e))
    rng.shuffle(owners)
    checked = agreed = 0
    for owner in owners:
        if checked >= max_pairs:
            break
        table = tables.table(owner)
        if len(table.entries) < 2:
            continue
        targets = [t for t in range(tables.n_e) if t != owner]
        target = rng.choice(targets)
        result = routing_lookup_via_search(
            tables, owner, target, seed=stream_seed(seed, f"lookup:{owner}:{target}")
        )
        truth = [
            lbl for lbl, e in enumerate(table.entries) if target in e.reach
        ]
        ok = (result.entry_label in truth) if result.found else True
        checked += 1
        agreed += int(ok)
    if checked == 0:
        return None
    return {"checked": checked, "agreed": agreed}


def run_trial(config: ExperimentConfig, seed: int) -> TrialResult:
    start = time.perf_counter()
    tables, coverage = build_scheme_for_trial(config, seed)
    evaluation = evaluate_all_pairs(tables)
    chain_checked, chain_violations = _sample_chain_checks(tables, config, seed)
    qsearch_stats = _qsearch_agreement(tables, seed) if config.qsearch_check else None
    axiom_doc = None
    if config.axiom_check:
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
        rows=evaluation.rows,
    )


def _build_assertions(config: ExperimentConfig, trials: list[TrialResult]) -> list[AssertionResult]:
    metric = metric_by_name(config.metric, **config.metric_params)
    additive = metric.composition is Composition.ADDITIVE
    out: list[AssertionResult] = []
    worst = max((t.max_stretch for t in trials), default=0.0)
    resolved = sum(t.case_counts.get(c.value, 0) for t in trials
                   for c in (Case.CASE_I, Case.CASE_II, Case.CASE_III))

    if additive and config.scheme == "partial":
        out.append(
            AssertionResult(
                "additive-partial-anchor-stretch-at-most-5",
                worst <= 5.0 + 1e-9,
                f"worst resolved stretch {worst}",
                resolved,
            )
        )
    if additive and config.scheme == "full":
        out.append(
            AssertionResult(
                "additive-full-anchor-stretch-at-most-3",
                worst <= 3.0 + 1e-9,
                f"worst resolved stretch {worst}",
                resolved,
            )
        )
    if not additive:
        out.append(
            AssertionResult(
                "concave-metric-unit-stretch",
                all(abs(t.max_stretch - 1.0) <= 1e-9 for t in trials if t.max_stretch > 0),
                f"worst resolved stretch {worst}",
                resolved,
            )
        )
    out.append(
        AssertionResult(
            "resolved-stretch-at-least-one",
            all(t.mean_stretch >= 1.0 - 1e-9 for t in trials if t.max_stretch > 0),
            "stretch is a ratio against the optimal entangling cost",
            resolved,
        )
    )
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
    checked = sum(t.qsearch_agreement["checked"] for t in trials if t.qsearch_agreement)
    if checked:
        agreed = sum(t.qsearch_agreement["agreed"] for t in trials if t.qsearch_agreement)
        out.append(
            AssertionResult(
                "quantum-lookup-agrees-with-classical-mirror",
                agreed == checked,
                f"{agreed}/{checked} verified lookups agreed",
                checked,
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
    """Run every seed, evaluate the claim assertions, and emit CSV + JSON."""
    config.validate()
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
    and the ``<name>_timings.json`` sidecar with each trial's wall time."""
    from .serialize import dump_json

    out_dir = report.config.resolved_output_dir()
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report.config.name)
    csv_path = base + "_pairs.csv"
    json_path = base + "_summary.json"

    write_pairs_csv(csv_path, ((t.seed, t.rows) for t in report.trials))
    dump_json(report.summary_dict(), json_path)
    dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "trials": [{"seed": t.seed, "runtime_s": t.runtime_s} for t in report.trials],
        },
        base + "_timings.json",
    )
    return csv_path, json_path


def write_pairs_csv(path: str, trials) -> None:
    """The per-pair CSV: every row of each ``(seed, rows)`` in ``trials``,
    rows as ``evaluate_all_pairs`` returns them. ``report`` and ``eval``
    both write it here."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write("seed,source,dest,case,cost,optimal,stretch\n")
        for seed, rows in trials:
            for source, dest, case, cost, optimal, stretch in rows:
                fh.write(f"{seed},{source},{dest},{case},{cost!r},{optimal!r},{stretch!r}\n")


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
