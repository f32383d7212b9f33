import csv
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import types
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnroute import harness, qsearch
from qnroute.cli import main
from qnroute.errors import (
    ChainViolationError,
    ConfigError,
    MismatchedSeedsError,
    SchemeDocumentError,
)
from qnroute.harness import (
    ExperimentConfig,
    StretchReport,
    TrialResult,
    assertion_lines,
    build_scheme_for_trial,
    compare_schemes,
    run_experiment,
    run_trial,
)
from qnroute.metrics import Composition, metric_by_name
from qnroute.rng import stream
from qnroute.routing import evaluate_all_pairs, resolve
from qnroute.serialize import load_json, scheme_from_dict, scheme_to_dict
from qnroute.topology import save_graph

from conftest import ladder_tables


def torus_config(**overrides) -> ExperimentConfig:
    base = dict(
        n_e=16,
        graph_model="grid_torus",
        metric="hop",
        scheme="partial",
        seeds=[0, 1, 2],
        k_override=3,
        name="torus16",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_messages_name_fields():
    with pytest.raises(ConfigError, match="n_e"):
        ExperimentConfig(n_e=1).validate()
    with pytest.raises(ConfigError, match="metric"):
        torus_config(metric="nope").validate()
    with pytest.raises(ConfigError, match="seeds"):
        torus_config(seeds=[]).validate()
    with pytest.raises(ConfigError, match="f"):
        torus_config(f=9, k_override=3).validate()


def test_config_round_trip_and_unknown_fields():
    config = torus_config()
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_dict({"n_e": 8, "bogus": 1})


@pytest.mark.parametrize(
    "config, message",
    [
        ({"n_e": "x"}, "n_e: 'x' is not int"),
        ({"n_e": True}, "n_e: True is not int"),
        ({"n_e": 16, "m": "x"}, "m: 'x' is not float"),
        ({"n_e": 16, "m": False}, "m: False is not float"),
        ({"n_e": 16, "m": 1e999}, "m: oversampling constant must be positive and finite"),
        ({"n_e": 16, "capacity_cap": "x"}, "capacity_cap: 'x' is not int or null"),
        ({"n_e": 16, "capacity_cap": 0}, "capacity_cap: must be positive or null"),
        # the chain replay's sample size is the constant ``CHAIN_SAMPLES``
        ({"n_e": 16, "chain_samples": 100}, "unknown config fields: ['chain_samples']"),
        ({"n_e": 16, "ebit_budget": 0}, "ebit_budget: must be at least 1"),
        ({"n_e": 16, "seeds": ["a"]}, "seeds: 'a' is not int"),
        ({"n_e": 16, "seeds": [False]}, "seeds: False is not int"),
        ({"n_e": 16, "seeds": 3}, "seeds: 3 is not list"),
        ({"n_e": 16, "k_override": 2.0}, "k_override: 2.0 is not int or null"),
        ({"n_e": 16, "metric": ["hop"]}, "metric: ['hop'] is not str"),
        ({"n_e": 16, "graph_params": []}, "graph_params: [] is not dict"),
        ({"n_e": 16, "axiom_check": 1}, "axiom_check: 1 is not bool"),
        ({"n_e": 9, "graph_model": "grid_torus", "k_override": 2, "seeds": [0, 0]},
         "seeds: [0, 0] repeats a seed"),
    ],
)
def test_cli_report_mistyped_config_field_exits_two(tmp_path, capsys, config, message):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({**config, "output_dir": str(tmp_path)}))
    assert main(["report", "--config", str(cfg)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_pairs.csv"))


def test_cli_report_refuses_an_unknown_field_even_when_null(tmp_path, capsys):
    # a null known field takes its default, while a null unknown field is
    # refused before the report writes anything
    cfg = tmp_path / "exp.json"
    base = {"n_e": 9, "graph_model": "grid_torus", "k_override": 2, "name": "null",
            "output_dir": str(tmp_path)}
    cfg.write_text(json.dumps({**base, "bogus": None}))
    assert main(["report", "--config", str(cfg)]) == 2
    assert "error: unknown config fields: ['bogus']" in capsys.readouterr().err
    assert not (tmp_path / "null_pairs.csv").exists()
    cfg.write_text(json.dumps({**base, "capacity_cap": None}))
    assert main(["report", "--config", str(cfg)]) == 0
    assert (tmp_path / "null_pairs.csv").exists()


# ---------------------------------------------------------------------------
# experiments


def test_partial_hop_experiment_bound_holds_per_seed(tmp_path):
    config = torus_config(seeds=list(range(5)), output_dir=str(tmp_path))
    report = run_experiment(config)
    assert report.passed
    for trial in report.trials:
        assert trial.max_stretch <= 5.0


def test_full_scheme_min_metric_unit_stretch_column(tmp_path):
    config = torus_config(
        scheme="full",
        metric="capacity",
        graph_model="erdos_renyi",
        graph_params={"edge_prob": 0.3},
        seeds=[0, 1],
        output_dir=str(tmp_path),
        name="full_min",
    )
    report = run_experiment(config)
    assert report.passed
    csv_path = tmp_path / "full_min_pairs.csv"
    for line in csv_path.read_text().splitlines()[2:]:
        seed, src, dst, case, cost, optimal, stretch = line.split(",")
        if case in ("I", "II", "III"):
            assert float(stretch) == 1.0


def test_rerun_same_config_is_byte_identical(tmp_path):
    config = torus_config(output_dir=str(tmp_path))
    run_experiment(config)
    first = (tmp_path / "torus16_pairs.csv").read_bytes()
    first_json = (tmp_path / "torus16_summary.json").read_bytes()
    run_experiment(config)
    assert (tmp_path / "torus16_pairs.csv").read_bytes() == first
    assert (tmp_path / "torus16_summary.json").read_bytes() == first_json


def test_wall_time_goes_to_the_timings_sidecar(tmp_path):
    report = run_experiment(torus_config(output_dir=str(tmp_path)))
    timings = json.loads((tmp_path / "torus16_timings.json").read_text())
    assert [t["seed"] for t in timings["trials"]] == [0, 1, 2]
    assert [t["runtime_s"] for t in timings["trials"]] == [t.runtime_s for t in report.trials]
    summary = json.loads((tmp_path / "torus16_summary.json").read_text())
    assert all("runtime_s" not in t and "stage_s" not in t for t in summary["trials"])
    # one wall time per stage that ran, inside the trial's
    run_experiment(torus_config(output_dir=str(tmp_path / "checks"), qsearch_check=True,
                                axiom_check=True))
    checked = json.loads((tmp_path / "checks" / "torus16_timings.json").read_text())
    for doc, stages in ((timings, set()), (checked, {"lookup_check", "axiom_check"})):
        for t in doc["trials"]:
            assert set(t["stage_s"]) == {
                "graph", "pair_costs", "neighborhoods", "cover", "tables", "coverage",
                "all_pairs", "chain_replay",
            } | stages
            assert all(s >= 0 for s in t["stage_s"].values())
            assert sum(t["stage_s"].values()) <= t["runtime_s"]
        # the report's writes, timed once per report
        assert set(doc["write_s"]) == {"pairs_csv", "summary"}
        assert all(s >= 0 for s in doc["write_s"].values())


def test_summary_counts_the_reason_of_every_fallback(tmp_path):
    # random anchors leave some neighborhoods without a hub
    run_experiment(torus_config(output_dir=str(tmp_path), anchor_method="random"))
    doc = json.loads((tmp_path / "torus16_summary.json").read_text())
    for trial in doc["trials"]:
        reasons = trial["fallback_reasons"]
        assert set(reasons) == {
            "no anchor inside source e-neighborhood", "no anchor inside target e-neighborhood",
        }
        assert sum(reasons.values()) == trial["case_counts"]["fallback"]


def test_summary_json_carries_schema_version_and_note(tmp_path):
    config = torus_config(output_dir=str(tmp_path))
    run_experiment(config)
    doc = json.loads((tmp_path / "torus16_summary.json").read_text())
    assert doc["schema_version"] == 1
    assert "synthetic" in doc["note"]
    assert doc["overall"]["passed"] is True


def test_summary_trials_hold_every_field_but_rows(tmp_path):
    config = torus_config(output_dir=str(tmp_path), axiom_check=True)
    report = run_experiment(config)
    assert report.trials[0].rows
    expected = [
        {k: v for k, v in asdict(t).items() if k not in ("rows", "runtime_s", "stage_s")}
        for t in report.trials
    ]
    assert report.summary_dict()["trials"] == expected
    doc = json.loads((tmp_path / "torus16_summary.json").read_text())
    assert doc["trials"] == json.loads(json.dumps(expected))


def test_graph_stream_isolated_from_tracking_stream():
    # the same trial seed must generate the same graph under both schemes,
    # even though the full scheme consumes extra randomness for tracking
    partial, _ = build_scheme_for_trial(torus_config(), 7)
    full, _ = build_scheme_for_trial(torus_config(scheme="full"), 7)
    assert partial.graph.edges() == full.graph.edges()


def test_trial_runtime_and_chain_samples_recorded():
    trial = run_trial(torus_config(), seed=0)
    assert trial.chain_checked > 0
    assert trial.runtime_s > 0
    assert trial.table_stats["max"] >= 3


def test_chain_replay_samples_the_case_two_and_three_rows(monkeypatch):
    config = ExperimentConfig(n_e=24, graph_params={"edge_prob": 0.2}, k_override=3)
    tabs, _ = build_scheme_for_trial(config, 0)
    ev = evaluate_all_pairs(tabs)
    repeated = [(i, d) for i, d, case, *_ in ev if case in ("II", "III")]
    assert len(repeated) > 10
    replayed = []
    monkeypatch.setattr(harness, "verify_bound_chain",
                        lambda path, metric, costs: replayed.append((path.source, path.dest)))

    def replay(samples: int) -> list:
        replayed.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "CHAIN_SAMPLES", samples)
            checked, _ = harness._sample_chain_checks(tabs, ev, 0)
        assert checked == len(replayed)
        return list(replayed)

    assert sorted(replay(len(repeated))) == sorted(replay(len(repeated) + 5)) == repeated
    drawn = replay(10)
    assert len(set(drawn)) == 10 and set(drawn) <= set(repeated)
    assert replay(10) == drawn
    # the draw of the ``chain`` stream is pinned: the CSV cannot show it
    assert drawn == [(13, 5), (22, 10), (11, 5), (18, 2), (7, 1), (18, 12), (23, 2), (12, 0),
                     (23, 14), (16, 5)]
    assert harness.run_trial(config, 0).chain_checked == 100


def reference_chain_draw(code: np.ndarray, samples: int, seed: int) -> list:
    """The chain replay's pairs drawn from the array of every case II/III
    pair's row-major position."""
    positions = np.flatnonzero((code == 2) | (code == 3))
    drawn = stream(seed, "chain").sample(range(len(positions)), min(samples, len(positions)))
    return [divmod(positions.item(k), len(code)) for k in drawn]


def replayed_pairs(tabs, ev, samples: int, seed: int, resolved=resolve) -> list:
    """The (source, dest) pairs ``_sample_chain_checks`` replays, in order."""
    replayed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "resolve", resolved)
        mp.setattr(harness, "verify_bound_chain",
                   lambda path, metric, costs: replayed.append((path.source, path.dest)))
        mp.setattr(harness, "CHAIN_SAMPLES", samples)
        checked, violations = harness._sample_chain_checks(tabs, ev, seed)
    assert (checked, violations) == (len(replayed), [])
    return replayed


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tabs=ladder_tables(), samples=st.integers(0, 120), seed=st.integers(0, 2**16))
def test_chain_draw_equals_the_draw_over_every_position(tabs, samples, seed):
    ev = evaluate_all_pairs(tabs)
    assert replayed_pairs(tabs, ev, samples, seed) == reference_chain_draw(ev.code, samples, seed)


def test_chain_draw_on_the_benchmark_config_equals_the_draw_over_every_position():
    # perfbench's n = 256 config: ER hop, edge_prob 0.12, partial, greedy anchors, k = 16
    config = ExperimentConfig(n_e=256, graph_params={"edge_prob": 0.12}, k_override=16)
    tabs, _ = build_scheme_for_trial(config, 0)
    ev = evaluate_all_pairs(tabs)
    for seed in (0, 3):
        drawn = replayed_pairs(tabs, ev, harness.CHAIN_SAMPLES, seed)
        assert len(drawn) == harness.CHAIN_SAMPLES
        assert drawn == reference_chain_draw(ev.code, harness.CHAIN_SAMPLES, seed)


def test_chain_draw_holds_no_array_of_positions():
    # a code array of n = 1024 with 2/5 of its pairs in case II or III: the
    # array of their positions alone takes 3.4 MB
    rng = np.random.default_rng(0)
    code = rng.integers(0, 5, size=(1024, 1024), dtype=np.int8)
    np.fill_diagonal(code, -1)
    tabs = types.SimpleNamespace(n_e=1024, metric=None, pair_costs=None)
    ev = types.SimpleNamespace(code=code)

    def resolved(tables, i, d):
        return types.SimpleNamespace(source=i, dest=d)

    tracemalloc.start()
    try:
        drawn = replayed_pairs(tabs, ev, 100, 0, resolved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn == reference_chain_draw(code, 100, 0)
    assert peak < 512 * 1024, f"the draw traced {peak} bytes"


def test_qsearch_agreement_check_runs_on_small_tables():
    trial = run_trial(torus_config(qsearch_check=True, n_e=9, k_override=2), seed=1)
    check = trial.qsearch_agreement
    assert check["lookups"] == harness.QSEARCH_CHECK_LOOKUPS
    assert 0 < check["expected_found"] < check["lookups"]
    assert 0 < check["uniform_expected_found"] < check["expected_found"]
    assert 0 < check["sigma"]
    assert abs(check["found"] - check["expected_found"]) <= 4 * check["sigma"]


def lookup_check_result(report):
    (result,) = [
        a for a in report.assertions
        if a.name == "quantum-lookup-found-rate-matches-success-probability"
    ]
    return result


def test_lookup_check_passes_on_the_amplified_measurement():
    report = run_experiment(torus_config(qsearch_check=True), write_outputs=False)
    result = lookup_check_result(report)
    assert result.passed
    assert result.checked == 3 * harness.QSEARCH_CHECK_LOOKUPS
    summary = report.summary_dict()["trials"]
    assert [set(t["qsearch_agreement"]) for t in summary] == [
        {"lookups", "found", "expected_found", "uniform_expected_found", "sigma"}
    ] * 3


def test_lookup_check_fails_a_uniform_measurement(monkeypatch):
    # a measurement that ignores the amplitudes finds hit labels only at the
    # rate h / n_T, far below the success probability the search reports
    def uniform(distribution, seed):
        return random.Random(f"{seed}:0").randrange(len(distribution))

    monkeypatch.setattr(qsearch, "measure", uniform)
    report = run_experiment(torus_config(qsearch_check=True), write_outputs=False)
    assert not lookup_check_result(report).passed
    for trial in report.trials:
        check = trial.qsearch_agreement
        assert check["expected_found"] - check["found"] > 8 * check["sigma"]
        # the blind count lands near the sum of h / n_T: within 4 sigma of a
        # binomial count, whose sigma is at most sqrt(lookups) / 2
        assert abs(check["found"] - check["uniform_expected_found"]) <= 2 * math.sqrt(
            check["lookups"]
        )


def test_axiom_check_feeds_summary_and_assertion(tmp_path):
    config = torus_config(axiom_check=True, seeds=[0], output_dir=str(tmp_path))
    report = run_experiment(config)
    trial = report.trials[0]
    assert trial.axiom_report is not None
    assert trial.axiom_report["passed"]
    names = {a.name for a in report.assertions}
    assert "entangling-cost-axioms-hold-on-derived-costs" in names
    doc = json.loads((tmp_path / "torus16_summary.json").read_text())
    assert doc["trials"][0]["axiom_report"]["passed"] is True


# ---------------------------------------------------------------------------
# comparison


def test_identical_configs_compare_to_zero_difference():
    config = torus_config(seeds=[0, 1])
    doc = compare_schemes(config, torus_config(seeds=[0, 1]))
    assert doc["identical_configs"]
    for row in doc["per_seed"]:
        assert row["stretch_delta"] == 0.0


def test_partial_vs_full_paired_comparison():
    a = torus_config(seeds=[0, 1, 2], graph_model="erdos_renyi",
                     graph_params={"edge_prob": 0.25}, k_override=4)
    b = torus_config(seeds=[0, 1, 2], graph_model="erdos_renyi",
                     graph_params={"edge_prob": 0.25}, k_override=4, scheme="full")
    doc = compare_schemes(a, b)
    for row in doc["per_seed"]:
        if row["fully_resolved_a"] and row["fully_resolved_b"]:
            assert row["max_stretch_b"] <= row["max_stretch_a"] + 1e-9
        # full-anchor tables add tracked links on non-hub nodes
        assert row["mean_table_b"] > row["mean_table_a"]


def test_mismatched_seeds_rejected():
    with pytest.raises(MismatchedSeedsError):
        compare_schemes(torus_config(seeds=[0]), torus_config(seeds=[1]))
    with pytest.raises(MismatchedSeedsError):
        compare_schemes(torus_config(), torus_config(metric="uniform"))


# ---------------------------------------------------------------------------
# scheme document round trip


def test_scheme_document_round_trip_preserves_resolution(tmp_path):
    tables, _ = build_scheme_for_trial(torus_config(), seed=0)
    doc = scheme_to_dict(tables, "hop", {})
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(doc))
    again, metric_name, _ = scheme_from_dict(json.loads(path.read_text()))
    assert metric_name == "hop"
    assert again.graph.edges() == tables.graph.edges()
    for i in range(0, 16, 3):
        for d in range(1, 16, 4):
            if i == d:
                continue
            original = resolve(tables, i, d)
            rebuilt = resolve(again, i, d)
            assert original.case == rebuilt.case
            assert original.nodes == rebuilt.nodes


# ---------------------------------------------------------------------------
# CLI


def test_cli_full_pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "generate", "--model", "grid_torus", "--n-e", "16",
        "--metric", "hop", "--seed", "0", "--out", "net.graph",
    ]) == 0
    assert main([
        "cluster", "--graph", "net.graph", "--scheme", "partial",
        "--k", "3", "--out", "scheme.json",
    ]) == 0
    assert main([
        "route", "--scheme", "scheme.json", "--source", "0", "--dest", "10",
    ]) == 0
    assert main([
        "eval", "--scheme", "scheme.json", "--prefix", "torus",
    ]) == 0
    assert main([
        "qsearch", "--scheme", "scheme.json", "--owner", "0", "--target", "5",
    ]) == 0
    assert (tmp_path / "torus_pairs.csv").exists()
    header = (tmp_path / "torus_pairs.csv").read_text().splitlines()[0]
    assert "schema_version" in header


def test_report_and_eval_pair_csv_headers(torus_scheme_file, tmp_path):
    # a scheme document carries its seed, so eval writes report's columns
    assert main(["report", "--n-e", "16", "--graph-model", "grid_torus", "--seeds", "0",
                 "--out-dir", "."]) == 0
    assert main(["eval", "--scheme", torus_scheme_file, "--prefix", "torus"]) == 0
    heads = {
        path.name: path.read_text().splitlines()[:2] for path in tmp_path.glob("*_pairs.csv")
    }
    assert sorted(heads) == ["experiment_pairs.csv", "torus_pairs.csv"]
    for head in heads.values():
        assert head == ["# schema_version=1", "seed,source,dest,case,cost,optimal,stretch"]


@pytest.mark.parametrize("scheme, seed", [("partial", 0), ("full", 3), ("full", 7)])
def test_eval_writes_the_report_csv_of_the_cluster_seed(tmp_path, monkeypatch, scheme, seed):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(harness.OUTPUT_DIR_ENV, raising=False)
    assert main(["generate", "--model", "grid_torus", "--n-e", "16", "--metric", "hop",
                 "--out", "net.graph"]) == 0
    assert main(["cluster", "--graph", "net.graph", "--scheme", scheme, "--k", "3",
                 "--seed", str(seed), "--out", "scheme.json"]) == 0
    assert main(["eval", "--scheme", "scheme.json", "--prefix", "eval"]) == 0
    config = dict(n_e=16, graph_model="grid_torus", metric="hop", scheme=scheme,
                  k_override=3, seeds=[seed], name="report")
    (tmp_path / "exp.json").write_text(json.dumps(config))
    assert main(["report", "--config", "exp.json"]) == 0
    csv = (tmp_path / "eval_pairs.csv").read_bytes()
    assert csv == (tmp_path / "report_pairs.csv").read_bytes()
    assert csv.splitlines()[2].startswith(f"{seed},0,1,".encode())
    trial = json.loads((tmp_path / "report_summary.json").read_text())["trials"][0]
    summary = json.loads((tmp_path / "eval_summary.json").read_text())
    assert summary["fallback_reasons"] == trial["fallback_reasons"]
    assert summary["case_counts"] == trial["case_counts"]


def test_cli_route_send_writes_delivery_log(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["generate", "--model", "grid_torus", "--n-e", "16",
          "--metric", "hop", "--seed", "0", "--out", "net.graph"])
    main(["cluster", "--graph", "net.graph", "--scheme", "partial",
          "--k", "3", "--out", "scheme.json"])
    assert main([
        "route", "--scheme", "scheme.json", "--source", "0", "--dest", "10",
        "--send", "3", "--replenish-rate", "1", "--delivery-log", "dl.csv",
    ]) == 0
    lines = (tmp_path / "dl.csv").read_text().splitlines()
    assert lines[0] == "# schema_version=2"
    assert lines[1] == (
        "request,source,dest,case,nodes,success,retried,consumed,on_demand,detail"
    )
    assert len(lines) == 2 + 3
    for row in lines[2:]:
        fields = row.split(",")
        assert fields[1] == "0" and fields[2] == "10"
        assert fields[5] in {"0", "1"}


def test_cli_delivery_log_with_retries_keeps_ten_fields_per_row(tmp_path, monkeypatch):
    # one ebit per entry: after the first delivery the case III path is
    # depleted, so every later request takes a fallback whose retry fails and
    # names the depleted link in its detail
    monkeypatch.chdir(tmp_path)
    main(["generate", "--model", "grid_torus", "--n-e", "16",
          "--metric", "hop", "--seed", "0", "--out", "net.graph"])
    main(["cluster", "--graph", "net.graph", "--scheme", "partial",
          "--k", "3", "--ebit-budget", "1", "--out", "scheme.json"])
    assert main(["route", "--scheme", "scheme.json", "--source", "0", "--dest", "10",
                 "--send", "20", "--delivery-log", "dl.csv"]) == 0
    with open("dl.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0][6] == "retried"
    assert all(len(row) == 10 for row in rows)
    retried = [row for row in rows[1:] if row[6] == "1"]
    assert retried
    assert all(re.fullmatch(r"link \d+-\d+ depleted and retry failed: .+", row[9])
               for row in retried)


def send_totals(scheme: str, source: int, dest: int, send: int, capsys) -> tuple[str, int, int]:
    """``route --send``'s totals line and the totals summed from its delivery log."""
    argv = ["route", "--scheme", scheme, "--source", str(source), "--dest", str(dest),
            "--send", str(send), "--delivery-log", "dl.csv"]
    capsys.readouterr()
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[1]
    with open("dl.csv") as fh:
        rows = [row.split(",") for row in fh.read().splitlines()[2:]]
    consumed = sum(len(row[7].split(";")) for row in rows if row[7])
    on_demand = sum(len(row[8].split(";")) for row in rows if row[8])
    return line, consumed, on_demand


def test_cli_route_send_prints_consumed_and_on_demand_totals(torus_scheme_file, capsys):
    # 0 -> 10 on the torus resolves in case III over two overlay segments
    assert send_totals(torus_scheme_file, 0, 10, 3, capsys) == (
        "delivered 3/3 packets; segments consumed 6, on demand 0", 6, 0,
    )
    # random anchors leave node 5 uncovered: the fallback path 0-14-22-3-5 has
    # no entry for its physical link 14-22, so that segment is made on demand
    assert main(["generate", "--n-e", "24", "--param", "edge_prob=0.15",
                 "--out", "er.graph"]) == 0
    assert main(["cluster", "--graph", "er.graph", "--k", "3", "--anchors", "random",
                 "--out", "er.json"]) == 0
    assert send_totals("er.json", 0, 5, 2, capsys) == (
        "delivered 2/2 packets; segments consumed 6, on demand 2", 6, 2,
    )


def test_cli_route_prints_strict_json_for_an_unresolved_pair(tmp_path, monkeypatch, capsys):
    # random anchors and a cap of 6 leave no anchor around node 10, so
    # without the fallback the pair fails with an infinite cost and stretch
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--model", "grid_torus", "--n-e", "36", "--out", "net.graph"]) == 0
    assert main(["cluster", "--graph", "net.graph", "--k", "5", "--anchors", "random",
                 "--capacity-cap", "6", "--out", "scheme.json"]) == 0
    capsys.readouterr()
    code = main(["route", "--scheme", "scheme.json", "--source", "0", "--dest", "10",
                 "--no-fallback"])

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    line = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert code == 1
    assert line["case"] == "failure"
    assert line["cost"] is None and line["stretch"] is None
    assert line["optimal"] == 3.0


def test_cli_report_exit_code_and_lines(tmp_path, capsys):
    config = dict(
        n_e=16, graph_model="grid_torus", metric="hop", scheme="partial",
        seeds=[0], k_override=3, name="cli_report",
        output_dir=str(tmp_path),
    )
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["report", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS additive-partial-anchor-stretch-at-most-5" in out


def test_broken_chain_reports_a_fail_line_with_its_witness(tmp_path, monkeypatch, capsys):
    def broken_chain(path, metric, pair_costs):
        raise ChainViolationError("inequality chain broken at: three-fold composed bound")

    monkeypatch.setattr(harness, "verify_bound_chain", broken_chain)
    monkeypatch.setattr(harness, "CHAIN_SAMPLES", 20)
    cfg = tmp_path / "exp.json"
    config = torus_config(seeds=[0], name="broken", output_dir=str(tmp_path))
    cfg.write_text(json.dumps(config.to_dict()))
    assert main(["report", "--config", str(cfg)]) == 1
    line = next(
        l for l in capsys.readouterr().out.splitlines() if "bound-chain-replays-clean" in l
    )
    assert line.startswith("FAIL bound-chain-replays-clean: 20 of 20 sampled paths broke")
    trial = load_json(str(tmp_path / "broken_summary.json"))["trials"][0]
    assert len(trial["chain_violations"]) == trial["chain_checked"] == 20
    witness = trial["chain_violations"][0]
    assert witness["broken"] == "inequality chain broken at: three-fold composed bound"
    source, dest = witness["pair"]
    assert witness["path"][0] == source and witness["path"][-1] == dest
    assert len(witness["path"]) in (3, 4)
    assert f"first: seed 0 pair ({source}, {dest}) path {witness['path']}: " in line


def test_chain_check_with_no_sampled_path_is_vacuous(tmp_path, capsys):
    # every pair of a 16-node torus resolves in case I, so no chain is replayed
    argv = ["report", "--n-e", "16", "--graph-model", "grid_torus", "--seeds", "0",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "VACUOUS bound-chain-replays-clean: 0 sampled paths verified" in out
    assert "PASS bound-chain-replays-clean" not in out


def trial_with_no_resolved_pair(seed: int) -> TrialResult:
    return TrialResult(
        seed=seed, max_stretch=0.0, mean_stretch=0.0, max_stretch_with_fallback=2.0,
        case_counts={"fallback": 240}, fallback_fraction=1.0, failure_fraction=0.0,
        coverage_failure_fraction=0.0, table_stats={}, chain_checked=0, chain_violations=[],
        qsearch_agreement=None, axiom_report=None, runtime_s=0.0,
    )


@pytest.mark.parametrize(
    "metric, scheme, stretch_claims",
    [
        ("hop", "partial", ["additive-partial-anchor-stretch-at-most-5"]),
        ("hop", "full", ["additive-full-anchor-stretch-at-most-3"]),
        ("capacity", "partial", ["concave-metric-unit-stretch"]),
    ],
)
def test_stretch_claims_with_no_resolved_pair_are_vacuous(metric, scheme, stretch_claims):
    config = torus_config(metric=metric, scheme=scheme)
    trials = [trial_with_no_resolved_pair(seed) for seed in config.seeds]
    assertions = harness._build_assertions(config, trials)
    lines = assertion_lines(StretchReport(config, trials, assertions))
    for name in stretch_claims + ["resolved-stretch-at-least-one"]:
        assert [line.split(":")[0] for line in lines if f" {name}:" in line] == [
            f"VACUOUS {name}"
        ]
    assert all(isinstance(a.checked, int) for a in assertions)


def test_every_composition_and_scheme_has_one_stretch_claim():
    assert set(harness._STRETCH_CLAIMS) == set(itertools.product(Composition, harness._SCHEMES))


@pytest.mark.parametrize("metric", ["hop", "capacity"])
@pytest.mark.parametrize("scheme", ["partial", "full"])
def test_stretch_claim_fails_just_past_its_bound(metric, scheme):
    config = torus_config(metric=metric, scheme=scheme)
    name, bound = harness._STRETCH_CLAIMS[metric_by_name(metric).composition, scheme]

    def passed(worst: float) -> bool:
        trial = replace(trial_with_no_resolved_pair(0), max_stretch=worst, mean_stretch=1.0,
                        case_counts={"II": 1})
        (claim,) = [a for a in harness._build_assertions(config, [trial]) if a.name == name]
        assert claim.checked == 1 and claim.detail == f"worst resolved stretch {worst}"
        return claim.passed

    assert passed(1.0) and passed(bound) and passed(bound + 1e-10)
    assert not passed(bound + 1e-8)


def test_cli_output_dir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "outputs"
    monkeypatch.setenv("QNROUTE_OUTPUT_DIR", str(target))
    config = dict(
        n_e=9, graph_model="grid_torus", graph_params={"rows": 3, "cols": 3},
        metric="hop", scheme="partial", seeds=[0], k_override=2, name="envtest",
    )
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["report", "--config", str(cfg_path)]) == 0
    assert (target / "envtest_pairs.csv").exists()


def test_cli_compare(tmp_path):
    base = dict(
        n_e=16, graph_model="grid_torus", metric="hop",
        seeds=[0, 1], k_override=3,
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({**base, "scheme": "partial", "name": "a"}))
    b.write_text(json.dumps({**base, "scheme": "full", "name": "b"}))
    out = tmp_path / "cmp.json"
    assert main(["compare", "--config-a", str(a), "--config-b", str(b),
                 "--out", str(out)]) == 0
    doc = load_json(str(out))
    assert len(doc["per_seed"]) == 2


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("body", ["5", "[{}]"])
def test_cli_compare_config_that_is_not_an_object_exits_two(tmp_path, capsys, side, body):
    configs = {name: tmp_path / f"{name}.json" for name in "ab"}
    for name, path in configs.items():
        path.write_text(body if name == side else json.dumps({"n_e": 9, "k_override": 2}))
    out = tmp_path / "cmp.json"
    argv = ["compare", "--config-a", str(configs["a"]), "--config-b", str(configs["b"]),
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {configs[side]}: a config must be a JSON object" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(dict(
        n_e=9, graph_model="grid_torus", graph_params={"rows": 3, "cols": 3},
        metric="hop", scheme="partial", seeds=[0], k_override=2,
        name="filewins", output_dir=str(tmp_path),
    )))
    # the flag asks for 16 nodes but the config file pins 9
    assert main(["report", "--config", str(cfg), "--n-e", "16"]) == 0
    doc = json.loads((tmp_path / "filewins_summary.json").read_text())
    assert doc["config"]["n_e"] == 9


@pytest.fixture
def torus_scheme_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["generate", "--model", "grid_torus", "--n-e", "16",
          "--metric", "hop", "--seed", "0", "--out", "net.graph"])
    main(["cluster", "--graph", "net.graph", "--scheme", "partial",
          "--k", "3", "--out", "scheme.json"])
    return "scheme.json"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["route", "--source", "0", "--dest", "99"], "--dest 99"),
        (["route", "--source", "3", "--dest", "3"], "different nodes"),
        (["qsearch", "--owner", "0", "--target", "99"], "--target 99"),
        (["qsearch", "--owner", "16", "--target", "0"], "--owner 16"),
    ],
)
def test_cli_rejects_unknown_or_repeated_nodes(torus_scheme_file, capsys, argv, message):
    assert main([*argv[:1], "--scheme", torus_scheme_file, *argv[1:]]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["route", "--source", "0", "--dest", "10", "--send", "-1"], "--send -1"),
        (["route", "--source", "0", "--dest", "10", "--send", "2",
          "--replenish-rate", "-1"], "--replenish-rate -1"),
        (["qsearch", "--owner", "0", "--target", "5", "--iterations", "-1"],
         "--iterations -1"),
    ],
)
def test_cli_rejects_negative_counts(torus_scheme_file, capsys, argv, message):
    capsys.readouterr()
    assert main([*argv[:1], "--scheme", torus_scheme_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}: must be non-negative" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_missing_scheme_file_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["route", "--scheme", missing, "--source", "0", "--dest", "1"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, message",
    [
        ("n_e 4\n0 1 1.0\n1 2\n", ":3: not enough values to unpack"),
        ("n_e 4\n0 one 1.0\n", ":2: invalid literal"),
        ("n_e 4\n0 1 1.0\n2 4 1.0\n", ":3: edge endpoint 4 is not a node id in [0, 4)"),
        ("n_e 4\n0 1 abc\n", ":2: could not convert"),
        ("nodes 4\n0 1 1.0\n", ":1: expected the header"),
        ("n_e 4\n0 1 1.0\n1 2 inf\n2 3 1.0\n", ":3: link costs must be positive and finite, got inf"),
        ("n_e 4\n0 1 1.0\n1 2 nan\n2 3 1.0\n", ":3: link costs must be positive and finite, got nan"),
        ("n_e 4\n0 1 0\n", ":2: link costs must be positive and finite, got 0.0"),
        ("n_e 3\n0 1 1.0\n1 2 1.0\n0 1 5.0\n", ":4: edge 0-1 is listed twice"),
        ("n_e 3\n0 1 1.0\n1 2 1.0\n1 0 5.0\n", ":4: edge 1-0 is listed twice"),
        ("n_e 5\n0 1 1.0\n1 2 1.0\n3 4 1.0\n", ": 3 edges cannot connect 5 nodes"),
        ("n_e 1000\n", ": 0 edges cannot connect 1000 nodes"),
    ],
)
def test_cli_malformed_graph_file_exits_two(tmp_path, capsys, body, message):
    graph = tmp_path / "bad.graph"
    graph.write_text(body)
    out = str(tmp_path / "scheme.json")
    assert main(["cluster", "--graph", str(graph), "--k", "2", "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "scheme.json").exists()


def test_cli_graph_file_with_a_large_finite_cost_is_accepted(tmp_path):
    graph = tmp_path / "net.graph"
    graph.write_text("n_e 4\n0 1 1.0\n1 2 1e300\n2 3 1.0\n")
    out = str(tmp_path / "scheme.json")
    assert main(["cluster", "--graph", str(graph), "--k", "2", "--out", out]) == 0
    assert load_json(out)["graph"]["edges"][1] == [1, 2, 1e300]


def test_cli_missing_graph_file_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "absent.graph")
    assert main(["cluster", "--graph", missing, "--out", str(tmp_path / "s.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv, path", [
    (["generate", "--model", "grid_torus", "--n-e", "16", "--out", "blocker/n.graph"],
     "blocker/n.graph"),
    (["cluster", "--graph", "net.graph", "--k", "3", "--out", "blocker/s.json"], "blocker/s.json"),
    (["route", "--scheme", "scheme.json", "--source", "0", "--dest", "10", "--send", "2",
      "--delivery-log", "blocker/dl.csv"], "blocker/dl.csv"),
    (["eval", "--scheme", "scheme.json", "--out-dir", "blocker/sub"], "blocker/sub"),
    (["report", "--config", "blocked.json"], "blocker/o"),
    (["compare", "--config-a", "blocked.json", "--config-b", "blocked.json",
      "--out", "blocker/cmp.json"], "blocker/cmp.json"),
], ids=["generate", "cluster", "route", "eval", "report", "compare"])
def test_cli_output_path_under_a_regular_file_exits_two(
    torus_scheme_file, capsys, monkeypatch, argv, path
):
    # a regular file stands where an output directory should be
    open("blocker", "w").close()
    with open("blocked.json", "w") as fh:
        json.dump({"n_e": 9, "graph_model": "grid_torus", "k_override": 2,
                   "output_dir": "blocker/o", "name": "blocked"}, fh)
    trials = []
    run_trial = harness.run_trial
    monkeypatch.setattr(harness, "run_trial", lambda *a: trials.append(a) or run_trial(*a))
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith("error: ") and path in err
    assert os.path.isfile("blocker")
    # every command refuses its output path before any work: no trial runs,
    # and route prints neither its path nor a delivered line
    if argv[0] in ("report", "compare"):
        assert not trials
    assert captured.out == ""


def _scheme_with_non_utf8_byte():
    with open("scheme.json", "rb") as fh:
        return fh.read().replace(b'"scheme"', b'"sch\xffeme"')


CLUSTER_BAD = ["cluster", "--graph", "bad.input", "--k", "2", "--out", "out.json"]


@pytest.mark.parametrize("argv, body, message", [
    (CLUSTER_BAD, "n_e ²\n0 1 1.0\n".encode(), "bad.input:1: expected the header 'n_e <count>'"),
    (CLUSTER_BAD, b"n_e " + b"1" * 5000 + b"\n0 1 1.0\n", "bad.input:1: expected the header"),
    (CLUSTER_BAD, b"n_e 4\n0_1 2 1.0\n",
     "bad.input:2: invalid literal for int() with base 10: '0_1'"),
    (CLUSTER_BAD, b"n_e 4\n0 +1 1.0\n",
     "bad.input:2: invalid literal for int() with base 10: '+1'"),
    (CLUSTER_BAD, "n_e 4\n0 1 1.0\n\n1 \u0661 1.0\n".encode(),
     "bad.input:4: invalid literal for int() with base 10: '\u0661'"),
    (CLUSTER_BAD, b"n_e 4\n0 1 1.0\n1 " + b"2" * 5000 + b" 1.0\n",
     "bad.input:3: Exceeds the limit"),
    (CLUSTER_BAD, b"n_e 4\n0 1 1_0\n", "bad.input:2: could not convert string to float: '1_0'"),
    (CLUSTER_BAD, b"n_e \xff4\n0 1 1.0\n",
     "bad.input is not UTF-8: invalid start byte at byte 4"),
    (CLUSTER_BAD, b"n_e 4\n0 1 1.0\n1 2 \xff\n",
     "bad.input is not UTF-8: invalid start byte at byte 18"),
    (["eval", "--scheme", "bad.input"], _scheme_with_non_utf8_byte,
     "bad.input is not UTF-8: invalid start byte"),
    (["eval", "--scheme", "bad.input"], b'{"schema_version": ' + b"4" * 5000 + b"}",
     "bad.input is not valid JSON: Exceeds the limit"),
    (["eval", "--scheme", "bad.input"], b"[" * 100000, "bad.input is not valid JSON: maximum"),
    (["report", "--config", "bad.input"], b'{"n_e": 9, "name": "\xff"}',
     "bad.input is not UTF-8: invalid start byte at byte 20"),
], ids=["superscript-count", "long-count", "underscore-id", "signed-id", "arabic-indic-id",
        "long-id", "underscore-cost", "non-utf8-header", "non-utf8-edge", "non-utf8-scheme",
        "long-json-int", "deep-json", "non-utf8-config"])
def test_cli_input_refused_in_one_error_line_and_no_output(
    torus_scheme_file, capsys, argv, body, message
):
    with open("bad.input", "wb") as fh:
        fh.write(body() if callable(body) else body)
    before = sorted(os.listdir("."))
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert sorted(os.listdir(".")) == before


@pytest.mark.parametrize("argv, body", [
    (["cluster", "--graph", "bad.input", "--k", "1", "--out", "out.json"],
     b"n_e 3\n0 1 1e308\n1 2 1e308\n"),
    # distinct costs: the relaxation pass, whose overflow numpy would warn of
    (["cluster", "--graph", "bad.input", "--k", "1", "--out", "out.json"],
     b"n_e 3\n0 1 1.7e308\n1 2 2e307\n"),
    (["report", "--config", "bad.input"],
     b'{"n_e": 16, "graph_model": "grid_torus", "metric": "uniform", "k_override": 3, '
     b'"metric_params": {"low": 1e308, "high": 1e308}, "name": "over"}'),
], ids=["cluster", "cluster-relaxed", "report"])
def test_cli_path_cost_past_the_float_range_exits_two(tmp_path, monkeypatch, capsys, argv, body):
    """Finite link costs whose path sums overflow are no disconnected graph."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.input").write_bytes(body)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: the path cost from node 0 to node 2 overflows a float\n"
    assert sorted(os.listdir(".")) == ["bad.input"]


@pytest.mark.parametrize("argv, message", [
    (["cluster", "--graph", "net.graph", "--m", "1e308", "--out", "out.json"], "m: too large"),
    (["report", "--n-e", "16", "--graph-model", "grid_torus", "--m", "1e308"], "m: too large"),
    (["report", "--config", "huge.json"], "n_e: too large"),
], ids=["cluster-m", "report-m", "report-n_e"])
def test_cli_neighborhood_size_overflow_exits_two_before_any_graph(
    torus_scheme_file, monkeypatch, capsys, argv, message
):
    with open("huge.json", "w") as fh:
        fh.write('{"n_e": 1' + "0" * 400 + "}")
    generated = []
    monkeypatch.setattr(harness, "generate_graph", lambda *a, **k: generated.append(a))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}; (1 + m) sqrt(n_e) ln(n_e) overflows")
    assert not generated
    assert not os.path.exists("out.json") and not os.path.exists("experiment_pairs.csv")


def rewrite_scheme(path, edit):
    doc = load_json(path)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_cli_scheme_missing_field_exits_two(torus_scheme_file, capsys):
    rewrite_scheme(torus_scheme_file, lambda doc: doc.pop("graph"))
    assert main(["route", "--scheme", torus_scheme_file, "--source", "0", "--dest", "5"]) == 2
    assert "scheme document: missing field 'graph'" in capsys.readouterr().err


def zero_cost_edge(doc):
    doc["graph"]["edges"][0][2] = 0.0


def infinite_cost_edge(doc):
    # json.dump writes it as the bare token Infinity, which json.load accepts
    doc["graph"]["edges"][0][2] = math.inf


def as_full_scheme(doc):
    """Replace ``doc`` by the full-anchor document over the fixture's graph."""
    assert main(["cluster", "--graph", "net.graph", "--scheme", "full", "--k", "3",
                 "--out", "full.json"]) == 0
    doc.clear()
    doc.update(load_json("full.json"))


@pytest.mark.parametrize(
    "scheme, reference",
    [
        ("partial", "000"),
        ("partial", "00000"),
        ("partial", "0_11"),  # int() reads this one and the next as node 11
        ("partial", " 011"),
        ("partial", "0012"),
        ("partial", 3.0),
        ("partial", None),
        ("partial", [11]),
        ("partial", 16),  # node 16 of 16 names no node
        ("partial", -1),
        ("partial", True),
        ("full", "0_11"),
    ],
)
def test_cli_scheme_edge_endpoint_other_than_a_node_id_exits_two(
    torus_scheme_file, capsys, scheme, reference
):
    """A document names nodes only as the integer endpoints of graph edges."""

    def edit(doc):
        if scheme == "full":
            as_full_scheme(doc)
        doc["graph"]["edges"][0][1] = reference

    rewrite_scheme(torus_scheme_file, edit)
    assert main(["eval", "--scheme", torus_scheme_file]) == 2
    assert (
        f"graph: edge endpoint {reference!r} is not a node id in [0, 16)"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "cost, message",
    [
        (True, "graph: edge cost True is not a number"),
        ("1.0", "graph: edge cost '1.0' is not a number"),
        (None, "graph: edge cost None is not a number"),
        (10**400, "int too large to convert to float"),
    ],
)
def test_cli_bad_scheme_edge_cost_exits_two(
    torus_scheme_file, capsys, cost, message
):
    rewrite_scheme(torus_scheme_file, lambda doc: doc["graph"]["edges"][0].__setitem__(2, cost))
    assert main(["eval", "--scheme", torus_scheme_file]) == 2
    assert f"scheme document: {message}" in capsys.readouterr().err


def repeated_edge(doc):
    i, j, _ = doc["graph"]["edges"][0]
    doc["graph"]["edges"].append([i, j, 7.0])


def reversed_repeated_edge(doc):
    i, j, _ = doc["graph"]["edges"][0]
    doc["graph"]["edges"].append([j, i, 7.0])


def partial_scheme_without_anchors(doc):
    as_full_scheme(doc)
    doc["scheme"] = "partial"


def full_scheme_with_anchors(doc):
    as_full_scheme(doc)
    doc["anchor_method"] = "greedy"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(scheme="ring"), "'ring' is not a valid Scheme"),
        (zero_cost_edge, "link costs must be positive"),
        (infinite_cost_edge, "link costs must be positive and finite, got inf"),
        (repeated_edge, "graph: edge 0-1 is listed twice"),
        (reversed_repeated_edge, "graph: edge 1-0 is listed twice"),
        (partial_scheme_without_anchors, "missing field 'anchor_method'"),
        (full_scheme_with_anchors, "anchor_method: a full scheme elects no anchors"),
        (lambda doc: doc.update(k=16), "k 16: must be in [1, 16)"),
        (lambda doc: doc.update(f=4), "f 4: must be in [1, k=3]"),
        (lambda doc: doc["graph"].update(n_e=10**9), "32 edges cannot connect 1000000000 nodes"),
        (lambda doc: doc.update(seed="0"), "seed: '0' is not int"),
        (lambda doc: doc.update(seed=True), "seed: True is not int"),
        (lambda doc: doc.update(seed=None), "seed: None is not int"),
        (lambda doc: doc.update(k=3.0), "k: 3.0 is not int or null"),
        (lambda doc: doc.update(f=True), "f: True is not int"),
        (lambda doc: doc.update(anchor_method="best"), "anchor_method: must be one of"),
        (lambda doc: doc.update(ebit_budget=0), "ebit_budget: must be at least 1"),
        (lambda doc: doc.update(capacity_cap=0), "capacity_cap: must be positive or null"),
        (lambda doc: doc.update(capacity_cap="12"), "capacity_cap: '12' is not int or null"),
        (lambda doc: doc["graph"].update(n_e="16"), "n_e: '16' is not int"),
        (lambda doc: doc["metric"].update(name="bogus"), "metric: unknown 'bogus'"),
    ],
)
def test_cli_scheme_invalid_value_exits_two(torus_scheme_file, capsys, edit, message):
    rewrite_scheme(torus_scheme_file, edit)
    assert main(["route", "--scheme", torus_scheme_file, "--source", "0", "--dest", "5"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, None])
def test_cli_scheme_other_schema_version_exits_two(torus_scheme_file, capsys, version):
    rewrite_scheme(torus_scheme_file, lambda doc: doc.update(schema_version=version))
    assert main(["qsearch", "--scheme", torus_scheme_file, "--owner", "0", "--target", "5"]) == 2
    assert f"schema_version {version!r}" in capsys.readouterr().err


def test_cli_version_two_scheme_with_its_plan_exits_two(torus_scheme_file, capsys):
    def as_version_two(doc):
        bits = [format(v, "04b") for v in range(16)]
        plan = {"n": 16, "n_e": 16, "p": 4, "width": 4, "esp_addresses": bits,
                "cluster_map": {b: [] for b in bits}}
        doc.update(schema_version=2, plan=plan)

    rewrite_scheme(torus_scheme_file, as_version_two)
    assert main(["eval", "--scheme", torus_scheme_file]) == 2
    assert "schema_version 2; only 4 is supported" in capsys.readouterr().err


def test_cli_version_three_scheme_with_node_references_exits_two(torus_scheme_file, capsys):
    def as_version_three(doc):
        del doc["seed"], doc["anchor_method"]
        doc.update(schema_version=3, anchors={"members": ["0000", "1010"],
                                              "construction": "greedy", "m": None})

    rewrite_scheme(torus_scheme_file, as_version_three)
    assert main(["eval", "--scheme", torus_scheme_file]) == 2
    assert "schema_version 3; only 4 is supported" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheme, field, value",
    [
        # version 3 stored the anchor set and the tracked blocks as bitstrings
        ("partial", "anchors", {"members": ["0000"], "construction": "greedy", "m": None}),
        ("full", "tracked", {"blocks": [["0000", "0100"], ["0100"]], "assignment": {}}),
        ("partial", "plan", {"width": 4}),
        ("full", "m", 1.0),
    ],
)
def test_cli_scheme_unknown_field_exits_two(torus_scheme_file, capsys, scheme, field, value):
    def edit(doc):
        if scheme == "full":
            as_full_scheme(doc)
        doc[field] = value

    rewrite_scheme(torus_scheme_file, edit)
    assert main(["eval", "--scheme", torus_scheme_file]) == 2
    assert f"scheme document: unknown fields [{field!r}]" in capsys.readouterr().err


def test_cli_scheme_that_is_not_an_object_exits_two(tmp_path, capsys):
    (tmp_path / "list.json").write_text("[4]")
    assert main(["eval", "--scheme", str(tmp_path / "list.json")]) == 2
    assert "schema_version None; only 4 is supported" in capsys.readouterr().err


def test_cluster_document_holds_no_plan(torus_scheme_file):
    doc = load_json(torus_scheme_file)
    assert doc["schema_version"] == 4
    # the recipe alone: no address plan, anchor set or tracked block
    assert sorted(doc) == [
        "anchor_method", "capacity_cap", "ebit_budget", "f", "graph", "k", "metric",
        "schema_version", "scheme", "seed",
    ]
    assert (doc["anchor_method"], doc["seed"], doc["capacity_cap"]) == ("greedy", 0, 12)


@pytest.mark.parametrize(
    "overrides, flags",
    [
        (dict(scheme="partial"), ["--scheme", "partial"]),
        (dict(scheme="partial", anchor_method="random"), ["--scheme", "partial", "--anchors", "random"]),
        (dict(scheme="full", metric="uniform", f=2), ["--scheme", "full", "--metric", "uniform", "--f", "2"]),
    ],
)
def test_cli_cluster_builds_the_harness_scheme(tmp_path, overrides, flags):
    seed = 3
    config = torus_config(**overrides)
    tables, _ = build_scheme_for_trial(config, seed)
    graph = str(tmp_path / "net.graph")
    save_graph(tables.graph, graph)
    out = str(tmp_path / "scheme.json")
    assert main([
        "cluster", "--graph", graph, "--k", "3", "--seed", str(seed), "--out", out, *flags,
    ]) == 0
    assert load_json(out) == json.loads(json.dumps(scheme_to_dict(tables, config.metric, {})))


def test_cli_generate_unknown_metric_exits_two(tmp_path, capsys):
    out = str(tmp_path / "net.graph")
    assert main(["generate", "--n-e", "8", "--metric", "bogus", "--out", out]) == 2
    assert "unknown metric 'bogus'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_generate_bad_metric_parameter_exits_two(tmp_path, capsys):
    out = str(tmp_path / "net.graph")
    argv = ["generate", "--n-e", "8", "--metric", "uniform", "--metric-param", "foo=1",
            "--out", out]
    assert main(argv) == 2
    assert "unexpected keyword argument 'foo'" in capsys.readouterr().err


def test_cli_cluster_bad_metric_parameter_exits_two(torus_scheme_file, capsys):
    argv = ["cluster", "--graph", "net.graph", "--k", "3", "--metric", "hop",
            "--metric-param", "foo=1", "--out", "other.json"]
    assert main(argv) == 2
    assert "unexpected keyword argument 'foo'" in capsys.readouterr().err


def test_cli_scheme_with_bad_metric_parameters_exits_two(torus_scheme_file, capsys):
    def edit(doc):
        doc["metric"] = {"name": "uniform", "params": {"low": -1}}

    rewrite_scheme(torus_scheme_file, edit)
    with pytest.raises(SchemeDocumentError, match="0 < low <= high"):
        scheme_from_dict(load_json(torus_scheme_file))
    assert main(["route", "--scheme", torus_scheme_file, "--source", "0", "--dest", "5"]) == 2
    assert "0 < low <= high" in capsys.readouterr().err


def test_cli_generate_unknown_model_parameter_exits_two(tmp_path, capsys):
    out = str(tmp_path / "net.graph")
    assert main(["generate", "--n-e", "8", "--param", "foo=1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "model 'erdos_renyi' has no parameter 'foo'; it takes edge_prob" in err
    assert "_erdos_renyi" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, pair", [("--param", "foo"), ("--metric-param", "low")])
def test_cli_generate_malformed_key_value_exits_two(tmp_path, capsys, flag, pair):
    out = str(tmp_path / "y.graph")
    assert main(["generate", "--n-e", "8", flag, pair, "--out", out]) == 2
    assert f"error: bad parameter {pair!r}, expected key=value" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("model, param, message", [
    ("erdos_renyi", "edge_prob=abc", "parameter 'edge_prob' must be float, got 'abc'"),
    ("erdos_renyi", "edge_prob=true", "parameter 'edge_prob' must be float, got True"),
    ("barabasi_albert", "attach=2.5", "parameter 'attach' must be int, got 2.5"),
    ("grid_torus", "rows=x", "parameter 'rows' must be int or null, got 'x'"),
])
def test_cli_generate_mistyped_model_parameter_exits_two(tmp_path, capsys, model, param,
                                                         message):
    out = str(tmp_path / "net.graph")
    argv = ["generate", "--model", model, "--n-e", "9", "--param", param, "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"model {model!r}: {message}" in err
    assert f"_{model}" not in err and "not supported between" not in err
    assert not os.path.exists(out)


def test_cli_generate_bad_model_parameter_value_exits_two(tmp_path, capsys):
    out = str(tmp_path / "net.graph")
    argv = ["generate", "--model", "barabasi_albert", "--n-e", "8", "--param", "attach=9",
            "--out", out]
    assert main(argv) == 2
    assert "model 'barabasi_albert': attach must be in [1, n_e)" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("model, param, message", [
    ("waxman", "alpha=0", "alpha must be positive, got 0"),
    ("waxman", "alpha=-1", "alpha must be positive, got -1"),
    ("waxman", "beta=0", "beta must be in (0, 1], got 0"),
    ("waxman", "beta=1.5", "beta must be in (0, 1], got 1.5"),
    ("erdos_renyi", "edge_prob=-1", "edge_prob must be in (0, 1], got -1"),
    ("erdos_renyi", "edge_prob=0", "edge_prob must be in (0, 1], got 0"),
    ("erdos_renyi", "edge_prob=1.01", "edge_prob must be in (0, 1], got 1.01"),
])
def test_cli_generate_out_of_range_model_parameter_exits_two(tmp_path, capsys, model, param,
                                                             message):
    out = str(tmp_path / "net.graph")
    argv = ["generate", "--model", model, "--n-e", "8", "--param", param, "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: model {model!r}: {message}" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("model, params, message", [
    ("waxman", {"alpha": 0}, "alpha must be positive, got 0"),
    ("waxman", {"alpha": math.nan}, "alpha must be positive, got nan"),
    ("erdos_renyi", {"edge_prob": math.nan}, "edge_prob must be in (0, 1], got nan"),
])
def test_cli_report_out_of_range_graph_parameter_exits_two(tmp_path, capsys, model, params,
                                                          message):
    config = torus_config(graph_model=model, graph_params=params, output_dir=str(tmp_path))
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config.to_dict()))
    assert main(["report", "--config", str(cfg)]) == 2
    assert f"model {model!r}: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "torus16_summary.json")


def test_cli_generate_too_few_nodes_exits_two(tmp_path, capsys):
    out = str(tmp_path / "net.graph")
    assert main(["generate", "--n-e", "1", "--out", out]) == 2
    assert "n_e=1: must be at least 2" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_report_config_that_is_not_an_object_exits_two(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text("[16]")
    assert main(["report", "--config", str(cfg)]) == 2
    assert "a config must be a JSON object" in capsys.readouterr().err


def test_cli_report_unknown_graph_parameter_exits_two(tmp_path, capsys):
    config = torus_config(graph_model="erdos_renyi", graph_params={"foo": 1},
                          output_dir=str(tmp_path))
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config.to_dict()))
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "model 'erdos_renyi' has no parameter 'foo'; it takes edge_prob" in err
    assert not os.path.exists(tmp_path / "torus16_summary.json")


def test_cli_out_dir_flag_beats_a_null_output_dir_in_the_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(harness.OUTPUT_DIR_ENV, raising=False)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(torus_config(seeds=[0]).to_dict()))
    assert json.loads(cfg.read_text())["output_dir"] is None
    out_dir = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "torus16_summary.json").exists()
    assert (out_dir / "torus16_pairs.csv").exists()
    assert not (tmp_path / "torus16_summary.json").exists()


def test_cli_verbose_logs_generation_retries_to_stderr(tmp_path):
    # erdos_renyi n_e 24 at edge_prob 0.1, seed 0, needs 5 draws to connect
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    runs = {}
    for flags in ([], ["-v"]):
        out = tmp_path / f"net{''.join(flags)}.graph"
        argv = [sys.executable, "-m", "qnroute.cli", "generate", *flags, "--n-e", "24",
                "--param", "edge_prob=0.1", "--seed", "0", "--out", str(out)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        runs[tuple(flags)] = (done.stdout.replace(str(out), "OUT"), done.stderr,
                              out.read_bytes())
    assert runs[()][1] == ""
    assert runs[("-v",)][1] == (
        "INFO qnroute.topology: erdos_renyi n_e=24 needed 5 attempts for connectivity\n"
    )
    assert runs[()][0] == runs[("-v",)][0] and runs[()][2] == runs[("-v",)][2]
