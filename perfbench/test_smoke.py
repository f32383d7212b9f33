"""Smoke test of the benchmark itself, at toy size (n_e = 32).

Run from the root of a source checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from qnroute import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

TOY = {
    name: dataclasses.replace(w, n_e=32, queries=40, requests=80)
    for name, w in workloads.WORKLOADS.items()
}


@pytest.fixture
def toy_workloads(monkeypatch, tmp_path):
    # the pinned digests belong to the full-size configs
    (tmp_path / "no_pins.json").write_text("{}")
    monkeypatch.setattr(run, "PINNED", str(tmp_path / "no_pins.json"))
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    for name, w in TOY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, w)


def _main(argv, capsys) -> tuple[int, dict]:
    code = run.main(argv)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TOY))
def test_every_metric_is_emitted_with_its_unit(name, trace, toy_workloads, capsys):
    code, result = _main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)], capsys
    )
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(result["metrics"]) == set(wanted)
    for metric, unit in wanted.items():
        assert result["metrics"][metric]["unit"] == unit
        assert isinstance(result["metrics"][metric]["value"], (int, float))


def test_traced_counts_separate_the_allpairs_workloads(tmp_path):
    calls = {}
    for name in ("allpairs-partial", "allpairs-full"):
        tracer = Tracer()
        out = workloads.run(TOY[name], 3, 0.0, tracer, str(tmp_path / name), {})
        assert not out.failures
        calls[name] = out.metrics["topology.optimal_cost_calls"]
    assert calls["allpairs-partial"] == 0
    assert calls["allpairs-full"] > 0


def test_pinned_digest_gates_the_report(tmp_path, toy_workloads, monkeypatch, capsys):
    w = TOY["allpairs-partial"]
    config = w.config(5, str(tmp_path / "reference"))
    harness.run_experiment(config)
    with open(os.path.join(config.output_dir, config.name + "_pairs.csv"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()

    good = workloads.run(w, 5, 0.0, None, str(tmp_path / "good"), {w.name: {"5": digest}})
    assert not good.failures

    corrupt = ("1" if digest[0] == "0" else "0") + digest[1:]
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({w.name: {"5": corrupt}}))
    monkeypatch.setattr(run, "PINNED", str(pinned))
    code, result = _main(["--workload", w.name, "--seed", "5", "--seconds", "0"], capsys)
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
