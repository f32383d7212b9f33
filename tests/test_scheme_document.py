"""A scheme document holds the scheme's build recipe, and reading it back
builds the same tables, anchors and tracked blocks as the build that wrote it."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qnroute.harness import ExperimentConfig, build_scheme_for_trial
from qnroute.serialize import scheme_from_dict, scheme_to_dict


@st.composite
def configs(draw) -> ExperimentConfig:
    model = draw(st.sampled_from(["erdos_renyi", "barabasi_albert", "grid_torus"]))
    if model == "grid_torus":
        rows, cols = draw(st.integers(3, 4)), draw(st.integers(3, 5))
        n_e, graph_params = rows * cols, {"rows": rows, "cols": cols}
    else:
        n_e = draw(st.integers(8, 20))
        graph_params = {"edge_prob": 0.3} if model == "erdos_renyi" else {"attach": 2}
    k = draw(st.integers(2, 4))
    return ExperimentConfig(
        n_e=n_e,
        graph_model=model,
        graph_params=graph_params,
        metric=draw(st.sampled_from(["hop", "uniform", "capacity"])),
        scheme=draw(st.sampled_from(["partial", "full"])),
        anchor_method=draw(st.sampled_from(["greedy", "random"])),
        f=draw(st.integers(1, 2)),
        k_override=k,
        # e-neighbor entries are never evicted, so a cap of k evicts the rest
        capacity_cap=draw(st.sampled_from([None, k])),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config=configs(), seed=st.integers(0, 2**16))
def test_document_reads_back_to_the_built_tables(config, seed):
    built, _ = build_scheme_for_trial(config, seed)
    if config.capacity_cap is not None:
        assume(any(t.dropped for t in built.tables))
    doc = json.loads(json.dumps(scheme_to_dict(built, config.metric, config.metric_params)))

    again, metric_name, _ = scheme_from_dict(doc)
    assert metric_name == config.metric
    for before, after in zip(built.tables, again.tables, strict=True):
        assert after.entries == before.entries
        assert after.dropped == before.dropped
        assert after == before
    assert again.neighborhoods == built.neighborhoods
    assert np.array_equal(again.pair_costs, built.pair_costs)
    assert (again.anchors, again.tracked, again.seed) == (built.anchors, built.tracked, seed)
    assert scheme_to_dict(again, config.metric, config.metric_params) == doc

    entry = next(e for t in again.tables for e in t.entries)
    entry.ebits -= 1
    with pytest.raises(ValueError, match="1 entries hold fewer ebits than the budget"):
        scheme_to_dict(again, config.metric, config.metric_params)
