import pytest

from qnroute.errors import MetricError, QnrouteError, UnknownMetricError
from qnroute.metrics import (
    Composition,
    EntanglingMetric,
    capacity_metric,
    check_axioms,
    compose,
    fold,
    hop_count_metric,
    metric_by_name,
    uniform_weight_metric,
)
from qnroute.topology import all_pairs_optimal, generate_graph


def test_compose_additive_and_min():
    assert compose(hop_count_metric(), 2.0, 3.0) == 5.0
    assert compose(capacity_metric(), 2.0, 3.0) == 2.0


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 7.25, 1e6])
def test_additive_identity_element(x):
    assert compose(hop_count_metric(), 0.0, x) == x


def test_fold_empty_sequence_is_zero_for_both_compositions():
    assert fold(hop_count_metric(), []) == 0.0
    assert fold(capacity_metric(), []) == 0.0


def test_fold_min_sequence():
    assert fold(capacity_metric(), [4.0, 2.0, 9.0]) == 2.0


def test_negative_costs_rejected():
    with pytest.raises(ValueError):
        compose(hop_count_metric(), -1.0, 2.0)


def test_registry_lookup():
    assert metric_by_name("hop").composition is Composition.ADDITIVE
    assert metric_by_name("capacity").composition is Composition.MIN
    with pytest.raises(KeyError):
        metric_by_name("bogus")


def test_registry_rejects_unknown_names_and_bad_parameters():
    with pytest.raises(UnknownMetricError, match="unknown metric 'bogus'") as err:
        metric_by_name("bogus")
    assert isinstance(err.value, KeyError) and isinstance(err.value, QnrouteError)
    with pytest.raises(MetricError, match="unexpected keyword argument 'foo'"):
        metric_by_name("hop", foo=1)
    for params in ({"low": "abc"}, {"low": 0}, {"low": 5, "high": 2}, {"high": float("inf")}):
        with pytest.raises(MetricError, match="0 < low <= high"):
            metric_by_name("uniform", **params)
    assert metric_by_name("capacity", low=2, high=2.0).composition is Composition.MIN


def test_hop_count_satisfies_all_axioms():
    metric = hop_count_metric()
    graph = generate_graph("erdos_renyi", 10, {"edge_prob": 0.4}, metric, seed=3)
    report = check_axioms(metric, all_pairs_optimal(graph, metric), seed=0)
    assert report.passed
    assert report.checked_triples > 0


def test_uniform_weights_satisfy_all_axioms():
    metric = uniform_weight_metric()
    graph = generate_graph("erdos_renyi", 9, {"edge_prob": 0.5}, metric, seed=11)
    report = check_axioms(metric, all_pairs_optimal(graph, metric), seed=1)
    assert report.passed


def test_min_composition_triangle_holds_exhaustively_on_six_nodes():
    metric = capacity_metric()
    graph = generate_graph("erdos_renyi", 6, {"edge_prob": 0.6}, metric, seed=5)
    report = check_axioms(metric, all_pairs_optimal(graph, metric), seed=2)
    triangle_violations = [v for v in report.violations if v[0] == "triangle"]
    assert not triangle_violations
    assert report.passed


def test_asymmetric_cost_fixture_reports_symmetry_witness():
    # a fabricated five-node cost table, cheaper up the node order than down
    lopsided = [[1.0 if i < j else 2.0 for j in range(5)] for i in range(5)]
    metric = EntanglingMetric("asym", Composition.ADDITIVE)
    report = check_axioms(metric, lopsided, seed=0)
    assert not report.passed
    assert any(name == "symmetry" for name, _ in report.violations)


def test_violations_empty_iff_passed():
    metric = hop_count_metric()
    graph = generate_graph("grid_torus", 9, {"rows": 3, "cols": 3}, metric, seed=0)
    report = check_axioms(metric, all_pairs_optimal(graph, metric))
    assert report.passed == (not report.violations)
