import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnroute import topology
from qnroute.errors import (
    EdgeListError,
    GraphFileError,
    NeighborhoodSizeError,
    QnrouteError,
    SchemeDocumentError,
    UnreachableError,
)
from qnroute.harness import ExperimentConfig, build_scheme
from qnroute.metrics import (
    capacity_metric,
    fold,
    hop_count_metric,
    uniform_weight_metric,
)
from qnroute.serialize import scheme_from_dict, scheme_to_dict
from qnroute.topology import (
    ENeighborhood,
    NetworkGraph,
    all_neighborhoods,
    all_pairs_optimal,
    generate_graph,
    graph_from_edges,
    load_graph,
    optimal_cost,
    save_graph,
)

from conftest import (
    brute_force_optimal,
    path_graph,
    reference_dijkstra,
    reverse_neighborhood,
    small_graphs,
)


HOP = hop_count_metric()
MIN = capacity_metric()


def test_erdos_renyi_is_deterministic_given_seed():
    a = generate_graph("erdos_renyi", 16, {"edge_prob": 0.3}, HOP, seed=42)
    b = generate_graph("erdos_renyi", 16, {"edge_prob": 0.3}, HOP, seed=42)
    assert a.edges() == b.edges()
    c = generate_graph("erdos_renyi", 16, {"edge_prob": 0.3}, HOP, seed=43)
    assert a.edges() != c.edges()


def test_grid_torus_every_node_degree_four():
    g = generate_graph("grid_torus", 16, {}, HOP, seed=0)
    for v in range(16):
        assert len(g.neighbors(v)) == 4


@pytest.mark.parametrize("model,params", [
    ("erdos_renyi", {"edge_prob": 0.2}),
    ("waxman", {}),
    ("barabasi_albert", {"attach": 2}),
    ("grid_torus", {}),
])
def test_generators_produce_connected_undirected_graphs(model, params):
    g = generate_graph(model, 16, params, uniform_weight_metric(), seed=7)
    assert g.is_connected()
    for i, j, c in g.edges():
        assert g.cost(j, i) == c
        assert c >= 0


def test_sparse_er_connectivity_enforced_over_many_seeds():
    # edge_prob far below the connectivity threshold forces retries/augmentation
    for seed in range(30):
        g = generate_graph("erdos_renyi", 24, {"edge_prob": 0.06}, HOP, seed=seed)
        assert g.is_connected()


def test_optimal_cost_same_node_is_free():
    g = path_graph([1.0, 2.0])
    assert optimal_cost(g, HOP, 1, 1, all_pairs_optimal(g, HOP)) == (0.0, [])
    assert optimal_cost(g, MIN, 1, 1, all_pairs_optimal(g, MIN)) == (0.0, [])


def test_triangle_additive_goes_through_middle(triangle_graph):
    cost, path = optimal_cost(triangle_graph, HOP, 0, 2, all_pairs_optimal(triangle_graph, HOP))
    assert cost == 2.0
    assert path == [0, 1, 2]
    assert cost == brute_force_optimal(triangle_graph, HOP, 0, 2)


def test_triangle_min_composition_prefers_two_hop(triangle_graph):
    cost, path = optimal_cost(triangle_graph, MIN, 0, 2, all_pairs_optimal(triangle_graph, MIN))
    assert cost == 1.0
    assert cost == brute_force_optimal(triangle_graph, MIN, 0, 2)
    # witness walk composes to the returned cost
    segs = [triangle_graph.cost(a, b) for a, b in zip(path, path[1:])]
    assert fold(MIN, segs) == cost


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("metric", [HOP, MIN, uniform_weight_metric()])
def test_optimal_cost_matches_brute_force_on_small_graphs(metric, seed):
    g = generate_graph("erdos_renyi", 7, {"edge_prob": 0.45}, metric, seed=seed)
    costs = all_pairs_optimal(g, metric)
    for i, j in itertools.permutations(range(7), 2):
        cost, path = optimal_cost(g, metric, i, j, costs)
        assert cost == pytest.approx(brute_force_optimal(g, metric, i, j), abs=1e-12)
        assert path[0] == i and path[-1] == j
        segs = [g.cost(a, b) for a, b in zip(path, path[1:])]
        assert fold(metric, segs) == pytest.approx(cost, abs=1e-12)


@pytest.mark.parametrize("metric", [HOP, MIN, uniform_weight_metric()])
def test_derived_costs_satisfy_triangle_inequality(metric):
    from qnroute.metrics import compose

    g = generate_graph("erdos_renyi", 8, {"edge_prob": 0.4}, metric, seed=9)
    costs = all_pairs_optimal(g, metric)
    for i, j, k in itertools.permutations(range(8), 3):
        assert costs[i][j] <= compose(metric, costs[i][k], costs[k][j]) + 1e-9


# Hop costs give many equally cheap routes per pair; the uniform Waxman case
# checks float costs.
TIE_HEAVY = [
    ("erdos_renyi", 40, {"edge_prob": 0.15}, HOP),
    ("grid_torus", 36, {}, HOP),
    ("waxman", 40, {}, uniform_weight_metric()),
]


@pytest.mark.parametrize("model,n,params,metric", TIE_HEAVY)
def test_witness_is_the_dijkstra_parent_route(model, n, params, metric):
    g = generate_graph(model, n, params, metric, seed=3)
    costs = all_pairs_optimal(g, metric)
    for i in range(n):
        dist, parent = reference_dijkstra(g, i)
        for j in range(n):
            if i == j:
                continue
            route = [j]
            while route[-1] != i:
                route.append(parent[route[-1]])
            expected = (dist[j], route[::-1])
            assert optimal_cost(g, metric, i, j, costs) == expected


@pytest.mark.parametrize("model,n,params,metric", TIE_HEAVY)
def test_neighborhoods_from_pair_costs_match_per_node_ranking(model, n, params, metric):
    g = generate_graph(model, n, params, metric, seed=3)
    k = 6
    costs = all_pairs_optimal(g, metric)
    shared = all_neighborhoods(g, k, costs)
    for v in range(n):
        dist, _ = reference_dijkstra(g, v)
        ranked = sorted((c, u) for u, c in dist.items() if u != v)[:k]
        assert shared[v] == ENeighborhood(owner=v, members=tuple(u for _, u in ranked))
        assert [(costs[v][u], u) for u in shared[v].members] == ranked


def test_all_pairs_matches_pointwise_queries():
    g = generate_graph("waxman", 12, {}, uniform_weight_metric(), seed=4)
    metric = uniform_weight_metric()
    table = all_pairs_optimal(g, metric)
    for i, j in [(0, 5), (3, 11), (7, 2)]:
        assert table[i][j] == reference_dijkstra(g, i)[0][j]


# ---------------------------------------------------------------------------
# The cost matrix: the level pass (equal link costs) and the relaxation
# (any other costs) both equal Dijkstra's rows bit for bit


@st.composite
def integral_cost_graphs(draw, min_n: int = 6):
    """A small graph whose link costs are integers drawn from 1..9."""
    graph = draw(small_graphs(HOP, min_n=min_n))
    for i, j, _ in graph.edges():
        graph.add_edge(i, j, draw(st.integers(1, 9)))
    return graph


def one_half_more(draw, graph):
    i, j, c = draw(st.sampled_from(graph.edges()))
    graph.add_edge(i, j, c + 0.5)


def near_2_pow_50(draw, graph):
    # on 9 or more nodes a simple path may cost 2**53 or more
    for i, j, c in graph.edges():
        graph.add_edge(i, j, 2**50 + c)


def uniform_floats(draw, graph):
    for i, j, _ in graph.edges():
        graph.add_edge(i, j, draw(st.floats(1e-3, 1e3)))


def wide_mix(draw, graph):
    for i, j, _ in graph.edges():
        graph.add_edge(i, j, 10.0 ** draw(st.floats(-9, 9)))


def equal_costs(draw, graph):
    # one cost for every link: the breadth-first level pass
    c = draw(st.sampled_from([0.1, 2**50 + 1]) | st.integers(1, 9) | st.floats(1e-9, 1e9))
    for i, j, _ in graph.edges():
        graph.add_edge(i, j, c)


COST_FAMILIES = [None, one_half_more, near_2_pow_50, uniform_floats, wide_mix, equal_costs]


def reference_rows(graph):
    return [
        [dist[j] for j in range(graph.n_e)]
        for dist, _ in (reference_dijkstra(graph, i) for i in range(graph.n_e))
    ]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    graph=integral_cost_graphs(min_n=3),
    family=st.sampled_from(COST_FAMILIES),
    data=st.data(),
)
def test_cost_matrix_equals_dijkstra_rows(graph, family, data):
    if family is not None:
        family(data.draw, graph)
    costs = all_pairs_optimal(graph, HOP)
    assert costs.dtype == np.float64
    assert costs.tolist() == reference_rows(graph)


def test_long_path_of_mixed_costs_equals_dijkstra_rows():
    g = path_graph([10.0 ** ((7 * e) % 19 - 9) for e in range(59)])
    assert all_pairs_optimal(g, HOP).tolist() == reference_rows(g)


def test_equal_cost_path_sums_its_links_in_order():
    # ten links of 0.1 sum to 0.9999999999999999 left to right, not 10 * 0.1
    g = path_graph([0.1] * 10)
    costs = all_pairs_optimal(g, HOP)
    assert costs[0, 10] == costs[10, 0] == 0.9999999999999999
    assert costs.tolist() == reference_rows(g)


@pytest.mark.parametrize("n", [130, 200])
def test_hop_er_graph_equals_dijkstra_rows(n):
    # larger than the drawn graphs, with rows of no power-of-two length, and
    # at least four levels deep
    g = generate_graph("erdos_renyi", n, {"edge_prob": 0.04}, HOP, seed=5)
    costs = all_pairs_optimal(g, HOP)
    assert costs.max() >= 4.0
    assert costs.tolist() == reference_rows(g)


@pytest.mark.parametrize("metric", [HOP, uniform_weight_metric(), MIN])
def test_disconnected_graph_has_no_cost_matrix(metric):
    split = [(0, 1), (1, 2), (3, 4)]
    for n, edges, costs, message in [
        (5, split, (1.0, 2.0, 1.5), "2 components, node 3 unreachable from node 0"),
        # equal costs: the level pass
        (5, split, (1.5, 1.5, 1.5), "2 components, node 3 unreachable from node 0"),
        # node 5 has no link
        (6, split, (1.5, 1.5, 1.5), "3 components, node 3 unreachable from node 0"),
        # the smallest node outside node 0's component, not the first gap
        (4, [(0, 2), (1, 3)], (1.0, 2.0), "2 components, node 1 unreachable from node 0"),
    ]:
        g = NetworkGraph(n_e=n)
        for (i, j), c in zip(edges, costs):
            g.add_edge(i, j, c)
        with pytest.raises(UnreachableError) as err:
            all_pairs_optimal(g, metric)
        assert str(err.value) == "graph disconnected: " + message


@pytest.mark.parametrize("costs", [(1e308, 1e308), (1.7e308, 2e307)])
def test_connected_graph_whose_path_cost_overflows_is_not_called_disconnected(costs):
    g = path_graph(list(costs))
    with pytest.raises(QnrouteError) as err:
        all_pairs_optimal(g, uniform_weight_metric())
    assert not isinstance(err.value, UnreachableError)
    assert str(err.value) == "the path cost from node 0 to node 2 overflows a float"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(graph=integral_cost_graphs(), k=st.integers(1, 5))
def test_integral_fill_gives_dijkstra_witnesses_and_rankings(graph, k):
    n = graph.n_e
    costs = all_pairs_optimal(graph, HOP)
    neighborhoods = all_neighborhoods(graph, k, costs)
    for i in range(n):
        dist, parent = reference_dijkstra(graph, i)
        for j in range(n):
            if i == j:
                continue
            route = [j]
            while route[-1] != i:
                route.append(parent[route[-1]])
            assert optimal_cost(graph, HOP, i, j, costs) == (dist[j], route[::-1])
        ranked = sorted((dist[u], u) for u in range(n) if u != i)[:k]
        assert neighborhoods[i] == ENeighborhood(i, tuple(u for _, u in ranked))
        assert [(costs[i][u], u) for u in neighborhoods[i].members] == ranked


def test_e_neighborhood_full_when_k_is_n_minus_one():
    g = generate_graph("grid_torus", 9, {"rows": 3, "cols": 3}, HOP, seed=0)
    nb = all_neighborhoods(g, 8, all_pairs_optimal(g, HOP))[4]
    assert nb.member_ids == frozenset(set(range(9)) - {4})


def test_e_neighborhood_path_graph_two_closest():
    g = path_graph([1.0, 1.0, 1.0])  # a-b-c-d
    nb = all_neighborhoods(g, 2, all_pairs_optimal(g, HOP))[0]
    assert nb.members == (1, 2)
    # brute force: sort all optimal costs
    ranked = sorted((brute_force_optimal(g, HOP, 0, u), u) for u in range(1, 4))
    assert nb.member_ids == {u for _, u in ranked[:2]}


def test_e_neighborhood_tie_breaks_by_lower_address():
    g = NetworkGraph(n_e=3)
    g.add_edge(0, 1, 1.0)
    g.add_edge(0, 2, 1.0)
    g.add_edge(1, 2, 1.0)
    nb = all_neighborhoods(g, 1, all_pairs_optimal(g, HOP))[0]
    assert nb.member_ids == {1}


def test_e_neighborhood_rejects_oversized_k():
    g = path_graph([1.0])
    with pytest.raises(NeighborhoodSizeError):
        all_neighborhoods(g, 2, all_pairs_optimal(g, HOP))


def test_neighborhood_membership_is_stable_across_calls():
    g = generate_graph("erdos_renyi", 12, {"edge_prob": 0.4}, uniform_weight_metric(), seed=2)
    metric = uniform_weight_metric()
    first = all_neighborhoods(g, 5, all_pairs_optimal(g, metric))[3]
    second = all_neighborhoods(g, 5, all_pairs_optimal(g, metric))[3]
    assert first == second
    assert first.k == 5


def test_reverse_neighborhood_on_torus_equals_forward():
    g = generate_graph("grid_torus", 16, {}, HOP, seed=0)
    nbs = all_neighborhoods(g, 4, all_pairs_optimal(g, HOP))
    for v in range(16):
        assert reverse_neighborhood(nbs, v) == set(nbs[v].member_ids)


def test_reverse_neighborhood_star_hub_collects_all_leaves():
    g = NetworkGraph(n_e=5)
    for leaf in range(1, 5):
        g.add_edge(0, leaf, 1.0)
    nbs = all_neighborhoods(g, 1, all_pairs_optimal(g, HOP))
    assert reverse_neighborhood(nbs, 0) == {1, 2, 3, 4}


def test_reverse_neighborhood_can_be_empty():
    # 0-1-2-3 with an expensive pendant edge: nobody's single closest is 3
    g = path_graph([1.0, 1.0, 10.0])
    nbs = all_neighborhoods(g, 1, all_pairs_optimal(g, uniform_weight_metric()))
    assert reverse_neighborhood(nbs, 3) == set()


@pytest.mark.parametrize("cost", [0.0, -1.0])
def test_add_edge_rejects_nonpositive_cost(cost):
    g = NetworkGraph(n_e=2)
    with pytest.raises(ValueError, match="positive"):
        g.add_edge(0, 1, cost)
    assert g.adjacency == {0: {}, 1: {}}


def test_graph_file_with_zero_cost_link_is_rejected(tmp_path):
    path = tmp_path / "zero.graph"
    path.write_text("n_e 3\n0 2 1.0\n2 1 0.0\n")
    with pytest.raises(ValueError, match="positive"):
        load_graph(str(path))


def test_graph_file_with_too_few_edges_is_refused_before_the_graph_is_built(
    tmp_path, monkeypatch
):
    class SmallGraph(NetworkGraph):
        def __post_init__(self):
            assert self.n_e <= 10**6, f"built a graph of {self.n_e} nodes"
            super().__post_init__()

    monkeypatch.setattr(topology, "NetworkGraph", SmallGraph)
    path = tmp_path / "huge.graph"
    path.write_text("n_e 1000000000\n0 1 1.0\n")
    with pytest.raises(GraphFileError, match="1 edges cannot connect 1000000000 nodes"):
        load_graph(str(path))
    # a line error still names its line
    path.write_text("n_e 1000000000\n0 1 1.0\n0 1 2.0\n")
    with pytest.raises(GraphFileError, match=":3: edge 0-1 is listed twice"):
        load_graph(str(path))


def test_graph_file_round_trip(tmp_path):
    g = generate_graph("erdos_renyi", 10, {"edge_prob": 0.5}, uniform_weight_metric(), seed=8)
    path = tmp_path / "net.graph"
    save_graph(g, str(path))
    again = load_graph(str(path))
    assert again.n_e == g.n_e
    assert again.edges() == g.edges()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(graph=st.sampled_from([HOP, uniform_weight_metric()]).flatmap(small_graphs))
def test_graph_file_round_trip_keeps_every_edge(tmp_path_factory, graph):
    path = str(tmp_path_factory.mktemp("round_trip") / "net.graph")
    save_graph(graph, path)
    again = load_graph(path)
    assert (again.n_e, again.edges()) == (graph.n_e, graph.edges())


def test_graph_file_round_trip_keeps_a_large_finite_cost(tmp_path):
    g = path_graph([1.0, 1e300, 0.1 + 0.2])
    path = str(tmp_path / "net.graph")
    save_graph(g, path)
    assert load_graph(path).edges() == g.edges() == [(0, 1, 1.0), (1, 2, 1e300), (2, 3, 0.1 + 0.2)]


@pytest.mark.parametrize("edges, line, message", [
    ([(0, 1, 1.0), (1, 4, 1.0), (2, 3, 1.0)], ":3", "edge endpoint 4 is not a node id in [0, 4)"),
    ([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 2.0)], ":4", "edge 2-1 is listed twice"),
    ([(0, 1, 1.0), (2, 3, 1.0)], "", "2 edges cannot connect 4 nodes"),
    # a line error comes before the count, and in list order
    ([(0, 1, 1.0), (1, 1, 1.0), (9, 0, 1.0)], ":3", "self-loops are not allowed"),
])
def test_an_edge_list_is_refused_alike_in_both_formats(tmp_path, edges, line, message):
    """The graph file and the scheme document check their edge lists in one
    function, so one bad list gives one message, at each format's location."""
    path = str(tmp_path / "bad.graph")
    with open(path, "w") as fh:
        fh.write("n_e 4\n" + "".join(f"{i} {j} {c!r}\n" for i, j, c in edges))
    with pytest.raises(GraphFileError) as err:
        load_graph(path)
    assert str(err.value) == f"{path}{line}: {message}"

    config = ExperimentConfig(n_e=4, k_override=2)
    doc = scheme_to_dict(build_scheme(config, path_graph([1.0] * 3), HOP, 0), "hop")
    doc["graph"]["edges"] = [list(edge) for edge in edges]
    with pytest.raises(SchemeDocumentError) as err:
        scheme_from_dict(doc)
    assert str(err.value) == f"scheme document: graph: {message}"


def test_graph_from_edges_names_the_bad_edge_position():
    with pytest.raises(EdgeListError) as err:
        graph_from_edges(3, [(0, 1, 1.0), (1, 2, 0.0)])
    assert str(err.value) == "link costs must be positive and finite, got 0.0"
    assert err.value.position == 1
    with pytest.raises(EdgeListError) as err:
        graph_from_edges(3, [(0, 1, 1.0)])
    assert err.value.position is None
    assert graph_from_edges(3, [(1, 2, 2), (0, 1, 1.5)]).edges() == [(0, 1, 1.5), (1, 2, 2.0)]
