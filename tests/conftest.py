import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qnroute.clustering import (
    assign_all_tracking,
    build_anchor_set_greedy,
    build_tracked_sets,
)
from qnroute.metrics import Composition, fold
from qnroute.routing import SchemeTables, build_tables
from qnroute.topology import (
    NetworkGraph,
    all_neighborhoods,
    all_pairs_optimal,
    generate_graph,
)


def brute_force_optimal(graph: NetworkGraph, metric, i: int, j: int) -> float:
    """Independent oracle for the optimal composed cost.

    Additive composition enumerates every simple path (sufficient: dropping a
    cycle never increases a nonnegative sum). Min composition minimizes over
    walks, and a walk can reach any edge of the connected component, so the
    optimum is the cheapest component edge; reachability is asserted.
    """
    if i == j:
        return 0.0
    if metric.composition is Composition.ADDITIVE:
        best = None
        stack = [(i, [i])]
        while stack:
            node, path = stack.pop()
            if node == j:
                cost = fold(metric, [graph.cost(a, b) for a, b in zip(path, path[1:])])
                best = cost if best is None else min(best, cost)
                continue
            for nxt in graph.neighbors(node):
                if nxt not in path:
                    stack.append((nxt, path + [nxt]))
        if best is None:
            raise AssertionError(f"no path {i}->{j}")
        return best
    assert graph.is_connected()
    return min(c for _, _, c in graph.edges())


def reference_dijkstra(
    graph: NetworkGraph, source: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Parent-tracking Dijkstra: the reference for optimal-cost witnesses.

    Neighbours are relaxed in index order and a parent changes only on a
    strict improvement, so each node's parent is the first node settled, in
    ``(cost, index)`` order, that reaches it at its final cost.
    """
    dist = {source: 0.0}
    parent: dict[int, int] = {}
    done: set[int] = set()
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u in graph.neighbors(v):
            nd = d + graph.cost(v, u)
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd, u))
    return dist, parent


def reference_branch_distribution(instance, target: int, iterations: int) -> np.ndarray:
    """Branch-enumeration oracle for the exact label marginal.

    Hits are read off the partitions directly, not through ``hit_alphas``.
    Per hitting entry j the state splits into an inverting branch (weight
    alpha_j) and a non-inverting one; all 2^h branches are run through the
    oracle sign flip and the inversion about the mean, one column each.
    """
    hits = [
        (label, 1.0 / len(part))
        for label, parts in enumerate(instance.partitions)
        for part in parts
        if target in part
    ]
    h = len(hits)
    n_t = len(instance.partitions)
    amps = np.zeros((n_t, 2**h), dtype=np.float64)
    base = 1.0 / math.sqrt(n_t)
    for b in range(2**h):
        weight = base
        for j, (_, alpha) in enumerate(hits):
            weight *= math.sqrt(alpha) if (b >> j) & 1 else math.sqrt(1.0 - alpha)
        amps[:, b] = weight

    for _ in range(iterations):
        for j, (label, _) in enumerate(hits):
            for b in range(2**h):
                if (b >> j) & 1:
                    amps[label, b] *= -1.0
        mean = amps.mean(axis=0)
        amps = 2.0 * mean[np.newaxis, :] - amps

    return np.sum(amps**2, axis=1)


def reference_reduced_distribution(
    hits: list[tuple[int, float]], n_t: int, iterations: int
) -> np.ndarray:
    """Row-per-label recurrence oracle for the closed-form label marginal.

    Takes ``hit_alphas`` like ``qsearch._reduced_distribution`` and mixes
    the same multi-target Grover branches, but builds every leave-one-out
    Poisson-binomial pmf of the marked-set size outright: row j skips hit j,
    row h keeps all hits, O(n_T + h^3) in all.
    """
    h = len(hits)
    alphas = np.array([alpha for _, alpha in hits])
    sizes = np.arange(h + 1)
    angle = (2 * iterations + 1) * np.arcsin(np.sqrt(sizes / n_t))
    marked = np.zeros(h + 1)
    marked[1:] = np.sin(angle[1:]) ** 2 / sizes[1:]
    unmarked = np.zeros(h + 1)
    rest = n_t - sizes
    np.divide(np.cos(angle) ** 2, rest, out=unmarked, where=rest > 0)

    add = np.tile(alphas, (h + 1, 1))
    np.fill_diagonal(add, 0.0)
    keep = 1.0 - add
    pmf = np.zeros((h + 1, h + 1))
    pmf[:, 0] = 1.0
    for j in range(h):
        pmf[:, 1:] = pmf[:, 1:] * keep[:, j, None] + pmf[:, :-1] * add[:, j, None]
        pmf[:, 0] *= keep[:, j]

    probs = np.full(n_t, pmf[h] @ unmarked)
    others = pmf[:h, :h]
    probs[[label for label, _ in hits]] = (
        alphas * (others @ marked[1:]) + (1.0 - alphas) * (others @ unmarked[:h])
    )
    return probs


def reference_replenish(
    ebits: dict[tuple[int, int], int], budget: int, rate: int
) -> tuple[dict[tuple[int, int], int], int]:
    """Full-walk oracle for ``routing.replenish``: every entry below budget
    gains ``rate`` ebits, capped at budget. Returns the new counts and the
    number of ebits added."""
    after = {key: min(budget, count + rate) if count < budget else count
             for key, count in ebits.items()}
    return after, sum(after.values()) - sum(ebits.values())


def path_graph(costs: list[float]) -> NetworkGraph:
    g = NetworkGraph(n_e=len(costs) + 1)
    for idx, c in enumerate(costs):
        g.add_edge(idx, idx + 1, c)
    return g


def complete_graph(n: int, cost: float = 1.0) -> NetworkGraph:
    g = NetworkGraph(n_e=n)
    for a, b in itertools.combinations(range(n), 2):
        g.add_edge(a, b, cost)
    return g


@st.composite
def small_graphs(draw, metric, min_n: int = 6) -> NetworkGraph:
    """A connected ER or BA graph of ``min_n`` to 16 nodes, or a torus of 9 to
    16, whose link costs ``metric`` draws."""
    model = draw(st.sampled_from(["erdos_renyi", "barabasi_albert", "grid_torus"]))
    if model == "grid_torus":
        rows, cols = draw(st.integers(3, 4)), draw(st.integers(3, 4))
        n, params = rows * cols, {"rows": rows, "cols": cols}
    else:
        n = draw(st.integers(min_n, 16))
        params = {"edge_prob": 0.3} if model == "erdos_renyi" else {"attach": 2}
    return generate_graph(model, n, params, metric, seed=draw(st.integers(0, 2**16)))


@pytest.fixture
def triangle_graph() -> NetworkGraph:
    g = NetworkGraph(n_e=3)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(0, 2, 3.0)
    return g


def build_partial_scheme(
    graph: NetworkGraph, metric, k: int, f: int = 1, ebit_budget: int = 4,
    capacity_cap: int | None = None,
) -> SchemeTables:
    """Full partial-anchor pipeline with greedy (always-covering) anchors."""
    costs = all_pairs_optimal(graph, metric)
    nbs = all_neighborhoods(graph, k, costs)
    anchors = build_anchor_set_greedy(nbs)
    return build_tables(
        graph, metric, nbs, costs, anchors=anchors, f=f, ebit_budget=ebit_budget,
        capacity_cap=capacity_cap,
    )


def build_full_scheme(
    graph: NetworkGraph, metric, k: int, tracking_seed: int = 0, f: int = 1,
    ebit_budget: int = 4, capacity_cap: int | None = None,
) -> SchemeTables:
    costs = all_pairs_optimal(graph, metric)
    nbs = all_neighborhoods(graph, k, costs)
    tracked = assign_all_tracking(
        build_tracked_sets(graph.n_e), graph.n_e, seed=tracking_seed
    )
    return build_tables(
        graph, metric, nbs, costs, tracked=tracked, f=f, ebit_budget=ebit_budget,
        capacity_cap=capacity_cap,
    )
