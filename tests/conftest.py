import heapq
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from qnroute.clustering import (
    Scheme,
    TrackedSets,
    assign_all_tracking,
    build_anchor_set_greedy,
    build_tracked_sets,
)
from qnroute.errors import DepletedLinkError
from qnroute.harness import ExperimentConfig, build_scheme
from qnroute.metrics import (
    Composition,
    capacity_metric,
    compose,
    fold,
    hop_count_metric,
    uniform_weight_metric,
)
from qnroute.routing import (
    Case,
    DeliveryRecord,
    EntangledPath,
    Origin,
    RoutingTable,
    SchemeTables,
    build_tables,
    replenish,
    resolve,
)
from qnroute.topology import (
    ENeighborhood,
    NetworkGraph,
    all_neighborhoods,
    all_pairs_optimal,
    generate_graph,
)


def e_neighbor_entries(table: RoutingTable) -> list:
    """The table's e-neighbor entries, in table order."""
    return [e for e in table.entries if e.origin is Origin.E_NEIGHBOR]


def reverse_neighborhood(neighborhoods: list[ENeighborhood], v: int) -> set[int]:
    """Owners whose e-neighborhood contains ``v`` (may be empty)."""
    return {nb.owner for nb in neighborhoods if v in nb.member_ids}


def greedy_size_bound(n_e: int, k: int) -> float:
    """Cardinality bound for the greedy cover: n_e * (1 + ln n_e) / k."""
    return n_e * (1 + math.log(n_e)) / k


def enumerated_coverage_failures(
    neighborhoods: list[ENeighborhood], tracked: TrackedSets
) -> set[tuple[int, int]]:
    """Reference for the full-anchor coverage count: every ordered pair
    (i, d), d != i, such that no e-neighbor of i tracks a block holding d."""
    nodes = [nb.owner for nb in neighborhoods]
    failures = set()
    for nb in neighborhoods:
        targets = set()
        for j in nb.member_ids:
            targets.update(tracked.tracked_by(j))
        failures |= {(nb.owner, d) for d in nodes if d != nb.owner and d not in targets}
    return failures


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


def reference_resolve(tables: SchemeTables, i: int, d: int) -> EntangledPath:
    """Scan oracle for ``routing.resolve`` without its fallback.

    Case II scans every e-neighbor entry of the source and reads the target
    off the entry's own mirror or the peer's tracked block; case III scans
    the e-neighbor entries of both ends for anchors, and composes each
    candidate's node list with ``fold``, ties going to the smaller list.
    """
    metric, costs = tables.metric, tables.cost_rows

    def usable(a, b):
        # an endpoint entry exists, and none holds fewer than one ebit
        ends = [e for e in (tables.tables[a].find(b), tables.tables[b].find(a))
                if e is not None]
        return bool(ends) and min(e.ebits for e in ends) >= 1

    def finish(repeaters, cost, case, reason=None):
        return EntangledPath(i, d, repeaters, cost, costs[i][d], case, reason)

    if d in tables.tables[i]._by_peer and usable(i, d):
        return finish((), costs[i][d], Case.CASE_I)

    best = None
    for entry in e_neighbor_entries(tables.tables[i]):
        j = entry.e_hop
        tracks = tables.tracked is not None and d in tables.tracked.tracked_by(j)
        if (d in entry.reach or tracks) and usable(i, j) and (
            d in tables.tables[j]._by_peer and usable(j, d)
        ):
            key = (compose(metric, costs[i][j], costs[j][d]), j)
            best = key if best is None or key < best else best
    if best is not None:
        return finish((best[1],), best[0], Case.CASE_II)
    if tables.scheme is Scheme.FULL_ANCHOR:
        return finish((), math.inf, Case.FAILURE, "no neighbor reaches the target")

    anchors = tables.anchors.members

    def hubs_near(v):
        return [e.e_hop for e in e_neighbor_entries(tables.tables[v])
                if e.e_hop in anchors and usable(v, e.e_hop)]

    entry_hubs = [i] if i in anchors else hubs_near(i)
    if not entry_hubs:
        return finish((), math.inf, Case.FAILURE, "no anchor inside source e-neighborhood")
    exit_hubs = hubs_near(d) + ([d] if d in anchors else [])
    if not exit_hubs:
        return finish((), math.inf, Case.FAILURE, "no anchor inside target e-neighborhood")
    reason = "source anchor holds no usable entry for the target"
    for l in entry_hubs:
        best = None
        for k in exit_hubs:
            nodes = [i]
            if l != i:
                nodes.append(l)
            if k != nodes[-1] and k != d:
                nodes.append(k)
            nodes.append(d)
            if len(nodes) == 2:
                continue
            reason = "anchor mesh links unusable"
            if l != k and not usable(l, k):
                continue
            key = (fold(metric, [costs[a][b] for a, b in zip(nodes, nodes[1:])]), tuple(nodes))
            best = key if best is None or key < best else best
        if best is not None:
            return finish(best[1][1:-1], best[0], Case.CASE_III)
    return finish((), math.inf, Case.FAILURE, reason)


def reference_swap_and_replenish(
    tables: SchemeTables, path: EntangledPath, packet, replenish_rate: int = 0
) -> DeliveryRecord:
    """Two-walk oracle for ``routing.swap_and_replenish``: one walk finds the
    first segment with a depleted entry at either end, and a second walk
    looks each segment's entries up again as it debits them."""
    if packet.payload_ebits < 1:
        raise ValueError("packet payload must carry at least one ebit")
    if replenish_rate < 0:
        raise ValueError("replenish rate must be non-negative")
    if path.case is Case.FAILURE:
        return DeliveryRecord(
            path=path, consumed=[], success=False, detail=path.reason or "unresolved"
        )

    def first_depleted_link(nodes):
        for a, b in zip(nodes, nodes[1:]):
            for x, y in ((a, b), (b, a)):
                entry = tables.tables[x].find(y)
                if entry is not None and entry.ebits < 1:
                    return (a, b)
        return None

    def consume_link(a, b):
        debited = False
        for x, y in ((a, b), (b, a)):
            entry = tables.tables[x].find(y)
            if entry is None:
                continue
            if entry.ebits < 1:
                raise DepletedLinkError(f"link ({a},{b}) has no ebits at {x}")
            entry.ebits -= 1
            tables.debited[(x, y)] = entry
            debited = True
        return debited

    record = DeliveryRecord(path=path, consumed=[], success=False)
    nodes = path.nodes
    depleted = first_depleted_link(nodes)
    if depleted is not None:
        retry = resolve(tables, path.source, path.dest, allow_fallback=False)
        record.retried = True
        if not retry.resolved:
            a, b = depleted
            record.detail = f"link {a}-{b} depleted and retry failed: {retry.reason}"
            return record
        record.path = retry
        nodes = retry.nodes
    for a, b in zip(nodes, nodes[1:]):
        if consume_link(a, b):
            record.consumed.append((a, b))
        else:
            record.on_demand.append((a, b))
    record.success = True
    if replenish_rate > 0:
        replenish(tables, replenish_rate)
    return record


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


def deplete(tabs, share: float, seed: int) -> None:
    """Set a seeded ``share`` of all entries to 0 ebits."""
    rng = random.Random(seed)
    for table in tabs.tables:
        for entry in table.entries:
            if rng.random() < share:
                entry.ebits = 0


@st.composite
def ladder_tables(draw):
    """Built schemes over every metric composition, both schemes, greedy and
    random anchors, f of 1 or 2, with or without a cap that evicts, and a
    random share of entries at 0 ebits."""
    metric = draw(st.sampled_from([hop_count_metric(), uniform_weight_metric(), capacity_metric()]))
    graph = draw(small_graphs(metric))
    scheme, anchors = draw(st.sampled_from([("partial", "greedy"), ("partial", "random"),
                                            ("full", "greedy")]))
    k = draw(st.integers(2, 4))
    config = ExperimentConfig(
        n_e=graph.n_e, metric=metric.name, scheme=scheme, anchor_method=anchors, k_override=k,
        f=draw(st.integers(1, 2)), capacity_cap=draw(st.sampled_from([None, k])),
    )
    tabs = build_scheme(config, graph, draw(st.integers(0, 2**16)))
    deplete(tabs, draw(st.sampled_from([0.0, 0.15, 0.5])), draw(st.integers(0, 2**16)))
    return tabs


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


def build_documented_scheme(
    graph: NetworkGraph, metric, scheme: str, k: int, f: int = 1,
    capacity_cap: int | None = None, seed: int = 0,
) -> SchemeTables:
    """The scheme ``harness.build_scheme`` builds, the only kind a scheme
    document describes: greedy anchors for partial, seeded tracking for full."""
    config = ExperimentConfig(
        n_e=graph.n_e, metric=metric.name, scheme=scheme, k_override=k, f=f,
        capacity_cap=capacity_cap,
    )
    return build_scheme(config, graph, seed)
