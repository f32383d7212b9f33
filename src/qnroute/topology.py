"""Backbone graph model, generators, optimal entangling cost, e-neighborhoods.

Vertices are ESP indices 0..n_e-1 (ascending index equals ascending quantum
address). Edges are undirected with one positive cost each. The optimal
entangling cost between two nodes is the least composed cost over repeater
sequences; for additive composition that is the classic shortest path, while
for min composition the least composed value over walks is attained by any
walk through the cheapest edge of the component, so the optimum equals that
edge's cost. Restricting min composition to simple paths would break the
triangle inequality of the derived cost (a pendant cheap edge is reachable in
a walk but not on every simple path), so walks are the intended semantics.
"""

from __future__ import annotations

import functools
import inspect
import logging
import math
import random
import sys
import typing
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EdgeListError,
    GenerationFailedError,
    GraphFileError,
    NeighborhoodSizeError,
    QnrouteError,
    UnreachableError,
    open_output,
    read_text,
)
from .metrics import Composition, EntanglingMetric, fold

logger = logging.getLogger(__name__)

CONNECTIVITY_RETRIES = 100
# The largest additive pair cost a scheme takes: the five-fold stretch bound
# composes five pair costs, and must stay finite to mean anything.
PAIR_COST_LIMIT = sys.float_info.max / 5


def _checked_cost(i: int, j: int, cost: float) -> float:
    if i == j:
        raise ValueError("self-loops are not allowed")
    if not 0 < cost < math.inf:
        raise ValueError(f"link costs must be positive and finite, got {cost}")
    return cost


@dataclass
class NetworkGraph:
    """Undirected cost-weighted graph over ESP nodes."""

    n_e: int
    adjacency: dict[int, dict[int, float]] = field(default_factory=dict)

    def __post_init__(self):
        for v in range(self.n_e):
            self.adjacency.setdefault(v, {})

    def add_edge(self, i: int, j: int, cost: float) -> None:
        _checked_cost(i, j, cost)
        self.adjacency[i][j] = cost
        self.adjacency[j][i] = cost

    def cost(self, i: int, j: int) -> float:
        return self.adjacency[i][j]

    def neighbors(self, i: int) -> list[int]:
        return sorted(self.adjacency[i])

    def edges(self) -> list[tuple[int, int, float]]:
        out = []
        for i in sorted(self.adjacency):
            for j, c in sorted(self.adjacency[i].items()):
                if i < j:
                    out.append((i, j, c))
        return out

    def edge_count(self) -> int:
        return len(self.edges())

    def is_connected(self) -> bool:
        return len(_components(self)) <= 1


def save_graph(graph: NetworkGraph, path: str) -> None:
    """Write the text format: header ``n_e <count>``, then ``i j cost`` lines."""
    with open_output(path) as fh:
        fh.write(f"n_e {graph.n_e}\n")
        for i, j, c in graph.edges():
            fh.write(f"{i} {j} {c!r}\n")


def load_graph(path: str) -> NetworkGraph:
    """Read the text format written by ``save_graph``: UTF-8, the header count
    and node ids in ASCII decimal digits. An unreadable file raises
    ``InputFileError``; a bad header or edge line, or an edge list that
    ``graph_from_edges`` refuses, raises ``GraphFileError`` naming the line."""
    header, *lines = read_text(path).split("\n")
    words = header.split()
    try:
        if len(words) != 2 or words[0] != "n_e":
            raise ValueError
        n_e = _decimal(words[1])
    except ValueError:
        raise GraphFileError(f"{path}:1: expected the header 'n_e <count>'") from None
    numbered = [(lineno, line) for lineno, line in enumerate(lines, start=2) if line.strip()]

    def edges():  # lazy, so that the line errors come in file order
        for position, (_, line) in enumerate(numbered):
            try:
                i, j, c = line.split()
                # float() would also read "1_0" and non-ASCII digits
                if not c.isascii() or "_" in c:
                    raise ValueError(f"could not convert string to float: {c!r}")
                edge = _decimal(i), _decimal(j), float(c)
            except ValueError as err:
                raise EdgeListError(str(err), position) from None
            yield edge

    try:
        return graph_from_edges(n_e, edges())
    except EdgeListError as err:
        line = "" if err.position is None else f":{numbered[err.position][0]}"
        raise GraphFileError(f"{path}{line}: {err}") from None


def _decimal(token: str) -> int:
    # int() would also read "0_1", "+1" and "١"
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def graph_from_edges(n_e: int, edges: Iterable) -> NetworkGraph:
    """The graph on nodes ``0..n_e-1`` with the ``(i, j, cost)`` triples
    ``edges``: the one check of an edge list, for graph files and scheme
    documents. In list order, each endpoint must be an ``int`` in ``[0, n_e)``,
    the cost an ``int`` or ``float``, the edge no self-loop, the cost positive
    and finite, and the edge new in either orientation; then there must be
    ``n_e - 1`` edges at least. The first broken rule raises ``EdgeListError``,
    before anything of size ``n_e`` is built."""
    adjacency: dict[int, dict[int, float]] = {}
    for position, (i, j, c) in enumerate(edges):
        try:
            for v in (i, j):
                # int() would read "0_11", " 011" or 3.7 as a node
                if type(v) is not int or not 0 <= v < n_e:
                    raise ValueError(f"edge endpoint {v!r} is not a node id in [0, {n_e})")
            # float() would read true or "1.0" as a cost
            if type(c) not in (int, float):
                raise ValueError(f"edge cost {c!r} is not a number")
            cost = _checked_cost(i, j, float(c))
            if j in adjacency.get(i, ()):
                raise ValueError(f"edge {i}-{j} is listed twice")
            # in add_edge's order, so that each node's links keep list order
            adjacency.setdefault(i, {})[j] = adjacency.setdefault(j, {})[i] = cost
        except ValueError as err:
            raise EdgeListError(str(err), position) from None
    count = sum(map(len, adjacency.values())) // 2
    if count < n_e - 1:
        raise EdgeListError(f"{count} edges cannot connect {n_e} nodes")
    graph = NetworkGraph(n_e=n_e)
    graph.adjacency.update(adjacency)  # the nodes keep their id order
    return graph


# ---------------------------------------------------------------------------
# Generators


def _erdos_renyi(n_e: int, rng: random.Random, edge_prob: float = 0.3) -> NetworkGraph:
    if not 0 < edge_prob <= 1:
        raise ValueError(f"edge_prob must be in (0, 1], got {edge_prob!r}")
    graph = NetworkGraph(n_e=n_e)
    for i in range(n_e):
        for j in range(i + 1, n_e):
            if rng.random() < edge_prob:
                graph.add_edge(i, j, 1.0)
    return graph


def _waxman(
    n_e: int, rng: random.Random, alpha: float = 0.4, beta: float = 0.8
) -> NetworkGraph:
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if not 0 < beta <= 1:
        raise ValueError(f"beta must be in (0, 1], got {beta!r}")
    positions = [(rng.random(), rng.random()) for _ in range(n_e)]
    scale = math.sqrt(2.0)
    graph = NetworkGraph(n_e=n_e)
    for i in range(n_e):
        for j in range(i + 1, n_e):
            d = math.dist(positions[i], positions[j])
            if rng.random() < beta * math.exp(-d / (alpha * scale)):
                graph.add_edge(i, j, 1.0)
    return graph


def _barabasi_albert(n_e: int, rng: random.Random, attach: int = 2) -> NetworkGraph:
    if attach < 1 or attach >= n_e:
        raise ValueError("attach must be in [1, n_e)")
    graph = NetworkGraph(n_e=n_e)
    core = attach + 1
    for i in range(core):
        for j in range(i + 1, core):
            graph.add_edge(i, j, 1.0)
    # endpoint list doubles as the degree-proportional sampling pool
    pool = [v for i, j, _ in graph.edges() for v in (i, j)]
    for new in range(core, n_e):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(rng.choice(pool))
        for t in sorted(targets):
            graph.add_edge(new, t, 1.0)
            pool.extend((new, t))
    return graph


def _grid_torus(
    n_e: int, rng: random.Random, rows: int | None = None, cols: int | None = None
) -> NetworkGraph:
    if rows is None and cols is None:
        side = round(math.sqrt(n_e))
        if side * side != n_e:
            raise ValueError(f"n_e={n_e} is not a square; pass rows/cols explicitly")
        rows = cols = side
    if rows * cols != n_e:
        raise ValueError(f"rows*cols = {rows * cols} != n_e = {n_e}")
    graph = NetworkGraph(n_e=n_e)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            if right != v:
                graph.add_edge(v, right, 1.0)
            if down != v:
                graph.add_edge(v, down, 1.0)
    return graph


_GENERATORS = {
    "erdos_renyi": _erdos_renyi,
    "waxman": _waxman,
    "barabasi_albert": _barabasi_albert,
    "grid_torus": _grid_torus,
}


def generate_graph(
    model: str,
    n_e: int,
    params: dict | None = None,
    metric: EntanglingMetric | None = None,
    seed: int = 0,
) -> NetworkGraph:
    """Generate a connected graph with per-link costs drawn from ``metric``.

    Structure is drawn first, then costs per edge in sorted edge order, so
    the edge set depends only on (model, params, seed). Generators retry on
    disconnection up to CONNECTIVITY_RETRIES, then augment the last attempt
    by chaining its components with random inter-component links. An
    ``n_e`` below 2, a parameter the model does not take, or a bad value
    raises ``GenerationFailedError``.
    """
    if n_e < 2:
        raise GenerationFailedError(f"n_e={n_e}: must be at least 2")
    try:
        factory = _GENERATORS[model]
    except KeyError:
        raise GenerationFailedError(
            f"unknown model {model!r}; available: {sorted(_GENERATORS)}"
        ) from None
    params = dict(params or {})
    _check_params(model, factory, params)
    rng = random.Random(seed)

    graph = None
    attempts = 0
    for attempts in range(1, CONNECTIVITY_RETRIES + 1):
        try:
            graph = factory(n_e, rng, **params)
        except (TypeError, ValueError) as err:
            raise GenerationFailedError(f"model {model!r}: {err}") from None
        if graph.is_connected():
            break
    else:
        logger.warning(
            "%s n_e=%d still disconnected after %d attempts; augmenting",
            model,
            n_e,
            CONNECTIVITY_RETRIES,
        )
        _augment_connectivity(graph, rng)
    if attempts > 1:
        logger.info("%s n_e=%d needed %d attempts for connectivity", model, n_e, attempts)

    if metric is not None:
        for i, j, _ in graph.edges():
            graph.add_edge(i, j, float(metric.sample_cost(rng)))
    return graph


def _check_params(model: str, factory, params: dict) -> None:
    """Each name must be a keyword of ``factory`` and each value of its
    annotated type; an int passes for a float."""
    hints = typing.get_type_hints(factory)
    accepted = list(inspect.signature(factory).parameters)[2:]
    for name, value in params.items():
        if name not in accepted:
            raise GenerationFailedError(
                f"model {model!r} has no parameter {name!r}; it takes {', '.join(accepted)}"
            )
        types = typing.get_args(hints[name]) or (hints[name],)
        allowed = (*types, int) if float in types else types
        if isinstance(value, bool) or not isinstance(value, allowed):
            wanted = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise GenerationFailedError(
                f"model {model!r}: parameter {name!r} must be {wanted}, got {value!r}"
            )


def _components(graph: NetworkGraph) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(graph.n_e):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in graph.adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def _augment_connectivity(graph: NetworkGraph, rng: random.Random) -> None:
    comps = _components(graph)
    rng.shuffle(comps)
    for a, b in zip(comps, comps[1:]):
        graph.add_edge(rng.choice(a), rng.choice(b), 1.0)


# ---------------------------------------------------------------------------
# Optimal entangling cost


def _walk_back(graph: NetworkGraph, row: Sequence[float], i: int, j: int) -> list[int]:
    """Cheapest route from ``i`` to ``j`` read off ``row``, the cost row of ``i``.

    Each step goes back from ``u`` to the neighbour ``v`` with
    ``row[v] + link(v, u) == row[u]``, the smallest ``(row[v], v)`` among
    several. Dijkstra settles nodes in ``(cost, index)`` order, so this is the
    parent it would record: the first settled node to reach ``u`` at its final
    cost. Each neighbour's cost is read once.
    """
    path = [j]
    u = j
    while u != i:
        du = row[u]
        best = None
        for v, c in graph.adjacency[u].items():
            dv = row[v]
            if dv + c == du and (best is None or (dv, v) < best):
                best = (dv, v)
        u = best[1]
        path.append(u)
    return path[::-1]


def _hop_path(graph: NetworkGraph, source: int, target: int) -> list[int]:
    if source == target:
        return [source]
    parent = {source: source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            if u not in parent:
                parent[u] = v
                if u == target:
                    path = [u]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(u)
    raise UnreachableError(f"no path from {source} to {target}")


def _min_edge(graph: NetworkGraph) -> tuple[int, int, float]:
    best = None
    for i, j, c in graph.edges():
        if best is None or (c, i, j) < best:
            best = (c, i, j)
    if best is None:
        raise UnreachableError("graph has no edges")
    c, i, j = best
    return i, j, c


def optimal_cost(
    graph: NetworkGraph,
    metric: EntanglingMetric,
    i: int,
    j: int,
    pair_costs: Sequence[Sequence[float]],
) -> tuple[float, list[int]]:
    """Minimum composed cost between ``i`` and ``j`` plus one witness route.

    Returns ``(cost, nodes)`` where nodes is the full repeater sequence
    including both endpoints, or an empty list when i == j (cost 0 by
    definiteness). The cost is read from ``pair_costs[i]``, the cost row of
    ``i`` in the trial's ``all_pairs_optimal`` array: one of the array's
    rows, or its memoryview in ``SchemeTables.cost_rows``, which reads
    Python floats. Additive composition, licensed by
    isotonicity plus the triangle inequality, walks back from ``j`` over the
    cost row of ``i``: the witness is the route Dijkstra's parent pointers
    give, ties going to the neighbour settled first. Min composition returns
    a walk through the cheapest component edge, whose composed value that
    edge's cost is.
    """
    if i == j:
        return 0.0, []
    row = pair_costs[i]
    cost = row[j]
    if metric.composition is Composition.ADDITIVE:
        return cost, _walk_back(graph, row, i, j)

    u, v, _ = _min_edge(graph)
    # Orient the cheapest edge to keep the witness walk short.
    forward = _hop_path(graph, i, u) + _hop_path(graph, v, j)
    backward = _hop_path(graph, i, v) + _hop_path(graph, u, j)
    walk = forward if len(forward) <= len(backward) else backward
    cleaned = [walk[0]]
    for node in walk[1:]:
        if node != cleaned[-1]:
            cleaned.append(node)
    assert fold(metric, [graph.cost(a, b) for a, b in zip(cleaned, cleaned[1:])]) == cost
    return cost, cleaned


def all_pairs_optimal(graph: NetworkGraph, metric: EntanglingMetric) -> np.ndarray:
    """Optimal cost of every ordered node pair: ``costs[i, j]``, in one
    C-contiguous, read-only n x n float64 array, a row per source.

    This is the one cost pass of a scheme build: e-neighborhoods, table
    entries, the evaluation's fallback rows, ``resolve``'s fallback
    witnesses, chain replays and axiom checks all read the array it
    returns, and none of them copies it. Min composition gives every
    distinct pair the cheapest edge's cost. Additive composition fills
    ``to[u, s]``, the cost from ``s`` to ``u``, adding link costs left to
    right from the source, as Dijkstra does. Which pass fills it depends on
    the link costs alone:

    * When every link costs the same ``c``, breadth-first levels are swept
      from all sources at once, and a node first reached at level ``h``
      costs ``S_h``, where ``S_0 = 0`` and ``S_{h+1} = S_h + c``: the sum
      any ``h``-link path forms. ``S`` is nondecreasing, so the least sum
      over all walks is ``S`` at the fewest links, which is Dijkstra's
      value bit for bit (``h * c`` is not: ten links of 0.1 sum to
      0.9999999999999999).
    * Otherwise ``to[u]`` is relaxed against every neighbour of ``u`` until
      a round lowers nothing. Float addition is monotone and every cost
      positive, so the fixed point is the least such sum over all walks,
      again Dijkstra's value bit for bit.

    An additive pair cost that overflows a float, or exceeds
    ``PAIR_COST_LIMIT``, raises ``QnrouteError``.
    """
    n = graph.n_e
    if metric.composition is Composition.ADDITIVE:
        to = np.full((n, n), np.inf)
        np.fill_diagonal(to, 0.0)
        link_costs = {c for nbrs in graph.adjacency.values() for c in nbrs.values()}
        if len(link_costs) == 1:
            _fill_levels(graph, float(link_costs.pop()), to)
        else:
            with np.errstate(over="ignore"):  # an overflowing sum is refused below
                _relax(graph, to)
        worst = to.max().item()
        if worst == math.inf:
            if not graph.is_connected():
                raise _disconnected(graph)
            s, u = np.argwhere(np.isinf(to.T))[0]
            raise QnrouteError(f"the path cost from node {s} to node {u} overflows a float")
        if worst > PAIR_COST_LIMIT:
            s, u = np.unravel_index(np.argmax(to.T), to.shape)
            raise QnrouteError(f"the path cost from node {s} to node {u}, {worst!r}, exceeds a "
                               "fifth of the float range: five times it overflows")
        costs = to.T.copy()
    else:
        _, _, c = _min_edge(graph)
        if not graph.is_connected():
            raise _disconnected(graph)
        costs = np.full((n, n), c)
        np.fill_diagonal(costs, 0.0)
    costs.flags.writeable = False
    return costs


def _disconnected(graph: NetworkGraph) -> UnreachableError:
    """The error for a graph of several components. ``_components`` starts
    from node 0 and takes the rest in id order, so the second component
    opens with the smallest node that node 0 cannot reach."""
    comps = _components(graph)
    return UnreachableError(
        f"graph disconnected: {len(comps)} components, "
        f"node {comps[1][0]} unreachable from node 0"
    )


def _fill_levels(graph: NetworkGraph, c: float, to: np.ndarray) -> None:
    """Write ``to[u, s]`` for every ``u`` that ``s`` reaches when every link
    costs ``c``. ``frontier[u, s]`` marks the nodes ``s`` first reaches at
    the current level."""
    n = graph.n_e
    links = [
        (u, np.fromiter(nbrs, dtype=np.intp, count=len(nbrs)))
        for u, nbrs in graph.adjacency.items()
    ]
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    nxt = np.empty_like(reached)
    level_cost = 0.0
    while not reached.all():
        for u, nbrs in links:
            frontier.take(nbrs, axis=0).any(axis=0, out=nxt[u])
        nxt &= ~reached
        if not nxt.any():
            break
        level_cost += c
        to[nxt] = level_cost
        reached |= nxt
        frontier, nxt = nxt, frontier


def _relax(graph: NetworkGraph, to: np.ndarray) -> None:
    """Lower ``to`` to its fixed point under every link."""
    links = [
        (u, list(nbrs), np.array(list(nbrs.values()), dtype=float)[:, None])
        for u, nbrs in graph.adjacency.items()
        if nbrs
    ]
    changed = True
    while changed:
        changed = False
        for u, nbrs, costs in links:
            cand = (to[nbrs] + costs).min(axis=0)
            row = to[u]
            if (cand < row).any():
                np.minimum(row, cand, out=row)
                changed = True


@dataclass(frozen=True)
class ENeighborhood:
    """The k cheapest-to-entangle peers of one node, in ``(cost, id)``
    order; their costs are read from the pair-cost array."""

    owner: int
    members: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.members)

    @functools.cached_property
    def member_ids(self) -> frozenset[int]:
        return frozenset(self.members)


def all_neighborhoods(
    graph: NetworkGraph, k: int, pair_costs: np.ndarray
) -> list[ENeighborhood]:
    """The k nodes of smallest optimal cost from every node, read from
    ``pair_costs``, the trial's ``all_pairs_optimal`` array.

    Ties break by ascending address integer, which for ESP nodes coincides
    with ascending node index, so membership is deterministic and stable.
    """
    n = graph.n_e
    if k >= n:
        raise NeighborhoodSizeError(f"k={k} must be smaller than n_e={n}")
    out = []
    for v, row in enumerate(pair_costs):
        # The owner costs 0 and every other node more, so it ranks first;
        # the sort is stable, so ties keep ascending id order.
        ranked = np.argsort(row, kind="stable")[: k + 1].tolist()
        members = tuple(u for u in ranked if u != v)[:k]
        out.append(ENeighborhood(owner=v, members=members))
    return out
