"""Routing tables over the entangled overlay and constant-stretch resolution.

Each node's table holds one entry per artificial link it participates in:
links toward its e-neighborhood, links created toward it by others (reverse
neighbors), and the scheme's long-range links (anchor mesh or tracked block).
Every entry carries the peer's address, an ebit budget, and a classical
mirror of the peer's partitioned e-neighborhood, which the search module
realizes as superposed address registers.

Resolution walks the case ladder: direct link, one repeater through a
neighbor, and (partial-anchor only) two repeaters through the hub mesh. The
second hub is required to sit inside the target's e-neighborhood; that is the
precondition under which the inequality chain certifies the constant stretch
bound, and its absence is exactly a coverage failure, reported as a declared
fallback rather than folded into the stretch statistics.
"""

from __future__ import annotations

import enum
import itertools
import math
import statistics
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .addressing import AddressPlan, QuantumAddress
from .clustering import AnchorSet, Scheme, TrackedSets
from .errors import ChainViolationError, DepletedLinkError, DuplicateEntryError
from .metrics import EntanglingMetric, fold
from .qsearch import partition_neighborhood
from .topology import ENeighborhood, NetworkGraph, optimal_cost

# Relative slack of a chain step: each side composes a handful of pair costs,
# so its rounding error is a few ulps of its size, whatever the cost scale.
CHAIN_TOL = 1e-12


class Origin(enum.Enum):
    E_NEIGHBOR = "e-neighbor"
    REVERSE_NEIGHBOR = "reverse-neighbor"
    ANCHOR_LINK = "anchor-link"
    TRACKED_LINK = "tracked-link"


class Case(enum.Enum):
    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"
    FALLBACK = "fallback"
    FAILURE = "failure"


@dataclass
class TableEntry:
    """One artificial link plus the classical mirror of the peer's reach.

    ``partitions`` are disjoint and union to the peer's e-neighborhood; they
    mirror the superposed address registers the peer announces, so every
    entry for one peer holds the same mirror (``build_tables`` shares one
    tuple per peer). ``reach`` is their union, derived once at construction.
    An entry with zero ebits is unusable for swapping until replenished.
    The link's cost is the pair's entry in ``SchemeTables.pair_costs``.
    """

    e_hop: int
    ebits: int
    partitions: tuple[frozenset[int], ...]
    origin: Origin
    reach: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = self.partitions
        self.reach = parts[0] if len(parts) == 1 else frozenset().union(*parts)


@dataclass
class RoutingTable:
    """One node's entries in table order, indexed by peer.

    ``entries`` keeps construction order; search labels are positions in it.
    The constructor derives the peer index and ``partitions`` (each entry's
    partitions in table order) once, and rejects a second entry for one
    peer; nothing adds or removes an entry afterwards. ``build_tables`` puts
    the e-neighbor entries first, in ``(cost, id)`` order.
    ``dropped`` holds the peers the capacity cap evicted.
    """

    owner: int
    entries: list[TableEntry] = field(default_factory=list)
    dropped: list[int] = field(default_factory=list)
    partitions: tuple[tuple[frozenset[int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _by_peer: dict[int, TableEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_peer = {}
        for entry in self.entries:
            if entry.e_hop in self._by_peer:
                raise DuplicateEntryError(
                    f"node {self.owner} already has an entry for peer {entry.e_hop}"
                )
            self._by_peer[entry.e_hop] = entry
        self.partitions = tuple(e.partitions for e in self.entries)

    def find(self, peer: int) -> TableEntry | None:
        return self._by_peer.get(peer)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class SchemeTables:
    """All tables of one scheme instance plus the data they were built from.

    A built scheme is final: its tables, their entries, peer indexes and
    mirrors, the anchors, the tracked assignment, the repeater indexes
    ``holders`` and ``anchor_hubs``, the seed and the address plan are
    complete when ``build_tables`` returns. Afterwards only the ebit
    counters change: each entry's ``ebits`` and ``debited``, which holds, by
    (owner, peer), every entry that a delivery left below the ebit budget;
    ``swap_and_replenish`` adds to it and ``replenish`` drops an entry once it is
    back at budget.
    ``holders[d]`` holds the nodes whose mirror reaches d (the owners whose
    e-neighborhood holds d) and, full-anchor, the nodes whose tracked block
    holds d: case II's candidate repeaters toward d. ``anchor_hubs[v]``
    holds v's anchor e-neighbors in table order, and is empty full-anchor:
    case III's candidate hubs beside v.
    ``seed`` is the seed ``harness.build_scheme`` built with, and None for
    tables built without one; ``plan`` addresses the graph's nodes.
    ``pair_costs`` is the trial's read-only ``all_pairs_optimal`` array, the
    only copy of any pair cost; ``cost_rows[i]`` is a memoryview of its row
    ``i``, which shares the array's buffer and reads Python floats, for the
    per-request readers.
    """

    scheme: Scheme
    tables: list[RoutingTable]
    neighborhoods: list[ENeighborhood]
    graph: NetworkGraph
    metric: EntanglingMetric
    pair_costs: np.ndarray = field(compare=False)
    anchors: AnchorSet | None = None
    tracked: TrackedSets | None = None
    f: int = 1
    ebit_budget: int = 4
    capacity_cap: int = 0
    seed: int | None = None
    holders: tuple[frozenset[int], ...] = field(kw_only=True, repr=False, compare=False)
    anchor_hubs: tuple[tuple[int, ...], ...] = field(kw_only=True, repr=False, compare=False)
    debited: dict[tuple[int, int], TableEntry] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )
    plan: AddressPlan = field(init=False, repr=False, compare=False)
    cost_rows: tuple[memoryview, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.plan = AddressPlan(self.graph.n_e)
        self.cost_rows = tuple(map(memoryview, self.pair_costs))

    @property
    def n_e(self) -> int:
        return self.graph.n_e

    def table(self, v: int) -> RoutingTable:
        return self.tables[v]


class EntangledPath(NamedTuple):
    """Resolved repeater sequence with its composed cost; an immutable
    value, one built per request."""

    source: int
    dest: int
    repeaters: tuple[int, ...]
    total_cost: float
    optimal: float
    case: Case
    reason: str | None = None

    @property
    def nodes(self) -> tuple[int, ...]:
        return (self.source, *self.repeaters, self.dest)

    @property
    def stretch(self) -> float:
        if self.case is Case.FAILURE:
            return math.inf
        if self.optimal == 0:
            return 1.0
        return self.total_cost / self.optimal

    @property
    def resolved(self) -> bool:
        return self.case in (Case.CASE_I, Case.CASE_II, Case.CASE_III)


@dataclass(frozen=True)
class QuantumPacket:
    """Header with source/destination addresses and superposed descriptors;
    payload modeled as a count of carried ebits."""

    source: QuantumAddress
    dest: QuantumAddress
    descriptors: tuple[frozenset[int], ...] = ()
    payload_ebits: int = 1


def make_packet(
    plan: AddressPlan,
    source: int,
    dest: int,
    descriptors: tuple[frozenset[int], ...] = (),
    payload_ebits: int = 1,
) -> QuantumPacket:
    if payload_ebits < 1:
        raise ValueError("entanglement-distribution packets need a nonempty payload")
    return QuantumPacket(
        source=plan.esp_addresses[source],
        dest=plan.esp_addresses[dest],
        descriptors=descriptors,
        payload_ebits=payload_ebits,
    )


@dataclass(slots=True)
class DeliveryRecord:
    """``consumed``: segments debited at an overlay entry; ``on_demand``:
    segments with no entry at either endpoint, generated on demand."""

    path: EntangledPath
    consumed: list[tuple[int, int]]
    success: bool
    retried: bool = False
    detail: str = ""
    on_demand: list[tuple[int, int]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Table construction


def build_tables(
    graph: NetworkGraph,
    metric: EntanglingMetric,
    neighborhoods: list[ENeighborhood],
    pair_costs: np.ndarray,
    anchors: AnchorSet | None = None,
    tracked: TrackedSets | None = None,
    f: int = 1,
    ebit_budget: int = 4,
    capacity_cap: int | None = None,
    seed: int | None = None,
) -> SchemeTables:
    """Populate every node's routing table for one scheme.

    Partial-anchor requires ``anchors``; full-anchor requires ``tracked``.
    ``neighborhoods[v]`` is v's e-neighborhood. Each table lists its
    e-neighbor entries in their neighborhood's ``(cost, id)`` order, then
    reverse-neighbor entries, then long-range entries, each peer once. Only
    a table over the capacity cap (default 4k) evicts, and only
    reverse-neighbor entries, costliest first; their peers are recorded in
    the table's dropped list.
    ``pair_costs`` is the trial's ``all_pairs_optimal`` array; the returned
    tables keep it for resolution and fallback, and record ``seed``, the
    seed the anchors or tracking were drawn with. The repeater indexes
    ``holders`` and ``anchor_hubs`` are read off the reverse neighborhoods,
    the tracked blocks and each e-neighbor list built here.
    """
    if (anchors is None) == (tracked is None):
        raise ValueError("pass exactly one of anchors / tracked")
    scheme = Scheme.PARTIAL_ANCHOR if anchors is not None else Scheme.FULL_ANCHOR

    k = neighborhoods[0].k if neighborhoods else 0
    cap = capacity_cap if capacity_cap is not None else max(1, 4 * k)
    if [nb.owner for nb in neighborhoods] != list(range(graph.n_e)):
        raise ValueError("neighborhoods must hold one per node, in owner order")
    anchor_ids = anchors.members if anchors is not None else frozenset()
    reverse_of: dict[int, list[int]] = {v: [] for v in range(graph.n_e)}
    for nb in neighborhoods:
        for peer in nb.members:
            reverse_of[peer].append(nb.owner)
    holders = list(map(frozenset, reverse_of.values()))
    if tracked is not None:
        choosers: list[list[int]] = [[] for _ in tracked.blocks]
        for v, block in enumerate(tracked.assignment):
            choosers[block].append(v)
        for block, nodes in zip(tracked.blocks, choosers):
            for d in block:
                holders[d] = holders[d].union(nodes)
    if anchors is not None:
        anchor_hubs = tuple(
            tuple([u for u in nb.members if u in anchor_ids]) for nb in neighborhoods
        )
    else:
        anchor_hubs = ((),) * graph.n_e
    mirrors: dict[int, tuple[frozenset[int], ...]] = {}

    def make_entries(peers: Sequence[int], origin: Origin) -> list[TableEntry]:
        for peer in peers:
            if peer not in mirrors:
                mirrors[peer] = partition_neighborhood(neighborhoods[peer].member_ids, f)
        return [TableEntry(peer, ebit_budget, mirrors[peer], origin) for peer in peers]

    tables: list[RoutingTable] = []
    for v in range(graph.n_e):
        row = memoryview(pair_costs[v])
        held = {v, *neighborhoods[v].member_ids}
        forward = neighborhoods[v].members
        reverse = sorted((u for u in reverse_of[v] if u not in held), key=lambda u: (row[u], u))
        held.update(reverse)

        if scheme is Scheme.PARTIAL_ANCHOR and v in anchor_ids:
            long_range, origin = sorted(anchor_ids), Origin.ANCHOR_LINK
        elif scheme is Scheme.FULL_ANCHOR:
            long_range, origin = tracked.tracked_by(v), Origin.TRACKED_LINK
        else:
            long_range, origin = (), None
        far = [u for u in long_range if u not in held]

        # fairness policy: over the cap, evict reverse-neighbor entries,
        # costliest first; ``reverse`` is in (cost, id) order
        keep = max(0, cap - len(forward) - len(far))
        evicted = reverse[keep:][::-1]
        del reverse[keep:]
        tables.append(RoutingTable(
            owner=v,
            entries=make_entries(forward, Origin.E_NEIGHBOR)
            + make_entries(reverse, Origin.REVERSE_NEIGHBOR)
            + make_entries(far, origin),
            dropped=evicted,
        ))

    return SchemeTables(
        scheme=scheme,
        tables=tables,
        neighborhoods=neighborhoods,
        graph=graph,
        metric=metric,
        pair_costs=pair_costs,
        anchors=anchors,
        tracked=tracked,
        f=f,
        ebit_budget=ebit_budget,
        capacity_cap=cap,
        seed=seed,
        holders=tuple(holders),
        anchor_hubs=anchor_hubs,
    )


# ---------------------------------------------------------------------------
# Resolution

# the reasons ``resolve`` gives a fallback: the full-anchor one, then
# ``_case_three``'s in the order it tests them; both ladders name a reason by
# its index here
_FALLBACK_REASONS = (
    "no neighbor reaches the target",
    "no anchor inside source e-neighborhood",
    "no anchor inside target e-neighborhood",
    "source anchor holds no usable entry for the target",
    "anchor mesh links unusable",
)
# the first ``_BatchLadder.fill`` code of a fallback; the code of reason r is
# ``_FALLBACK + r``
_FALLBACK = 4
# the number of sources ``evaluate_all_pairs`` resolves at once
BLOCK = 32


def _fallback_or_failure(
    tables: SchemeTables, i: int, d: int, reason: str, allow_fallback: bool
) -> EntangledPath:
    optimal = tables.cost_rows[i][d]
    if allow_fallback:
        cost, nodes = optimal_cost(tables.graph, tables.metric, i, d, tables.cost_rows)
        return EntangledPath(
            source=i,
            dest=d,
            repeaters=tuple(nodes[1:-1]),
            total_cost=cost,
            optimal=optimal,
            case=Case.FALLBACK,
            reason=reason,
        )
    return EntangledPath(
        source=i,
        dest=d,
        repeaters=(),
        total_cost=math.inf,
        optimal=optimal,
        case=Case.FAILURE,
        reason=reason,
    )


def _case_three(
    tables: SchemeTables,
    i: int,
    d: int,
    at_i: dict[int, TableEntry],
    at_d: dict[int, TableEntry],
    op: Callable[[float, float], float],
) -> EntangledPath | int:
    """Two repeaters over the anchor mesh (partial-anchor scheme).

    The entry hub must lie in the source's e-neighborhood and the exit hub in
    the target's; those memberships are what make the stretch chain sound.
    A missing entry hub or exit hub is a coverage failure; where no path is
    found, the reason's index into ``_FALLBACK_REASONS`` is returned.
    ``at_i`` and ``at_d`` are the source's and the target's peer indexes and
    ``op`` composes two costs.

    Entry hubs are tried in table order, which is ``(cost, id)`` order. For
    each, the candidates are the paths i-l-k-d over every exit hub k, or
    i-l-d where k is l or d; with the source as its own hub, i-k-d. The
    cheapest candidate wins, ties going to the smaller node after the entry
    hub. Hub lists hold only usable source-to-entry-hub and
    exit-hub-to-target links, and no ebit changes here, so each candidate
    tests just its hub-to-hub link l-k (the whole middle segment when a hub
    is an endpoint).
    """
    rows, costs, anchors = tables.tables, tables.cost_rows, tables.anchors.members

    if i in anchors:
        entry_hubs = [i]
    else:
        entry_hubs = []
        for l in tables.anchor_hubs[i]:
            a, b = at_i.get(l), rows[l]._by_peer.get(i)
            if ((a or b) is not None and (a is None or a.ebits >= 1)
                    and (b is None or b.ebits >= 1)):
                entry_hubs.append(l)
        if not entry_hubs:
            return 1

    exit_hubs = []
    for k in tables.anchor_hubs[d]:
        a, b = at_d.get(k), rows[k]._by_peer.get(d)
        if ((a or b) is not None and (a is None or a.ebits >= 1)
                and (b is None or b.ebits >= 1)):
            exit_hubs.append(k)
    if d in anchors:
        exit_hubs.append(d)
    if not exit_hubs:
        return 2

    reason = 3  # no candidate tests a mesh link
    for l in entry_hubs:
        at_l, near = rows[l]._by_peer, costs[i][l]
        # (total, node after l, repeaters) of the cheapest candidate
        best: tuple[float, int, tuple[int, ...]] | None = None
        for k in exit_hubs:
            if l == i and (k == i or k == d):
                # a direct artificial link is case I territory; reaching
                # here means the source-side entry was unusable, and when
                # every candidate is one, no mesh link is tested
                continue
            reason = 4
            if k != l:
                a, b = at_l.get(k), rows[k]._by_peer.get(l)
                if not ((a or b) is not None and (a is None or a.ebits >= 1)
                        and (b is None or b.ebits >= 1)):
                    continue
            if l == i:
                key = (op(costs[i][k], costs[k][d]), k, (k,))
            elif k == l or k == d:
                # the path i-l-d; with k = d its l-d link is the mesh link
                key = (op(near, costs[l][d]), d, (l,))
            else:
                key = (op(op(near, costs[l][k]), costs[k][d]), k, (l, k))
            if best is None or key < best:
                best = key
        if best is not None:
            total, _, repeaters = best
            return EntangledPath(i, d, repeaters, total, costs[i][d], Case.CASE_III)
    return reason


def resolve(
    tables: SchemeTables, i: int, d: int, allow_fallback: bool = True
) -> EntangledPath:
    """Resolve a request through the case ladder: a direct link (case I),
    one repeater (case II), then, in the partial-anchor scheme only, two
    repeaters over the anchor mesh (case III). Cases I-III take only usable
    links, so no path they return crosses a depleted entry. A pair no case
    resolves takes the fallback, or fails when ``allow_fallback`` is off,
    with its reason.

    A link a-b is usable when it has an endpoint entry, ``a``'s for b or
    ``b``'s for a, and no endpoint entry holds fewer than one ebit. The
    query reads the source's and the target's peer indexes once and each
    candidate link's two entries once.

    Case II's repeater j is an e-neighbor of the source in ``holders[d]``:
    the target shows up in j's mirrored partitions or, in the full-anchor
    scheme, in its announced tracked block. Only e-neighbors of the source
    keep the bound: the first segment's cost is then at most the optimal
    source-target cost. The least ``(total, j)`` wins."""
    if i == d:
        raise ValueError("source and destination must differ")
    rows, costs = tables.tables, tables.cost_rows
    at_i, at_d = rows[i]._by_peer, rows[d]._by_peer
    a, b = at_i.get(d), at_d.get(i)
    if a is not None and a.ebits >= 1 and (b is None or b.ebits >= 1):
        return EntangledPath(i, d, (), costs[i][d], costs[i][d], Case.CASE_I)

    op, row = tables.metric.composition.op, costs[i]
    best: tuple[float, int] | None = None
    for j in tables.neighborhoods[i].member_ids & tables.holders[d]:
        at_j = rows[j]._by_peer
        a, b = at_i.get(j), at_j.get(i)
        if not ((a or b) is not None and (a is None or a.ebits >= 1)
                and (b is None or b.ebits >= 1)):
            continue
        a, b = at_j.get(d), at_d.get(j)
        if not (a is not None and a.ebits >= 1 and (b is None or b.ebits >= 1)):
            continue
        key = (op(row[j], costs[j][d]), j)
        if best is None or key < best:
            best = key
    if best is not None:
        return EntangledPath(i, d, (best[1],), best[0], row[d], Case.CASE_II)

    if tables.scheme is Scheme.FULL_ANCHOR:
        outcome = 0
    else:
        outcome = _case_three(tables, i, d, at_i, at_d, op)
        if isinstance(outcome, EntangledPath):
            return outcome
    return _fallback_or_failure(tables, i, d, _FALLBACK_REASONS[outcome], allow_fallback)


# ---------------------------------------------------------------------------
# All-pairs evaluation


@dataclass(eq=False)
class PairEvaluation(Sequence):
    """Aggregate of resolving every ordered pair once: ``code[i, d]`` and
    ``cost[i, d]`` are the pair's case code and cost, which the batch pass
    fills ``BLOCK`` source rows at a time (``_BatchLadder.fill``). It is the
    sequence of its rows ``(source, dest, case, cost, optimal, stretch)`` in
    row-major pair order, each built when read, of Python numbers: the CSV
    writes their repr. ``fallback_reasons`` counts every pair that took the
    fallback by the ``EntangledPath.reason`` ``resolve`` gives it."""

    code: np.ndarray
    cost: np.ndarray
    pair_costs: np.ndarray
    case_counts: Counter
    max_stretch: float
    min_stretch: float
    mean_stretch: float
    max_stretch_with_fallback: float
    fallback_fraction: float
    failure_fraction: float
    fallback_reasons: Counter

    @property
    def resolved_pairs(self) -> int:
        return sum(
            self.case_counts[c.value] for c in (Case.CASE_I, Case.CASE_II, Case.CASE_III)
        )

    def __len__(self) -> int:
        return len(self.code) * (len(self.code) - 1)

    def __getitem__(self, k: int) -> tuple:
        i, d = divmod(range(len(self))[k], len(self.code) - 1)
        d += d >= i
        cost, optimal = self.cost.item(i, d), self.pair_costs.item(i, d)
        return i, d, CASE_BY_CODE[self.code.item(i, d)], cost, optimal, cost / optimal


def _flatten(lists: Sequence[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The (row, item) pairs of ``lists``, row by row, each row in its own order."""
    sizes = np.fromiter(map(len, lists), np.intp, len(lists))
    items = np.fromiter(itertools.chain.from_iterable(lists), np.intp, int(sizes.sum()))
    return np.repeat(np.arange(len(lists)), sizes), items


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (row, col) pairs as compressed sparse rows over n rows: the
    offsets, and every row's columns in ascending order."""
    ptr = np.zeros(n + 1, np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr, cols[np.lexsort((cols, rows))]


def _expand(ptr: np.ndarray, cols: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every column of the compressed sparse rows ``keys``: the position in
    ``keys`` of its row, and the column."""
    start = ptr[keys]
    count = ptr[keys + 1] - start
    which = np.repeat(np.arange(len(keys)), count)
    before = np.cumsum(count) - count
    return which, cols[np.arange(len(which)) + np.repeat(start - before, count)]


class _BatchLadder:
    """The case ladder from a block of sources to every target at once.

    ``evaluate_all_pairs`` debits no ebit, so the ladder's indexes are built
    once per call from the tables as they stand: ``usable`` is ``resolve``'s
    link rule for every pair (its diagonal is False, as no table holds its
    owner), and ``direct[a, b]`` whether a's table holds an entry for b over
    a usable link, case I's rule.
    Candidates come from the scheme's repeater indexes, as in ``resolve``,
    as compressed sparse rows with their columns ascending:

    - ``hop_ptr``/``hops``: each source's e-neighbors;
    - ``relay_ptr``/``relay_to``: the targets d that repeater j can be case
      II's repeater toward, that is j is in ``holders[d]`` and holds a usable
      entry for d;
    - ``exit_ptr``/``exit_hubs``, partial-anchor: each target's exit hubs,
      its anchor e-neighbors over a usable link and the target itself when
      it is an anchor; ``exit_of`` names the target of each listed hub, and
      ``exit_targets`` the targets with at least one.

    ``entry[i]`` holds source i's entry hubs in table order, padded with -1:
    i alone when i is an anchor, else its anchor e-neighbors over a usable
    link. Every cost is read from ``pair``, the tables' own array. Only
    totals are reduced, each candidate composed through the same left fold
    as ``resolve`` and min-reduced, which does not depend on order; so
    candidates that tie share their total, and the scalar tie rules cannot
    change a row.
    """

    def __init__(self, tables: SchemeTables):
        n = tables.n_e
        self.tables = tables
        self.op = tables.metric.composition.array_op
        self.pair = tables.pair_costs
        entries = [table.entries for table in tables.tables]
        owner, peer = _flatten([[entry.e_hop for entry in row] for row in entries])
        low = np.fromiter(
            (entry.ebits < 1 for row in entries for entry in row), bool, len(peer)
        )
        direct = self.direct = np.zeros((n, n), bool)
        direct[owner, peer] = True
        usable = self.usable = direct | direct.T
        # a depleted entry makes its link unusable from either end
        usable[owner[low], peer[low]] = False
        usable[peer[low], owner[low]] = False
        direct &= usable

        self.hop_ptr, self.hops = _csr(*_flatten([nb.members for nb in tables.neighborhoods]), n)
        d, j = _flatten(tables.holders)
        relay = direct[j, d]
        self.relay_ptr, self.relay_to = _csr(j[relay], d[relay], n)
        if tables.scheme is Scheme.FULL_ANCHOR:
            return
        anchors = np.array(sorted(tables.anchors.members), np.intp)
        v, hub = _flatten(tables.anchor_hubs)
        linked = usable[v, hub]
        self.exit_ptr, self.exit_hubs = _csr(
            np.concatenate([v[linked], anchors]), np.concatenate([hub[linked], anchors]), n
        )
        exits = np.diff(self.exit_ptr)
        self.exit_of = np.repeat(np.arange(n), exits)
        self.exit_targets = np.flatnonzero(exits)
        self.is_anchor = np.zeros(n, bool)
        self.is_anchor[anchors] = True
        linked &= ~self.is_anchor[v]
        v, hub = v[linked], hub[linked]
        rank = np.arange(len(v)) - np.searchsorted(v, v)
        self.entry = np.full((n, int(rank.max(initial=0)) + 1), -1, np.intp)
        self.entry[v, rank] = hub
        self.entry[anchors, 0] = anchors

    def fill(self, start: int, code: np.ndarray, cost: np.ndarray) -> None:
        """Fill the rows of the sources ``start``, ``start + 1``, ... of
        ``code`` and ``cost``: each target's case code (1-3 for cases I-III,
        ``_FALLBACK`` plus the index of its reason in ``_FALLBACK_REASONS``
        where no case resolves it, -1 at the source itself) and its cost,
        the composed cost or, for a fallback, the optimal cost.

        Case II expands every (source, usable e-neighbor j) over j's relay
        targets, keeps the pairs case I left open and min-reduces each
        pair's candidates."""
        pair, usable, op = self.pair, self.usable, self.op
        stop = start + len(code)
        local = np.arange(len(code))
        np.copyto(code, self.direct[start:stop])
        code[local, local + start] = -1
        cost[:] = pair[start:stop]

        src = np.repeat(local, np.diff(self.hop_ptr[start:stop + 1]))
        j = self.hops[self.hop_ptr[start]:self.hop_ptr[stop]]
        linked = usable[src + start, j]
        src, j = src[linked], j[linked]
        w, d = _expand(self.relay_ptr, self.relay_to, j)
        src, j = src[w], j[w]
        open_ = code[src, d] == 0
        src, j, d = src[open_], j[open_], d[open_]
        # reduced over flat positions, as ``ufunc.at`` is slow on an index tuple
        best = np.full(code.shape, math.inf)
        np.minimum.at(best.reshape(-1), src * code.shape[1] + d,
                      op(pair[src + start, j], pair[j, d]))
        two = np.zeros(code.shape, bool)
        two[src, d] = True
        code[two] = 2
        cost[two] = best[two]

        if self.tables.scheme is Scheme.PARTIAL_ANCHOR:
            self._case_three(start, code, cost)
        else:
            code[code == 0] = _FALLBACK

    def _case_three(self, start: int, code: np.ndarray, cost: np.ndarray) -> None:
        """``_case_three`` for every pair of the block still open, one round
        per entry-hub rank. A round takes each source that has an entry hub l
        of that rank and an open pair, pairs each target t with each of its
        exit hubs k over the sorted exit-hub list, min-reduces the path
        costs per target, adds the three-node path i-l-t, and resolves each
        open pair it finds a path for. Each pair left open gets the fallback
        code of the reason ``_case_three`` gives it."""
        pair, usable, op = self.pair, self.usable, self.op
        hub, to, targets = self.exit_hubs, self.exit_of, self.exit_targets
        seg = self.exit_ptr[targets]
        entry = self.entry[start:start + len(code)]
        open_ = code == 0
        lone = open_ & (entry[:, :1] < 0)
        code[lone] = _FALLBACK + 1
        open_ &= ~lone
        # the four-node path i-l-k-t over the mesh link l-k, from which k = l
        # drops out by ``usable``'s false diagonal and k = t by this mask; with
        # l = i, the path i-k-t
        mesh = hub != to
        tail = pair[hub, to]
        for hubs in entry.T:
            rows = np.flatnonzero((hubs >= 0) & open_.any(1))
            if not rows.size:
                break
            l = hubs[rows]
            via = (l != rows + start)[:, None]
            near = pair[rows + start, l][:, None]
            at_l, from_l = usable[l], pair[l]
            ok = at_l[:, hub] & mesh
            # composed in place, and without the zero diagonal where l = i:
            # min(0, x) is not x
            total = from_l[:, hub]
            np.copyto(total, op(near, total), where=via)
            op(total, tail, out=total)
            total[~ok] = math.inf
            best = np.full((len(rows), code.shape[1]), math.inf)
            best[:, targets] = np.minimum.reduceat(total, seg, axis=1)
            found = np.zeros(best.shape, bool)
            found[:, targets] = np.logical_or.reduceat(ok, seg, axis=1)
            # the three-node path i-l-t, through the exit hub l or, when t is
            # an anchor, over the mesh link l-t
            three = np.zeros(best.shape, bool)
            three[:, targets] = np.logical_or.reduceat(hub == l[:, None], seg, axis=1)
            three |= self.is_anchor & at_l
            three &= via
            np.copyto(best, np.minimum(best, op(near, from_l)), where=three)
            found |= three
            found &= open_[rows]
            code[rows] = np.where(found, 3, code[rows])
            cost[rows] = np.where(found, best, cost[rows])
            open_[rows] &= ~found
        # no exit hub; else a hub source whose exit hubs are itself and the
        # target, so that its every candidate is the direct link; else the mesh
        src, d = np.nonzero(open_)
        exits = np.diff(self.exit_ptr)[d]
        reason = np.where(exits > 0, 4, 2)
        own = np.flatnonzero(self.is_anchor[src + start] & (exits > 0))
        w, k = _expand(self.exit_ptr, hub, d[own])
        other = np.zeros(len(own), bool)
        other[w[(k != src[own][w] + start) & (k != d[own][w])]] = True
        reason[own[~other]] = 3
        code[src, d] = _FALLBACK + reason


# each ``_BatchLadder.fill`` code's case name, the ``Case`` value itself, so
# rows share one string object per case; code -1, the source, is dropped
CASE_BY_CODE = (
    "", Case.CASE_I.value, Case.CASE_II.value, Case.CASE_III.value,
    *[Case.FALLBACK.value] * len(_FALLBACK_REASONS),
)


def evaluate_all_pairs(tables: SchemeTables) -> PairEvaluation:
    """Resolve every ordered pair once; fallback pairs are excluded from the
    stretch figures and reported separately.

    Cases I-III run as one batched pass over blocks of ``BLOCK`` sources
    (``_BatchLadder``), which also gives each pair it leaves open its
    fallback row and reason: the optimal cost as both cost and optimal, at
    stretch 1.0, the row ``resolve`` gives. No pair goes through ``resolve``
    or ``optimal_cost``; ``resolve`` stays the reference the pass is tested
    against. The pass fills one n x n code array and one cost array and
    copies no pair cost; the stretch figures are reduced from each row block
    as it is filled, and the case counts from the codes in one pass.
    """
    ladder = _BatchLadder(tables)
    n, pair = tables.n_e, tables.pair_costs
    code = np.empty((n, n), np.int8)
    cost = np.empty((n, n))
    block_max: list[float] = []
    block_min: list[float] = []

    def stretch_blocks():
        for start in range(0, n, BLOCK):
            rows = slice(start, start + BLOCK)
            ladder.fill(start, code[rows], cost[rows])
            ok = (code[rows] >= 1) & (code[rows] < _FALLBACK)
            ratios = cost[rows][ok] / pair[rows][ok]
            if ratios.size:
                block_max.append(ratios.max().item())
                block_min.append(ratios.min().item())
            yield ratios.tolist()

    # the mean is ``statistics.fmean``'s, ``math.fsum`` of every resolved
    # stretch over their count, summed across the blocks without a list
    stretch_sum = math.fsum(itertools.chain.from_iterable(stretch_blocks()))
    # counted code by code, as ``np.bincount`` would widen every code to
    # 8 bytes; the diagonal's code, -1, is no case's
    counts = [int(np.count_nonzero(code == c)) for c in range(len(CASE_BY_CODE))]
    case_counts: Counter = Counter()
    reasons: Counter = Counter()
    for c, count in enumerate(counts):
        if c and count:
            case_counts[CASE_BY_CODE[c]] += count
            if c >= _FALLBACK:
                reasons[_FALLBACK_REASONS[c - _FALLBACK]] = count
    resolved = sum(counts[1:_FALLBACK])
    max_stretch = max(block_max, default=0.0)
    total = n * (n - 1)
    return PairEvaluation(
        code=code,
        cost=cost,
        pair_costs=pair,
        case_counts=case_counts,
        max_stretch=max_stretch,
        min_stretch=min(block_min, default=0.0),
        mean_stretch=stretch_sum / resolved if resolved else 0.0,
        # a fallback row's stretch is 1.0, and no row here fails
        max_stretch_with_fallback=max(max_stretch, 1.0) if reasons else max_stretch,
        fallback_fraction=case_counts[Case.FALLBACK.value] / total if total else 0.0,
        failure_fraction=case_counts[Case.FAILURE.value] / total if total else 0.0,
        fallback_reasons=reasons,
    )


# ---------------------------------------------------------------------------
# Stretch-bound inequality chain


@dataclass(frozen=True)
class ChainStep:
    label: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        # a difference, not ``rhs * (1 + CHAIN_TOL)``, which could overflow
        return self.lhs - self.rhs <= self.rhs * CHAIN_TOL


@dataclass(frozen=True)
class ChainTrace:
    steps: tuple[ChainStep, ...]
    bound_factor: int
    bound_value: float

    @property
    def ok(self) -> bool:
        return all(step.holds for step in self.steps)


def verify_bound_chain(
    path: EntangledPath,
    metric: EntanglingMetric,
    pair_costs: np.ndarray,
) -> ChainTrace:
    """Numerically replay the inequality chain certifying the stretch bound.

    Two-repeater paths are checked against the five-fold composed bound and
    one-repeater paths against the three-fold one; every intermediate
    inequality is evaluated on the concrete instance and a violation raises,
    since it means a neighborhood or cover precondition was broken upstream.
    Optimal costs are read from ``pair_costs``, an ``all_pairs_optimal``
    array.
    """
    if path.case not in (Case.CASE_II, Case.CASE_III):
        raise ValueError(f"chain applies to case II/III paths, got {path.case}")

    def w(a: int, b: int) -> float:
        return pair_costs.item(a, b)

    i, d = path.source, path.dest
    wid = w(i, d)
    total = path.total_cost
    steps: list[ChainStep] = []

    if len(path.repeaters) == 1:
        (m,) = path.repeaters
        bound3 = fold(metric, [wid, w(d, i), wid])
        if w(i, m) <= w(i, d):
            mid = fold(metric, [w(i, m), w(m, i), w(i, d)])
            steps.append(ChainStep("triangle on far segment", total, mid))
            steps.append(ChainStep("near hop within source neighborhood", mid, bound3))
        else:
            mid = fold(metric, [w(i, d), w(d, m), w(m, d)])
            steps.append(ChainStep("triangle on near segment", total, mid))
            steps.append(ChainStep("near hop within target neighborhood", mid, bound3))
        steps.append(ChainStep("three-fold composed bound", total, bound3))
        return _finalize_chain(steps, 3, bound3)

    if len(path.repeaters) == 2:
        l, k = path.repeaters
        s2 = fold(metric, [w(i, l), w(l, i), w(i, k), w(k, d)])
        steps.append(ChainStep("triangle on hub-to-hub segment", total, s2))
        s3_l = fold(metric, [w(i, l), w(l, i)])
        s3_r = fold(metric, [w(i, d), w(d, i)])
        steps.append(ChainStep("entry hub within source neighborhood", s3_l, s3_r))
        s4 = fold(metric, [w(i, d), w(d, i), w(i, k), w(k, d)])
        steps.append(ChainStep("substitute source round trip", s2, s4))
        s5 = fold(metric, [w(i, d), w(d, i), w(i, d), w(d, k), w(k, d)])
        steps.append(ChainStep("triangle on source-to-exit-hub segment", s4, s5))
        s6_l = fold(metric, [w(d, k), w(k, d)])
        s6_r = fold(metric, [w(d, i), w(i, d)])
        steps.append(ChainStep("exit hub within target neighborhood", s6_l, s6_r))
        bound5 = fold(metric, [wid, w(d, i), wid, w(d, i), wid])
        steps.append(ChainStep("five-fold composed bound", total, bound5))
        return _finalize_chain(steps, 5, bound5)

    raise ValueError(f"chain supports 1 or 2 repeaters, got {len(path.repeaters)}")


def _finalize_chain(steps: list[ChainStep], factor: int, bound: float) -> ChainTrace:
    trace = ChainTrace(steps=tuple(steps), bound_factor=factor, bound_value=bound)
    if not trace.ok:
        broken = [s.label for s in steps if not s.holds]
        raise ChainViolationError(
            f"inequality chain broken at: {', '.join(broken)}", trace=trace
        )
    return trace


# ---------------------------------------------------------------------------
# Ebit consumption and replenishment


def swap_and_replenish(
    tables: SchemeTables,
    path: EntangledPath,
    packet: QuantumPacket,
    replenish_rate: int = 0,
) -> DeliveryRecord:
    """Consume one ebit per segment endpoint entry along the path and deliver.

    One walk of the path reads each segment's entries at its two endpoints
    once: those reads decide whether the link is depleted, and the same
    entries are debited. A segment with an entry at neither endpoint is
    generated on demand. A path that crosses a depleted link (a stale path,
    or a fallback) gets exactly one re-resolution without fallback, whose
    path is read afresh. A depleted link is unusable, so the retry routes
    around it or fails, and then the delivery fails. A positive
    ``replenish_rate`` then restores that many ebits per below-budget entry
    (the control plane's refill step).
    """
    if packet.payload_ebits < 1:
        raise ValueError("packet payload must carry at least one ebit")
    if replenish_rate < 0:
        raise ValueError("replenish rate must be non-negative")
    if path.case is Case.FAILURE:
        return DeliveryRecord(
            path=path, consumed=[], success=False, detail=path.reason or "unresolved"
        )

    record = DeliveryRecord(path=path, consumed=[], success=False)
    rows = tables.tables
    links = []
    for a, b in zip(path.nodes, path.nodes[1:]):
        ab, ba = rows[a]._by_peer.get(b), rows[b]._by_peer.get(a)
        if (ab is not None and ab.ebits < 1) or (ba is not None and ba.ebits < 1):
            retry = resolve(tables, path.source, path.dest, allow_fallback=False)
            record.retried = True
            if not retry.resolved:
                record.detail = f"link {a}-{b} depleted and retry failed: {retry.reason}"
                return record
            record.path = retry
            links = [
                (x, y, rows[x]._by_peer.get(y), rows[y]._by_peer.get(x))
                for x, y in zip(retry.nodes, retry.nodes[1:])
            ]
            break
        links.append((a, b, ab, ba))

    debited = tables.debited
    for a, b, ab, ba in links:
        if ab is None and ba is None:
            record.on_demand.append((a, b))
            continue
        # each entry is tested as it is debited: a walk that crosses one link
        # twice can find it spent by its own first crossing
        for x, y, entry in ((a, b, ab), (b, a, ba)):
            if entry is not None:
                if entry.ebits < 1:
                    raise DepletedLinkError(f"link ({a},{b}) has no ebits at {x}")
                entry.ebits -= 1
                debited[(x, y)] = entry
        record.consumed.append((a, b))
    record.success = True
    if replenish_rate > 0:
        replenish(tables, replenish_rate)
    return record


def replenish(tables: SchemeTables, rate: int) -> int:
    """Refill every below-budget entry by ``rate`` ebits, capped at budget.

    Only deliveries lower ebits, so the entries in ``tables.debited`` are
    all the below-budget ones and the call costs in proportion to them.
    Returns the number of ebits added across all tables.
    """
    if rate < 0:
        raise ValueError("replenish rate must be non-negative")
    added = 0
    budget = tables.ebit_budget
    for key, entry in list(tables.debited.items()):
        grant = min(rate, budget - entry.ebits)
        entry.ebits += grant
        added += grant
        if entry.ebits == budget:
            del tables.debited[key]
    return added


def table_size_stats(tables: SchemeTables) -> dict:
    sizes = [len(t) for t in tables.tables]
    n = tables.n_e
    norm = math.sqrt(n) * math.log(n)
    return {
        "max": max(sizes),
        "mean": statistics.fmean(sizes),
        "max_over_sqrt_log": max(sizes) / norm,
        "dropped_entries": sum(len(t.dropped) for t in tables.tables),
    }
