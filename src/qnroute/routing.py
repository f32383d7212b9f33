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
import functools
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

from .addressing import AddressPlan, QuantumAddress
from .clustering import AnchorSet, Scheme, TrackedSets
from .errors import ChainViolationError, DepletedLinkError, DuplicateEntryError
from .metrics import EntanglingMetric, compose, fold
from .qsearch import partition_neighborhood
from .topology import ENeighborhood, NetworkGraph, optimal_cost

CHAIN_TOL = 1e-9


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
    mirror the superposed address registers the peer announces. An entry with
    zero ebits is unusable for swapping until replenished.
    """

    e_hop: int
    cost: float
    ebits: int
    partitions: tuple[frozenset[int], ...]
    anchor_flag: bool
    origin: Origin

    @functools.cached_property
    def reach(self) -> frozenset[int]:
        if len(self.partitions) == 1:
            return self.partitions[0]
        return frozenset().union(*self.partitions)


@dataclass
class RoutingTable:
    """One node's entries in table order, indexed by peer.

    ``entries`` keeps insertion order; search labels are positions in it.
    ``add`` and ``drop`` are its only writers: they keep the peer index and
    ``e_neighbors``, the e-neighbor entries in table order, in step with it.
    """

    owner: int
    entries: list[TableEntry] = field(default_factory=list)
    dropped: list[tuple[int, str]] = field(default_factory=list)
    e_neighbors: list[TableEntry] = field(
        init=False, default_factory=list, repr=False, compare=False
    )
    _by_peer: dict[int, TableEntry] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        entries, self.entries = self.entries, []
        for entry in entries:
            self.add(entry)

    def add(self, entry: TableEntry) -> None:
        """Append ``entry``; a second entry for the same peer is rejected."""
        if entry.e_hop in self._by_peer:
            raise DuplicateEntryError(
                f"node {self.owner} already has an entry for peer {entry.e_hop}"
            )
        self.entries.append(entry)
        self._by_peer[entry.e_hop] = entry
        if entry.origin is Origin.E_NEIGHBOR:
            self.e_neighbors.append(entry)

    def drop(self, peer: int) -> TableEntry:
        """Remove and return the entry for ``peer``; later entries move up."""
        entry = self._by_peer.pop(peer)
        self.entries.remove(entry)
        if entry.origin is Origin.E_NEIGHBOR:
            self.e_neighbors.remove(entry)
        return entry

    def find(self, peer: int) -> TableEntry | None:
        return self._by_peer.get(peer)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class SchemeTables:
    """All tables of one scheme instance plus the data they were built from.

    ``debited`` holds, by (owner, peer), every entry that a delivery left
    below the ebit budget; ``_consume_link`` adds to it and ``replenish``
    drops an entry once it is back at budget. ``seed`` is the seed
    ``harness.build_scheme`` built with, and None for tables built otherwise.
    """

    scheme: Scheme
    tables: list[RoutingTable]
    neighborhoods: list[ENeighborhood]
    graph: NetworkGraph
    metric: EntanglingMetric
    pair_costs: list[list[float]]
    anchors: AnchorSet | None = None
    tracked: TrackedSets | None = None
    f: int = 1
    ebit_budget: int = 4
    capacity_cap: int = 0
    seed: int | None = None
    debited: dict[tuple[int, int], TableEntry] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    @property
    def n_e(self) -> int:
        return self.graph.n_e

    @functools.cached_property
    def plan(self) -> AddressPlan:
        return AddressPlan(self.graph.n_e)

    def table(self, v: int) -> RoutingTable:
        return self.tables[v]

    def optimal(self, i: int, j: int) -> float:
        return self.pair_costs[i][j]


@dataclass(frozen=True)
class EntangledPath:
    """Resolved repeater sequence with its composed cost."""

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


@dataclass
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
    pair_costs: list[list[float]],
    anchors: AnchorSet | None = None,
    tracked: TrackedSets | None = None,
    f: int = 1,
    ebit_budget: int = 4,
    capacity_cap: int | None = None,
) -> SchemeTables:
    """Populate every node's routing table for one scheme.

    Partial-anchor requires ``anchors``; full-anchor requires ``tracked``
    with assignments. The default capacity cap of 4k never evicts e-neighbor
    entries; when a table overflows, reverse-neighbor entries are dropped
    costliest-first and recorded in the table's dropped list.
    ``pair_costs`` is the trial's ``all_pairs_optimal`` matrix; the returned
    tables keep it for resolution and fallback.
    """
    if (anchors is None) == (tracked is None):
        raise ValueError("pass exactly one of anchors / tracked")
    scheme = Scheme.PARTIAL_ANCHOR if anchors is not None else Scheme.FULL_ANCHOR
    if scheme is Scheme.FULL_ANCHOR and not tracked.assignment:
        raise ValueError("tracked sets must be assigned before building tables")

    k = neighborhoods[0].k if neighborhoods else 0
    cap = capacity_cap if capacity_cap is not None else max(1, 4 * k)
    by_owner = {nb.owner: nb for nb in neighborhoods}
    anchor_ids = anchors.members if anchors is not None else frozenset()
    reverse_of: dict[int, list[int]] = {v: [] for v in range(graph.n_e)}
    for nb in neighborhoods:
        for peer, _ in nb.members:
            reverse_of[peer].append(nb.owner)
    mirrors: dict[int, tuple[frozenset[int], ...]] = {}

    def entry(peer: int, cost: float, origin: Origin) -> TableEntry:
        # In the full-anchor scheme every node plays the hub role.
        anchor_flag = scheme is Scheme.FULL_ANCHOR or peer in anchor_ids
        if peer not in mirrors:
            mirrors[peer] = partition_neighborhood(by_owner[peer].member_ids, f)
        return TableEntry(
            e_hop=peer,
            cost=cost,
            ebits=ebit_budget,
            partitions=mirrors[peer],
            anchor_flag=anchor_flag,
            origin=origin,
        )

    tables: list[RoutingTable] = []
    for v in range(graph.n_e):
        table = RoutingTable(owner=v)
        row = pair_costs[v]

        forward = sorted(by_owner[v].members, key=lambda mc: (mc[1], mc[0]))
        for peer, cost in forward:
            table.add(entry(peer, cost, Origin.E_NEIGHBOR))

        reverse_owners = sorted(
            (row[u], u) for u in reverse_of[v] if table.find(u) is None
        )
        for cost, peer in reverse_owners:
            table.add(entry(peer, cost, Origin.REVERSE_NEIGHBOR))

        if scheme is Scheme.PARTIAL_ANCHOR and v in anchor_ids:
            long_range, origin = sorted(anchor_ids), Origin.ANCHOR_LINK
        elif scheme is Scheme.FULL_ANCHOR:
            long_range, origin = tracked.tracked_by(v), Origin.TRACKED_LINK
        else:
            long_range, origin = (), None
        for peer in long_range:
            if peer != v and table.find(peer) is None:
                table.add(entry(peer, row[peer], origin))

        _enforce_cap(table, cap)
        tables.append(table)

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
    )


def _enforce_cap(table: RoutingTable, cap: int) -> None:
    if len(table.entries) <= cap:
        return
    # fairness policy: evict reverse-neighbor entries, costliest first
    reverses = sorted(
        (e for e in table.entries if e.origin is Origin.REVERSE_NEIGHBOR),
        key=lambda e: (-e.cost, -e.e_hop),
    )
    for entry in reverses:
        if len(table.entries) <= cap:
            break
        table.drop(entry.e_hop)
        table.dropped.append((entry.e_hop, "capacity"))


# ---------------------------------------------------------------------------
# Resolution

def _link_usable(
    tables: SchemeTables, a: int, b: int, blocked: frozenset[frozenset[int]]
) -> bool:
    """A link is usable when no existing endpoint entry is depleted."""
    if blocked and frozenset((a, b)) in blocked:
        return False
    ea = tables.tables[a]._by_peer.get(b)
    eb = tables.tables[b]._by_peer.get(a)
    if ea is None:
        return eb is not None and eb.ebits >= 1
    return ea.ebits >= 1 and (eb is None or eb.ebits >= 1)


def _finish(
    tables: SchemeTables, i: int, d: int, nodes: list[int], case: Case
) -> EntangledPath:
    costs = tables.pair_costs
    return EntangledPath(
        source=i,
        dest=d,
        repeaters=tuple(nodes[1:-1]),
        total_cost=fold(tables.metric, (costs[a][b] for a, b in zip(nodes, nodes[1:]))),
        optimal=tables.optimal(i, d),
        case=case,
    )


def _fallback_or_failure(
    tables: SchemeTables, i: int, d: int, reason: str, allow_fallback: bool
) -> EntangledPath:
    if allow_fallback:
        cost, nodes = optimal_cost(tables.graph, tables.metric, i, d, tables.pair_costs)
        return EntangledPath(
            source=i,
            dest=d,
            repeaters=tuple(nodes[1:-1]),
            total_cost=cost,
            optimal=tables.optimal(i, d),
            case=Case.FALLBACK,
            reason=reason,
        )
    return EntangledPath(
        source=i,
        dest=d,
        repeaters=(),
        total_cost=math.inf,
        optimal=tables.optimal(i, d),
        case=Case.FAILURE,
        reason=reason,
    )


def _case_one(
    tables: SchemeTables, i: int, d: int, blocked: frozenset
) -> EntangledPath | None:
    if d in tables.tables[i]._by_peer and _link_usable(tables, i, d, blocked):
        return _finish(tables, i, d, [i, d], Case.CASE_I)
    return None


def _case_two(
    tables: SchemeTables, i: int, d: int, blocked: frozenset
) -> EntangledPath | None:
    """One repeater through an e-neighbor of the source.

    A neighbor qualifies when the target shows up in its mirrored partitions
    or, in the full-anchor scheme, in its announced tracked block. Only
    e-neighbors of the source keep the bound: the first segment's cost is
    then at most the optimal source-target cost.
    """
    metric = tables.metric
    full_anchor = tables.scheme is Scheme.FULL_ANCHOR
    candidates: list[tuple[float, int, float]] = []
    for entry in tables.tables[i].e_neighbors:
        j = entry.e_hop
        if d not in entry.reach and not (full_anchor and tables.tracked.tracks(j, d)):
            continue
        if not _link_usable(tables, i, j, blocked):
            continue
        hop = tables.tables[j]._by_peer.get(d)
        if hop is None or not _link_usable(tables, j, d, blocked):
            continue
        candidates.append((compose(metric, entry.cost, hop.cost), j, entry.cost))
    if not candidates:
        return None
    _, j, _ = min(candidates, key=lambda c: (c[0], c[1]))
    return _finish(tables, i, d, [i, j, d], Case.CASE_II)


def _anchor_hubs_near(tables: SchemeTables, v: int, blocked: frozenset) -> list[int]:
    """Usable anchors inside v's e-neighborhood, cheapest first."""
    ranked = [
        (entry.cost, entry.e_hop)
        for entry in tables.tables[v].e_neighbors
        if entry.anchor_flag and _link_usable(tables, v, entry.e_hop, blocked)
    ]
    return [hop for _, hop in sorted(ranked)]


def _case_three(
    tables: SchemeTables, i: int, d: int, blocked: frozenset
) -> EntangledPath | str:
    """Two repeaters over the anchor mesh (partial-anchor scheme).

    The entry hub must lie in the source's e-neighborhood and the exit hub in
    the target's; those memberships are what make the stretch chain sound.
    A missing entry hub or exit hub is a coverage failure and is returned as
    a reason string for the fallback path.
    """
    anchors = tables.anchors.members

    if i in anchors:
        entry_hubs = [i]
    else:
        entry_hubs = _anchor_hubs_near(tables, i, blocked)
        if not entry_hubs:
            return "no anchor inside source e-neighborhood"

    exit_hubs = list(_anchor_hubs_near(tables, d, blocked))
    if d in anchors:
        exit_hubs.append(d)
    if not exit_hubs:
        return "no anchor inside target e-neighborhood"

    metric, costs = tables.metric, tables.pair_costs
    for l in entry_hubs:
        best: tuple[float, tuple[int, ...]] | None = None
        for k in exit_hubs:
            nodes = [i]
            if l != i:
                nodes.append(l)
            if k != nodes[-1] and k != d:
                nodes.append(k)
            nodes.append(d)
            if len(nodes) == 2:
                # a direct artificial link is case I territory; reaching here
                # means the source-side entry was unusable
                continue
            ok = all(
                _link_usable(tables, a, b, blocked)
                for a, b in zip(nodes, nodes[1:])
            )
            if not ok:
                continue
            total = fold(metric, [costs[a][b] for a, b in zip(nodes, nodes[1:])])
            key = (total, tuple(nodes))
            if best is None or key < best:
                best = key
        if best is not None:
            return _finish(tables, i, d, list(best[1]), Case.CASE_III)
    return "anchor mesh links unusable"


def resolve(
    tables: SchemeTables,
    i: int,
    d: int,
    blocked: frozenset = frozenset(),
    allow_fallback: bool = True,
) -> EntangledPath:
    """Resolve a request through the case ladder: a direct link (case I),
    one repeater (case II), then, in the partial-anchor scheme only, two
    repeaters over the anchor mesh (case III). A pair no case resolves takes
    the fallback, or fails when ``allow_fallback`` is off, with its reason."""
    if i == d:
        raise ValueError("source and destination must differ")
    path = _case_one(tables, i, d, blocked) or _case_two(tables, i, d, blocked)
    if path is not None:
        return path
    if tables.scheme is Scheme.FULL_ANCHOR:
        reason = "no neighbor reaches the target"
    else:
        outcome = _case_three(tables, i, d, blocked)
        if isinstance(outcome, EntangledPath):
            return outcome
        reason = outcome
    return _fallback_or_failure(tables, i, d, reason, allow_fallback)


# ---------------------------------------------------------------------------
# All-pairs evaluation


@dataclass
class PairEvaluation:
    """Aggregate of resolving every ordered pair once."""

    rows: list[tuple[int, int, str, float, float, float]]
    case_counts: Counter
    max_stretch: float
    mean_stretch: float
    max_stretch_with_fallback: float
    fallback_fraction: float
    failure_fraction: float

    @property
    def resolved_pairs(self) -> int:
        return sum(
            self.case_counts[c.value] for c in (Case.CASE_I, Case.CASE_II, Case.CASE_III)
        )


def evaluate_all_pairs(tables: SchemeTables) -> PairEvaluation:
    """Resolve every ordered pair once; fallback pairs are excluded from the
    stretch figures and reported separately."""
    rows = []
    case_counts: Counter = Counter()
    stretches: list[float] = []
    all_stretches: list[float] = []
    n = tables.n_e
    total = 0
    for i in range(n):
        for d in range(n):
            if i == d:
                continue
            total += 1
            path = resolve(tables, i, d)
            case = path.case
            case_counts[case.value] += 1
            stretch = path.stretch
            if path.resolved:
                stretches.append(stretch)
                all_stretches.append(stretch)
            elif case is Case.FALLBACK:
                all_stretches.append(stretch)
            rows.append((i, d, case.value, path.total_cost, path.optimal, stretch))
    return PairEvaluation(
        rows=rows,
        case_counts=case_counts,
        max_stretch=max(stretches) if stretches else 0.0,
        mean_stretch=statistics.fmean(stretches) if stretches else 0.0,
        max_stretch_with_fallback=max(all_stretches) if all_stretches else 0.0,
        fallback_fraction=case_counts[Case.FALLBACK.value] / total if total else 0.0,
        failure_fraction=case_counts[Case.FAILURE.value] / total if total else 0.0,
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
        return self.lhs <= self.rhs + CHAIN_TOL


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
    pair_costs: list[list[float]],
) -> ChainTrace:
    """Numerically replay the inequality chain certifying the stretch bound.

    Two-repeater paths are checked against the five-fold composed bound and
    one-repeater paths against the three-fold one; every intermediate
    inequality is evaluated on the concrete instance and a violation raises,
    since it means a neighborhood or cover precondition was broken upstream.
    Optimal costs are read from ``pair_costs``, an ``all_pairs_optimal``
    matrix.
    """
    if path.case not in (Case.CASE_II, Case.CASE_III):
        raise ValueError(f"chain applies to case II/III paths, got {path.case}")

    def w(a: int, b: int) -> float:
        return pair_costs[a][b]

    i, d = path.source, path.dest
    wid = w(i, d)
    total = path.total_cost
    steps: list[ChainStep] = []

    if len(path.repeaters) == 1:
        (m,) = path.repeaters
        bound3 = fold(metric, [wid, w(d, i), wid])
        if w(i, m) <= w(i, d) + CHAIN_TOL:
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

    A depleted segment triggers exactly one re-resolution with that link
    excluded; if the retry fails too, the delivery fails. A positive
    ``replenish_rate`` then restores that many ebits per below-budget entry
    (the control plane's refill step).
    """
    if packet.payload_ebits < 1:
        raise ValueError("packet payload must carry at least one ebit")
    if path.case is Case.FAILURE:
        return DeliveryRecord(
            path=path, consumed=[], success=False, detail=path.reason or "unresolved"
        )

    record = DeliveryRecord(path=path, consumed=[], success=False)
    depleted = _first_depleted_link(tables, path)
    if depleted is not None:
        retry = resolve(
            tables,
            path.source,
            path.dest,
            blocked=frozenset({frozenset(depleted)}),
            allow_fallback=False,
        )
        record.retried = True
        if not retry.resolved:
            record.detail = (
                f"link {depleted} depleted and retry failed: {retry.reason}"
            )
            return record
        path = retry
        record.path = retry
        if _first_depleted_link(tables, path) is not None:
            record.detail = "retried path also depleted"
            return record

    for a, b in zip(path.nodes, path.nodes[1:]):
        if _consume_link(tables, a, b):
            record.consumed.append((a, b))
        else:
            record.on_demand.append((a, b))
    record.success = True
    if replenish_rate > 0:
        replenish(tables, replenish_rate)
    return record


def _first_depleted_link(
    tables: SchemeTables, path: EntangledPath
) -> tuple[int, int] | None:
    for a, b in zip(path.nodes, path.nodes[1:]):
        for x, y in ((a, b), (b, a)):
            entry = tables.tables[x]._by_peer.get(y)
            if entry is not None and entry.ebits < 1:
                return (a, b)
    return None


def _consume_link(tables: SchemeTables, a: int, b: int) -> bool:
    """Debit the segment's entry at each endpoint; False if it has none."""
    debited = False
    for x, y in ((a, b), (b, a)):
        entry = tables.tables[x]._by_peer.get(y)
        if entry is None:
            continue
        if entry.ebits < 1:
            raise DepletedLinkError(f"link ({a},{b}) has no ebits at {x}")
        entry.ebits -= 1
        tables.debited[(x, y)] = entry
        debited = True
    return debited


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
