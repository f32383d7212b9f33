"""The peer index of a routing table, and the scheme's repeater indexes,
track its entries."""

import copy

import pytest

from qnroute.errors import DuplicateEntryError
from qnroute.metrics import hop_count_metric
from qnroute.routing import (
    RoutingTable,
    TableEntry,
    make_packet,
    resolve,
    swap_and_replenish,
)
from qnroute.serialize import scheme_from_dict, scheme_to_dict
from qnroute.topology import generate_graph

from conftest import build_documented_scheme, e_neighbor_entries

HOP = hop_count_metric()

GRAPHS = {
    "erdos_renyi": (24, {"edge_prob": 0.25}),
    "barabasi_albert": (24, {"attach": 2}),
    "grid_torus": (25, {}),
}


def linear_find(table: RoutingTable, peer: int) -> TableEntry | None:
    for entry in table.entries:
        if entry.e_hop == peer:
            return entry
    return None


def assert_index_matches_entries(tabs) -> None:
    for table in tabs.tables:
        for peer in range(tabs.n_e):
            assert table.find(peer) is linear_find(table, peer)


def assert_e_neighbors_lead_in_cost_order(tabs) -> None:
    """The case ladder ranks hubs by this order."""
    for table in tabs.tables:
        e_neighbors = e_neighbor_entries(table)
        leading = table.entries[: len(e_neighbors)]
        assert all(a is b for a, b in zip(e_neighbors, leading))
        row = tabs.pair_costs[table.owner]
        keys = [(row[e.e_hop], e.e_hop) for e in e_neighbors]
        assert keys == sorted(keys)


def assert_repeater_indexes_match_entries(tabs) -> None:
    """``holders[d]`` names each e-neighbor entry's peer exactly when the
    entry's mirror reaches d or, full-anchor, the peer tracks d; each hub
    list is its table's anchor e-neighbors in table order."""
    tracked = tabs.tracked
    anchors = tabs.anchors.members if tabs.anchors is not None else frozenset()
    assert len(tabs.holders) == len(tabs.anchor_hubs) == tabs.n_e
    for table in tabs.tables:
        for entry in e_neighbor_entries(table):
            j = entry.e_hop
            block = frozenset(tracked.tracked_by(j)) if tracked is not None else frozenset()
            for d in range(tabs.n_e):
                assert (j in tabs.holders[d]) == (d in entry.reach or d in block), (j, d)
        expected = tuple(e.e_hop for e in e_neighbor_entries(table) if e.e_hop in anchors)
        assert tabs.anchor_hubs[table.owner] == expected


def build(model: str, scheme: str, capacity_cap: int | None, f: int = 1):
    n, params = GRAPHS[model]
    graph = generate_graph(model, n, params, HOP, seed=2)
    return build_documented_scheme(graph, HOP, scheme, k=5, f=f, capacity_cap=capacity_cap)


@pytest.mark.parametrize("model", sorted(GRAPHS))
@pytest.mark.parametrize("scheme", ["full", "partial"])
@pytest.mark.parametrize("capacity_cap", [None, 6])
def test_index_matches_linear_scan(model, scheme, capacity_cap):
    tabs = build(model, scheme, capacity_cap)
    if capacity_cap is not None:
        assert any(t.dropped for t in tabs.tables), "the small cap must evict"
    assert_index_matches_entries(tabs)
    assert_e_neighbors_lead_in_cost_order(tabs)

    again, _, _ = scheme_from_dict(scheme_to_dict(tabs, "hop"))
    assert_index_matches_entries(again)
    assert_e_neighbors_lead_in_cost_order(again)
    for before, after in zip(tabs.tables, again.tables):
        assert [e.e_hop for e in after.entries] == [e.e_hop for e in before.entries]


@pytest.mark.parametrize("model", sorted(GRAPHS))
@pytest.mark.parametrize("scheme", ["full", "partial"])
@pytest.mark.parametrize("capacity_cap", [None, 6])
@pytest.mark.parametrize("f", [1, 2])
def test_repeater_indexes_match_the_entries(model, scheme, capacity_cap, f):
    tabs = build(model, scheme, capacity_cap, f)
    if capacity_cap is not None:
        assert any(t.dropped for t in tabs.tables), "the small cap must evict"
    if f == 2:
        assert any(len(e.partitions) == 2 for t in tabs.tables for e in t.entries)
    if scheme == "full":
        # some e-neighbor reaches a target through its tracked block alone
        assert any(
            d not in e.reach
            for t in tabs.tables
            for e in e_neighbor_entries(t)
            for d in tabs.tracked.tracked_by(e.e_hop)
        )
    else:
        assert any(tabs.anchor_hubs)
    assert_repeater_indexes_match_entries(tabs)
    again, _, _ = scheme_from_dict(scheme_to_dict(tabs, "hop"))
    assert_repeater_indexes_match_entries(again)


@pytest.mark.parametrize("scheme", ["full", "partial"])
def test_debit_shows_through_find_and_entries(scheme):
    tabs = build("erdos_renyi", scheme, None)
    path = next(
        p
        for p in (resolve(tabs, i, d) for i in range(tabs.n_e) for d in range(tabs.n_e) if i != d)
        if p.resolved and p.repeaters
    )
    before = {
        (t.owner, e.e_hop): e.ebits for t in tabs.tables for e in t.entries
    }
    record = swap_and_replenish(tabs, path, make_packet(tabs.plan, path.source, path.dest))
    assert record.success and record.consumed
    for a, b in record.consumed:
        for x, y in ((a, b), (b, a)):
            entry = tabs.table(x).find(y)
            if entry is None:
                continue
            assert entry.ebits == before[(x, y)] - 1
            position = [e.e_hop for e in tabs.table(x).entries].index(y)
            assert tabs.table(x).entries[position] is entry
    assert_index_matches_entries(tabs)


def test_add_rejects_second_entry_for_peer():
    tabs = build("grid_torus", "partial", None)
    table = tabs.table(0)
    size = len(table)
    with pytest.raises(DuplicateEntryError, match="peer"):
        RoutingTable(owner=0, entries=[*table.entries, copy.copy(table.entries[0])])
    assert len(table) == size
    assert_index_matches_entries(tabs)
    with pytest.raises(DuplicateEntryError):
        RoutingTable(owner=0, entries=[table.entries[0], table.entries[0]])


