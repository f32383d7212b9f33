"""The peer index and e-neighbor list of a routing table track its entries."""

import copy

import pytest

from qnroute.errors import DuplicateEntryError
from qnroute.metrics import hop_count_metric
from qnroute.routing import (
    Origin,
    RoutingTable,
    TableEntry,
    make_packet,
    resolve,
    swap_and_replenish,
)
from qnroute.serialize import scheme_from_dict, scheme_to_dict
from qnroute.topology import generate_graph

from conftest import build_documented_scheme

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
        expected = [e for e in table.entries if e.origin is Origin.E_NEIGHBOR]
        assert len(table.e_neighbors) == len(expected)
        assert all(a is b for a, b in zip(table.e_neighbors, expected))


def build(model: str, scheme: str, capacity_cap: int | None):
    n, params = GRAPHS[model]
    graph = generate_graph(model, n, params, HOP, seed=2)
    return build_documented_scheme(graph, HOP, scheme, k=5, capacity_cap=capacity_cap)


@pytest.mark.parametrize("model", sorted(GRAPHS))
@pytest.mark.parametrize("scheme", ["full", "partial"])
@pytest.mark.parametrize("capacity_cap", [None, 6])
def test_index_matches_linear_scan(model, scheme, capacity_cap):
    tabs = build(model, scheme, capacity_cap)
    if capacity_cap is not None:
        assert any(t.dropped for t in tabs.tables), "the small cap must evict"
    assert_index_matches_entries(tabs)

    again, _, _ = scheme_from_dict(scheme_to_dict(tabs, "hop"))
    assert_index_matches_entries(again)
    for before, after in zip(tabs.tables, again.tables):
        assert [e.e_hop for e in after.entries] == [e.e_hop for e in before.entries]


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
        table.add(copy.copy(table.entries[0]))
    assert len(table) == size
    assert_index_matches_entries(tabs)
    with pytest.raises(DuplicateEntryError):
        RoutingTable(owner=0, entries=[table.entries[0], table.entries[0]])


def test_drop_keeps_index_and_order():
    tabs = build("grid_torus", "partial", None)
    table = tabs.table(0)
    order = [e.e_hop for e in table.entries]
    first = table.e_neighbors[0]
    assert table.drop(first.e_hop) is first
    assert table.find(first.e_hop) is None
    assert [e.e_hop for e in table.entries] == [p for p in order if p != first.e_hop]
    assert first not in table.e_neighbors
    assert_index_matches_entries(tabs)
