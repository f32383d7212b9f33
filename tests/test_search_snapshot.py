"""A routing table's search snapshot is built once and follows its entries."""

import pytest

from qnroute.addressing import assign_addresses
from qnroute.metrics import hop_count_metric
from qnroute.qsearch import instance_from_table, make_instance, routing_lookup_via_search
from qnroute.routing import Origin, TableEntry
from qnroute.serialize import scheme_from_dict, scheme_to_dict
from qnroute.topology import generate_graph

from conftest import build_full_scheme, build_partial_scheme

HOP = hop_count_metric()

GRAPHS = {
    "erdos_renyi": (24, {"edge_prob": 0.25}),
    "barabasi_albert": (24, {"attach": 2}),
    "grid_torus": (25, {}),
}
BUILDERS = {"partial": build_partial_scheme, "full": build_full_scheme}


def build(model: str, scheme: str, f: int = 1, capacity_cap: int | None = None):
    n, params = GRAPHS[model]
    graph = generate_graph(model, n, params, HOP, seed=2)
    return BUILDERS[scheme](graph, HOP, k=5, f=f, capacity_cap=capacity_cap)


def fresh_instance(table, plan):
    """The snapshot built from the table's current entries, bypassing the cache."""
    return make_instance(
        [[[plan.esp_indices[m] for m in part] for part in e.partitions] for e in table.entries],
        plan.width,
    )


@pytest.mark.parametrize("model", sorted(GRAPHS))
@pytest.mark.parametrize("scheme", sorted(BUILDERS))
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("capacity_cap", [None, 6])
def test_cached_snapshot_matches_a_fresh_build(model, scheme, f, capacity_cap):
    tabs = build(model, scheme, f, capacity_cap)
    if capacity_cap is not None:
        assert any(t.dropped for t in tabs.tables), "the small cap must evict"
    # clusters of three edge nodes, so basis indices differ from node ids
    plan = assign_addresses(tabs.n_e, 3)
    for table in tabs.tables:
        cached = instance_from_table(table, plan)
        assert instance_from_table(table, plan) is cached
        fresh = fresh_instance(table, plan)
        assert cached == fresh
        for target in range(tabs.n_e):
            index = plan.esp_indices[target]
            assert cached.hit_alphas(index) == fresh.hit_alphas(index)


def test_snapshot_is_not_served_for_another_plan():
    tabs = build("erdos_renyi", "partial", f=2)
    table = tabs.table(0)
    plan_a, plan_b = assign_addresses(tabs.n_e, 0), assign_addresses(tabs.n_e, 3)
    built_a = instance_from_table(table, plan_a)
    built_b = instance_from_table(table, plan_b)
    assert built_b == fresh_instance(table, plan_b)
    assert built_b != built_a
    assert instance_from_table(table, plan_a) == fresh_instance(table, plan_a)


def test_snapshots_of_one_plan_share_each_basis_set():
    tabs = build("barabasi_albert", "full", f=2)
    shared: dict[frozenset, frozenset] = {}
    for table in tabs.tables:
        instance = instance_from_table(table, tabs.plan)
        for entry, snap in zip(table.entries, instance.entries):
            for nodes, basis in zip(entry.partitions, snap.partitions):
                assert shared.setdefault(nodes, basis) is basis


@pytest.mark.parametrize("scheme", sorted(BUILDERS))
def test_lookup_sees_drop_and_add(scheme):
    tabs = build("erdos_renyi", scheme)
    owner = 0
    table = tabs.table(owner)
    target = next(
        t for t in range(tabs.n_e)
        if t != owner and any(t in e.reach for e in table.entries)
    )
    assert routing_lookup_via_search(tabs, owner, target, seed=1).success_probability > 0

    holders = [e for e in table.entries if target in e.reach]
    for entry in holders:
        table.drop(entry.e_hop)
    missed = routing_lookup_via_search(tabs, owner, target, seed=1, repeats=4)
    assert not missed.found
    assert missed.success_probability == 0.0
    assert instance_from_table(table, tabs.plan) == fresh_instance(table, tabs.plan)

    table.add(holders[0])
    label = len(table) - 1
    index = tabs.plan.esp_indices[target]
    alpha = next(1 / len(p) for p in holders[0].partitions if target in p)
    assert instance_from_table(table, tabs.plan).hit_alphas(index) == [(label, alpha)]
    found = routing_lookup_via_search(tabs, owner, target, seed=1, repeats=20)
    assert found.found
    assert found.entry_label == label


@pytest.mark.parametrize("scheme, f, capacity_cap", [("partial", 1, None), ("full", 2, 6)])
def test_read_back_entries_share_one_mirror_per_peer(scheme, f, capacity_cap):
    tabs = build("grid_torus", scheme, f, capacity_cap)
    doc = scheme_to_dict(tabs, "hop")
    again, _, _ = scheme_from_dict(doc)
    mirrors: dict[int, tuple] = {}
    for table in again.tables:
        for entry in table.entries:
            assert mirrors.setdefault(entry.e_hop, entry.partitions) is entry.partitions
    assert len(mirrors) > 1
    assert scheme_to_dict(again, "hop") == doc


def test_single_partition_reach_is_that_partition():
    part = frozenset({1, 4, 6})
    one = TableEntry(e_hop=2, cost=1.0, ebits=4, partitions=(part,),
                     anchor_flag=False, origin=Origin.E_NEIGHBOR)
    assert one.reach is part
    two = TableEntry(e_hop=2, cost=1.0, ebits=4, partitions=(part, frozenset({3})),
                     anchor_flag=False, origin=Origin.E_NEIGHBOR)
    assert two.reach == {1, 3, 4, 6}
