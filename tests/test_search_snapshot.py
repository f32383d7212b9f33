"""Lookups search a routing table's own mirror, in node-id space.

Relabeling the basis states by any injection of node ids, including into a
wider register, changes no hit, weight or label probability.
"""

import random

import numpy as np
import pytest

from qnroute.addressing import address_width
from qnroute.metrics import hop_count_metric
from qnroute.qsearch import (
    _reduced_distribution,
    instance_from_table,
    partition_neighborhood,
    routing_lookup_via_search,
    run_search,
)
from qnroute.routing import Origin, RoutingTable, TableEntry
from qnroute.serialize import scheme_from_dict, scheme_to_dict
from qnroute.topology import generate_graph

from conftest import build_documented_scheme, build_full_scheme, build_partial_scheme
from gate_level import gate_level_distribution, make_instance, total_qubits

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


def basis_instance(table, to_index, width):
    """The table's instance with every node id v replaced by ``to_index[v]``."""
    return make_instance(
        [[[to_index[m] for m in part] for part in e.partitions] for e in table.entries],
        width,
    )


@pytest.mark.parametrize("model", sorted(GRAPHS))
@pytest.mark.parametrize("scheme", sorted(BUILDERS))
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("capacity_cap", [None, 6])
def test_plan_relabeling_changes_no_lookup(model, scheme, f, capacity_cap):
    tabs = build(model, scheme, f, capacity_cap)
    if capacity_cap is not None:
        assert any(t.dropped for t in tabs.tables), "the small cap must evict"
    # node ids injected into a register two qubits wider, so basis indices
    # differ from node ids and most basis states name no node
    width = address_width(tabs.n_e) + 2
    to_index = random.Random(f"{model}:{scheme}").sample(range(2**width), tabs.n_e)
    assert any(index != v for v, index in enumerate(to_index))
    for table in tabs.tables:
        by_id = instance_from_table(table, tabs.plan)
        by_index = basis_instance(table, to_index, width)
        for target, index in enumerate(to_index):
            alphas = by_id.hit_alphas(target)
            assert alphas == by_index.hit_alphas(index)
            for iterations in (1, 2):
                assert np.array_equal(
                    _reduced_distribution(alphas, by_id.n_t, iterations),
                    _reduced_distribution(by_index.hit_alphas(index),
                                          by_index.n_t, iterations),
                )
            assert run_search(by_id, target, seed=target) == run_search(
                by_index, index, seed=target
            )


@pytest.mark.parametrize("seed", range(10))
def test_gate_level_distribution_ignores_basis_labels(seed):
    # the gate-level engine on a small instance and on the same instance with its
    # basis states permuted: a naming choice changes no label probability
    rng = random.Random(seed)
    n_t, width, f = [(3, 3, 1), (3, 4, 1), (4, 3, 1), (4, 4, 1), (3, 2, 2)][seed % 5]
    states = range(2**width)
    parts = [partition_neighborhood(rng.sample(states, rng.randint(f, 3)), f)
             for _ in range(n_t)]
    relabel = list(states)
    rng.shuffle(relabel)
    plain = make_instance(parts, width)
    moved = make_instance([[[relabel[m] for m in p] for p in e] for e in parts], width)
    assert total_qubits(plain) <= 22
    held = set().union(*(m for e in parts for m in e))
    absent = [s for s in states if s not in held][:1]
    assert held
    for target in sorted(held) + absent:
        for iterations in (1, 2):
            a = gate_level_distribution(plain, target, iterations)
            b = gate_level_distribution(moved, relabel[target], iterations)
            assert plain.hit_labels(target) == moved.hit_labels(relabel[target])
            assert np.max(np.abs(np.subtract(a, b))) <= 1e-12


def test_instances_share_the_entries_partitions():
    tabs = build("barabasi_albert", "full", f=2)
    for table in tabs.tables:
        instance = instance_from_table(table, tabs.plan)
        assert instance.address_width == tabs.plan.width
        assert len(instance.partitions) == len(table.entries)
        for entry, parts in zip(table.entries, instance.partitions):
            assert parts is entry.partitions
        # each lookup reuses the tuple the table built once
        assert instance_from_table(table, tabs.plan).partitions is instance.partitions


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
    kept = [e for e in table.entries if target not in e.reach]
    table = tabs.tables[owner] = RoutingTable(owner, kept)
    for seed in range(1, 5):
        missed = routing_lookup_via_search(tabs, owner, target, seed=seed)
        assert not missed.found
        assert missed.success_probability == 0.0
    assert instance_from_table(table, tabs.plan).hit_alphas(target) == []

    table = tabs.tables[owner] = RoutingTable(owner, [*kept, holders[0]])
    label = len(table) - 1
    alpha = next(1 / len(p) for p in holders[0].partitions if target in p)
    assert instance_from_table(table, tabs.plan).hit_alphas(target) == [(label, alpha)]
    # a lookup misses with probability 1 - p; the first of 20 seeds that finds
    lookups = [routing_lookup_via_search(tabs, owner, target, seed=s) for s in range(1, 21)]
    found = next((lookup for lookup in lookups if lookup.found), lookups[-1])
    assert found.found
    assert found.entry_label == label


@pytest.mark.parametrize("scheme, f, capacity_cap", [("partial", 1, None), ("full", 2, 6)])
def test_read_back_entries_share_one_mirror_per_peer(scheme, f, capacity_cap):
    n, params = GRAPHS["grid_torus"]
    graph = generate_graph("grid_torus", n, params, HOP, seed=2)
    tabs = build_documented_scheme(graph, HOP, scheme, k=5, f=f, capacity_cap=capacity_cap)
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
    one = TableEntry(e_hop=2, ebits=4, partitions=(part,), origin=Origin.E_NEIGHBOR)
    assert one.reach is part
    two = TableEntry(e_hop=2, ebits=4, partitions=(part, frozenset({3})),
                     origin=Origin.E_NEIGHBOR)
    assert two.reach == {1, 3, 4, 6}
