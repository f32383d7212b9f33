import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnroute.addressing import AddressPlan
from qnroute.errors import ChainViolationError
from qnroute.harness import ExperimentConfig, build_scheme_for_trial
from qnroute.metrics import (
    Composition,
    EntanglingMetric,
    capacity_metric,
    hop_count_metric,
    uniform_weight_metric,
)
from qnroute.routing import (
    Case,
    EntangledPath,
    Origin,
    build_tables,
    evaluate_all_pairs,
    make_packet,
    replenish,
    resolve,
    swap_and_replenish,
    table_size_stats,
    verify_bound_chain,
)
from qnroute.topology import (
    all_neighborhoods,
    all_pairs_optimal,
    generate_graph,
    reverse_neighborhood,
)

from conftest import build_full_scheme, build_partial_scheme, reference_replenish, small_graphs

HOP = hop_count_metric()


# ---------------------------------------------------------------------------
# table construction


def test_anchor_tables_cover_every_other_anchor():
    g = generate_graph("erdos_renyi", 16, {"edge_prob": 0.25}, HOP, seed=3)
    tabs = build_partial_scheme(g, HOP, k=4)
    anchors = tabs.anchors.members
    assert len(anchors) >= 2
    for a in anchors:
        reachable = {e.e_hop for e in tabs.table(a).entries}
        assert anchors - {a} <= reachable
        # entries toward fellow anchors carry the anchor flag
        for e in tabs.table(a).entries:
            if e.e_hop in anchors:
                assert e.anchor_flag


def test_single_partition_mirrors_whole_neighborhood():
    g = generate_graph("grid_torus", 16, {}, HOP, seed=0)
    tabs = build_partial_scheme(g, HOP, k=4, f=1)
    for table in tabs.tables:
        for entry in table.entries:
            assert len(entry.partitions) == 1
            assert entry.reach == tabs.neighborhoods[entry.e_hop].member_ids


def test_partitions_disjoint_and_union_is_neighborhood():
    g = generate_graph("erdos_renyi", 24, {"edge_prob": 0.2}, HOP, seed=5)
    tabs = build_partial_scheme(g, HOP, k=6, f=3)
    for table in tabs.tables:
        for entry in table.entries:
            seen = set()
            for part in entry.partitions:
                assert not (seen & part)
                seen |= part
            assert seen == set(tabs.neighborhoods[entry.e_hop].member_ids)


def test_table_sizes_within_structural_budget():
    g = generate_graph("erdos_renyi", 64, {"edge_prob": 0.12}, HOP, seed=9)
    k = 8
    nbs = all_neighborhoods(g, k, all_pairs_optimal(g, HOP))
    tabs = build_partial_scheme(g, HOP, k=k, capacity_cap=10**9)
    for v in range(64):
        reverse = reverse_neighborhood(nbs, v)
        budget = k + len(reverse) + math.isqrt(64) + 1
        assert len(tabs.table(v)) <= budget


def test_capacity_cap_drops_reverse_entries_with_report():
    # force a hub: star-ish graph where everyone's closest node is 0
    from qnroute.topology import NetworkGraph

    g = NetworkGraph(n_e=10)
    for v in range(1, 10):
        g.add_edge(0, v, 1.0)
    for v in range(1, 9):
        g.add_edge(v, v + 1, 5.0)
    tabs = build_partial_scheme(g, uniform_weight_metric(), k=1, capacity_cap=3)
    hub = tabs.table(0)
    assert len(hub) <= 3
    assert hub.dropped
    assert all(reason == "capacity" for _, reason in hub.dropped)
    # e-neighbor entries are never evicted
    assert any(e.origin is Origin.E_NEIGHBOR for e in hub.entries)


def test_reverse_consistency_without_cap_pressure():
    g = generate_graph("erdos_renyi", 20, {"edge_prob": 0.3}, uniform_weight_metric(), seed=1)
    metric = uniform_weight_metric()
    tabs = build_partial_scheme(g, metric, k=5, capacity_cap=10**9)
    for nb in tabs.neighborhoods:
        for peer, _cost in nb.members:
            assert tabs.table(nb.owner).find(peer) is not None
            back = tabs.table(peer).find(nb.owner)
            assert back is not None
            assert back.origin in (Origin.E_NEIGHBOR, Origin.REVERSE_NEIGHBOR)


# ---------------------------------------------------------------------------
# partial-anchor resolution


def test_direct_neighbor_resolves_case_one_with_unit_stretch():
    g = generate_graph("grid_torus", 16, {}, HOP, seed=0)
    tabs = build_partial_scheme(g, HOP, k=4)
    i = 0
    d = next(iter(tabs.neighborhoods[0].member_ids))
    path = resolve(tabs, i, d)
    assert path.case is Case.CASE_I
    assert path.stretch == 1.0
    assert path.nodes == (i, d)


def test_torus_case_three_paths_within_bound_of_oracle():
    g = generate_graph("grid_torus", 16, {}, HOP, seed=0)
    tabs = build_partial_scheme(g, HOP, k=2, capacity_cap=10**9)
    seen_case_three = 0
    for i in range(16):
        for d in range(16):
            if i == d:
                continue
            path = resolve(tabs, i, d)
            if path.resolved:
                assert path.total_cost >= tabs.pair_costs[i][d]
                assert path.stretch <= 5.0
            if path.case is Case.CASE_III:
                seen_case_three += 1
    assert seen_case_three > 0


def test_anchor_source_gets_tighter_bound():
    for seed in range(6):
        g = generate_graph("erdos_renyi", 32, {"edge_prob": 0.15}, HOP, seed=seed)
        tabs = build_partial_scheme(g, HOP, k=4, capacity_cap=10**9)
        for i in sorted(tabs.anchors.members):
            for d in range(32):
                if i == d:
                    continue
                path = resolve(tabs, i, d)
                if path.case is Case.CASE_III:
                    assert path.stretch <= 3.0 + 1e-9


def test_self_resolution_rejected():
    g = generate_graph("grid_torus", 9, {"rows": 3, "cols": 3}, HOP, seed=0)
    tabs = build_partial_scheme(g, HOP, k=2)
    with pytest.raises(ValueError):
        resolve(tabs, 4, 4)


# ---------------------------------------------------------------------------
# full-anchor resolution


def test_tracked_target_resolves_case_one():
    g = generate_graph("erdos_renyi", 25, {"edge_prob": 0.2}, HOP, seed=2)
    tabs = build_full_scheme(g, HOP, k=4, tracking_seed=3)
    hit = False
    for i in range(25):
        for d in tabs.tracked.tracked_by(i):
            if d == i:
                continue
            path = resolve(tabs, i, d)
            assert path.case is Case.CASE_I
            assert path.stretch == 1.0
            hit = True
    assert hit


def test_full_anchor_all_resolved_pairs_within_three():
    g = generate_graph("erdos_renyi", 64, {"edge_prob": 0.12}, HOP, seed=7)
    tabs = build_full_scheme(g, HOP, k=8, tracking_seed=1)
    ev = evaluate_all_pairs(tabs)
    assert ev.max_stretch <= 3.0
    assert ev.resolved_pairs > 0


def test_min_composition_every_resolved_pair_unit_stretch():
    metric = capacity_metric()
    g = generate_graph("erdos_renyi", 16, {"edge_prob": 0.3}, metric, seed=4)
    for tabs in (
        build_partial_scheme(g, metric, k=4),
        build_full_scheme(g, metric, k=4),
    ):
        ev = evaluate_all_pairs(tabs)
        assert ev.max_stretch == 1.0
        for _, _, case, _, _, stretch in ev.rows:
            if case in ("I", "II", "III"):
                assert stretch == 1.0


# ---------------------------------------------------------------------------
# all-pairs evaluation


def test_full_mesh_neighborhoods_resolve_everything_case_one():
    g = generate_graph("erdos_renyi", 12, {"edge_prob": 0.3}, HOP, seed=6)
    tabs = build_partial_scheme(g, HOP, k=11)
    ev = evaluate_all_pairs(tabs)
    assert ev.case_counts["I"] == 12 * 11
    assert ev.max_stretch == 1.0


@pytest.mark.parametrize("seed", range(4))
def test_partial_anchor_additive_bound_holds(seed):
    g = generate_graph("erdos_renyi", 32, {"edge_prob": 0.15}, HOP, seed=seed)
    tabs = build_partial_scheme(g, HOP, k=5)
    ev = evaluate_all_pairs(tabs)
    assert ev.max_stretch <= 5.0
    assert 1.0 <= ev.mean_stretch <= ev.max_stretch


def test_case_two_pairs_within_three():
    g = generate_graph("erdos_renyi", 36, {"edge_prob": 0.15}, HOP, seed=8)
    tabs = build_partial_scheme(g, HOP, k=5)
    count = 0
    for i in range(36):
        for d in range(36):
            if i == d:
                continue
            path = resolve(tabs, i, d)
            if path.case is Case.CASE_II:
                assert path.stretch <= 3.0 + 1e-9
                count += 1
    assert count > 0


def test_stretch_never_below_one():
    for seed in range(3):
        metric = uniform_weight_metric()
        g = generate_graph("waxman", 24, {}, metric, seed=seed)
        tabs = build_partial_scheme(g, metric, k=5)
        ev = evaluate_all_pairs(tabs)
        for _, _, case, _, _, stretch in ev.rows:
            if case in ("I", "II", "III"):
                assert stretch >= 1.0 - 1e-12


def test_table_scaling_ratio_bounded():
    for n, model, params in ((16, "grid_torus", {}), (64, "erdos_renyi", {"edge_prob": 0.12}), (256, "erdos_renyi", {"edge_prob": 0.04})):
        g = generate_graph(model, n, params, HOP, seed=0)
        from qnroute.clustering import neighborhood_size

        tabs = build_partial_scheme(g, HOP, k=neighborhood_size(n, 1.0))
        stats = table_size_stats(tabs)
        assert stats["max_over_sqrt_log"] <= 4.0


# ---------------------------------------------------------------------------
# inequality chain


def _paths_by_case(tabs, case):
    for i in range(tabs.n_e):
        for d in range(tabs.n_e):
            if i != d:
                p = resolve(tabs, i, d)
                if p.case is case:
                    yield p


def test_chain_holds_on_case_three_with_five_fold_bound():
    g = generate_graph("erdos_renyi", 32, {"edge_prob": 0.15}, HOP, seed=1)
    tabs = build_partial_scheme(g, HOP, k=4, capacity_cap=10**9)
    checked = 0
    for path in _paths_by_case(tabs, Case.CASE_III):
        trace = verify_bound_chain(path, HOP, tabs.pair_costs)
        assert trace.ok
        if len(path.repeaters) == 2:
            assert trace.bound_factor == 5
            assert trace.bound_value == 5 * tabs.pair_costs[path.source][path.dest]
        assert path.total_cost <= trace.bound_value + 1e-9
        checked += 1
        if checked >= 50:
            break
    assert checked > 0


def test_chain_case_two_three_fold_bound():
    g = generate_graph("erdos_renyi", 32, {"edge_prob": 0.15}, HOP, seed=2)
    tabs = build_partial_scheme(g, HOP, k=4)
    checked = 0
    for path in _paths_by_case(tabs, Case.CASE_II):
        trace = verify_bound_chain(path, HOP, tabs.pair_costs)
        assert trace.bound_factor == 3
        assert path.total_cost <= 3 * tabs.pair_costs[path.source][path.dest] + 1e-9
        checked += 1
        if checked >= 50:
            break
    assert checked > 0


def test_chain_boundary_equality_when_hub_cost_matches_target_cost():
    # hop metric produces many ties: find a two-repeater path whose entry hub
    # sits at exactly the source-target optimal cost and check the equality
    g = generate_graph("grid_torus", 16, {}, HOP, seed=0)
    tabs = build_partial_scheme(g, HOP, k=2, capacity_cap=10**9)
    found = False
    for path in _paths_by_case(tabs, Case.CASE_III):
        if len(path.repeaters) != 2:
            continue
        l = path.repeaters[0]
        wid = tabs.pair_costs[path.source][path.dest]
        wil = tabs.pair_costs[path.source][l]
        if wil == wid:
            trace = verify_bound_chain(path, HOP, tabs.pair_costs)
            step = next(s for s in trace.steps if "entry hub" in s.label)
            assert step.lhs == step.rhs
            found = True
            break
    assert found


def test_chain_rejects_case_one_paths():
    g = generate_graph("grid_torus", 16, {}, HOP, seed=0)
    tabs = build_partial_scheme(g, HOP, k=4)
    path = next(_paths_by_case(tabs, Case.CASE_I))
    with pytest.raises(ValueError):
        verify_bound_chain(path, HOP, tabs.pair_costs)


def test_chain_violation_raised_for_fabricated_far_hub():
    # a hand-built "case III" path through hubs unrelated to either endpoint
    # must break the neighborhood preconditions and raise
    g = generate_graph("grid_torus", 36, {"rows": 6, "cols": 6}, HOP, seed=0)
    from qnroute.topology import all_pairs_optimal

    costs = all_pairs_optimal(g, HOP)
    i, d = 0, 1
    far = max(range(36), key=lambda v: costs[0][v] + costs[1][v])
    fake = EntangledPath(
        source=i,
        dest=d,
        repeaters=(far, far),
        total_cost=costs[i][far] + costs[far][d],
        optimal=costs[i][d],
        case=Case.CASE_III,
    )
    with pytest.raises(ChainViolationError) as err:
        verify_bound_chain(fake, HOP, costs)
    assert err.value.trace is not None


# ---------------------------------------------------------------------------
# ebit lifecycle


def test_three_segment_swap_decrements_exactly_those_links():
    g = generate_graph("erdos_renyi", 32, {"edge_prob": 0.15}, HOP, seed=1)
    tabs = build_partial_scheme(g, HOP, k=4, ebit_budget=4, capacity_cap=10**9)
    path = next(p for p in _paths_by_case(tabs, Case.CASE_III) if len(p.repeaters) == 2)
    packet = make_packet(tabs.plan, path.source, path.dest)
    before = {
        (t.owner, e.e_hop): e.ebits for t in tabs.tables for e in t.entries
    }
    record = swap_and_replenish(tabs, path, packet)
    assert record.success
    consumed_links = {frozenset(seg) for seg in record.consumed}
    assert len(consumed_links) == 3
    after = {(t.owner, e.e_hop): e.ebits for t in tabs.tables for e in t.entries}
    for key, ebits in after.items():
        owner, peer = key
        if frozenset((owner, peer)) in consumed_links:
            assert ebits == before[key] - 1
        else:
            assert ebits == before[key]


def test_depleted_budget_forces_new_path_or_failure():
    g = generate_graph("erdos_renyi", 24, {"edge_prob": 0.2}, HOP, seed=3)
    tabs = build_partial_scheme(g, HOP, k=4, ebit_budget=1, capacity_cap=10**9)
    i, d = 0, next(iter(tabs.neighborhoods[0].member_ids))
    first = resolve(tabs, i, d)
    packet = make_packet(tabs.plan, i, d)
    rec1 = swap_and_replenish(tabs, first, packet)
    assert rec1.success
    second = resolve(tabs, i, d)
    if second.resolved:
        assert second.nodes != first.nodes
        rec2 = swap_and_replenish(tabs, second, packet)
        assert rec2.success
    else:
        assert second.case in (Case.FALLBACK, Case.FAILURE)


def test_replenish_restores_budget_when_rate_exceeds_consumption():
    g = generate_graph("grid_torus", 16, {}, HOP, seed=0)
    tabs = build_partial_scheme(g, HOP, k=4, ebit_budget=2)
    path = resolve(tabs, 0, next(iter(tabs.neighborhoods[0].member_ids)))
    packet = make_packet(tabs.plan, path.source, path.dest)
    for _ in range(5):
        record = swap_and_replenish(tabs, path, packet, replenish_rate=2)
        assert record.success
    for table in tabs.tables:
        for entry in table.entries:
            assert entry.ebits == tabs.ebit_budget


def test_stale_path_triggers_retry_once():
    g = generate_graph("erdos_renyi", 24, {"edge_prob": 0.25}, HOP, seed=5)
    tabs = build_partial_scheme(g, HOP, k=5, ebit_budget=1, capacity_cap=10**9)
    i = 0
    d = next(iter(tabs.neighborhoods[0].member_ids))
    stale = resolve(tabs, i, d)
    # depleting the direct link behind the resolver's back forces the retry
    for x, y in ((i, d), (d, i)):
        entry = tabs.table(x).find(y)
        if entry is not None:
            entry.ebits = 0
    packet = make_packet(tabs.plan, i, d)
    record = swap_and_replenish(tabs, stale, packet)
    assert record.retried
    if record.success:
        assert frozenset((i, d)) not in {frozenset(s) for s in record.consumed}


def ebit_counts(tabs) -> dict[tuple[int, int], int]:
    return {(t.owner, e.e_hop): e.ebits for t in tabs.tables for e in t.entries}


def test_fallback_over_a_physical_link_is_charged_on_demand():
    config = ExperimentConfig(
        n_e=64, graph_model="barabasi_albert", graph_params={"attach": 4},
        metric="uniform", scheme="full", k_override=2, ebit_budget=1,
    )
    tabs, _ = build_scheme_for_trial(config, 0)
    before = ebit_counts(tabs)
    records = [
        swap_and_replenish(tabs, resolve(tabs, 0, 6), make_packet(tabs.plan, 0, 6))
        for _ in range(100)
    ]
    assert records[0].path.case is Case.FALLBACK and records[0].path.nodes == (0, 6)
    assert tabs.table(0).find(6) is None and tabs.table(6).find(0) is None
    assert all(r.success for r in records)
    assert [r.on_demand for r in records] == [[(0, 6)]] * 100
    assert all(r.consumed == [] for r in records)
    assert ebit_counts(tabs) == before


@st.composite
def delivery_runs(draw):
    model = draw(st.sampled_from(["erdos_renyi", "barabasi_albert", "grid_torus"]))
    n_e = 16 if model == "grid_torus" else draw(st.integers(8, 20))
    graph_params = {"erdos_renyi": {"edge_prob": 0.3}, "barabasi_albert": {"attach": 2},
                    "grid_torus": {}}[model]
    config = ExperimentConfig(
        n_e=n_e, graph_model=model, graph_params=graph_params,
        metric=draw(st.sampled_from(["hop", "uniform"])),
        scheme=draw(st.sampled_from(["partial", "full"])),
        k_override=draw(st.integers(2, 4)),
        ebit_budget=draw(st.integers(1, 3)),
    )
    pair = st.tuples(st.integers(0, n_e - 1), st.integers(0, n_e - 1)).filter(
        lambda p: p[0] != p[1]
    )
    return config, draw(st.integers(0, 2**16)), draw(st.lists(pair, min_size=1, max_size=30))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(run=delivery_runs())
def test_every_delivered_segment_is_debited_or_charged_on_demand(run):
    config, seed, requests = run
    tabs, _ = build_scheme_for_trial(config, seed)
    for source, dest in requests:
        before = ebit_counts(tabs)
        record = swap_and_replenish(
            tabs, resolve(tabs, source, dest), make_packet(tabs.plan, source, dest)
        )
        after = ebit_counts(tabs)
        debits = Counter({k: before[k] - after[k] for k in before if before[k] != after[k]})
        if not record.success:
            assert not record.consumed and not record.on_demand and not debits
            continue
        nodes = record.path.nodes
        assert sorted(record.consumed + record.on_demand) == sorted(zip(nodes, nodes[1:]))
        for a, b in record.on_demand:
            assert tabs.table(a).find(b) is None and tabs.table(b).find(a) is None
        named = Counter()
        for a, b in record.consumed:
            ends = [(x, y) for x, y in ((a, b), (b, a)) if tabs.table(x).find(y) is not None]
            assert ends, f"consumed segment {(a, b)} has no entry"
            named.update(ends)
        # every entry the consumed segments name, debited once per naming
        assert debits == named


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(run=delivery_runs(), rates=st.lists(st.integers(0, 3), min_size=1, max_size=30))
def test_replenish_refills_like_a_walk_over_every_entry(run, rates):
    config, seed, requests = run
    tabs, _ = build_scheme_for_trial(config, seed)
    budget = tabs.ebit_budget
    for (source, dest), rate in zip(requests, rates):
        swap_and_replenish(tabs, resolve(tabs, source, dest), make_packet(tabs.plan, source, dest))
        below = {key for key, count in ebit_counts(tabs).items() if count < budget}
        assert set(tabs.debited) == below
        expected, expected_added = reference_replenish(ebit_counts(tabs), budget, rate)
        assert replenish(tabs, rate) == expected_added
        assert ebit_counts(tabs) == expected
    assert set(tabs.debited) == {key for key, count in ebit_counts(tabs).items() if count < budget}
    replenish(tabs, budget)
    assert not tabs.debited
    assert set(ebit_counts(tabs).values()) == {budget}


def test_replenish_rejects_a_negative_rate():
    tabs = build_partial_scheme(generate_graph("grid_torus", 16, {}, HOP, seed=0), HOP, k=4)
    with pytest.raises(ValueError, match="non-negative"):
        replenish(tabs, -1)


# Hop and integral costs fill the cost matrix by Floyd–Warshall, uniform
# costs by Dijkstra rows; capacity is min-composed.
INTEGRAL = EntanglingMetric("integral", Composition.ADDITIVE, lambda rng: float(rng.randint(1, 9)))
STRETCH_METRICS = [HOP, INTEGRAL, uniform_weight_metric(), capacity_metric()]


@st.composite
def stretch_trials(draw):
    metric = draw(st.sampled_from(STRETCH_METRICS))
    graph = draw(small_graphs(metric))
    return graph, metric, draw(st.sampled_from(["partial", "full"])), draw(st.integers(2, 4))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(trial=stretch_trials(), tracking_seed=st.integers(0, 2**16))
def test_resolved_pairs_keep_the_stretch_bound(trial, tracking_seed):
    graph, metric, scheme, k = trial
    if scheme == "partial":
        tabs = build_partial_scheme(graph, metric, k)
    else:
        tabs = build_full_scheme(graph, metric, k, tracking_seed=tracking_seed)
    stretches = [row[5] for row in evaluate_all_pairs(tabs).rows if row[2] in ("I", "II", "III")]
    assert stretches
    if metric.composition is Composition.MIN:
        assert all(abs(s - 1.0) <= 1e-9 for s in stretches)
        return
    bound = 5.0 if scheme == "partial" else 3.0
    # integer costs give exact totals; float costs may round in the last bit
    tol = 0.0 if metric in (HOP, INTEGRAL) else 1e-9
    assert max(stretches) <= bound + tol


def test_packet_requires_payload():
    plan = AddressPlan(4)
    with pytest.raises(ValueError):
        make_packet(plan, 0, 1, payload_ebits=0)
    pkt = make_packet(plan, 0, 1)
    assert pkt.source == plan.esp_addresses[0]
    assert pkt.dest == plan.esp_addresses[1]
