import math
from collections import Counter

import pytest

from qnroute.clustering import (
    Scheme,
    TrackedSets,
    assign_all_tracking,
    build_anchor_set_greedy,
    build_anchor_set_random,
    build_tracked_sets,
    neighborhood_size,
    verify_coverage,
)
from qnroute.metrics import hop_count_metric
from qnroute.topology import (
    ENeighborhood,
    all_neighborhoods,
    all_pairs_optimal,
    generate_graph,
)

from conftest import greedy_size_bound

HOP = hop_count_metric()


def full_neighborhoods(n: int) -> list[ENeighborhood]:
    return [
        ENeighborhood(owner=v, members=tuple(u for u in range(n) if u != v))
        for v in range(n)
    ]


# ---------------------------------------------------------------------------
# neighborhood size


def test_neighborhood_size_small_network_clamps_to_full():
    # ceil(2 * 4 * ln 16) = ceil(22.18) = 23, clamped to 15
    assert math.ceil(2 * 4 * math.log(16)) == 23
    assert neighborhood_size(16, 1.0) == 15


def test_neighborhood_size_large_network_unclamped():
    # ceil(2 * 100 * ln 10000) = 1843 < 9999
    assert neighborhood_size(10000, 1.0) == 1843


def test_neighborhood_size_two_nodes():
    assert neighborhood_size(2, 1.0) == 1


# ---------------------------------------------------------------------------
# anchor sets


def test_random_anchor_count_is_sqrt():
    anchors = build_anchor_set_random(16, seed=5)
    assert anchors.size == 4


def test_full_neighborhoods_make_any_anchor_set_cover():
    nbs = full_neighborhoods(12)
    anchors = build_anchor_set_random(12, seed=1)
    report = verify_coverage(Scheme.PARTIAL_ANCHOR, nbs, anchors=anchors)
    assert report.failure_fraction == 0.0
    # even a singleton hub set covers: every other neighborhood contains it
    from qnroute.clustering import AnchorSet

    singleton = AnchorSet(members=frozenset({5}), construction="random")
    assert verify_coverage(Scheme.PARTIAL_ANCHOR, nbs, anchors=singleton).passed


def test_random_cover_failure_rate_low_at_desk_scale():
    g = generate_graph("erdos_renyi", 64, {"edge_prob": 0.15}, HOP, seed=0)
    k = neighborhood_size(64, 1.0)
    nbs = all_neighborhoods(g, k, all_pairs_optimal(g, HOP))
    fractions = []
    for seed in range(200):
        anchors = build_anchor_set_random(64, seed=seed)
        fractions.append(
            verify_coverage(Scheme.PARTIAL_ANCHOR, nbs, anchors=anchors).failure_fraction
        )
    assert sum(fractions) / len(fractions) < 0.05


def test_greedy_cover_single_anchor_for_full_neighborhoods():
    nbs = full_neighborhoods(9)
    anchors = build_anchor_set_greedy(nbs)
    assert anchors.size == 1
    assert verify_coverage(Scheme.PARTIAL_ANCHOR, nbs, anchors=anchors).passed


def test_greedy_cover_on_torus_respects_size_bound():
    g = generate_graph("grid_torus", 16, {}, HOP, seed=0)
    nbs = all_neighborhoods(g, 4, all_pairs_optimal(g, HOP))
    anchors = build_anchor_set_greedy(nbs)
    report = verify_coverage(Scheme.PARTIAL_ANCHOR, nbs, anchors=anchors)
    assert report.failure_fraction == 0.0
    assert anchors.size <= greedy_size_bound(16, 4)  # 16*(1+ln 16)/4 ~ 15.1


def test_greedy_covers_disjoint_cliques_with_one_anchor_each():
    # two 4-cliques joined by one bridge; k=2 keeps neighborhoods inside cliques
    from conftest import complete_graph

    g = complete_graph(4)
    g.n_e = 8
    for v in range(4, 8):
        g.adjacency.setdefault(v, {})
    import itertools

    for a, b in itertools.combinations(range(4, 8), 2):
        g.add_edge(a, b, 1.0)
    g.add_edge(3, 4, 10.0)
    nbs = all_neighborhoods(g, 2, all_pairs_optimal(g, HOP))
    anchors = build_anchor_set_greedy(nbs)
    assert verify_coverage(Scheme.PARTIAL_ANCHOR, nbs, anchors=anchors).passed
    assert anchors.size == 2
    # a randomized draw can easily land both anchors in one clique and miss
    misses = 0
    for seed in range(50):
        rnd = build_anchor_set_random(8, seed=seed)
        if not verify_coverage(Scheme.PARTIAL_ANCHOR, nbs, anchors=rnd).passed:
            misses += 1
    assert misses > 0


# ---------------------------------------------------------------------------
# tracked sets


def test_tracked_sets_sixteen_nodes_four_blocks_of_four():
    blocks = build_tracked_sets(16)
    assert [len(b) for b in blocks] == [4, 4, 4, 4]
    assert blocks[0] == (0, 1, 2, 3)


def test_tracked_sets_five_nodes_blocks_three_two():
    assert [len(b) for b in build_tracked_sets(5)] == [3, 2]


@pytest.mark.parametrize("n_e", range(2, 65))
def test_tracked_sets_partition_invariants(n_e):
    seen = set()
    cap = math.ceil(math.sqrt(n_e))
    for block in build_tracked_sets(n_e):
        assert len(block) <= cap
        assert seen.isdisjoint(block)
        seen.update(block)
    assert seen == set(range(n_e))


def test_assign_tracking_single_block_forced():
    blocks = build_tracked_sets(2)  # capacity 2 -> one block
    assert len(blocks) == 1
    assert assign_all_tracking(blocks, 2, seed=9).assignment == (0, 0)


def test_assign_tracking_deterministic_per_seed_and_node():
    # a node's choice depends only on (seed, node), not on how many nodes draw
    blocks = build_tracked_sets(16)
    first = assign_all_tracking(blocks, 16, seed=3)
    assert assign_all_tracking(blocks, 16, seed=3) == first
    assert assign_all_tracking(blocks, 8, seed=3).assignment == first.assignment[:8]
    assert len(set(first.assignment)) > 1


def test_assign_tracking_uniform_over_blocks():
    blocks = build_tracked_sets(16)  # 4 blocks
    counts = Counter()
    samples = 100_000
    for s in range(samples // 16):
        counts.update(assign_all_tracking(blocks, 16, seed=s).assignment)
    expected = samples / 4
    sigma = math.sqrt(samples * 0.25 * 0.75)
    for idx in range(4):
        assert abs(counts[idx] - expected) < 3 * sigma


# ---------------------------------------------------------------------------
# coverage


def test_full_anchor_coverage_pathological_shared_block():
    n = 16
    # everyone tracks block 0 = {0,1,2,3}
    tracked = TrackedSets(build_tracked_sets(n), (0,) * n)
    nbs = full_neighborhoods(n)
    report = verify_coverage(Scheme.FULL_ANCHOR, nbs, tracked=tracked)
    # every target outside block 0 is unreachable through tracking
    expected_failures = {(i, d) for i in range(n) for d in range(4, n) if d != i}
    assert set(report.uncovered) == expected_failures


def test_full_anchor_coverage_healthy_assignment():
    n = 16
    g = generate_graph("erdos_renyi", n, {"edge_prob": 0.4}, HOP, seed=2)
    nbs = all_neighborhoods(g, neighborhood_size(n, 1.0), all_pairs_optimal(g, HOP))
    tracked = assign_all_tracking(build_tracked_sets(n), n, seed=4)
    report = verify_coverage(Scheme.FULL_ANCHOR, nbs, tracked=tracked)
    # random block choices miss a given target's block from a 15-neighborhood
    # with probability (3/4)^15 ~ 0.013 per pair
    assert report.failure_fraction < 0.05


def test_randomized_coverage_monotone_in_oversampling():
    # Desk-scale trend: larger neighborhoods (larger m) fail less often.
    # The formula's k clamps to full at n=64, which degenerates the check, so
    # the trend is exercised with sqrt-scaled neighborhoods.
    g = generate_graph("erdos_renyi", 64, {"edge_prob": 0.15}, HOP, seed=0)
    means = []
    for m in (1.0, 2.0):
        k = math.ceil((1 + m) * math.sqrt(64))
        nbs = all_neighborhoods(g, k, all_pairs_optimal(g, HOP))
        fractions = [
            verify_coverage(
                Scheme.PARTIAL_ANCHOR, nbs, anchors=build_anchor_set_random(64, seed=s)
            ).failure_fraction
            for s in range(200)
        ]
        means.append(sum(fractions) / len(fractions))
    assert means[1] < means[0]
