import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnroute import qsearch
from qnroute.errors import DimensionCapError, PartitionCountError
from qnroute.metrics import hop_count_metric
from qnroute.qsearch import (
    SuperposedAddress,
    _reduced_distribution,
    analytic_success_probability,
    apply_diffusion,
    apply_oracle,
    gate_level_distribution,
    init_search,
    instance_from_table,
    iteration_count,
    make_instance,
    measure,
    partition_neighborhood,
    routing_lookup_via_search,
    run_search,
)
from qnroute.topology import generate_graph

from conftest import (
    build_full_scheme,
    build_partial_scheme,
    complete_graph,
    reference_branch_distribution,
    reference_reduced_distribution,
)


def register_vector(members, width):
    return SuperposedAddress(frozenset(members), width).vector()


# ---------------------------------------------------------------------------
# partitioning


def test_round_robin_split_interleaves_sorted_members():
    parts = partition_neighborhood({3, 1, 2, 0}, 2)
    assert parts == (frozenset({0, 2}), frozenset({1, 3}))


def test_single_partition_is_whole_set():
    assert partition_neighborhood({5, 7}, 1) == (frozenset({5, 7}),)


def test_singleton_partitions_have_unit_amplitude():
    parts = partition_neighborhood({0, 1, 2}, 3)
    assert all(len(p) == 1 for p in parts)
    for p in parts:
        vec = register_vector(p, 2)
        member = next(iter(p))
        assert vec[member] == pytest.approx(1.0)


def test_partition_sizes_differ_by_at_most_one():
    parts = partition_neighborhood(range(11), 4)
    sizes = sorted(len(p) for p in parts)
    assert sizes[-1] - sizes[0] <= 1
    assert frozenset().union(*parts) == frozenset(range(11))


def test_too_many_partitions_rejected():
    with pytest.raises(PartitionCountError):
        partition_neighborhood({1, 2}, 3)


# ---------------------------------------------------------------------------
# state preparation


def test_label_register_uniform_amplitudes_for_four_entries():
    inst = make_instance([[{0}], [{1}], [{2}], [{3}]], address_width=2)
    state = init_search(inst)
    label_marginal = state.label_distribution()
    assert np.allclose(label_marginal, 0.25)
    # amplitude check: every nonzero amplitude has label amplitude 0.5
    assert abs(state.norm() - 1.0) < 1e-12


def test_two_entry_product_state_amplitude_by_amplitude():
    # one-qubit label, two one-qubit address registers, ancilla
    inst = make_instance([[{1}], [{0}]], address_width=1)
    state = init_search(inst)
    label = np.array([1, 1]) / math.sqrt(2)
    reg0 = np.array([0.0, 1.0])
    reg1 = np.array([1.0, 0.0])
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    expected = np.kron(np.kron(np.kron(label, reg0), reg1), minus)
    assert np.allclose(state.vector, expected, atol=1e-12)


def test_non_power_of_two_entry_count():
    inst = make_instance([[{0}], [{1}], [{2}]], address_width=2)
    state = init_search(inst)
    probs = state.label_distribution()
    assert np.allclose(probs, [1 / 3] * 3, atol=1e-12)
    assert abs(state.norm() - 1.0) < 1e-12


def test_dimension_cap_error_names_required_qubits():
    inst = make_instance([[set(range(8))] for _ in range(8)], address_width=8)
    with pytest.raises(DimensionCapError) as err:
        init_search(inst)
    assert str(inst.total_qubits) in str(err.value)


# ---------------------------------------------------------------------------
# oracle


def tiny_mixed_instance():
    """4 entries over 2-qubit addresses; entry 1 holds the target 3 with
    one companion, giving branch weight 1/2."""
    return make_instance(
        [[{0, 1}], [{3, 2}], [{0, 2}], [{1, 2}]], address_width=2
    )


def test_oracle_identity_when_target_absent_everywhere():
    inst = make_instance([[{0, 1}], [{1, 2}]], address_width=2)
    state = init_search(inst)
    before = state.vector.copy()
    apply_oracle(state, target=3)
    assert np.array_equal(state.vector, before)


def test_oracle_negates_exactly_the_marked_component():
    inst = make_instance([[{1}], [{0}]], address_width=1)
    state = init_search(inst)
    before = state.vector.copy()
    apply_oracle(state, target=1)
    # expected: same state with the (label=0, reg0=1) component negated
    expected = before.copy()
    total = state.ancilla + 1
    idx = np.arange(expected.size)
    label_bit = (idx >> (total - 1 - 0)) & 1
    reg0_bit = (idx >> (total - 1 - 1)) & 1
    mask = (label_bit == 0) & (reg0_bit == 1)
    expected[mask] *= -1
    assert np.allclose(state.vector, expected, atol=1e-12)


def test_oracle_matches_branch_decomposition_for_mixed_partition():
    # post-oracle state must equal the per-label reconstruction with the
    # hitting register's target amplitude negated under its own label
    inst = tiny_mixed_instance()
    target = 3
    state = init_search(inst)
    apply_oracle(state, target)

    width = inst.address_width
    regs = [register_vector(inst.partitions[e][0], width) for e in range(4)]
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    blocks = []
    for label in range(4):
        amp = 1.0 / 2.0  # 1/sqrt(4)
        reg_vectors = []
        for e in range(4):
            vec = regs[e].copy()
            if e == label and target in inst.partitions[e][0]:
                vec = vec.copy()
                vec[target] *= -1
            reg_vectors.append(vec)
        block = np.array([amp])
        for vec in reg_vectors:
            block = np.kron(block, vec)
        blocks.append(np.kron(block, minus))
    expected = np.concatenate(blocks)
    assert np.allclose(state.vector, expected, atol=1e-12)


def test_ancilla_kickback_equals_direct_phase_flip():
    inst = tiny_mixed_instance()
    s1 = init_search(inst)
    s2 = init_search(inst)
    apply_oracle(s1, 3, use_ancilla=True)
    apply_oracle(s2, 3, use_ancilla=False)
    assert np.allclose(s1.vector, s2.vector, atol=1e-12)


# ---------------------------------------------------------------------------
# diffusion


def test_diffusion_fixes_uniform_state():
    inst = make_instance([[{0}], [{1}], [{2}], [{3}]], address_width=2)
    state = init_search(inst)
    before = state.vector.copy()
    apply_diffusion(state)
    assert np.allclose(state.vector, before, atol=1e-12)


def test_diffusion_inversion_about_mean_arithmetic():
    # label amplitudes (.5, .5, -.5, .5) -> (0, 0, 1, 0): mean is .25 and
    # each amplitude maps to 2*mean - a
    inst = make_instance([[{0}], [{1}], [{0}], [{1}]], address_width=1)
    state = init_search(inst)
    rest = state.vector.reshape(4, -1)[0] / 0.5  # shared register ⊗ ancilla part
    label = np.array([0.5, 0.5, -0.5, 0.5])
    state.vector = np.kron(label, rest)
    apply_diffusion(state)
    out = state.vector.reshape(4, -1)
    amps = out @ rest.conj() / np.vdot(rest, rest).real
    assert np.allclose(amps, [0.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert abs(state.norm() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# iteration count


@pytest.mark.parametrize(
    "n_t,hits,expected",
    [(4, 1, 1), (16, 1, 3), (4, 4, 1), (2, 1, 1), (64, 1, 6)],
)
def test_iteration_count(n_t, hits, expected):
    assert iteration_count(n_t, hits) == expected


# ---------------------------------------------------------------------------
# full search runs


def test_single_hit_certain_after_one_iteration():
    inst = make_instance([[{0}], [{3}], [{1}], [{2}]], address_width=2)
    out = run_search(inst, target=3, iterations=1, seed=0)
    assert out.hit_labels == frozenset({1})
    assert out.success_probability == pytest.approx(1.0, abs=1e-9)
    assert out.measured == 1


def test_half_weight_branch_gives_point_six_two_five():
    out = run_search(tiny_mixed_instance(), target=3, iterations=1, seed=0)
    assert out.success_probability == pytest.approx(0.625, abs=1e-9)


def test_absent_target_leaves_uniform_distribution():
    inst = make_instance([[{0, 1}], [{1, 2}], [{0, 2}], [{2}]], address_width=2)
    out = run_search(inst, target=3, iterations=2, seed=1)
    assert np.allclose(out.distribution, 0.25, atol=1e-9)
    assert out.success_probability == 0.0


def test_reduced_engine_matches_full_engine():
    inst = tiny_mixed_instance()
    for iters in (1, 2, 3):
        full = gate_level_distribution(inst, 3, iters)
        reduced = run_search(inst, 3, iterations=iters, seed=5)
        assert np.allclose(full, reduced.distribution, atol=1e-12)
        assert measure(full, 5) == reduced.measured


def test_multi_hit_engines_agree():
    inst = make_instance(
        [[{3, 0}], [{3, 1}], [{0, 1}], [{1, 2}]], address_width=2
    )
    full = gate_level_distribution(inst, 3, 1)
    reduced = run_search(inst, 3, iterations=1, seed=2)
    assert reduced.hit_labels == frozenset({0, 1})
    assert np.allclose(full, reduced.distribution, atol=1e-12)


def test_negative_iteration_count_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        run_search(tiny_mixed_instance(), 3, iterations=-3)


def test_runs_are_deterministic_given_seed():
    inst = tiny_mixed_instance()
    a = run_search(inst, 3, iterations=1, seed=7)
    b = run_search(inst, 3, iterations=1, seed=7)
    assert a == b


# ---------------------------------------------------------------------------
# the measurement


def hashed_inverse_cdf(distribution, seed, attempt):
    """Reference sampler: the uniform from the first 53 bits of one sha256,
    and a linear scan for the first label whose running sum exceeds it."""
    digest = hashlib.sha256(f"{seed}:measurement:{attempt}".encode()).digest()
    u = (int.from_bytes(digest[:8], "big") >> 11) / 2**53
    # a left-to-right total: ``sum`` compensates its rounding on Python 3.12
    total = 0.0
    for weight in distribution:
        total += weight
    running = 0.0
    for label, weight in enumerate(distribution):
        running += weight
        if u * total < running:
            return label
    return len(distribution) - 1


def test_measure_is_the_inverse_cdf_at_one_hashed_uniform():
    rng = random.Random(3)
    for _ in range(200):
        distribution = [rng.choice([0.0, rng.random()]) for _ in range(rng.randint(1, 12))]
        distribution[rng.randrange(len(distribution))] += 0.5
        seed, attempt = rng.getrandbits(64), rng.randint(0, 5)
        assert measure(distribution, seed, attempt) == hashed_inverse_cdf(
            distribution, seed, attempt
        )


@pytest.mark.parametrize(
    "entries, attempt",
    [
        # hits at both ends of the CDF: the first label and the last
        ([[{3}], [{0}], [{1}], [{0, 2}], [{1, 2}], [{0, 1}], [{2}], [{3, 1}]], 0),
        # one hit in the middle: both ends are small background labels
        ([[{0}], [{1}], [{2}], [{3}], [{0, 1}], [{1, 2}], [{0, 2}], [{2, 1}]], 2),
    ],
    ids=["hits-at-ends", "hit-in-middle"],
)
def test_label_frequencies_match_the_closed_form(entries, attempt):
    inst = make_instance(entries, address_width=2)
    distribution = run_search(inst, 3, iterations=1).distribution
    runs = 20_000
    counts = [0] * inst.n_t
    for seed in range(runs):
        counts[measure(distribution, seed, attempt)] += 1
    assert {0, inst.n_t - 1} <= {label for label, c in enumerate(counts) if c}
    for label, p in enumerate(distribution):
        sigma = math.sqrt(runs * p * (1.0 - p))
        assert abs(counts[label] - runs * p) <= 4 * sigma + 1e-9, (label, counts, distribution)


def test_attempts_of_one_seed_measure_independently():
    distribution = [0.5, 0.5]
    runs = 20_000
    same = sum(measure(distribution, s, 0) == measure(distribution, s, 1) for s in range(runs))
    assert abs(same - runs / 2) <= 4 * math.sqrt(runs / 4)


@pytest.mark.parametrize("u, label", [(0.0, 2), (1.0 - 2.0**-53, 4)])
def test_the_extreme_uniforms_measure_no_zero_weight_label(monkeypatch, u, label):
    monkeypatch.setattr(qsearch, "unit_draw", lambda seed, name: u)
    assert measure([0.0, 0.0, 0.3, 0.0, 0.7, 0.0], 0) == label


@pytest.mark.parametrize(
    "distribution",
    [[], [0.0, 0.0], [0.5, -0.5], [-1.0, 0.25], [float("nan"), 1.0], [math.inf, 1.0]],
    ids=["empty", "zero", "cancelling", "negative", "nan", "infinite"],
)
def test_measure_rejects_a_total_that_is_not_positive_and_finite(distribution):
    with pytest.raises(ValueError):
        measure(distribution, 0)


# ---------------------------------------------------------------------------
# closed form against the branch oracle and the gate-level engine


def random_instance(rng, n_t, n_hits, f, width=6):
    """``n_t`` entries of f partitions each; exactly ``n_hits`` of them hold
    the target 0, in a partition of 1 to 3 members (branch weight 1 to 1/3)."""
    entries = []
    for label in range(n_t):
        members = rng.sample(range(1, 2**width), rng.randint(f, min(3 * f, 2**width - 1)))
        if label < n_hits:
            members[0] = 0
        entries.append(partition_neighborhood(members, f))
    rng.shuffle(entries)
    inst = make_instance(entries, address_width=width)
    assert len(inst.hit_labels(0)) == n_hits
    return inst, 0


def assert_matches_oracle(inst, target, iterations):
    closed = _reduced_distribution(inst.hit_alphas(target), inst.n_t, iterations)
    oracle = reference_branch_distribution(inst, target, iterations)
    assert np.max(np.abs(closed - oracle)) <= 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_closed_form_matches_branch_oracle(seed):
    rng = random.Random(seed)
    n_t = rng.randint(2, 14)
    inst, target = random_instance(rng, n_t, rng.randint(0, min(n_t, 12)), rng.randint(1, 3))
    for iterations in range(5):
        assert_matches_oracle(inst, target, iterations)


@pytest.mark.parametrize("n_t", [2, 5, 12])
def test_closed_form_matches_branch_oracle_when_every_label_hits(n_t):
    # s = n_T: the branch where every register sits on the target
    rng = random.Random(n_t)
    inst, target = random_instance(rng, n_t, n_t, 1)
    certain = make_instance([[{0}]] * n_t, address_width=2)
    for iterations in range(5):
        assert_matches_oracle(inst, target, iterations)
        assert_matches_oracle(certain, 0, iterations)


def test_closed_form_is_uniform_for_an_absent_target():
    # s = 0 in every branch
    inst, _ = random_instance(random.Random(3), 9, 0, 2)
    for iterations in range(4):
        closed = _reduced_distribution(inst.hit_alphas(0), inst.n_t, iterations)
        assert np.allclose(closed, 1 / 9, atol=1e-15)
        assert_matches_oracle(inst, 0, iterations)


def test_closed_form_matches_branch_oracle_at_twelve_hits():
    inst, target = random_instance(random.Random(12), 14, 12, 1)
    for iterations in (1, 3):
        assert_matches_oracle(inst, target, iterations)


@st.composite
def hit_lists(draw):
    """n_T up to 80 labels, up to 40 of them hit with weights 1/1 to 1/20."""
    n_t = draw(st.integers(2, 80))
    labels = draw(st.permutations(range(n_t)))[: draw(st.integers(0, min(40, n_t)))]
    alphas = st.integers(1, 20).map(lambda size: 1.0 / size)
    return [(label, draw(alphas)) for label in labels], n_t


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=hit_lists(), iterations=st.integers(1, 8))
def test_closed_form_matches_the_leave_one_out_recurrence(case, iterations):
    hits, n_t = case
    closed = _reduced_distribution(hits, n_t, iterations)
    assert all(type(p) is float for p in closed)
    oracle = reference_reduced_distribution(hits, n_t, iterations)
    assert np.max(np.abs(np.subtract(closed, oracle))) <= 1e-15


@pytest.mark.parametrize("n_t,f,width", [(4, 1, 3), (5, 1, 3), (4, 2, 2)])
@pytest.mark.parametrize("seed", range(2))
def test_multi_hit_success_probability_matches_full_engine(n_t, f, width, seed):
    rng = random.Random(seed)
    inst, target = random_instance(rng, n_t, rng.randint(2, n_t), f, width=width)
    for iterations in (1, 2, 3):
        full = gate_level_distribution(inst, target, iterations)
        closed = run_search(inst, target, iterations=iterations)
        full_success = sum(full[label] for label in inst.hit_labels(target))
        assert closed.success_probability == pytest.approx(full_success, abs=1e-9)
        assert np.max(np.abs(np.subtract(closed.distribution, full))) <= 1e-12


def test_table_with_more_than_twenty_hits_is_searched():
    tabs = build_partial_scheme(complete_graph(32), hop_count_metric(), k=24)
    owner, target = next(
        (o, t)
        for o in range(32)
        for t in range(32)
        if t != o and sum(t in e.reach for e in tabs.table(o).entries) >= 21
    )
    table = tabs.table(owner)
    result = routing_lookup_via_search(tabs, owner, target, seed=0, repeats=3)
    assert result.attempts >= 1
    assert not result.classical_fallback
    assert result.found
    assert target in table.entries[result.entry_label].reach


# ---------------------------------------------------------------------------
# non-destructiveness


def test_absent_target_search_preserves_every_register_exactly():
    inst = make_instance([[{0, 1}], [{1, 2}], [{0, 2}], [{2}]], address_width=2)
    state = init_search(inst)
    for _ in range(2):
        apply_oracle(state, 3)
        apply_diffusion(state)
    for (e, p) in state.register_spans:
        assert state.register_fidelity(e, p) == pytest.approx(1.0, abs=1e-9)


def test_non_hit_registers_untouched_even_when_another_entry_hits():
    inst = tiny_mixed_instance()
    state = init_search(inst)
    apply_oracle(state, 3)
    apply_diffusion(state)
    for (e, p) in state.register_spans:
        if not any(3 in part for part in inst.partitions[e]):
            assert state.register_fidelity(e, p) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# analytic model


def test_analytic_zero_alpha_is_uniform_background():
    for iters in (1, 2, 5):
        assert analytic_success_probability(8, 0.0, 2, iters) == pytest.approx(0.25)


def test_analytic_full_alpha_single_hit_certainty():
    assert analytic_success_probability(4, 1.0, 1, 1) == pytest.approx(1.0)


def test_analytic_cross_validates_exact_simulation():
    exact = run_search(tiny_mixed_instance(), 3, iterations=1).success_probability
    model = analytic_success_probability(4, 0.5, 1, 1)
    assert exact == pytest.approx(model, abs=1e-9)


@pytest.mark.parametrize("n_t", [2, 4, 8, 16])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("iters", [1, 2, 3])
def test_single_hit_exact_matches_analytic_on_grid(n_t, alpha, iters):
    width = 6
    per = int(round(1 / alpha))
    hit_members = set(range(32, 32 + per))  # contains target 32
    others = [[set(range(idx * 2, idx * 2 + 2))] for idx in range(n_t - 1)]
    inst = make_instance([[hit_members]] + others, address_width=width)
    out = run_search(inst, 32, iterations=iters)
    expected = analytic_success_probability(n_t, alpha, 1, iters)
    assert out.success_probability == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# f-monotonicity


def test_success_probability_non_decreasing_in_partition_count():
    members = list(range(8, 16))  # includes target 8
    filler = list(range(8))
    probs = []
    for f in (1, 2, 4):
        entries = [partition_neighborhood(members, f)] + [
            partition_neighborhood(filler, f) for _ in range(3)
        ]
        inst = make_instance(entries, address_width=4)
        out = run_search(inst, 8, iterations=1)
        probs.append(out.success_probability)
    assert probs == sorted(probs)
    assert probs[-1] > probs[0]


# ---------------------------------------------------------------------------
# lookup against routing tables


def lookup_scheme():
    g = generate_graph("erdos_renyi", 8, {"edge_prob": 0.4}, hop_count_metric(), seed=1)
    return build_partial_scheme(g, hop_count_metric(), k=3, f=1)


def test_lookup_instance_round_trips_through_plan():
    tabs = lookup_scheme()
    inst = instance_from_table(tabs.table(0), tabs.plan)
    assert inst.n_t == len(tabs.table(0).entries)
    assert inst.address_width == tabs.plan.width


def test_lookup_agrees_with_classical_mirror_on_verified_hits():
    tabs = lookup_scheme()
    for owner in range(8):
        table = tabs.table(owner)
        mirror_hits = {
            e.e_hop: {m for m in e.reach} for e in table.entries
        }
        for target in range(8):
            if target == owner:
                continue
            result = routing_lookup_via_search(tabs, owner, target, seed=owner * 8 + target)
            true_hit_entries = [
                lbl for lbl, e in enumerate(table.entries) if target in e.reach
            ]
            if result.found:
                assert result.entry_label in true_hit_entries
            elif not true_hit_entries:
                assert result.success_probability == 0.0
    assert mirror_hits  # sanity: tables were nonempty


def test_lookup_miss_rate_consistent_with_success_probability():
    tabs = lookup_scheme()
    owner = 0
    table = tabs.table(owner)
    target = None
    for cand in range(8):
        if cand == owner:
            continue
        hits = [e for e in table.entries if cand in e.reach]
        if len(hits) == 1:
            target = cand
            break
    assert target is not None
    found = 0
    runs = 600
    prob = None
    for s in range(runs):
        result = routing_lookup_via_search(tabs, owner, target, seed=s)
        prob = result.success_probability
        found += int(result.found)
    sigma = math.sqrt(runs * prob * (1 - prob))
    assert abs(found - runs * prob) <= max(3 * sigma, 1e-9)


def test_hit_multiplicity_measured_not_asserted():
    # redundancy check: a target reachable through several entries shows up
    # as multiple hit labels; the multiplicity is measured, not pinned to a
    # constant, since it depends on neighborhood overlap at desk scale
    tabs = lookup_scheme()
    multiplicities = []
    for owner in range(8):
        inst = instance_from_table(tabs.table(owner), tabs.plan)
        for target in range(8):
            if target == owner:
                continue
            hits = inst.hit_labels(target)
            if hits:
                multiplicities.append(len(hits))
    assert multiplicities
    assert max(multiplicities) >= 2  # overlap produces redundant hits
    assert min(multiplicities) >= 1


def test_lookup_absent_target_never_found():
    # owner whose table does not reach some target at all
    tabs = lookup_scheme()
    for owner in range(8):
        table = tabs.table(owner)
        reachable = set().union(*(e.reach for e in table.entries)) | {
            e.e_hop for e in table.entries
        }
        missing = [t for t in range(8) if t != owner and t not in reachable]
        for target in missing:
            result = routing_lookup_via_search(tabs, owner, target, seed=3)
            assert not result.found
            assert result.entry_label is None


def attempt_labels(tabs, owner, target, seed, repeats):
    """Per-attempt oracle: a fresh search measured at each attempt."""
    instance = instance_from_table(tabs.table(owner), tabs.plan)
    return [
        measure(run_search(instance, target, seed=seed).distribution, seed, attempt)
        for attempt in range(repeats)
    ]


def test_repeated_miss_computes_the_distribution_once(monkeypatch):
    tabs = lookup_scheme()
    owner, target = next(
        (o, t)
        for o in range(8)
        for t in range(8)
        if t != o and not any(t in e.reach for e in tabs.table(o).entries)
    )
    expected = attempt_labels(tabs, owner, target, seed=5, repeats=5)
    calls = []

    def counted(*args):
        calls.append(args)
        return _reduced_distribution(*args)

    monkeypatch.setattr(qsearch, "_reduced_distribution", counted)
    # the oracle above warmed the memo; a cold one evaluates the closed form once
    qsearch._normalized_marginal.cache_clear()
    result = routing_lookup_via_search(tabs, owner, target, seed=5, repeats=5)
    assert len(calls) == 1
    assert not result.found
    assert result.attempts == 5
    assert list(result.measured) == expected
    assert len(set(expected)) > 1, "the attempts should not all measure one label"


def test_repeated_lookup_labels_follow_the_per_attempt_oracle():
    tabs = lookup_scheme()
    for owner in range(8):
        for target in range(8):
            if target == owner:
                continue
            result = routing_lookup_via_search(tabs, owner, target, seed=owner, repeats=6)
            expected = attempt_labels(tabs, owner, target, seed=owner, repeats=6)
            assert list(result.measured) == expected[: result.attempts]


def test_lookup_labels_match_the_pinned_digest():
    # 1984 seeded lookups with up to 17 hits; a change to the engine's
    # arithmetic that moves any measured label or found flag fails here
    g = generate_graph("erdos_renyi", 32, {"edge_prob": 0.2}, hop_count_metric(), seed=7)
    tabs = build_partial_scheme(g, hop_count_metric(), k=8, f=2)
    lines = []
    for seed in range(2):
        for owner in range(32):
            for target in range(32):
                if target == owner:
                    continue
                result = routing_lookup_via_search(
                    tabs, owner, target, seed=1000 * seed + 32 * owner + target, repeats=2
                )
                measured = "-".join(map(str, result.measured))
                lines.append(f"{owner},{target},{seed},{int(result.found)},{measured}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "3c65e2c1944fdb83eb0d4cb8f6ea073bbb0d3f4a6dec14291d3906999ecf6075"
    )


def test_lookup_needs_at_least_one_attempt():
    with pytest.raises(ValueError, match="repeats"):
        routing_lookup_via_search(lookup_scheme(), 0, 1, repeats=0)


# ---------------------------------------------------------------------------
# the memoised marginal


def normalized_closed_form(inst, target, iterations):
    """The distribution and success probability normalized from the full
    closed-form list, with no memo: clip, total, divide, sum the hits."""
    hits = inst.hit_alphas(target)
    probs = [max(p, 0.0) for p in _reduced_distribution(hits, inst.n_t, iterations)]
    total = math.fsum(probs)
    distribution = tuple(p / total for p in probs)
    return distribution, math.fsum(distribution[label] for label, _ in hits)


@pytest.mark.parametrize("seed", range(4))
def test_memoised_marginal_is_the_normalized_closed_form_bit_for_bit(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n_t = rng.randint(2, 24)
        inst, target = random_instance(rng, n_t, rng.randint(0, n_t), rng.randint(1, 3))
        iterations = rng.randint(0, 6)
        outcome = run_search(inst, target, iterations=iterations, seed=seed)
        distribution, success = normalized_closed_form(inst, target, iterations)
        assert repr(outcome.distribution) == repr(distribution)
        assert repr(outcome.success_probability) == repr(success)


def test_search_outcomes_match_the_pinned_digest():
    # 7,936 searches on partial and full tables with f = 2 and 3, so part
    # sizes differ and the hit weights take two values; each at the standard
    # iteration count and at 3. A change that moves any probability's bits,
    # or a memo that mixes up keys, fails here.
    g = generate_graph("erdos_renyi", 32, {"edge_prob": 0.2}, hop_count_metric(), seed=7)
    lines = []
    for build in (build_partial_scheme, build_full_scheme):
        for f in (2, 3):
            tabs = build(g, hop_count_metric(), k=7, f=f)
            for owner in range(32):
                inst = instance_from_table(tabs.table(owner), tabs.plan)
                for target in range(32):
                    if target == owner:
                        continue
                    for iterations in (None, 3):
                        out = run_search(inst, target, iterations=iterations, seed=owner)
                        lines.append(
                            f"{out.distribution!r};{out.success_probability!r};{out.iterations}\n"
                        )
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "6790d4361966dcd4fa830d652e54ef2aedb5a4acc1a1a79f8a18b230a8a7853e"
    )


def test_a_cold_memo_gives_the_warm_lookup():
    tabs = lookup_scheme()
    inst = instance_from_table(tabs.table(0), tabs.plan)
    target = max(range(1, 8), key=lambda t: len(inst.hit_labels(t)))
    qsearch._normalized_marginal.cache_clear()
    cold = run_search(inst, target, seed=11)
    warm = run_search(inst, target, seed=11)
    assert qsearch._normalized_marginal.cache_info().hits == 1
    assert len(cold.hit_labels) >= 2
    assert repr(cold) == repr(warm)


def test_tables_sharing_a_memo_key_keep_their_own_hit_labels():
    # both hit target 0 with weights (1, 1/2) in label order, at other labels
    first = make_instance([[{0}], [{1, 2}], [{3}], [{0, 4}], [{5}]], address_width=3)
    second = make_instance([[{5}], [{0}], [{3}], [{1}], [{0, 4}]], address_width=3)
    assert first.hit_alphas(0) == [(0, 1.0), (3, 0.5)]
    assert second.hit_alphas(0) == [(1, 1.0), (4, 0.5)]
    a = run_search(first, 0, seed=1)
    b = run_search(second, 0, seed=1)
    assert a.hit_labels == {0, 3} and b.hit_labels == {1, 4}
    for inst, out in ((first, a), (second, b)):
        distribution, success = normalized_closed_form(inst, 0, out.iterations)
        assert out.distribution == distribution
        assert out.success_probability == success
    assert a.distribution[0] == b.distribution[1] != a.distribution[3] == b.distribution[4]
    assert a.distribution[1] == b.distribution[0]
