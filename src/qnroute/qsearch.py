"""Amplitude-amplified lookup over superposed address registers.

The searchable object is a routing table's classical mirror: n_T entries,
each announcing f disjoint partitions of its peer's e-neighborhood as uniform
superpositions over basis states. Registers hold node ids (n_e <= 2^width);
which basis state names which node is a naming choice, and relabeling them
by any injection changes no label probability. A label register holds the
entry indices in equal superposition; the oracle is a multi-controlled phase
kick, conditioned jointly on the label matching an entry and on that entry's
address register matching the target, so the phase inversion itself rides in
superposition: the component where the register holds the target is marked,
every orthogonal component evolves as if no oracle fired. Diffusion acts on
the label register only.

Every lookup runs one engine: a closed form for the exact label marginal in
plain Python floats, so no table is too large to search. Its values depend
only on the hit weights in hit order, n_T and the iteration count, so the
normalized marginal is memoised on that key (``_normalized_marginal``, an
LRU cache of ``MARGINAL_CACHE_SIZE`` keys). A lookup then costs one scan of
the table's partitions for the h entries that hold the target, O(h) Python
steps to place the hit values, and C-level list operations over the n_T
labels. ``gate_level_distribution`` materializes the full joint statevector
(label x all address registers x ancilla) up to a qubit cap and is kept as
the reference; it is the only user of numpy here, and the two agree to
numerical precision.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionCapError, PartitionCountError
from .rng import unit_draw

CAP_QUBITS = 22

# Distinct (hit weights, n_T, iterations) keys the marginal memo keeps; one
# serve-stream pass over 256 tables meets about 300.
MARGINAL_CACHE_SIZE = 1024

NORM_TOL = 1e-12


def partition_neighborhood(members, f: int):
    """Split ``members`` into f disjoint parts, round-robin by sorted value.

    Part sizes differ by at most one and the union is exactly ``members``.
    """
    if f < 1:
        raise PartitionCountError("partition count must be at least 1")
    members = sorted(members)
    if f > len(members):
        raise PartitionCountError(
            f"cannot split {len(members)} members into {f} nonempty partitions"
        )
    return tuple(frozenset(members[l::f]) for l in range(f))


@dataclass(frozen=True)
class SuperposedAddress:
    """Uniform superposition over the basis states of one partition."""

    partition: frozenset[int]
    register_width: int

    @property
    def amplitude(self) -> float:
        return 1.0 / math.sqrt(len(self.partition))

    def vector(self) -> np.ndarray:
        vec = np.zeros(2**self.register_width, dtype=np.complex128)
        for member in self.partition:
            vec[member] = self.amplitude
        return vec


@dataclass(frozen=True)
class SearchInstance:
    """The searchable table content: each label's partitions of node ids."""

    partitions: tuple[tuple[frozenset[int], ...], ...]
    address_width: int

    @property
    def n_t(self) -> int:
        return len(self.partitions)

    @property
    def label_width(self) -> int:
        return max(1, math.ceil(math.log2(self.n_t)))

    @property
    def total_qubits(self) -> int:
        regs = sum(len(parts) for parts in self.partitions)
        return self.label_width + regs * self.address_width + 1

    def hit_labels(self, target: int) -> frozenset[int]:
        return frozenset(label for label, _ in self.hit_alphas(target))

    def hit_alphas(self, target: int) -> list[tuple[int, float]]:
        """(label, weight of the inverting branch) per hitting entry; an
        entry's parts are disjoint, so at most one of them holds the target."""
        return [
            (label, 1.0 / len(part))
            for label, parts in enumerate(self.partitions)
            for part in parts
            if target in part
        ]


def make_instance(partition_lists, address_width: int) -> SearchInstance:
    parts = tuple(tuple(frozenset(p) for p in e) for e in partition_lists)
    return SearchInstance(parts, address_width)


def instance_from_table(table, plan) -> SearchInstance:
    """A routing table's classical mirror as a search instance.

    Labels are positions in the table and registers hold node ids at the
    plan's address width; the instance shares the entries' partitions.
    """
    return SearchInstance(table.partitions, plan.width)


# ---------------------------------------------------------------------------
# Full gate-level engine


@dataclass
class SearchState:
    """Joint statevector over label register, address registers, ancilla.

    Qubit 0 is the most significant bit of the joint basis index; the label
    register leads, and each address register occupies a contiguous qubit
    span recorded in ``register_spans``.
    """

    instance: SearchInstance
    vector: np.ndarray
    register_spans: dict[tuple[int, int], tuple[int, int]] = field(repr=False)
    ancilla: int = 0

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def label_distribution(self) -> np.ndarray:
        """Exact marginal over the first n_T labels."""
        mat = self.vector.reshape(2**self.instance.label_width, -1)
        probs = np.sum(np.abs(mat) ** 2, axis=1)
        return probs[: self.instance.n_t]

    def register_fidelity(self, entry: int, partition: int) -> float:
        """Fidelity of one address register's reduced state with its initial
        uniform superposition."""
        start, stop = self.register_spans[(entry, partition)]
        width = stop - start
        before = 2**start
        mid = 2**width
        after = self.vector.size // (before * mid)
        psi = self.vector.reshape(before, mid, after)
        rho = np.einsum("aib,ajb->ij", psi, psi.conj())
        ref = SuperposedAddress(
            self.instance.partitions[entry][partition], width
        ).vector()
        return float(np.real(ref.conj() @ rho @ ref))


def init_search(instance: SearchInstance) -> SearchState:
    """Prepare the joint state: equal label superposition over the n_T entry
    labels, each address register in its announced superposition, ancilla in
    the minus state for phase kickback. An instance wider than
    ``CAP_QUBITS`` raises ``DimensionCapError``."""
    if instance.n_t < 2:
        raise ValueError("search needs at least 2 entries")
    qubits = instance.total_qubits
    if qubits > CAP_QUBITS:
        raise DimensionCapError(f"instance needs {qubits} qubits, cap is {CAP_QUBITS}")

    n_label = instance.label_width
    label = np.zeros(2**n_label, dtype=np.complex128)
    label[: instance.n_t] = 1.0 / math.sqrt(instance.n_t)

    vector = label
    register_spans: dict[tuple[int, int], tuple[int, int]] = {}
    offset = n_label
    for e_idx, parts in enumerate(instance.partitions):
        for p_idx, part in enumerate(parts):
            reg = SuperposedAddress(part, instance.address_width).vector()
            vector = np.kron(vector, reg)
            register_spans[(e_idx, p_idx)] = (offset, offset + instance.address_width)
            offset += instance.address_width

    minus = np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0)
    vector = np.kron(vector, minus)

    state = SearchState(
        instance=instance,
        vector=vector,
        register_spans=register_spans,
        ancilla=offset,
    )
    assert abs(state.norm() - 1.0) < NORM_TOL
    return state


def apply_oracle(
    state: SearchState, target: int, use_ancilla: bool = True
) -> SearchState:
    """One oracle pass: the controlled phase kick for every entry register.

    The control condition is label == entry AND register == target. With
    ``use_ancilla`` the kick is a multi-controlled X onto the minus-state
    ancilla (the circuit's realization); otherwise the amplitude signs are
    flipped directly. Both are asserted unitary and agree exactly. Registers
    whose partition cannot hold the target contribute an identity, leaving
    the state untouched on their account.
    """
    inst = state.instance
    total = state.ancilla + 1
    norm_before = state.norm()
    # one row per label value; columns index the qubits below the label
    rows = state.vector.reshape(2**inst.label_width, -1)
    columns = np.arange(rows.shape[1])
    ancilla_bit = 1 << (total - 1 - state.ancilla)
    width_mask = (1 << inst.address_width) - 1
    for e_idx, parts in enumerate(inst.partitions):
        row = rows[e_idx]
        for p_idx in range(len(parts)):
            _start, stop = state.register_spans[(e_idx, p_idx)]
            marked = np.flatnonzero(((columns >> (total - stop)) & width_mask) == target)
            if not marked.size:
                continue
            if use_ancilla:
                low = marked[(marked & ancilla_bit) == 0]
                high = low | ancilla_bit
                row[low], row[high] = row[high], row[low].copy()
            else:
                row[marked] *= -1.0
    assert abs(state.norm() - norm_before) < NORM_TOL
    return state


def apply_diffusion(state: SearchState) -> SearchState:
    """Inversion about the mean on the label register only.

    Implemented as the reflection through the uniform superposition over the
    n_T used labels, which keeps the operation unitary for entry counts that
    are not powers of two; unused label basis states carry zero amplitude
    throughout and pick up only a sign.
    """
    inst = state.instance
    n_label = inst.label_width
    u = np.zeros(2**n_label, dtype=np.complex128)
    u[: inst.n_t] = 1.0 / math.sqrt(inst.n_t)
    mat = state.vector.reshape(2**n_label, -1)
    proj = u.conj() @ mat
    state.vector = (2.0 * np.outer(u, proj) - mat).reshape(-1)
    assert abs(state.norm() - 1.0) < NORM_TOL
    return state


def gate_level_distribution(
    instance: SearchInstance, target: int, iterations: int
) -> list[float]:
    """The reference engine: the exact label marginal after ``iterations``
    oracle and diffusion rounds on the full joint statevector."""
    state = init_search(instance)
    for _ in range(iterations):
        apply_oracle(state, target)
        apply_diffusion(state)
    return state.label_distribution().tolist()


# ---------------------------------------------------------------------------
# Closed-form exact engine


def _reduced_distribution(
    hits: list[tuple[int, float]], n_t: int, iterations: int
) -> list[float]:
    """Exact label marginal in closed form, from ``hit_alphas`` of an
    instance with ``n_t`` labels.

    Per hitting entry j the state splits into an inverting branch (weight
    alpha_j, its register on the target) and a non-inverting one; registers
    without the target stay in product form and drop out. Branches never
    mix, so the state is a mixture over marked sets S of hit labels, and each
    branch is plain multi-target Grover: a label in S ends at
    sin^2((2t+1)theta_s)/s, any other at cos^2((2t+1)theta_s)/(n_T - s), with
    theta_s = asin sqrt(s/n_T) and s = |S| (Boyer, Brassard, Hoyer & Tapp,
    1998). Only the Poisson-binomial pmf of s is needed: over all hits for a
    label that is not hit, over the other hits for hit label j.

    The pmf over the other hits is the convolution of the pmf over the hits
    before j (a forward pass keeps these prefixes) with the pmf over the hits
    after j. A backward pass folds the latter into the two value vectors
    instead, one hit at a time, so each hit label costs two O(h) dot
    products and the whole marginal O(n_T + h^2), with no division by a
    Bernoulli factor.
    """
    h = len(hits)
    marked = [0.0] * (h + 1)
    unmarked = [0.0] * (h + 1)
    for s in range(h + 1):
        angle = (2 * iterations + 1) * math.asin(math.sqrt(s / n_t))
        if s:
            marked[s] = math.sin(angle) ** 2 / s
        if s < n_t:
            unmarked[s] = math.cos(angle) ** 2 / (n_t - s)

    # prefix[j]: pmf of |S| over the hits before j, on 0..j
    prefix = [[1.0]]
    for _, alpha in hits:
        last, keep = prefix[-1], 1.0 - alpha
        prefix.append(
            [last[0] * keep]
            + [p * keep + q * alpha for p, q in zip(last[1:], last)]
            + [last[-1] * alpha]
        )

    probs = [math.fsum(map(operator.mul, prefix[h], unmarked))] * n_t
    # up[a], stay[a]: the expected marked[a + 1 + b], unmarked[a + b] over the
    # count b of marked hits after j
    up, stay = marked[1:], unmarked[:h]
    for j in range(h - 1, -1, -1):
        label, alpha = hits[j]
        keep = 1.0 - alpha
        marked_mean = math.fsum(map(operator.mul, prefix[j], up))
        unmarked_mean = math.fsum(map(operator.mul, prefix[j], stay))
        probs[label] = alpha * marked_mean + keep * unmarked_mean
        up = [p * keep + q * alpha for p, q in zip(up, up[1:])]
        stay = [p * keep + q * alpha for p, q in zip(stay, stay[1:])]
    return probs


@functools.lru_cache(maxsize=MARGINAL_CACHE_SIZE)
def _normalized_marginal(
    alphas: tuple[float, ...], n_t: int, iterations: int
) -> tuple[float, tuple[float, ...], float]:
    """The normalized label marginal for hit weights ``alphas`` in hit order:
    the value of every label that is not hit, the value of each hit label in
    hit order, and the success probability.

    The closed form depends on the weights in hit order, not on which labels
    hit, so it is evaluated with hit j at label j. The clip, the total and
    each division are those of the full distribution, and ``math.fsum`` is
    correctly rounded, so the values are the same bits at any labels.
    """
    h = len(alphas)
    hits = list(enumerate(alphas))
    probs = [max(p, 0.0) for p in _reduced_distribution(hits, n_t, iterations)]
    total = math.fsum(probs)
    hit_values = tuple(p / total for p in probs[:h])
    background = probs[h] / total if h < n_t else 0.0
    return background, hit_values, math.fsum(hit_values)


# ---------------------------------------------------------------------------
# Search driver


def iteration_count(n_t: int, n_hits: int) -> int:
    """Standard amplification count floor(pi/4 * sqrt(n_T/n_hits)), min 1.

    Only the phase-inverting branch has an optimum; the non-inverting branch
    is iteration-independent, so the single-branch count is used as is.
    """
    if not 1 <= n_hits <= n_t:
        raise ValueError("n_hits must be in [1, n_T]")
    return max(1, math.floor(math.pi / 4.0 * math.sqrt(n_t / n_hits)))


@dataclass(frozen=True)
class SearchOutcome:
    distribution: tuple[float, ...]
    measured: int
    hit_labels: frozenset[int]
    success_probability: float
    iterations: int

    def __post_init__(self):
        total = sum(self.distribution)
        if abs(total - 1.0) > 1e-9:
            raise AssertionError(f"label distribution sums to {total}")


def measure(distribution, seed: int, attempt: int = 0) -> int:
    """Sample one label from ``distribution`` for a lookup seed's attempt.

    One sha256 of the seed and the attempt gives a uniform u in [0, 1) from
    its first 53 bits (``rng.unit_draw``). The label is the inverse CDF at u:
    the first whose accumulated weight exceeds u times the total, found by
    ``bisect`` as ``random.choices`` does, so a label depends on no
    ``random`` internals of any Python version. An empty distribution, or one
    whose total is not positive and finite, raises ``ValueError``.
    """
    cum = list(itertools.accumulate(distribution))
    if not cum:
        raise ValueError("cannot measure an empty distribution")
    total = cum[-1]
    if not 0.0 < total < math.inf:
        raise ValueError(f"label weights must total a positive finite value, got {total}")
    u = unit_draw(seed, f"measurement:{attempt}")
    return bisect.bisect(cum, u * total, 0, len(cum) - 1)


def run_search(
    instance: SearchInstance,
    target: int,
    iterations: int | None = None,
    seed: int = 0,
) -> SearchOutcome:
    """Run the amplified lookup and sample one label from the exact marginal.

    The marginal is the closed form, which serves every table and equals
    ``gate_level_distribution`` to numerical precision; sampling is seeded
    and shot noise only enters through the single reported measurement.
    """
    hits = instance.hit_alphas(target)
    labels = [label for label, _ in hits]
    n_t = instance.n_t
    if iterations is None:
        iterations = iteration_count(n_t, max(1, len(hits)))
    elif iterations < 0:
        raise ValueError(f"iteration count must be non-negative, got {iterations}")

    background, hit_values, success = _normalized_marginal(
        tuple([alpha for _, alpha in hits]), n_t, iterations
    )
    probs = [background] * n_t
    for label, value in zip(labels, hit_values):
        probs[label] = value
    distribution = tuple(probs)
    return SearchOutcome(
        distribution=distribution,
        measured=measure(distribution, seed),
        hit_labels=frozenset(labels),
        success_probability=success,
        iterations=iterations,
    )


def analytic_success_probability(
    n_t: int, alpha: float, n_hits: int, iterations: int
) -> float:
    """Two-branch success model.

    The non-inverting branch keeps the uniform background n_hits/n_T; the
    inverting branch follows standard amplification toward the hit labels.
    Exact for a single hitting entry; for several hits the single branch
    weight ``alpha`` only approximates the joint branch structure.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not 1 <= n_hits <= n_t:
        raise ValueError("n_hits must be in [1, n_T]")
    theta = math.asin(math.sqrt(n_hits / n_t))
    amplified = math.sin((2 * iterations + 1) * theta) ** 2
    return (1.0 - alpha) * (n_hits / n_t) + alpha * amplified


# ---------------------------------------------------------------------------
# Table lookup through the search


@dataclass(frozen=True)
class LookupResult:
    entry_label: int | None
    found: bool
    attempts: int
    success_probability: float
    measured: tuple[int, ...]

    @property
    def classical_fallback(self) -> bool:
        """Always False: every table is searched, none is read classically."""
        return False


def routing_lookup_via_search(
    tables,
    owner: int,
    target: int,
    seed: int = 0,
    repeats: int = 1,
) -> LookupResult:
    """Locate a table entry whose mirrored neighborhood holds the target.

    The exact label distribution is computed once, from the table's
    classical mirror; attempt k then measures it at ``measure(..., seed, k)``,
    which is the label a fresh preparation and search would give. The measured
    label is verified against the classical mirror; misses are legitimate
    probabilistic outcomes and are reported through the attempt count.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    instance = instance_from_table(tables.table(owner), tables.plan)
    outcome = run_search(instance, target, seed=seed)
    measured: list[int] = []
    for attempt in range(repeats):
        label = outcome.measured if attempt == 0 else measure(
            outcome.distribution, seed, attempt
        )
        measured.append(label)
        if label in outcome.hit_labels:
            return LookupResult(
                entry_label=label,
                found=True,
                attempts=attempt + 1,
                success_probability=outcome.success_probability,
                measured=tuple(measured),
            )
    return LookupResult(
        entry_label=None,
        found=False,
        attempts=repeats,
        success_probability=outcome.success_probability,
        measured=tuple(measured),
    )
