"""The gate-level reference for the amplified lookup, and the two-branch model.

``gate_level_distribution`` materializes the full joint statevector (label
x all address registers x ancilla) up to a qubit cap and runs the oracle and
diffusion as gates. The package's closed-form engine is checked against it,
so it lives with the tests, as the other references in ``conftest`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qnroute.qsearch import SearchInstance

CAP_QUBITS = 22

NORM_TOL = 1e-12


class DimensionCapError(Exception):
    """The joint statevector would exceed the qubit cap."""


def make_instance(partition_lists, address_width: int) -> SearchInstance:
    parts = tuple(tuple(frozenset(p) for p in e) for e in partition_lists)
    return SearchInstance(parts, address_width)


def label_width(instance: SearchInstance) -> int:
    return max(1, math.ceil(math.log2(instance.n_t)))


def total_qubits(instance: SearchInstance) -> int:
    regs = sum(len(parts) for parts in instance.partitions)
    return label_width(instance) + regs * instance.address_width + 1


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
        mat = self.vector.reshape(2 ** label_width(self.instance), -1)
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
    qubits = total_qubits(instance)
    if qubits > CAP_QUBITS:
        raise DimensionCapError(f"instance needs {qubits} qubits, cap is {CAP_QUBITS}")

    n_label = label_width(instance)
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
    rows = state.vector.reshape(2 ** label_width(inst), -1)
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
    n_label = label_width(inst)
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
