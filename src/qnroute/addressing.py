"""Quantum addresses: node v's address is v written in ceil(log2 n_e) bits.

Every node is identified by a computational-basis state of an N-qubit
register, written as a fixed-width bitstring. The paper's hierarchy gives an
ESP a prefix and each edge node behind it a suffix; this simulator has no
edge nodes, so an address is the node id itself and ``AddressPlan`` is the
only code that converts between the two.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class QuantumAddress:
    """A computational-basis label: fixed-width bitstring, e.g. ``"1011"``.

    Orders and hashes by the underlying bitstring, so ascending address
    order coincides with ascending basis-state index at fixed width.
    """

    bits: str

    def __post_init__(self):
        if not self.bits or set(self.bits) - {"0", "1"}:
            raise ValueError(f"address must be a nonempty bitstring, got {self.bits!r}")

    @classmethod
    def from_index(cls, index: int, width: int) -> "QuantumAddress":
        if not 0 <= index < 2**width:
            raise ValueError(f"index {index} out of range for width {width}")
        return cls(format(index, f"0{width}b"))

    @property
    def index(self) -> int:
        """Basis-state index in [0, 2^N)."""
        return int(self.bits, 2)

    @property
    def width(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits


def address_width(n: int) -> int:
    """Register width for an n-node network: ceil(log2 n), floored at 1."""
    return max(1, (n - 1).bit_length())


class AddressPlan:
    """The addresses of an ``n_e``-node network, derived from ``n_e`` alone.

    ``esp_addresses[v]`` is node v's address, built once per plan;
    ``node(bits)`` is its inverse and accepts exactly those bitstrings.
    """

    def __init__(self, n_e: int):
        self.width = address_width(n_e)
        self.esp_addresses = tuple(QuantumAddress.from_index(v, self.width) for v in range(n_e))
        self._node_of = {a.bits: v for v, a in enumerate(self.esp_addresses)}

    def node(self, bits) -> int:
        """The node whose address is ``bits``; ``KeyError`` for any other value."""
        try:
            return self._node_of[bits]
        except TypeError:  # unhashable, so no address
            raise KeyError(bits) from None
