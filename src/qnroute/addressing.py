"""Prefix-structured quantum addresses for backbone nodes and their clusters.

Every node is identified by a computational-basis state of an N-qubit
register, written as a fixed-width bitstring. Backbone service providers
(ESPs) own pairwise-distinct p-bit prefixes; the edge nodes served by an ESP
share its prefix, so the 2^(N-p) basis states under one prefix form that
ESP's cluster. Clusters partition the whole basis set by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidCapacityError, PrefixRangeError, UnassignedAddressError


def _ceil_log2(value: int) -> int:
    if value <= 1:
        return 0
    return (value - 1).bit_length()


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


def prefix_of(addr: QuantumAddress, p: int) -> str:
    """First ``p`` bits of the address."""
    if p < 0 or p > addr.width:
        raise PrefixRangeError(f"prefix length {p} out of range for width {addr.width}")
    return addr.bits[:p]


@dataclass(frozen=True)
class AddressPlan:
    """Address assignment for one network instance.

    ``cluster_map`` maps each ESP address to the tuple of edge-node addresses
    assigned under its prefix, in ascending order. Addresses outside
    ``assigned()`` are modeled as explicitly unused.
    """

    n: int
    n_e: int
    p: int
    width: int
    esp_addresses: tuple[QuantumAddress, ...]
    cluster_map: dict[QuantumAddress, tuple[QuantumAddress, ...]] = field(repr=False)

    def assigned(self) -> set[QuantumAddress]:
        out = set(self.esp_addresses)
        for members in self.cluster_map.values():
            out.update(members)
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "n_e": self.n_e,
            "p": self.p,
            "width": self.width,
            "esp_addresses": [a.bits for a in self.esp_addresses],
            "cluster_map": {
                esp.bits: [m.bits for m in members]
                for esp, members in self.cluster_map.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AddressPlan":
        return cls(
            n=doc["n"],
            n_e=doc["n_e"],
            p=doc["p"],
            width=doc["width"],
            esp_addresses=tuple(QuantumAddress(b) for b in doc["esp_addresses"]),
            cluster_map={
                QuantumAddress(esp): tuple(QuantumAddress(m) for m in members)
                for esp, members in doc["cluster_map"].items()
            },
        )


def assign_addresses(n_e: int, max_cluster_size: int) -> AddressPlan:
    """Build a deterministic address plan for ``n_e`` ESPs.

    ESP prefixes are the first ``n_e`` p-bit strings in ascending order; each
    ESP takes the all-zero suffix under its prefix and edge-node suffixes
    follow in ascending order. The register width is ceil(log2 n) for
    n = n_e * (1 + max_cluster_size) nodes, floored at one qubit so registers
    are never empty.
    """
    if n_e < 1:
        raise ValueError("n_e must be at least 1")
    if max_cluster_size < 0:
        raise ValueError("max_cluster_size must be nonnegative")

    n = n_e * (1 + max_cluster_size)
    width = max(1, _ceil_log2(n))
    p = _ceil_log2(n_e)
    capacity = 2 ** (width - p) - 1
    if capacity < max_cluster_size:
        raise InvalidCapacityError(
            f"cluster blocks of width {width - p} hold at most {capacity} edge nodes, "
            f"requested {max_cluster_size}"
        )

    esp_addresses = []
    cluster_map: dict[QuantumAddress, tuple[QuantumAddress, ...]] = {}
    suffix_width = width - p
    for i in range(n_e):
        base = i << suffix_width
        esp = QuantumAddress.from_index(base, width)
        esp_addresses.append(esp)
        cluster_map[esp] = tuple(
            QuantumAddress.from_index(base + s, width)
            for s in range(1, max_cluster_size + 1)
        )
    return AddressPlan(
        n=n,
        n_e=n_e,
        p=p,
        width=width,
        esp_addresses=tuple(esp_addresses),
        cluster_map=cluster_map,
    )


def serving_esp(addr: QuantumAddress, plan: AddressPlan) -> QuantumAddress:
    """The unique ESP whose prefix matches ``addr``.

    Raises UnassignedAddressError for addresses in unused regions of the
    space, including unused suffixes inside an active cluster block.
    """
    if addr.width != plan.width:
        raise UnassignedAddressError(
            f"address width {addr.width} does not match plan width {plan.width}"
        )
    if addr not in plan.assigned():
        raise UnassignedAddressError(f"address {addr} is not assigned in this plan")
    target = prefix_of(addr, plan.p)
    for esp in plan.esp_addresses:
        if prefix_of(esp, plan.p) == target:
            return esp
    raise UnassignedAddressError(f"no ESP serves prefix {target!r}")


def cluster_of(esp: QuantumAddress, plan: AddressPlan) -> set[QuantumAddress]:
    """All basis states sharing the ESP's prefix (the full cluster block)."""
    w = plan.width
    prefix = prefix_of(esp, plan.p)
    base = int(prefix, 2) << (w - plan.p) if plan.p else 0
    return {QuantumAddress.from_index(base + s, w) for s in range(2 ** (w - plan.p))}


def address_width(n: int) -> int:
    """Register width for an n-node network: ceil(log2 n), floored at 1."""
    return max(1, _ceil_log2(n))


def check_plan_invariants(plan: AddressPlan) -> None:
    """Raise AssertionError if any structural invariant is violated.

    Checks pairwise-distinct ESP prefixes, prefix consistency of every
    cluster member, and mutual disjointness of clusters.
    """
    prefixes = [prefix_of(esp, plan.p) for esp in plan.esp_addresses]
    assert len(set(prefixes)) == len(prefixes), "ESP prefixes must be pairwise distinct"
    assert plan.width == address_width(plan.n), "width must be ceil(log2 n), min 1"
    expected_p = math.ceil(math.log2(plan.n_e)) if plan.n_e > 1 else 0
    assert plan.p == expected_p, f"prefix length {plan.p} != ceil(log2 n_e) = {expected_p}"
    seen: set[QuantumAddress] = set()
    for esp, members in plan.cluster_map.items():
        for member in members:
            assert prefix_of(member, plan.p) == prefix_of(esp, plan.p), (
                f"{member} does not share prefix with {esp}"
            )
            assert member not in seen, f"{member} assigned to two clusters"
            seen.add(member)
    assert seen.isdisjoint(plan.esp_addresses)
