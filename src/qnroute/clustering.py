"""Anchor sets, tracked-set partitions, and coverage verification.

The partial-anchor scheme elects a small hub set T that should hit every
node's e-neighborhood; the full-anchor scheme partitions the node set into
address blocks and has every node proactively entangle with one randomly
chosen block. Both constructions are verified here empirically: coverage
failures are counted in a report, never raised, because the underlying
guarantees are probabilistic.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from .rng import stream_seed
from .topology import ENeighborhood


class Scheme(enum.Enum):
    PARTIAL_ANCHOR = "partial"
    FULL_ANCHOR = "full"


def neighborhood_size(n_e: int, m: float) -> int:
    """e-neighborhood cardinality (1 + m) * sqrt(n_e) * ln(n_e), clamped.

    The clamp to n_e - 1 matters at desk scale, where the formula exceeds
    the node count and every neighborhood becomes the full node set.
    """
    if n_e < 2:
        raise ValueError("n_e must be at least 2")
    if m <= 0:
        raise ValueError("oversampling constant m must be positive")
    k = math.ceil((1 + m) * math.sqrt(n_e) * math.log(n_e))
    return min(n_e - 1, k)


@dataclass(frozen=True)
class AnchorSet:
    """Hub nodes maintaining pairwise long-range entanglement."""

    members: frozenset[int]
    construction: str  # "random" | "greedy"

    @property
    def size(self) -> int:
        return len(self.members)


def build_anchor_set_random(n_e: int, seed: int) -> AnchorSet:
    """Sample ceil(sqrt(n_e)) anchors uniformly without replacement.

    Coverage of the e-neighborhoods is not enforced: the covering guarantee
    is only high-probability, and ``verify_coverage`` reports poor draws as
    data.
    """
    target = min(n_e, math.ceil(math.sqrt(n_e)))
    rng = random.Random(stream_seed(seed, "cover"))
    members = frozenset(rng.sample(range(n_e), target))
    return AnchorSet(members=members, construction="random")


def build_anchor_set_greedy(neighborhoods: list[ENeighborhood]) -> AnchorSet:
    """Greedy set cover over the e-neighborhood family.

    Repeatedly picks the node hitting the most still-uncovered neighborhoods
    (ties to the lowest address), so every neighborhood ends up containing an
    anchor and the size stays within the classic n_e*(1 + ln n_e)/k bound.
    """
    uncovered = {nb.owner: nb.member_ids | {nb.owner} for nb in neighborhoods}
    chosen: set[int] = set()
    while uncovered:
        counts: dict[int, int] = {}
        for members in uncovered.values():
            for node in members:
                counts[node] = counts.get(node, 0) + 1
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        chosen.add(best)
        uncovered = {
            owner: members
            for owner, members in uncovered.items()
            if best not in members
        }
    return AnchorSet(members=frozenset(chosen), construction="greedy")


@dataclass(frozen=True)
class TrackedSets:
    """Flat partition of the node set into address blocks, with each node's
    choice: ``assignment[v]`` is the index of the block node v tracks."""

    blocks: tuple[tuple[int, ...], ...]
    assignment: tuple[int, ...]

    def tracked_by(self, v: int) -> tuple[int, ...]:
        """The nodes v proactively entangles with: its chosen block."""
        return self.blocks[self.assignment[v]]


def build_tracked_sets(n_e: int) -> tuple[tuple[int, ...], ...]:
    """Partition nodes by ascending address into blocks of ceil(sqrt(n_e)).

    Node indices already ascend with quantum address, so block j holds ranks
    (j-1)*c+1 .. j*c for capacity c. The last block may be smaller.
    """
    capacity = math.ceil(math.sqrt(n_e))
    ids = list(range(n_e))
    return tuple(tuple(ids[start : start + capacity]) for start in range(0, n_e, capacity))


def assign_all_tracking(
    blocks: tuple[tuple[int, ...], ...], n_e: int, seed: int
) -> TrackedSets:
    """Each node's uniform block choice, deterministic given (seed, node)."""
    return TrackedSets(blocks, tuple(
        random.Random(stream_seed(seed, f"tracking:{v}")).randrange(len(blocks))
        for v in range(n_e)
    ))


@dataclass(frozen=True)
class CoverageReport:
    """Counted coverage check; failures are data for the caller to judge."""

    failures: int
    total_checks: int

    @property
    def failure_fraction(self) -> float:
        return self.failures / self.total_checks if self.total_checks else 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_coverage(
    scheme: Scheme,
    neighborhoods: list[ENeighborhood],
    anchors: AnchorSet | None = None,
    tracked: TrackedSets | None = None,
) -> CoverageReport:
    """Count the failures of the scheme's coverage property.

    Partial-anchor: each non-anchor node must have an anchor inside its
    e-neighborhood; one check per node. Full-anchor: for each ordered pair
    (source, target) there must be a neighbor of the source whose chosen
    tracked block contains the target; one check per pair. The pairs are
    counted, not listed: the blocks partition the node set (as
    ``build_tracked_sets``'s do), so a source covers the sizes of the
    distinct blocks its e-neighbors chose, less itself when its own block is
    among them, and fails on the other n - 1 - covered targets.
    """
    if scheme is Scheme.PARTIAL_ANCHOR:
        if anchors is None:
            raise ValueError("partial-anchor coverage requires an AnchorSet")
        # An anchor never needs covering: it reaches the hub mesh directly,
        # so only non-anchor owners must see an anchor in their neighborhood.
        members = anchors.members
        failures = sum(
            nb.owner not in members and members.isdisjoint(nb.member_ids)
            for nb in neighborhoods
        )
        return CoverageReport(failures, len(neighborhoods))

    if tracked is None:
        raise ValueError("full-anchor coverage requires TrackedSets")
    sizes = [len(block) for block in tracked.blocks]
    home = {v: b for b, block in enumerate(tracked.blocks) for v in block}
    n = len(neighborhoods)
    failures = 0
    for nb in neighborhoods:
        chosen = {tracked.assignment[j] for j in nb.member_ids}
        failures += n - 1 - sum(sizes[b] for b in chosen) + (home[nb.owner] in chosen)
    return CoverageReport(failures, n * (n - 1))
