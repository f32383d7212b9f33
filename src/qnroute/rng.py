"""Named deterministic RNG streams.

Every randomized stage (graph generation, cover sampling, tracking choice,
the lookup check's draw of owners and targets) draws from its own stream
derived from a root seed, so changing how much randomness one stage consumes
never perturbs the others. A lookup's measurement is not a stream: it draws
one uniform from one hash of its seed (``unit_draw``).
"""

from __future__ import annotations

import hashlib
import random


def stream_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit sub-seed for the named stream."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stream(root_seed: int, name: str) -> random.Random:
    """Return an independent ``random.Random`` for the named stream."""
    return random.Random(stream_seed(root_seed, name))


def unit_draw(root_seed: int, name: str) -> float:
    """One uniform float in [0, 1): the first 53 bits of the named sub-seed,
    so a single sha256 and no ``random.Random`` seeding."""
    return (stream_seed(root_seed, name) >> 11) * 2.0**-53
