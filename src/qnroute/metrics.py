"""Pluggable entangling-cost metrics: composition operator, order, axioms.

A metric assigns a nonnegative cost to generating entanglement over a link
and composes link costs into path costs either additively (delay, hop count)
or with the minimum operator (capacity-style, concave). Smaller is always
better under the natural order on reals. Multiplicative metrics are expected
to arrive pre-converted to additive form via logarithmic scaling.

``check_axioms`` empirically verifies the metric axioms (definiteness,
non-negativity, symmetry, triangle inequality, left/right isotonicity) on a
table of end-to-end costs, returning witnesses for every violation instead
of raising.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
from numpy.typing import ArrayLike

from .errors import MetricError, UnknownMetricError

# Relative slack of an axiom's inequality, so that the check means the same at
# every cost scale; definiteness is exact.
AXIOM_TOL = 1e-12

# Above this many checks per axiom family, fall back to seeded sampling
# of AXIOM_SAMPLES checks.
EXHAUSTIVE_LIMIT = 10**6
AXIOM_SAMPLES = 2000


class Composition(enum.Enum):
    """How link costs compose into a path cost. Each member carries its
    binary operator ``op``, for costs already known to be nonnegative such as
    a pair-cost matrix's, and ``array_op``, the same operator elementwise."""

    ADDITIVE = ("additive", operator.add, np.add)
    MIN = ("min", min, np.minimum)

    def __new__(cls, value: str, op: Callable, array_op: np.ufunc) -> "Composition":
        member = object.__new__(cls)
        member._value_ = value
        member.op = op
        member.array_op = array_op
        return member


@dataclass(frozen=True)
class EntanglingMetric:
    """Cost model for entangling links.

    ``sample_cost`` draws one link cost during graph generation.
    """

    name: str
    composition: Composition
    sample_cost: Callable[[random.Random], float] = field(default=lambda rng: 1.0)


def compose(metric: EntanglingMetric, a: float, b: float) -> float:
    """Compose two costs: a + b for additive metrics, min(a, b) for concave."""
    if a < 0 or b < 0:
        raise ValueError("costs must be nonnegative")
    return metric.composition.op(a, b)


def fold(metric: EntanglingMetric, costs: Iterable[float]) -> float:
    """Compose a sequence of segment costs; empty sequences cost 0.

    The zero for an empty sequence reflects definiteness (a node reaches
    itself for free) rather than the composition identity, which for the
    min operator would be +inf.
    """
    costs = list(costs)
    if not costs:
        return 0.0
    total = costs[0]
    for c in costs[1:]:
        total = compose(metric, total, c)
    return total


def hop_count_metric() -> EntanglingMetric:
    """Every link costs exactly 1, additive composition."""
    return EntanglingMetric("hop", Composition.ADDITIVE, lambda rng: 1.0)


def _check_cost_bounds(low, high) -> None:
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (low, high))
    if not (numbers and 0 < low <= high < math.inf):
        raise MetricError(
            f"link cost bounds need 0 < low <= high, got low={low!r} high={high!r}"
        )


def uniform_weight_metric(low: float = 1.0, high: float = 10.0) -> EntanglingMetric:
    """Additive metric with link costs drawn uniformly from [low, high]."""
    _check_cost_bounds(low, high)
    return EntanglingMetric(
        "uniform", Composition.ADDITIVE, lambda rng: rng.uniform(low, high)
    )


def capacity_metric(low: float = 1.0, high: float = 10.0) -> EntanglingMetric:
    """Concave (min-composed) metric with uniformly drawn link costs."""
    _check_cost_bounds(low, high)
    return EntanglingMetric(
        "capacity", Composition.MIN, lambda rng: rng.uniform(low, high)
    )


_REGISTRY: dict[str, Callable[..., EntanglingMetric]] = {
    "hop": hop_count_metric,
    "uniform": uniform_weight_metric,
    "capacity": capacity_metric,
}


def metric_by_name(name: str, **params) -> EntanglingMetric:
    """Look up a shipped metric by registry name.

    An unknown name raises ``UnknownMetricError`` (also a ``KeyError``); a
    parameter the metric does not take, or a bad value, raises ``MetricError``.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownMetricError(
            f"unknown metric {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    try:
        return factory(**params)
    except TypeError as err:
        raise MetricError(f"metric {name!r}: {err}") from None


@dataclass
class AxiomReport:
    """Outcome of an axiom check: violation witnesses are data, not errors."""

    checked_triples: int
    violations: list[tuple[str, tuple[int, ...]]]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_axioms(
    metric: EntanglingMetric,
    pair_costs: ArrayLike,
    seed: int = 0,
) -> AxiomReport:
    """Verify the metric axioms on ``pair_costs``, a square 2-D array-like
    of end-to-end costs ``pair_costs[i][j]`` over nodes ``0..n-1``
    (``all_pairs_optimal``'s array). Each cost is read as a Python float
    through a memoryview of its row; an array is not copied.

    Pair axioms (definiteness, non-negativity, symmetry) are always checked
    exhaustively. The triangle inequality runs over node triples and the two
    isotonicity properties over quadruples; those are exhaustive when the
    node set is small enough and otherwise sampled with the given seed. Triples
    and quadruples use distinct nodes: the repeated-node cases degenerate to
    the definiteness axiom, which for min composition would make the
    comparison vacuous.
    """
    nodes = range(len(pair_costs))
    n = len(nodes)
    if n == 0:
        raise ValueError("the cost table must be nonempty")
    rows = [memoryview(row) for row in np.asarray(pair_costs, dtype=float)]

    def cost(i: int, j: int) -> float:
        return rows[i][j]

    def exceeds(a: float, b: float) -> bool:
        """``a`` is above ``b`` by more than ``AXIOM_TOL`` of ``b``'s size."""
        return a - b > abs(b) * AXIOM_TOL

    violations: list[tuple[str, tuple[int, ...]]] = []
    checked = 0

    for i in nodes:
        checked += 1
        if cost(i, i) != 0:
            violations.append(("definiteness", (i, i)))
    for i, j in itertools.permutations(nodes, 2):
        checked += 1
        wij = cost(i, j)
        if not wij > 0:
            violations.append(("definiteness", (i, j)))
        if wij < 0:
            violations.append(("non-negativity", (i, j)))
        if i < j and not math.isclose(wij, cost(j, i), rel_tol=AXIOM_TOL):
            violations.append(("symmetry", (i, j)))

    def triangle(i: int, j: int, k: int) -> None:
        if exceeds(cost(i, j), compose(metric, cost(i, k), cost(k, j))):
            violations.append(("triangle", (i, j, k)))

    def isotone(i: int, j: int, k: int, l: int) -> None:
        wjl, wjk = cost(j, l), cost(j, k)
        if exceeds(wjk, wjl):
            left_l = compose(metric, cost(i, j), wjl)
            left_k = compose(metric, cost(i, j), wjk)
            if exceeds(left_l, left_k):
                violations.append(("left-isotone", (i, j, k, l)))
        wlj, wkj = cost(l, j), cost(k, j)
        if exceeds(wkj, wlj):
            right_l = compose(metric, wlj, cost(j, i))
            right_k = compose(metric, wkj, cost(j, i))
            if exceeds(right_l, right_k):
                violations.append(("right-isotone", (i, j, k, l)))

    rng = random.Random(seed)
    if n**3 <= EXHAUSTIVE_LIMIT:
        for i, j, k in itertools.permutations(nodes, 3):
            checked += 1
            triangle(i, j, k)
    else:
        for _ in range(AXIOM_SAMPLES):
            checked += 1
            triangle(*rng.sample(nodes, 3))

    if n**4 <= EXHAUSTIVE_LIMIT:
        for i, j, k, l in itertools.permutations(nodes, 4):
            checked += 1
            isotone(i, j, k, l)
    else:
        for _ in range(AXIOM_SAMPLES):
            checked += 1
            isotone(*rng.sample(nodes, 4))

    return AxiomReport(checked_triples=checked, violations=violations)
