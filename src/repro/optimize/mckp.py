"""Multiple-Choice Knapsack solver (paper Step 3, Eqs. 2-5).

The QoS-aware energy optimization selects exactly one (granularity,
HFO) Pareto point per layer, minimizing total energy subject to the
latency budget:

    minimize   sum_k sum_j E_j^k x_kj
    subject to sum_k sum_j t_j^k x_kj <= QoS,   sum_j x_kj = 1,
               x_kj in {0, 1}

This is the Multiple-Choice Knapsack Problem.  Following the paper
(and Kellerer/Pferschy/Pisinger, ch. 11), the minimization is convertible
to the classical maximization form by replacing each value with its
per-class complement (:func:`to_maximization`); the solver itself runs
a pseudo-polynomial dynamic program over a discretized time axis.

Discretization note: item latencies are rounded *up* to the time grid,
so a schedule the DP declares feasible is feasible in real time too --
the solver never overshoots the QoS at the cost of (bounded, tested)
suboptimality versus the continuous optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import QoSInfeasibleError, SolverError
from ..obs.tracing import span


@dataclass(frozen=True)
class MCKPItem:
    """One candidate of one class.

    Attributes:
        weight: resource consumption (layer latency in seconds).
        value: objective contribution (layer energy in joules).
        payload: arbitrary caller object (e.g. the SolutionPoint).
    """

    weight: float
    value: float
    payload: Any = None

    def __post_init__(self) -> None:
        if self.weight < 0 or self.value < 0:
            raise SolverError("MCKP items need non-negative weight and value")


@dataclass
class MCKPSolution:
    """A complete selection (one item per class)."""

    items: List[MCKPItem] = field(default_factory=list)

    @property
    def total_weight(self) -> float:
        """Sum of selected weights (total latency)."""
        return sum(item.weight for item in self.items)

    @property
    def total_value(self) -> float:
        """Sum of selected values (total energy)."""
        return sum(item.value for item in self.items)


def _validate_classes(classes: Sequence[Sequence[MCKPItem]]) -> None:
    if not classes:
        raise SolverError("MCKP instance needs at least one class")
    for k, cls in enumerate(classes):
        if not cls:
            raise SolverError(f"MCKP class {k} is empty")


def min_total_weight(classes: Sequence[Sequence[MCKPItem]]) -> float:
    """Tightest achievable total weight (min item per class)."""
    return sum(min(item.weight for item in cls) for cls in classes)


def to_maximization(
    classes: Sequence[Sequence[MCKPItem]],
) -> Tuple[List[List[MCKPItem]], float]:
    """Kellerer-style min -> max transformation.

    Each item's value becomes ``U_k - value`` where ``U_k`` is its
    class's maximum value.  Maximizing the transformed instance selects
    exactly the items that minimize the original one, and
    ``sum(U_k) - max_objective == min_objective``.

    Returns:
        (transformed classes, sum of the per-class offsets U_k).
    """
    _validate_classes(classes)
    transformed: List[List[MCKPItem]] = []
    offset = 0.0
    for cls in classes:
        u_k = max(item.value for item in cls)
        offset += u_k
        transformed.append(
            [
                MCKPItem(
                    weight=item.weight,
                    value=u_k - item.value,
                    payload=item.payload,
                )
                for item in cls
            ]
        )
    return transformed, offset


def front_classes(
    fronts: Mapping[Any, Sequence[Any]],
) -> List[List[MCKPItem]]:
    """MCKP classes from per-layer Pareto fronts, one class per layer.

    Classes follow sorted node order; each front point becomes an item
    weighted by its latency, valued by its energy, carrying the point
    as payload.
    """
    return [
        [
            MCKPItem(weight=p.latency_s, value=p.energy_j, payload=p)
            for p in fronts[node_id]
        ]
        for node_id in sorted(fronts)
    ]


def reprice_classes(
    classes: Sequence[Sequence[MCKPItem]],
    extra_power_w: float = 0.0,
    item_filter=None,
) -> List[List[MCKPItem]]:
    """Rebuild MCKP classes under drifted operating conditions.

    The fleet governor re-solves the knapsack when a device's power
    curves move away from the ones the Pareto fronts were priced at,
    *without* re-running the design-space exploration:

    * ``extra_power_w`` adds a constant power offset to every item --
      ``value' = value + extra_power_w * weight``.  A thermal leakage
      ramp is exactly this shape (leakage is state-independent to
      first order), and it genuinely re-ranks items: slow choices
      absorb more of the extra joules, so a hot device is pushed
      toward faster, shorter schedules.
    * ``item_filter`` drops items that are no longer *feasible*, e.g.
      HFOs whose VOS scale a sagging battery can no longer supply.

    Weights (latencies) are untouched -- drift moves power, not cycle
    counts.

    Raises:
        QoSInfeasibleError: when filtering empties a class (no
            operating point of that layer is feasible any more).
    """
    _validate_classes(classes)
    if extra_power_w < 0:
        raise SolverError("extra_power_w must be >= 0")
    repriced: List[List[MCKPItem]] = []
    for k, cls in enumerate(classes):
        items = [
            MCKPItem(
                weight=item.weight,
                value=item.value + extra_power_w * item.weight,
                payload=item.payload,
            )
            for item in cls
            if item_filter is None or item_filter(item)
        ]
        if not items:
            raise QoSInfeasibleError(
                qos_s=0.0, min_latency_s=min(i.weight for i in cls)
            )
        repriced.append(items)
    return repriced


def solve_mckp_dp(
    classes: Sequence[Sequence[MCKPItem]],
    budget: float,
    resolution: int = 4000,
) -> MCKPSolution:
    """Pseudo-polynomial DP solver for the minimization MCKP.

    Args:
        classes: one item list per layer (Pareto points).
        budget: the QoS latency budget in seconds.
        resolution: number of time-grid steps the budget is split into;
            larger = closer to the continuous optimum, cost grows
            linearly.

    Returns:
        The minimum-energy selection whose (real-valued) total weight
        respects the budget.

    Raises:
        QoSInfeasibleError: when even the per-class minimum weights
            exceed the budget (on the conservative grid).
        SolverError: for malformed instances.
    """
    with span(
        "mckp.solve", classes=len(classes), resolution=resolution
    ):
        return _solve_mckp_dp(classes, budget, resolution)


def _solve_mckp_dp(
    classes: Sequence[Sequence[MCKPItem]],
    budget: float,
    resolution: int,
) -> MCKPSolution:
    _validate_classes(classes)
    if budget < 0:
        raise SolverError(f"budget must be >= 0, got {budget}")
    if resolution < 1:
        raise SolverError("resolution must be >= 1")
    tightest = min_total_weight(classes)
    if tightest > budget:
        raise QoSInfeasibleError(qos_s=budget, min_latency_s=tightest)

    step = budget / resolution if budget > 0 else 1.0
    n_states = resolution + 1

    def discretize(weight: float) -> int:
        return int(math.ceil(weight / step - 1e-12))

    inf = float("inf")
    dp = np.full(n_states, inf)
    dp[0] = 0.0
    choices: List[np.ndarray] = []
    for k, cls in enumerate(classes):
        new_dp = np.full(n_states, inf)
        choice = np.full(n_states, -1, dtype=np.int32)
        for j, item in enumerate(cls):
            w = discretize(item.weight)
            if w >= n_states:
                continue
            if w == 0:
                candidate = dp + item.value
            else:
                candidate = np.full(n_states, inf)
                candidate[w:] = dp[:-w] + item.value
            better = candidate < new_dp
            new_dp = np.where(better, candidate, new_dp)
            choice[better] = j
        if not np.isfinite(new_dp).any():
            # Conservative rounding pushed every candidate past the
            # grid even though the continuous instance looked feasible.
            raise QoSInfeasibleError(qos_s=budget, min_latency_s=tightest)
        dp = new_dp
        choices.append(choice)

    # dp is not necessarily monotone per-state, so take the best state.
    best_t = int(np.argmin(dp))
    best = dp[best_t]
    if not math.isfinite(best):
        raise QoSInfeasibleError(qos_s=budget, min_latency_s=tightest)
    # Reconstruct the selection backwards through the choice tables.
    selected: List[MCKPItem] = []
    t = best_t
    for k in range(len(classes) - 1, -1, -1):
        j = int(choices[k][t])
        if j < 0:
            raise SolverError("DP reconstruction failed (corrupt tables)")
        item = classes[k][j]
        selected.append(item)
        t -= discretize(item.weight)
    selected.reverse()
    return MCKPSolution(items=selected)


def solve_mckp_bruteforce(
    classes: Sequence[Sequence[MCKPItem]],
    budget: float,
) -> MCKPSolution:
    """Exact exhaustive solver (for tests; exponential in class count).

    Raises:
        QoSInfeasibleError: when no selection fits the budget.
    """
    _validate_classes(classes)
    best: Optional[Tuple[float, List[MCKPItem]]] = None
    for combo in itertools.product(*classes):
        weight = sum(item.weight for item in combo)
        if weight > budget:
            continue
        value = sum(item.value for item in combo)
        if best is None or value < best[0]:
            best = (value, list(combo))
    if best is None:
        raise QoSInfeasibleError(
            qos_s=budget, min_latency_s=min_total_weight(classes)
        )
    return MCKPSolution(items=best[1])
