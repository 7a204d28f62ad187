"""Greedy split planner with cheapest-cut backtracking.

The greedy fills devices in chain order.  Device ``t``'s block starts at
layer ``s`` and reaches ``e``, the last layer whose block ``s..e`` fits the
device by ``cost``'s block-fit rule: one binary search per resource over
the model's cached prefix sums.  If ``e`` ends the model the plan is
complete; if ``e < s`` or no device is left there is none.  Otherwise the
split for device ``t`` goes to the cheapest cut in ``s..e`` (ties pick the
latest), and the next block starts right after it.  This is the
chains-on-chains "probe" (Pinar and Aykanat, JPDC 2004) with a cheapest-cut
backtrack: one block search and one range minimum per device.

The trace counts the loop iterations of the layer-by-layer scan that places
the same splits: it accepts layers while they fit, commits the cheapest cut
on the first that does not, moves the layers after the cut to the next
device (cascading while they overflow it) and retries that layer.  Every
layer is accepted once, and a device whose block reaches the layer the scan
is stuck at adds one failed check, at the layer after its block, unless it
ends the model.  That is at most ``num_layers + num_splits - 1`` iterations.

``solve`` prefers the smallest partition count whose scan places every
layer, because every extra boundary can only add transfer time.  A scan
limited to ``k`` devices runs exactly like an unlimited one until it first
needs device ``k + 1``, and stops there.  So ``solve`` runs the greedy once
at the largest usable count and records the iteration at which each further
device was first needed; those are the smaller counts' iterations, and the
first count whose scan succeeds is the number of devices that run used.

``solve_stack`` runs the same greedy over a stack of instances of one
shape, one device at a time for all of them, on the arrays
``exact.optimal_costs`` takes; the sweep uses it.  ``solve`` keeps its
per-instance searches, which cost less than a stack of one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .cost import CostBreakdown, block_threshold, cut_traffic_table, objective
from .model import DeviceChain, FfnnModel, SplitSolution, max_split_count


@dataclass(frozen=True)
class HeuristicTrace:
    """Loop iterations of the scan limited to each partition count tried."""

    kappa_attempted: tuple[int, ...]
    while_iterations: tuple[int, ...]
    outcome: str  # "solution" or "no-solution"

    @property
    def total_iterations(self) -> int:
        return sum(self.while_iterations)


@dataclass(frozen=True)
class HeuristicResult:
    solution: SplitSolution | None
    cost: CostBreakdown | None
    trace: HeuristicTrace


def iteration_budget(num_layers: int, num_splits: int) -> int:
    """Hard cap on loop iterations for one attempt."""
    return num_layers + num_splits - 1


def total_iteration_budget(num_layers: int, max_splits: int) -> int:
    """Hard cap across all attempts from 1 to ``max_splits`` partitions.

    Closed form of the per-attempt budgets summed: ``k^2/2 + (2n - 1)k/2``
    for ``k = max_splits`` and ``n = num_layers``; always an integer.
    """
    return (max_splits * max_splits + (2 * num_layers - 1) * max_splits) // 2


def _block_end(prefix: list[float], q: int, capacity: float) -> int:
    """The last p whose block ``q+1..p`` fits ``capacity``, by ``cost``'s rule."""
    return bisect_right(prefix, prefix[q], q, key=lambda v: block_threshold(v, capacity)) - 1


def _scan(
    model: FfnnModel, chain: DeviceChain, num_splits: int
) -> tuple[tuple[int, ...] | None, int, list[int]]:
    """The greedy on at most ``num_splits`` devices, one block search each.

    Returns the splitting points (None when the greedy runs out of devices),
    the scan's loop iteration count, and ``needed``: ``needed[k - 1]`` is the
    iteration count at which the scan first needed device ``k + 1``, which
    is where the same scan limited to ``k`` devices stops.
    """
    n = model.num_layers
    # Plain lists index faster than arrays in the searches below.
    prefix_cpu = model.prefix_cpu.tolist()
    prefix_mem = model.prefix_mem.tolist()
    cut = cut_traffic_table(model).tolist()
    needed: list[int] = []
    points: list[int] = []
    start = 1  # first layer of the current device's block
    overflow = 1  # the layer the scan is stuck at
    failed = 0  # failed fit checks so far
    capacities = zip(chain.cpu_capacity.tolist(), chain.mem_capacity.tolist())
    for cpu_capacity, mem_capacity in list(capacities)[:num_splits]:
        end = min(
            _block_end(prefix_cpu, start - 1, cpu_capacity),
            _block_end(prefix_mem, start - 1, mem_capacity),
        )
        if end == n:
            return tuple(points) + (n,), n + failed, needed
        if end + 1 >= overflow:
            # The cascade settled here: the scan accepts up to ``end`` and
            # fails once more, at layer ``end + 1``.
            failed += 1
            overflow = end + 1
        needed.append(overflow - 1 + failed)
        if end < start or len(needed) == num_splits:
            return None, needed[-1], needed
        # The rightmost cheapest cut in ``start..end``.
        best = min(range(end, start - 1, -1), key=cut.__getitem__)
        points.append(best)
        start = best + 1
    # Only a model without layers, whose usable count is 0, gets here.
    return None, 0, needed


def solve(
    model: FfnnModel, chain: DeviceChain, max_splits: int | None = None
) -> HeuristicResult:
    """Return the greedy plan with the fewest partitions, from one run.

    A model without layers gets no solution and an empty trace.
    """
    limit = max_split_count(model, chain)
    if max_splits is not None:
        if max_splits < 1:
            raise ValueError(f"max_splits must be >= 1, got {max_splits}")
        limit = min(limit, max_splits)
    points, iterations, needed = _scan(model, chain, limit)
    if points is None:
        # The count the scan stopped at, and every larger one, stops at the
        # same iteration.
        counts = needed + [iterations] * (limit - len(needed))
        trace = HeuristicTrace(
            kappa_attempted=tuple(range(1, limit + 1)),
            while_iterations=tuple(counts),
            outcome="no-solution",
        )
        return HeuristicResult(solution=None, cost=None, trace=trace)
    kappa = len(points)
    budget = iteration_budget(model.num_layers, kappa)
    if iterations > budget:
        raise RuntimeError(f"iteration budget exceeded: {iterations} > {budget}")
    solution = SplitSolution(points=points)
    trace = HeuristicTrace(
        kappa_attempted=tuple(range(1, kappa + 1)),
        while_iterations=tuple(needed) + (iterations,),
        outcome="solution",
    )
    return HeuristicResult(
        solution=solution, cost=objective(model, chain, solution), trace=trace
    )


def solve_stack(
    prefix_cpu: np.ndarray,
    prefix_mem: np.ndarray,
    cut_table: np.ndarray,
    capacities: np.ndarray,
    link_rate: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``solve`` on each of B stacked instances of n layers and d devices.

    Takes the arrays ``exact.optimal_costs`` takes: ``(B, n + 1)`` cpu and
    memory prefix sums and cut tables, ``(2, B, d)`` cpu and memory
    capacities and ``(B, d - 1)`` link rates.  Each prefix row must not
    decrease and no capacity may be negative, which holds for every model
    that passes ``validate_model`` and every chain.  Returns ``(points,
    kappa, cost)``: instance b's plan is ``points[b, :kappa[b]]`` and costs
    ``cost[b]``, the ``solution.points`` and ``cost.total`` of ``solve``
    bit for bit, or ``kappa[b]`` is 0 and ``cost[b]`` inf where ``solve``
    finds no solution.  ``points`` has ``min(n, d)`` columns.
    """
    prefixes = np.stack((prefix_cpu, prefix_mem))
    rows, width = cut_table.shape
    n = width - 1
    limit = min(n, capacities.shape[2])
    row = np.arange(rows)
    positions = np.arange(width)
    points = np.full((rows, limit), n)
    kappa = np.zeros(rows, dtype=np.intp)
    cost = np.zeros(rows)
    start = np.ones(rows, dtype=np.intp)  # first layer of each block
    overflow = np.ones(rows, dtype=np.intp)  # the layer each scan is stuck at
    failed = np.zeros(rows, dtype=np.intp)  # failed fit checks so far
    active = np.ones(rows, dtype=bool)  # rows still placing layers
    for t in range(limit):
        # Every p before the block's start fits device t + 1 by the block-fit
        # rule, and after it the p that fit come first, so the number of p
        # that fit ends the block: ``_block_end``'s search, by counting.
        threshold = block_threshold(prefixes, capacities[:, :, t, None])
        fits = threshold <= prefixes[:, row, start - 1, None]
        end = fits.sum(axis=2).min(axis=0) - 1
        done = active & (end == n)
        kappa[done] = t + 1
        active &= ~done
        settled = end + 1 >= overflow
        failed += active & settled
        overflow = np.where(settled, end + 1, overflow)
        active &= (end >= start) & (t < limit - 1)
        if not active.any():
            break
        # The rightmost cheapest cut in ``start..end``: the first minimum
        # of the reversed row.
        window = (positions >= start[:, None]) & (positions <= end[:, None])
        best = n - np.where(window, cut_table, np.inf)[:, ::-1].argmin(axis=1)
        points[active, t] = best[active]
        cost[active] += cut_table[row, best][active] / link_rate[active, t]
        start = np.where(active, best + 1, start)
    over = (kappa > 0) & (failed > kappa - 1)
    if over.any():
        b = np.flatnonzero(over)[0]
        raise RuntimeError(
            f"iteration budget exceeded: {n + failed[b]} > {n + kappa[b] - 1}"
        )
    cost[kappa == 0] = np.inf
    return points, kappa, cost
