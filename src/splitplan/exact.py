"""Exact minimum-transfer-time solvers.

One dynamic program over (device, last split position) states yields the
cheapest feasible split for every partition count at once: after the step
for device ``t`` its entry for the last layer is the optimum with exactly
``t`` partitions, because no step depends on how many partitions are asked
for.  A block is feasible on a device when its summed cpu and memory costs
both fit the device, the rule ``cost.is_feasible`` applies to whole
solutions.  The earliest split ``q`` whose block ``q+1..p`` fits a device
never moves left as ``p`` grows, so each step is a sliding-window minimum
that a monotone deque answers in O(n); the whole pass costs O(kappa * n)
after the model's O(n + E) cut table and its cost prefix sums are built
once.  ``solve`` keeps the global best over all counts and
``solve_fixed_splits`` returns one count's entry.
``brute_force_fixed_splits`` enumerates every candidate split vector and
exists to cross-check the DP on small instances; it refuses instances
beyond an explicit candidate budget.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cost import cut_traffic_table, is_feasible, objective
from .model import DeviceChain, FfnnModel, SplitSolution, max_split_count


class EnumerationBudgetExceeded(RuntimeError):
    """The instance has more candidate splits than the enumeration budget."""


@dataclass(frozen=True)
class SolvedSplit:
    """A feasible split solution together with its transfer cost."""

    solution: SplitSolution
    cost: float


@dataclass(frozen=True)
class ExactResult:
    """Per-partition-count optima plus the global choice.

    ``per_kappa[k]`` is the optimum over solutions with exactly ``k``
    partitions, or ``None`` when no feasible one exists.  ``best`` is the
    cheapest entry; cost ties go to the smaller partition count.
    """

    per_kappa: dict[int, SolvedSplit | None]
    best: SolvedSplit | None


def _validate_num_splits(model: FfnnModel, chain: DeviceChain, num_splits: int) -> None:
    limit = max_split_count(model, chain)
    if not 1 <= num_splits <= limit:
        raise ValueError(
            f"num_splits {num_splits} outside 1..{limit} "
            f"({model.num_layers} layers, {chain.num_devices} devices)"
        )


def _optimal_points(
    model: FfnnModel, chain: DeviceChain, limit: int
) -> list[tuple[int, ...] | None]:
    """Optimal splitting points for each partition count ``1..limit``.

    ``best[p]`` after the step for device ``t`` is the cheapest way to place
    layers ``1..p`` on devices ``1..t`` with the t-th split at ``p``; moving
    from split ``q`` on device ``t-1`` costs ``cut_table[q] /
    link_rate[t-1]`` and requires block ``q+1..p`` to fit device ``t``: its
    summed cpu and memory costs both stay within the device's capacities.
    Cost ties pick the smaller ``q``.  The window of admissible ``q`` for
    split ``p`` is ``lo(p)..p-1``, and ``lo`` never decreases for the
    non-negative costs ``validate_model`` admits.
    """
    if limit < 1:
        return []
    n = model.num_layers
    prefix_cpu = model.prefix_cpu
    prefix_mem = model.prefix_mem
    cut_table = cut_traffic_table(model)

    def block_limits(device_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Per split position p, the smallest q so block q+1..p fits the device."""
        device = chain.devices[device_index]
        cpu_min_q = np.searchsorted(prefix_cpu, prefix_cpu - device.cpu_capacity, "left")
        mem_min_q = np.searchsorted(prefix_mem, prefix_mem - device.mem_capacity, "left")
        return cpu_min_q, mem_min_q

    def trace_back(best: np.ndarray, parents: list[list[int]]) -> tuple[int, ...] | None:
        if not np.isfinite(best[n]):
            return None
        points = [n]
        for parent in reversed(parents):
            points.append(parent[points[-1]])
        return tuple(reversed(points))

    cpu_min_q, mem_min_q = block_limits(0)
    best = np.full(n + 1, np.inf)
    fits_first = (cpu_min_q == 0) & (mem_min_q == 0)
    best[1:][fits_first[1:]] = 0.0
    parents: list[list[int]] = []
    optima = [trace_back(best, parents)]

    for t in range(2, limit + 1):
        cpu_min_q, mem_min_q = block_limits(t - 1)
        lo = np.maximum(np.maximum(cpu_min_q, mem_min_q), t - 1).tolist()
        arrival = (best + cut_table / chain.link_rate[t - 2]).tolist()
        next_best = [math.inf] * (n + 1)
        parent = [0] * (n + 1)
        # Candidate q in increasing order with non-decreasing arrival: a new
        # value evicts only strictly greater ones, so the front is the
        # leftmost minimum of the window.
        window: deque[int] = deque()
        for p in range(t, n + 1):
            value = arrival[p - 1]
            if value < math.inf:  # an unreachable split never wins
                while window and arrival[window[-1]] > value:
                    window.pop()
                window.append(p - 1)
            while window and window[0] < lo[p]:
                window.popleft()
            if window:
                q = window[0]
                next_best[p] = arrival[q]
                parent[p] = q
        best = np.array(next_best)
        parents.append(parent)
        optima.append(trace_back(best, parents))
    return optima


def _solved(
    model: FfnnModel, chain: DeviceChain, points: tuple[int, ...] | None
) -> SolvedSplit | None:
    if points is None:
        return None
    solution = SplitSolution(points=points)
    return SolvedSplit(solution=solution, cost=objective(model, chain, solution).total)


def solve_fixed_splits(
    model: FfnnModel, chain: DeviceChain, num_splits: int
) -> SolvedSplit | None:
    """Optimal split into exactly ``num_splits`` non-empty blocks, or None."""
    _validate_num_splits(model, chain, num_splits)
    return _solved(model, chain, _optimal_points(model, chain, num_splits)[-1])


def solve(
    model: FfnnModel, chain: DeviceChain, max_splits: int | None = None
) -> ExactResult:
    """Optimal split for every partition count up to the usable maximum."""
    limit = max_split_count(model, chain)
    if max_splits is not None:
        if max_splits < 1:
            raise ValueError(f"max_splits must be >= 1, got {max_splits}")
        limit = min(limit, max_splits)
    per_kappa: dict[int, SolvedSplit | None] = {}
    best: SolvedSplit | None = None
    for kappa, points in enumerate(_optimal_points(model, chain, limit), start=1):
        entry = _solved(model, chain, points)
        per_kappa[kappa] = entry
        if entry is not None and (best is None or entry.cost < best.cost):
            best = entry
    return ExactResult(per_kappa=per_kappa, best=best)


def brute_force_fixed_splits(
    model: FfnnModel,
    chain: DeviceChain,
    num_splits: int,
    budget: int = 10**6,
) -> SolvedSplit | None:
    """Exhaustive reference solver for cross-checking on small instances."""
    _validate_num_splits(model, chain, num_splits)
    n = model.num_layers
    candidates = math.comb(n - 1, num_splits - 1)
    if candidates > budget:
        raise EnumerationBudgetExceeded(
            f"{candidates} candidate splits exceed the budget of {budget}"
        )
    best: SolvedSplit | None = None
    for interior in itertools.combinations(range(1, n), num_splits - 1):
        solution = SplitSolution(points=interior + (n,))
        if not is_feasible(model, chain, solution):
            continue
        cost = objective(model, chain, solution).total
        if best is None or cost < best.cost:
            best = SolvedSplit(solution=solution, cost=cost)
    return best
