"""Greedy split planner with cheapest-cut backtracking.

The greedy scan fills devices in chain order: layers are accepted onto the
current device while its summed cpu and memory loads stay within its
capacities, and the boundary cost of every accepted position is remembered.
When a layer no longer fits, the split for the current device is committed
at the recorded position with the cheapest boundary traffic (ties pick the
latest position), and the layers accepted after that position move to the
next device, which re-checks them against its own capacities; if they
overflow it the commit-and-move step cascades down the chain.  The scan
pointer never moves backwards, so the loop body runs at most
``num_layers + num_splits - 1`` times per scan.

``solve`` prefers the smallest partition count whose scan places every
layer, because every extra boundary can only add transfer time.  A scan
limited to ``k`` devices runs exactly like an unlimited one until it first
needs device ``k + 1``, and stops there.  So ``solve`` scans once at the
largest usable count and records the iteration at which each further device
was first needed.  The first count whose scan succeeds is the number of
devices that one scan used, and its plan is that scan's plan.  The recorded
iterations are each smaller count's iterations, so the trace still reports
every count ``1, 2, ...`` as if each had been scanned on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import CostBreakdown, cut_traffic_table, objective
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


def _scan(
    model: FfnnModel, chain: DeviceChain, num_splits: int
) -> tuple[tuple[int, ...] | None, int, list[int]]:
    """The greedy scan on at most ``num_splits`` devices.

    Returns the splitting points (None when the scan runs out of devices),
    the loop iteration count, and ``needed``: ``needed[k - 1]`` is the
    iteration count at which the scan first needed device ``k + 1``, which
    is where the same scan limited to ``k`` devices stops.
    """
    n = model.num_layers
    # Plain lists index faster than arrays in the scan below; the model
    # builds each array once, so a scan only copies them out.
    cpu = model.cpu.tolist()
    mem = model.mem.tolist()
    prefix_cpu = model.prefix_cpu.tolist()
    prefix_mem = model.prefix_mem.tolist()
    cut = cut_traffic_table(model).tolist()
    cpu_cap = [d.cpu_capacity for d in chain.devices]
    mem_cap = [d.mem_capacity for d in chain.devices]

    committed: list[int] = []
    needed: list[int] = []
    device = 1  # 1-based index of the device being filled
    block_start = 1  # first layer of that device's block
    accepted = 0  # last layer accepted on it (0 = none yet)
    cpu_load = 0.0  # its running cpu load
    mem_load = 0.0  # its running memory load
    layer = 1
    iterations = 0

    while layer <= n:
        iterations += 1
        if (
            cpu_load + cpu[layer - 1] <= cpu_cap[device - 1]
            and mem_load + mem[layer - 1] <= mem_cap[device - 1]
        ):
            accepted = layer
            cpu_load += cpu[layer - 1]
            mem_load += mem[layer - 1]
            layer += 1
            continue
        # The layer does not fit: commit a split for this device and move the
        # overhang to the next one, cascading while the overhang overflows.
        while True:
            needed.append(iterations)
            if device + 1 > num_splits:
                return None, iterations, needed
            if accepted < block_start:
                # Nothing was ever accepted here; committing now would leave
                # the device without layers, which no valid split allows.
                return None, iterations, needed
            best = block_start
            for p in range(block_start + 1, accepted + 1):
                if cut[p] <= cut[best]:
                    best = p
            committed.append(best)
            device += 1
            block_start = best + 1
            # Layers best+1 .. layer-1 move onto the new device.
            accepted = best
            overflowed = False
            for p in range(best + 1, layer):
                if (
                    prefix_cpu[p] - prefix_cpu[best] > cpu_cap[device - 1]
                    or prefix_mem[p] - prefix_mem[best] > mem_cap[device - 1]
                ):
                    overflowed = True
                    break
                accepted = p
            cpu_load = prefix_cpu[accepted] - prefix_cpu[best]
            mem_load = prefix_mem[accepted] - prefix_mem[best]
            if not overflowed:
                break
        # Retry the same layer on the device the cascade settled on.

    return tuple(committed) + (n,), iterations, needed


def solve(
    model: FfnnModel, chain: DeviceChain, max_splits: int | None = None
) -> HeuristicResult:
    """Return the greedy plan with the fewest partitions, from one scan."""
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
