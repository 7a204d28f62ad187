"""Transfer-cost objective and capacity feasibility checks.

Placing a split after layer ``p`` sends every bit that crosses the boundary,
i.e. the bits of every edge ``i -> j`` with ``i <= p < j``, through the link
behind the hosting device.  All boundaries' totals come from one cut table,
built in O(n + E) from the model's edge arrays and cached on the model.  The
planning objective is the total transfer time: for a split solution ``x`` it
is the sum over the first ``kappa - 1`` points of
``cut_traffic_table(model)[x_t] / link_rate[t]``.  The final point ends the
model, so nothing is forwarded there and the return trip of the output is
not counted.

A split is feasible when every device can host its block: the block's summed
cpu cost and its summed memory cost each stay within the device's capacity
for that resource.  Both resources are budgets, like the shares
``scenarios.footprint_stats`` reports, not per-layer limits.

Every solver applies one block-fit rule, on the model's cached prefix sums:
block ``q+1..p`` fits capacity ``c`` iff ``prefix[q] >=
block_threshold(prefix[p], c)``.  ``is_feasible`` tests it per block, the
DP searches it for the first ``q`` of each ``p`` and the greedy for the last
``p`` of each ``q``; all compare the same two floats, so they agree also when
a capacity sits exactly on a block's sum.  ``prefix[p] - prefix[q] <= c``
would round a difference per pair, which one search over a stack of prefix
rows cannot reproduce without a fix-up step.  The rule is off from exact
sums by one rounding of the threshold: on costs 1.0 and 1.0 the second
layer fits ``nextafter(1.0, 0)``, as ``2.0`` minus it rounds to ``1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DeviceChain, FfnnModel, SplitSolution, partition


@dataclass(frozen=True)
class CostBreakdown:
    """Objective value with one transfer term per crossed boundary."""

    boundary_terms: tuple[float, ...]
    total: float


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the capacity check; names the first violated constraint."""

    ok: bool
    device: int | None = None
    constraint: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def cut_traffic_table(model: FfnnModel) -> np.ndarray:
    """Boundary traffic for every split position, built once per model.

    Returns the read-only array ``table`` of length ``n + 1`` where
    ``table[p]`` is the bit count crossing a split placed after layer ``p``.
    The O(n + E) build over the model's edge arrays runs on the first call
    (see ``FfnnModel.cut_table``); later calls return the same array.
    """
    return model.cut_table


def objective(model: FfnnModel, chain: DeviceChain, x: SplitSolution) -> CostBreakdown:
    """Total transfer time of a split solution, with per-boundary terms.

    Terms are accumulated in ascending device order so equal inputs always
    reproduce the identical float result.
    """
    if x.kappa > chain.num_devices:
        raise ValueError(
            f"solution uses {x.kappa} devices but the chain has {chain.num_devices}"
        )
    if x.points[-1] != model.num_layers:
        raise ValueError(
            f"last splitting point {x.points[-1]} must equal the layer count "
            f"{model.num_layers}"
        )
    table = cut_traffic_table(model)
    terms = []
    total = 0.0
    for point, rate in zip(x.points[:-1], chain.link_rate.tolist()):
        term = float(table[point]) / rate
        terms.append(term)
        total += term
    return CostBreakdown(boundary_terms=tuple(terms), total=total)


def block_threshold(prefix_end, capacity):
    """The least prefix sum a block ending at ``prefix_end`` may start from.

    Block ``q+1..p`` fits capacity ``c`` iff ``prefix[q] >=
    block_threshold(prefix[p], c)``.  Works elementwise on arrays.
    """
    return prefix_end - capacity


def is_feasible(model: FfnnModel, chain: DeviceChain, x: SplitSolution) -> FeasibilityResult:
    """Check the per-device capacity constraints for a split solution.

    Device ``t`` can host its layer block iff the block fits its
    ``cpu_capacity`` and its ``mem_capacity`` by the block-fit rule.
    """
    if x.kappa > chain.num_devices:
        raise ValueError(
            f"solution uses {x.kappa} devices but the chain has {chain.num_devices}"
        )
    blocks = partition(x, model.num_layers)
    prefix_cpu = model.prefix_cpu.tolist()
    prefix_mem = model.prefix_mem.tolist()
    capacities = zip(blocks, chain.cpu_capacity.tolist(), chain.mem_capacity.tolist())
    for t, (block, cpu_capacity, mem_capacity) in enumerate(capacities, start=1):
        q, p = block.start - 1, block.stop - 1
        for constraint, prefix, capacity in (
            ("cpu", prefix_cpu, cpu_capacity),
            ("mem", prefix_mem, mem_capacity),
        ):
            if not prefix[q] >= block_threshold(prefix[p], capacity):
                return FeasibilityResult(
                    ok=False,
                    device=t,
                    constraint=constraint,
                    detail=(
                        f"device {t}: total {constraint} cost {prefix[p] - prefix[q]} "
                        f"exceeds capacity {capacity}"
                    ),
                )
    return FeasibilityResult(ok=True)
