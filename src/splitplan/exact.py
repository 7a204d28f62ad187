"""Exact minimum-transfer-time solvers.

One dynamic program over (device, last split position) states yields the
cheapest feasible split for every partition count at once: after the step
for device ``t`` its entry for the last layer is the optimum with exactly
``t`` partitions, because no step depends on how many partitions are asked
for.  A block is feasible on a device when its summed cpu and memory costs
both fit the device, the rule ``cost.is_feasible`` applies to whole
solutions.  Chains-on-chains partitioning, Bokhari, IEEE Trans. Computers
1988.

The program runs over a stack of B instances of one shape at once: ``(B,
n + 1)`` prefix sums and cut tables, ``(B, d)`` capacities and ``(B, d -
1)`` link rates.  Each block limit, the earliest split ``q`` whose block
``q+1..p`` fits a device, comes from one ``searchsorted`` per device over
the whole stack.  Each step's minimum over its window of admissible splits
comes from a sparse table of leftmost argmins over power-of-two blocks
(Bender and Farach-Colton, "The LCA Problem Revisited", LATIN 2000), built
only up to the step's widest window.  The pass costs O(kappa * n log n)
per instance of the stack, after each model's O(n + E) cut table and cost
prefix sums.  ``solve`` and
``solve_fixed_splits`` run it on a stack of one; ``optimal_costs`` takes a
stack, as the sweeps build it.

``brute_force_fixed_splits`` enumerates every candidate split vector and
exists to cross-check the DP on small instances; it refuses instances
beyond an explicit candidate budget.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator, Sequence
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


def _block_limit_search(prefixes: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Block limits of a stack, one device at a time.

    ``prefixes`` is ``(R, B, n + 1)``: one non-decreasing prefix-sum row per
    resource and instance.  Returns ``limits(capacities)``, which maps the
    ``(R, B)`` capacities of one device to the ``(B, n + 1)`` array whose
    entry ``[b, p]`` is the smallest q whose block ``q+1..p`` fits: the
    largest over the resources of ``searchsorted(prefix, prefix[p] -
    capacity, "left")`` on the row.  One search covers every row: the keys
    are ``row + 1j * prefix``, which numpy orders lexicographically, so each
    query lands in its own row exactly as a search of that row alone would.
    """
    resources, rows, width = prefixes.shape
    row = np.arange(resources * rows).reshape(resources, rows, 1)
    keys = np.empty(prefixes.shape, dtype=complex)
    keys.real = row
    keys.imag = prefixes
    keys = keys.reshape(-1)
    queries = np.empty(prefixes.shape, dtype=complex)
    queries.real = row

    def limits(capacities: np.ndarray) -> np.ndarray:
        queries.imag = prefixes - capacities[..., None]
        found = np.searchsorted(keys, queries.reshape(-1), "left").reshape(prefixes.shape)
        return (found - row * width).max(axis=0)

    return limits


def _window_minima(values: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leftmost minimum of ``values[b, first[b, p]:p]`` for every row b and p.

    Returns the minima, ``inf`` where the window is empty, and their
    positions.  A sparse table holds, per level k, the leftmost minimum of
    every block of ``2**k`` values as ``value + 1j * position``: numpy
    orders complex numbers by real part, then imaginary part, so
    ``np.minimum`` keeps the smaller value and, on a tie, the smaller
    position.  A window of width w is covered by the two level
    ``floor(log2 w)`` blocks at its ends.  Levels beyond the widest window
    are not built.
    """
    rows, width = values.shape
    positions = np.arange(width)
    span = positions - first
    empty = span < 1
    span[empty] = 1
    level = (np.frexp(span.astype(float))[1] - 1).astype(np.intp)  # floor(log2)
    levels = int(level.max()) + 1
    table = np.empty((levels, rows, width), dtype=complex)
    table.real[0] = values
    table.imag[0] = positions
    for k in range(1, levels):
        half = 1 << (k - 1)
        np.minimum(table[k - 1, :, :-half], table[k - 1, :, half:], out=table[k, :, :-half])
    base = (level * rows + np.arange(rows)[:, None]) * width
    left = base + np.where(empty, 0, first)
    right = base + np.where(empty, 0, positions - (1 << level))
    table = table.reshape(-1)
    found = np.minimum(table[left], table[right])
    minima = found.real
    minima[empty] = np.inf
    return minima, found.imag.astype(np.intp)


def _steps(
    prefixes: np.ndarray,
    cut_table: np.ndarray,
    capacities: np.ndarray,
    link_rate: np.ndarray,
    limit: int,
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Yield ``(best, parent)`` after the step for each device ``t = 1..limit``.

    Takes ``(2, B, n + 1)`` cpu and memory prefix sums, ``(B, n + 1)`` cut
    tables, ``(2, B, d)`` cpu and memory capacities and ``(B, d - 1)`` link
    rates, with ``limit <= min(n, d)``.  ``best[b, p]`` is the cheapest way
    to place layers ``1..p`` of instance b on devices ``1..t`` with the
    t-th split at ``p``, ``inf`` when none fits; ``best[b, n]`` is the
    optimum with exactly t partitions.  ``parent[b, p]`` is the split on
    device ``t - 1`` it extends (None for the first device).

    Moving from split ``q`` on device ``t-1`` costs ``cut_table[q] /
    link_rate[t-1]`` and requires block ``q+1..p`` to fit device ``t``: its
    summed cpu and memory costs both stay within the device's capacities.
    Cost ties pick the smaller ``q``.  Each cost is the running sum ``0.0 +
    cut[x_1] / r_1 + ...`` in ascending device order, the float sum
    ``cost.objective`` computes for the traced-back points.  One step holds
    O(B * n log n) memory, whatever ``limit`` is.
    """
    limits = _block_limit_search(prefixes)
    best = np.where(limits(capacities[:, :, 0]) == 0, 0.0, np.inf)
    best[:, 0] = np.inf
    yield best, None
    for t in range(2, limit + 1):
        arrival = best + cut_table / link_rate[:, t - 2, None]
        first = np.maximum(limits(capacities[:, :, t - 1]), t - 1)
        best, parent = _window_minima(arrival, first)
        yield best, parent


def _chain_arrays(chains: Sequence[DeviceChain]) -> tuple[np.ndarray, np.ndarray]:
    """``(2, B, d)`` cpu and memory capacities and ``(B, d - 1)`` link rates."""
    capacities = np.array(
        [
            [[device.cpu_capacity for device in chain.devices] for chain in chains],
            [[device.mem_capacity for device in chain.devices] for chain in chains],
        ]
    )
    return capacities, np.array([chain.link_rate for chain in chains])


def _optima(model: FfnnModel, chain: DeviceChain, limit: int) -> list[SolvedSplit | None]:
    """Optimal split for each partition count ``1..limit``, on a stack of one."""
    if limit < 1:
        return []
    costs, parents = [], []
    for best, parent in _steps(
        np.stack((model.prefix_cpu, model.prefix_mem))[:, None],
        cut_traffic_table(model)[None],
        *_chain_arrays([chain]),
        limit,
    ):
        costs.append(float(best[0, -1]))
        parents.append(parent)
    return [
        SolvedSplit(
            solution=SplitSolution(points=_trace_back(parents, 0, kappa, model.num_layers)),
            cost=cost,
        )
        if math.isfinite(cost)
        else None
        for kappa, cost in enumerate(costs, start=1)
    ]


def _trace_back(parents: list, row: int, kappa: int, n: int) -> tuple[int, ...]:
    """Splitting points of instance ``row``'s optimum with ``kappa`` partitions.

    ``parents`` lists the ``parent`` arrays of ``_steps`` in device order.
    """
    points = [n]
    for parent in reversed(parents[1:kappa]):
        points.append(int(parent[row, points[-1]]))
    return tuple(reversed(points))


def optimal_costs(
    prefix_cpu: np.ndarray,
    prefix_mem: np.ndarray,
    cut_table: np.ndarray,
    chains: Sequence[DeviceChain],
) -> np.ndarray:
    """Optimal cost of each of B stacked instances of n layers on d devices.

    Row b of the ``(B, n + 1)`` arrays holds instance b's cost prefix sums
    and cut table, as ``FfnnModel.prefix_cpu``, ``prefix_mem`` and
    ``cut_table`` hold them, and ``chains[b]`` is its chain.  Entry b of
    the result is the cost of ``solve(...).best`` on instance b, bit for
    bit, or ``inf`` when no partition count is feasible.
    """
    capacities, link_rate = _chain_arrays(chains)
    limit = min(cut_table.shape[1] - 1, capacities.shape[2])
    steps = _steps(np.stack((prefix_cpu, prefix_mem)), cut_table, capacities, link_rate, limit)
    return np.min([best[:, -1].copy() for best, _ in steps], axis=0)


def solve_fixed_splits(
    model: FfnnModel, chain: DeviceChain, num_splits: int
) -> SolvedSplit | None:
    """Optimal split into exactly ``num_splits`` non-empty blocks, or None."""
    _validate_num_splits(model, chain, num_splits)
    return _optima(model, chain, num_splits)[-1]


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
    for kappa, entry in enumerate(_optima(model, chain, limit), start=1):
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
