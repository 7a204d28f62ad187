"""Randomized benchmark scenarios and the heuristic-vs-exact experiment.

The instance family: every layer costs one normalized cpu unit, memory costs
are uniform in (0.01, 1.0], each layer always sends its memory-sized output
to the next layer, and with probability ``skip_prob`` also to each later
layer.  Device ``t`` of ``d`` receives capacity ``total / (d - t + 1)`` per
resource, so the last device can always hold the whole model and the first
holds a ``1/d`` fraction; all links share the rate ``1 / (d - 1)``.  One
helper computes this ladder as arrays, for a chain or a whole stack.

``run_cost_difference_sweep`` runs the greedy planner against the exact one
over many such instances and aggregates the cost gap, the failure rate of
the greedy scan, offload statistics, and solver wall times.  Every iteration
derives its own RNG from ``(seed, iteration)``, so results do not depend on
execution order and work can fan out across processes.  The draw does not
depend on the device count, so cells that differ only in ``num_devices``
draw each instance once and solve it on each cell's ladder.  The sweep
builds no model or chain objects: each draw is reduced at once to its rows
of cost prefix sums and cut table, and per cell both solvers run once over
a stack of up to ``EXACT_STACK_SIZE`` instances, the greedy as
``heuristic.solve_stack`` (one block search and one range minimum per
device for the whole stack) and the exact solver as
``exact.optimal_costs`` (block limits from one search per device, window
minima from a sparse table, O(kappa * n log n) per instance).  Each
instance's solver times are the stack's times over its size.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import exact, heuristic
from .model import DeviceChain, FfnnModel, SplitSolution, cut_tables

# A greedy solution may only ever cost at least as much as the optimum;
# anything below -COST_GAP_TOLERANCE indicates a solver defect.
COST_GAP_TOLERANCE = 1e-9

# The exact solver runs over stacks of at most this many instances: enough to
# amortize its per-call cost, and a bounded number of (n + 1)-rows in memory
# however many iterations a cell has.
EXACT_STACK_SIZE = 256


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment cell: instance shape plus iteration count and seed."""

    num_layers: int
    num_devices: int
    skip_prob: float
    iterations: int
    seed: int

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.num_devices < 2:
            raise ValueError(f"num_devices must be >= 2, got {self.num_devices}")
        if not 0.0 <= self.skip_prob <= 1.0:
            raise ValueError(f"skip_prob must be in [0, 1], got {self.skip_prob}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FootprintStats:
    """How a split spreads the model's resource footprint over the devices."""

    mem_shares: tuple[float, ...]
    cpu_shares: tuple[float, ...]
    rho_mem: float
    rho_cpu: float


@dataclass(frozen=True)
class ExperimentRecord:
    """Aggregated sweep outcome for one configuration.

    ``psi_heuristic``, ``psi_exact``, and ``cost_differences`` are aligned
    per successful iteration; iterations where the greedy scan found nothing
    only count toward ``num_failures``.  Means over an empty success set are
    reported as 0.0 with ``failure_rate`` at 1.0.  Wall-time means cover all
    iterations.
    """

    config: ScenarioConfig
    psi_heuristic: tuple[float, ...]
    psi_exact: tuple[float, ...]
    cost_differences: tuple[float, ...]
    num_failures: int
    failure_rate: float
    mean_cost_diff: float
    ci95_halfwidth: float
    mean_mem_shares: tuple[float, ...]
    mean_cpu_shares: tuple[float, ...]
    mean_rho_mem: float
    mean_rho_cpu: float
    mean_heuristic_time_s: float
    mean_exact_time_s: float


def iteration_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one iteration, derived only from the pair."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def generate_random_model(
    num_layers: int, skip_prob: float, rng: np.random.Generator
) -> FfnnModel:
    """Draw one random layer chain with skip connections.

    Memory costs are uniform in (0.01, 1.0] and double as the bit count of
    every outgoing transfer; cpu costs are all 1.  Layer ``i`` always feeds
    layer ``i+1``; each farther layer ``j > i+1`` is fed with probability
    ``skip_prob``.
    """
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    if not 0.0 <= skip_prob <= 1.0:
        raise ValueError(f"skip_prob must be in [0, 1], got {skip_prob}")
    mem, src, dst = _draw(num_layers, skip_prob, rng)
    return FfnnModel(cpu=np.ones(num_layers), mem=mem, src=src, dst=dst, bits=mem[src])


def _draw(
    num_layers: int, skip_prob: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One instance's memory costs and row-major edge arrays ``(mem, src, dst)``.

    The random stream of ``generate_random_model``, which adds the unit cpu
    costs and gives every edge its source's memory cost as bits.
    """
    n = num_layers
    mem = 1.0 - rng.random(n) * 0.99
    # One (n, n) draw keeps the random stream as it has always been; only
    # the cells two or more places right of the diagonal can hold a skip.
    edges = rng.random((n, n)) < skip_prob
    positions = np.arange(n)
    edges &= positions[None, :] > positions[:, None] + 1
    edges[positions[:-1], positions[1:]] = True
    src, dst = np.nonzero(edges)  # row-major, as the model keeps them
    return mem, src, dst


def generate_device_chain(num_devices: int, model: FfnnModel) -> DeviceChain:
    """Capacity ladder for a model: device t gets ``total / (d - t + 1)``.

    Capacities are expressed in the model's own cost units, so they exceed 1
    for all but the smallest models.  Every link gets rate ``1 / (d - 1)``.
    """
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    capacities, link_rate = _ladder(np.array([model.cpu_total, model.mem_total]), num_devices)
    return DeviceChain(capacities[0], capacities[1], link_rate)


def _ladder(totals: np.ndarray, num_devices: int) -> tuple[np.ndarray, np.ndarray]:
    """Capacities ``total / (d - t + 1)`` for ``(2, ...)`` totals; rates ``1 / (d - 1)``."""
    capacities = totals[..., None] / np.arange(num_devices, 0, -1)
    rate = 1.0 / (num_devices - 1) if num_devices > 1 else 0.0
    return capacities, np.full(totals.shape[1:] + (num_devices - 1,), rate)


def footprint_stats(model: FfnnModel, solution: SplitSolution) -> FootprintStats:
    """Resource share hosted by each device, and the first device's savings.

    ``rho_mem`` and ``rho_cpu`` compare against hosting the whole model on
    the first device: a single-block split yields 0.  A resource whose total
    cost is zero reports all-zero shares.
    """
    points = solution.points
    if points[-1] != model.num_layers:
        raise ValueError(
            f"last splitting point {points[-1]} must equal the layer count "
            f"{model.num_layers}"
        )
    # Each share sums its block's slice with ``np.add.reduce``, the reduction
    # ``np.sum`` runs; differences of prefix sums would round differently.
    add = np.add.reduce
    mem = model.mem
    cpu = model.cpu
    mem_total = model.mem_total
    cpu_total = model.cpu_total
    mem_shares = []
    cpu_shares = []
    lo = 0
    for hi in points:
        mem_shares.append(float(add(mem[lo:hi])) / mem_total if mem_total else 0.0)
        cpu_shares.append(float(add(cpu[lo:hi])) / cpu_total if cpu_total else 0.0)
        lo = hi
    return FootprintStats(
        mem_shares=tuple(mem_shares),
        cpu_shares=tuple(cpu_shares),
        rho_mem=1.0 - mem_shares[0] if mem_total else 0.0,
        rho_cpu=1.0 - cpu_shares[0] if cpu_total else 0.0,
    )


def _empty_outcome() -> dict[str, list]:
    return {
        "psi_heuristic": [],
        "psi_exact": [],
        "diffs": [],
        "mem_shares": [],
        "cpu_shares": [],
        "rho_mem": [],
        "rho_cpu": [],
        "heuristic_times": [],
        "exact_times": [],
        "failures": 0,
    }


def _draw_stack(config: ScenarioConfig, indices: range) -> tuple[np.ndarray, np.ndarray]:
    """A cell's instances ``indices`` as ``(B, n)`` memory costs and ``(B, n + 1)`` cut tables.

    Each draw is reduced to its per-layer traffic totals at once, by the
    ``bincount`` calls ``FfnnModel.cut_table`` makes, so only one
    instance's edges exist at a time.
    """
    n = config.num_layers
    mem = np.empty((len(indices), n))
    sent = np.empty((len(indices), n))
    received = np.empty((len(indices), n))
    for row, index in enumerate(indices):
        costs, src, dst = _draw(n, config.skip_prob, iteration_rng(config.seed, index))
        bits = costs[src]
        mem[row] = costs
        sent[row] = np.bincount(src, bits, n)
        received[row] = np.bincount(dst, bits, n)
    return mem, cut_tables(sent, received)


def _footprint_shares(
    mem: np.ndarray,
    mem_total: np.ndarray,
    points: np.ndarray,
    kappa: np.ndarray,
    num_devices: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The memory and cpu shares ``footprint_stats`` gives, padded to ``num_devices``.

    Row b of ``mem`` holds an instance's memory costs (its cpu costs are all
    1), ``mem_total[b]`` their ``np.add.reduce`` and ``points[b, :kappa[b]]``
    its plan.  The blocks of one length are summed as one ``(m, length)``
    gather, whose axis-1 ``np.add.reduce`` adds each row as
    ``footprint_stats`` adds its block.
    """
    rows, n = mem.shape
    mem_shares = np.zeros((rows, num_devices))
    cpu_shares = np.zeros((rows, num_devices))
    lo = np.zeros_like(points)
    lo[:, 1:] = points[:, :-1]
    length = points - lo
    placed = np.arange(points.shape[1]) < kappa[:, None]
    for size in np.unique(length[placed]).tolist():
        row, device = np.nonzero(placed & (length == size))
        block = mem[row[:, None], lo[row, device, None] + np.arange(size)]
        mem_shares[row, device] = np.add.reduce(block, axis=1) / mem_total[row]
        cpu_shares[row, device] = size / n
    return mem_shares, cpu_shares


def _run_iteration_range(
    cells: tuple[ScenarioConfig, ...], start: int, stop: int
) -> list[dict[str, list]]:
    """Worker body: run iterations [start, stop) of one group of cells.

    The cells share ``(num_layers, skip_prob, iterations, seed)``, so each
    iteration draws one instance and solves it on every cell's capacity
    ladder.  The iterations go in stacks of at most ``EXACT_STACK_SIZE``,
    held as arrays only: each draw becomes one row of memory costs and one
    cut-table row, and per cell the stacked greedy and the stacked exact
    solver each run once over the stack.  Each instance is charged an equal
    share of each solver's stack time.  Returns one dict of raw outcomes per
    cell, in the order of ``cells``.
    """
    first = cells[0]
    n = first.num_layers
    outs = [_empty_outcome() for _ in cells]
    for stack_start in range(start, stop, EXACT_STACK_SIZE):
        indices = range(stack_start, min(stack_start + EXACT_STACK_SIZE, stop))
        size = len(indices)
        mem, cut_table = _draw_stack(first, indices)
        # Unit cpu costs: every cpu prefix sum and total is an exact integer.
        prefix_cpu = np.broadcast_to(np.arange(n + 1.0), (size, n + 1))
        prefix_mem = np.zeros((size, n + 1))
        np.cumsum(mem, axis=1, out=prefix_mem[:, 1:])
        totals = np.stack((np.full(size, float(n)), np.add.reduce(mem, axis=1)))
        for config, out in zip(cells, outs):
            d = config.num_devices
            capacities, link_rate = _ladder(totals, d)
            arrays = (prefix_cpu, prefix_mem, cut_table, capacities, link_rate)
            began = time.perf_counter()
            points, kappa, cost = heuristic.solve_stack(*arrays)
            out["heuristic_times"].extend([(time.perf_counter() - began) / size] * size)
            began = time.perf_counter()
            optima = exact.optimal_costs(*arrays)
            out["exact_times"].extend([(time.perf_counter() - began) / size] * size)
            solved = kappa > 0
            out["failures"] += size - int(solved.sum())
            cost, optima = cost[solved], optima[solved]
            if (optima == math.inf).any():
                raise RuntimeError(
                    "exact solver found nothing although the greedy solution is feasible"
                )
            diffs = cost - optima
            undercut = np.flatnonzero(diffs < -COST_GAP_TOLERANCE)
            if len(undercut):
                b = undercut[0]
                raise RuntimeError(f"greedy cost {cost[b]} undercuts the optimum {optima[b]}")
            mem_shares, cpu_shares = _footprint_shares(
                mem[solved], totals[1, solved], points[solved], kappa[solved], d
            )
            out["psi_heuristic"].extend(cost.tolist())
            out["psi_exact"].extend(optima.tolist())
            out["diffs"].extend(diffs.tolist())
            out["mem_shares"].extend(mem_shares.tolist())
            out["cpu_shares"].extend(cpu_shares.tolist())
            out["rho_mem"].extend((1.0 - mem_shares[:, 0]).tolist())
            out["rho_cpu"].extend((1.0 - cpu_shares[:, 0]).tolist())
    return outs


def _merge(parts: list[dict[str, list]]) -> dict[str, list]:
    merged = parts[0]
    for part in parts[1:]:
        for key, value in part.items():
            if key == "failures":
                merged["failures"] += value
            else:
                merged[key].extend(value)
    return merged


def _aggregate(config: ScenarioConfig, raw: dict[str, list]) -> ExperimentRecord:
    diffs = np.array(raw["diffs"])
    successes = len(diffs)
    if successes >= 2:
        halfwidth = 1.96 * float(np.std(diffs, ddof=1)) / successes**0.5
    else:
        halfwidth = 0.0
    if successes:
        mean_diff = float(np.mean(diffs))
        mem_shares = tuple(np.mean(np.array(raw["mem_shares"]), axis=0))
        cpu_shares = tuple(np.mean(np.array(raw["cpu_shares"]), axis=0))
        rho_mem = float(np.mean(raw["rho_mem"]))
        rho_cpu = float(np.mean(raw["rho_cpu"]))
    else:
        mean_diff = 0.0
        mem_shares = (0.0,) * config.num_devices
        cpu_shares = (0.0,) * config.num_devices
        rho_mem = 0.0
        rho_cpu = 0.0
    return ExperimentRecord(
        config=config,
        psi_heuristic=tuple(raw["psi_heuristic"]),
        psi_exact=tuple(raw["psi_exact"]),
        cost_differences=tuple(diffs.tolist()),
        num_failures=raw["failures"],
        failure_rate=raw["failures"] / config.iterations,
        mean_cost_diff=mean_diff,
        ci95_halfwidth=float(halfwidth),
        mean_mem_shares=mem_shares,
        mean_cpu_shares=cpu_shares,
        mean_rho_mem=rho_mem,
        mean_rho_cpu=rho_cpu,
        mean_heuristic_time_s=float(np.mean(raw["heuristic_times"])),
        mean_exact_time_s=float(np.mean(raw["exact_times"])),
    )


def _groups(
    configs: list[ScenarioConfig] | tuple[ScenarioConfig, ...],
) -> list[tuple[tuple[int, ...], tuple[ScenarioConfig, ...]]]:
    """Group the cells that solve the same instances: (positions, cells).

    Instances depend on ``(num_layers, skip_prob, iterations, seed)`` only,
    so cells that differ in ``num_devices`` alone form one group.  Groups
    are listed in the order of their first cell.
    """
    groups: dict[tuple, list[int]] = {}
    for position, config in enumerate(configs):
        key = (config.num_layers, config.skip_prob, config.iterations, config.seed)
        groups.setdefault(key, []).append(position)
    return [
        (tuple(positions), tuple(configs[p] for p in positions))
        for positions in groups.values()
    ]


def run_cost_difference_sweep(
    configs: list[ScenarioConfig] | tuple[ScenarioConfig, ...],
    threads: int = 1,
) -> list[ExperimentRecord]:
    """Run every configuration and aggregate one record per cell.

    Each group of cells that differ only in ``num_devices`` draws every
    instance once and solves it for each cell.  With ``threads > 1`` the
    iterations of every group of at least ``2 * threads`` iterations fan out
    as chunks over one worker pool for the whole sweep, one group at a time;
    smaller groups run in this process while no chunk is outstanding.  The
    per-iteration RNG derivation keeps the outcome identical to a serial
    run.  Records come back in the order of ``configs``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    groups = _groups(configs)
    fan_out = [threads > 1 and cells[0].iterations >= 2 * threads for _, cells in groups]
    records: list[ExperimentRecord | None] = [None] * len(configs)
    pool_or_none = ProcessPoolExecutor(max_workers=threads) if any(fan_out) else nullcontext()
    with pool_or_none as pool:
        for (positions, cells), pooled in zip(groups, fan_out):
            if pooled:
                bounds = np.linspace(0, cells[0].iterations, threads + 1).astype(int)
                futures = [
                    pool.submit(_run_iteration_range, cells, int(lo), int(hi))
                    for lo, hi in zip(bounds, bounds[1:])
                ]
                parts = [future.result() for future in futures]
                raws = [_merge([part[i] for part in parts]) for i in range(len(cells))]
            else:
                raws = _run_iteration_range(cells, 0, cells[0].iterations)
            # Aggregate now, so no group's raw lists outlive the group.
            for position, config, raw in zip(positions, cells, raws):
                records[position] = _aggregate(config, raw)
    return records
