"""Core data model for chain-partitioned feed-forward networks.

A feed-forward model is an ordered list of layers plus a strictly
upper-triangular traffic matrix: ``traffic[i-1][j-1]`` holds the number of
bits layer ``i`` sends to layer ``j`` (1-based indices, ``i < j``).  A device
chain is an ordered list of devices connected by point-to-point links, the
first device being the one that owns the input data.

A split solution is a strictly increasing vector of layer indices
``x = [x_1, ..., x_k]`` with ``x_k`` equal to the number of layers; device
``t`` hosts the contiguous layer block ``x_{t-1}+1 .. x_t``.

All types are immutable after construction.  Constructors reject only
structurally unusable data (wrong shapes, NaN, non-positive link rates);
value-level checks live in :func:`validate_model` and :func:`validate_chain`
so that questionable inputs can be loaded and reported instead of raised at
parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class LayerProfile:
    """One layer: 1-based position plus normalized resource costs."""

    index: int
    cpu_cost: float
    mem_cost: float
    name: str | None = None


@dataclass(frozen=True, eq=False)
class FfnnModel:
    """An ordered layer chain together with its inter-layer traffic matrix."""

    layers: tuple[LayerProfile, ...]
    traffic: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        matrix = np.array(self.traffic, dtype=np.float64)
        n = len(self.layers)
        if matrix.shape != (n, n):
            raise ValueError(
                f"traffic matrix shape {matrix.shape} does not match {n} layers"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "traffic", matrix)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @cached_property
    def cut_table(self) -> np.ndarray:
        """Boundary traffic for every split position, built once per model.

        ``table[p]`` (length ``n + 1``) is the bit count crossing a split
        placed after layer ``p``.  Row ``i`` of the traffic matrix only holds
        entries with ``j > i``, so the pairs with ``i <= p`` are the first
        ``p`` row sums, and subtracting the first ``p`` column sums removes
        exactly the pairs that also have ``j <= p``.  The O(n^2) build runs on
        first use; the read-only result is shared by every later caller.
        """
        row_totals = self.traffic.sum(axis=1)
        col_totals = self.traffic.sum(axis=0)
        table = np.zeros(self.num_layers + 1)
        table[1:] = np.cumsum(row_totals) - np.cumsum(col_totals)
        # Nothing flows past the last layer; pin the identity against float
        # rounding between the two accumulation orders.
        table[-1] = 0.0
        table.setflags(write=False)
        return table

    def cpu_costs(self) -> np.ndarray:
        return np.array([layer.cpu_cost for layer in self.layers])

    def mem_costs(self) -> np.ndarray:
        return np.array([layer.mem_cost for layer in self.layers])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FfnnModel):
            return NotImplemented
        return self.layers == other.layers and np.array_equal(
            self.traffic, other.traffic
        )


@dataclass(frozen=True)
class Device:
    """Per-device capacity limits, in the same normalized units as the model."""

    cpu_capacity: float
    mem_capacity: float

    def __post_init__(self) -> None:
        for label, value in (("cpu", self.cpu_capacity), ("mem", self.mem_capacity)):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{label}_capacity must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class DeviceChain:
    """Ordered devices; ``link_rate[t-1]`` is the rate of the link t -> t+1."""

    devices: tuple[Device, ...]
    link_rate: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "link_rate", tuple(float(r) for r in self.link_rate))
        if not self.devices:
            raise ValueError("a device chain needs at least one device")
        if len(self.link_rate) != len(self.devices) - 1:
            raise ValueError(
                f"{len(self.devices)} devices need {len(self.devices) - 1} links, "
                f"got {len(self.link_rate)}"
            )
        for t, rate in enumerate(self.link_rate, start=1):
            # A zero or negative rate means no usable link between t and t+1.
            if not math.isfinite(rate) or rate <= 0.0:
                raise ValueError(f"link {t}->{t + 1} rate must be > 0, got {rate}")

    @property
    def num_devices(self) -> int:
        return len(self.devices)


@dataclass(frozen=True)
class SplitSolution:
    """Strictly increasing splitting points; the last one ends the model."""

    points: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(int(p) for p in self.points))
        if not self.points:
            raise ValueError("a split solution needs at least one point")
        if self.points[0] < 1:
            raise ValueError(f"splitting points are 1-based, got {self.points[0]}")
        for a, b in zip(self.points, self.points[1:]):
            if b <= a:
                raise ValueError(f"splitting points must strictly increase: {a} !< {b}")

    @property
    def kappa(self) -> int:
        """Number of partitions (equivalently devices used)."""
        return len(self.points)


@dataclass(frozen=True)
class PartitionAssignment:
    """Layer blocks per device; ``subsets[t-1]`` is a 1-based index range."""

    subsets: tuple[range, ...]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(model: FfnnModel) -> ValidationReport:
    """Check every model invariant; list each violation instead of raising.

    Traffic must be strictly upper-triangular (feed-forward order: data only
    flows to later layers) and non-negative; cpu costs lie in [0, 1] and
    memory costs in (0, 1].
    """
    violations: list[str] = []
    n = model.num_layers
    if n < 1:
        violations.append("model has no layers")
    for pos, layer in enumerate(model.layers, start=1):
        if layer.index != pos:
            violations.append(f"layer at position {pos} carries index {layer.index}")
        if not 0.0 <= layer.cpu_cost <= 1.0:
            violations.append(f"layer {pos} cpu_cost {layer.cpu_cost} outside [0, 1]")
        if not 0.0 < layer.mem_cost <= 1.0:
            violations.append(f"layer {pos} mem_cost {layer.mem_cost} outside (0, 1]")
    # Only nonzero cells can violate anything (NaN counts as nonzero, -0.0
    # does not); ``np.nonzero`` lists them in row-major order.
    rows, cols = np.nonzero(model.traffic)
    values = model.traffic[rows, cols]
    bad = ~((rows < cols) & (values >= 0.0) & (values < math.inf))
    for i, j in zip((rows[bad] + 1).tolist(), (cols[bad] + 1).tolist()):
        if i == j:
            violations.append(f"diagonal traffic at ({i},{j})")
        elif i > j:
            violations.append(f"lower-triangular traffic at ({i},{j})")
        else:
            violations.append(f"negative traffic at ({i},{j})")
    return ValidationReport(violations=tuple(violations))


def validate_chain(chain: DeviceChain) -> ValidationReport:
    """Warn about devices that can never host a layer or are un-normalized."""
    warnings: list[str] = []
    for t, device in enumerate(chain.devices, start=1):
        if device.cpu_capacity == 0.0 or device.mem_capacity == 0.0:
            warnings.append(f"device {t} has zero capacity and will never host a layer")
        if device.cpu_capacity > 1.0 or device.mem_capacity > 1.0:
            warnings.append(f"device {t} capacity exceeds 1; values look un-normalized")
    return ValidationReport(warnings=tuple(warnings))


def partition(x: SplitSolution, num_layers: int) -> PartitionAssignment:
    """Expand splitting points into the per-device layer blocks.

    Device t receives layers ``x_{t-1}+1 .. x_t`` (with ``x_0 = 0``); the
    blocks are non-empty, disjoint, and cover ``1 .. num_layers`` exactly.
    """
    if x.points[-1] != num_layers:
        raise ValueError(
            f"last splitting point {x.points[-1]} must equal the layer count {num_layers}"
        )
    subsets = []
    previous = 0
    for point in x.points:
        subsets.append(range(previous + 1, point + 1))
        previous = point
    return PartitionAssignment(subsets=tuple(subsets))


def max_split_count(model: FfnnModel, chain: DeviceChain) -> int:
    """Largest usable partition count: one device per partition, one layer each."""
    return min(model.num_layers, chain.num_devices)
