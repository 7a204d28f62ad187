"""Core data model for chain-partitioned feed-forward networks.

A feed-forward model is an ordered chain of layers, stored as arrays: the
per-layer cpu costs ``cpu``, memory costs ``mem`` and optional ``names``,
plus its traffic as three row-major edge arrays: edge ``e`` sends
``bits[e]`` from layer ``src[e] + 1`` to layer ``dst[e] + 1`` (0-based
positions in the arrays, 1-based layer indices everywhere else).  A valid
model's edges point forward (``src < dst``), the sparse form of a strictly
upper-triangular traffic matrix; only nonzero entries are stored, so
loading, saving, validating and building the cut table each cost O(n + E)
for n layers and E edges, and no per-layer object or n x n matrix is ever
built.  A device chain is arrays too: per-device capacities and the rates
of the links between neighbours; the first device owns the input data.

A split solution is a strictly increasing vector of layer indices
``x = [x_1, ..., x_k]`` with ``x_k`` equal to the number of layers; device
``t`` hosts the contiguous layer block ``x_{t-1}+1 .. x_t``.

All types are immutable after construction.  Constructors reject only
structurally unusable data (cost and name arrays of different lengths,
mismatched edge or capacity arrays, out-of-range or repeated edges, negative
or non-finite capacities, non-positive link rates); value-level checks live
in :func:`validate_model` and :func:`validate_chain` so that questionable
inputs can be loaded and reported instead of raised at parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class FfnnModel:
    """An ordered layer chain: per-layer cost arrays plus traffic edges.

    Layer ``i + 1`` costs ``cpu[i]`` cpu and ``mem[i]`` memory and is called
    ``names[i]`` (None when unnamed).  Edge ``e`` carries ``bits[e]`` from
    layer ``src[e] + 1`` to layer ``dst[e] + 1`` (the arrays hold 0-based
    positions).  The constructor fills omitted names with None, sorts the
    edges row-major (by ``src``, then ``dst``), drops zero entries (``-0.0``
    included; NaN is kept) and stores read-only float64 copies of the costs
    and read-only copies of the edge arrays.  It raises ``ValueError`` only
    for structure: cost, name or edge arrays of different lengths, indices
    outside ``0..n-1`` or a repeated ``(src, dst)`` pair.  Without edge
    arrays the model has no traffic.
    """

    cpu: np.ndarray
    mem: np.ndarray
    names: tuple[str | None, ...] | None = None
    src: np.ndarray = ()
    dst: np.ndarray = ()
    bits: np.ndarray = ()

    def __post_init__(self) -> None:
        cpu = np.array(self.cpu, dtype=np.float64).reshape(-1)
        mem = np.array(self.mem, dtype=np.float64).reshape(-1)
        n = len(cpu)
        names = (None,) * n if self.names is None else tuple(self.names)
        if not len(mem) == len(names) == n:
            raise ValueError(
                f"layer arrays differ in length: cpu {n}, mem {len(mem)}, "
                f"names {len(names)}"
            )
        object.__setattr__(self, "names", names)
        src = _index_array(self.src, "src")
        dst = _index_array(self.dst, "dst")
        bits = np.array(self.bits, dtype=np.float64).reshape(-1)
        if not len(src) == len(dst) == len(bits):
            raise ValueError(
                f"edge arrays differ in length: src {len(src)}, dst {len(dst)}, "
                f"bits {len(bits)}"
            )
        if len(src):
            # Viewed as unsigned, a negative index exceeds every valid one.
            largest = np.maximum(src.view(np.uintp), dst.view(np.uintp))
            if largest.max() >= n:
                e = np.flatnonzero(largest >= n)[0]
                raise ValueError(
                    f"edge ({src[e]}, {dst[e]}) outside 0..{n - 1} ({n} layers)"
                )
            key = src * n + dst
            if not (key[1:] > key[:-1]).all():
                order = np.argsort(key, kind="stable")
                src, dst, bits, key = src[order], dst[order], bits[order], key[order]
                repeated = np.flatnonzero(key[1:] == key[:-1])
                if len(repeated):
                    e = repeated[0]
                    raise ValueError(f"duplicate edge ({src[e]}, {dst[e]})")
            if not bits.all():  # NaN counts as nonzero, -0.0 does not
                keep = bits != 0.0
                src, dst, bits = src[keep], dst[keep], bits[keep]
        for name, array in (
            ("cpu", cpu), ("mem", mem), ("src", src), ("dst", dst), ("bits", bits)
        ):
            object.__setattr__(self, name, _read_only(array))

    @classmethod
    def from_matrix(cls, cpu, mem, matrix, names=None) -> FfnnModel:
        """Build a model from a dense matrix: ``matrix[i][j]`` bits from i+1 to j+1."""
        dense = np.asarray(matrix, dtype=np.float64)
        n = len(cpu)
        if dense.shape != (n, n):
            raise ValueError(
                f"traffic matrix shape {dense.shape} does not match {n} layers"
            )
        # ``np.nonzero`` lists cells row-major; NaN counts as nonzero, -0.0 not.
        src, dst = np.nonzero(dense)
        return cls(cpu, mem, names, src=src, dst=dst, bits=dense[src, dst])

    @property
    def num_layers(self) -> int:
        return len(self.cpu)

    @cached_property
    def cut_table(self) -> np.ndarray:
        """Boundary traffic for every split position, built once per model.

        ``table[p]`` (length ``n + 1``) is the bit count crossing a split
        placed after layer ``p``.  Edges only point forward, so the pairs with
        source ``<= p`` are the first ``p`` per-source totals, and subtracting
        the first ``p`` per-target totals removes exactly the pairs that also
        end at or before ``p``.  Each total sums its edges in row-major order,
        left to right.  The O(n + E) build runs on first use; the read-only
        result is shared by every later caller.
        """
        n = self.num_layers
        return _read_only(
            cut_tables(np.bincount(self.src, self.bits, n), np.bincount(self.dst, self.bits, n))
        )

    # The cost prefix sums are built once per model, like the cut table, and
    # shared read-only by every solver attempt.
    @cached_property
    def prefix_cpu(self) -> np.ndarray:
        """``prefix_cpu[p]``: summed cpu cost of layers ``1..p``, left to right."""
        return _prefix_sums(self.cpu)

    @cached_property
    def prefix_mem(self) -> np.ndarray:
        """``prefix_mem[p]``: summed memory cost of layers ``1..p``, left to right."""
        return _prefix_sums(self.mem)

    # ``np.add.reduce`` is the reduction ``np.sum`` runs, so the totals
    # equal ``np.sum`` of the cost arrays bit for bit.
    @cached_property
    def cpu_total(self) -> float:
        """Summed cpu cost of all layers, as ``np.sum`` adds them."""
        return float(np.add.reduce(self.cpu))

    @cached_property
    def mem_total(self) -> float:
        """Summed memory cost of all layers, as ``np.sum`` adds them."""
        return float(np.add.reduce(self.mem))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FfnnModel):
            return NotImplemented
        return (
            self.names == other.names
            and np.array_equal(self.cpu, other.cpu)
            and np.array_equal(self.mem, other.mem)
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.bits, other.bits)
        )


def cut_tables(sent: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Cut tables from per-layer traffic totals, one per row of the inputs.

    ``sent[..., i]`` and ``received[..., i]`` total the bits of the edges
    that start and end at layer ``i + 1``; entry ``p`` of each ``n + 1``
    result row is the bit count crossing a split after layer ``p``.  Each
    row is accumulated left to right, as a row of its own would be.
    """
    table = np.zeros(sent.shape[:-1] + (sent.shape[-1] + 1,))
    table[..., 1:] = np.cumsum(sent, axis=-1) - np.cumsum(received, axis=-1)
    # Nothing flows past the last layer; pin the identity against float
    # rounding between the two accumulation orders.
    table[..., -1] = 0.0
    return table


def _index_array(values, label: str) -> np.ndarray:
    array = np.array(values).reshape(-1)
    if not len(array):
        return np.zeros(0, dtype=np.intp)
    if array.dtype.kind not in "iu":
        raise ValueError(f"{label} must hold integers, got dtype {array.dtype}")
    return array.astype(np.intp, copy=False)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _prefix_sums(costs: np.ndarray) -> np.ndarray:
    prefix = np.zeros(len(costs) + 1)
    prefix[1:] = np.cumsum(costs)
    return _read_only(prefix)


@dataclass(frozen=True, eq=False)
class DeviceChain:
    """Device ``t``'s capacities and the rate of link t -> t+1, at index t - 1.

    Units are the model's.  The constructor stores read-only float64 copies
    and raises ``ValueError`` for capacity arrays of different lengths, a
    negative or non-finite capacity, no devices, a link count other than
    d - 1, or a rate that is not finite and positive.
    """

    cpu_capacity: np.ndarray
    mem_capacity: np.ndarray
    link_rate: np.ndarray

    def __post_init__(self) -> None:
        cpu = np.array(self.cpu_capacity, dtype=np.float64).reshape(-1)
        mem = np.array(self.mem_capacity, dtype=np.float64).reshape(-1)
        rates = np.array(self.link_rate, dtype=np.float64).reshape(-1)
        d = len(cpu)
        if len(mem) != d:
            raise ValueError(f"capacity arrays differ in length: cpu {d}, mem {len(mem)}")
        # A Python loop over a few devices costs less than numpy reductions.
        for pair in zip(cpu.tolist(), mem.tolist()):
            for label, value in zip(("cpu", "mem"), pair):
                if not math.isfinite(value) or value < 0.0:
                    raise ValueError(f"{label}_capacity must be finite and >= 0, got {value}")
        if not d:
            raise ValueError("a device chain needs at least one device")
        if len(rates) != d - 1:
            raise ValueError(f"{d} devices need {d - 1} links, got {len(rates)}")
        for t, rate in enumerate(rates.tolist(), start=1):
            # A zero or negative rate means no usable link between t and t+1.
            if not math.isfinite(rate) or rate <= 0.0:
                raise ValueError(f"link {t}->{t + 1} rate must be > 0, got {rate}")
        for name, array in zip(("cpu_capacity", "mem_capacity", "link_rate"), (cpu, mem, rates)):
            object.__setattr__(self, name, _read_only(array))

    @property
    def num_devices(self) -> int:
        return len(self.cpu_capacity)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceChain):
            return NotImplemented
        names = ("cpu_capacity", "mem_capacity", "link_rate")
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in names)


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
class ValidationReport:
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(model: FfnnModel) -> ValidationReport:
    """Check every model invariant; list each violation instead of raising.

    Every edge must point to a later layer (feed-forward order: the sparse
    form of a strictly upper-triangular matrix) and carry a finite,
    non-negative bit count; cpu costs lie in [0, 1] and memory costs in
    (0, 1].  If every edge passes, so must the traffic at each split: it
    must be finite.  O(n + E).
    """
    violations: list[str] = []
    n = model.num_layers
    if n < 1:
        violations.append("model has no layers")
    # NaN fails every comparison, so a NaN cost is reported too.
    cpu_bad = ~((model.cpu >= 0.0) & (model.cpu <= 1.0))
    mem_bad = ~((model.mem > 0.0) & (model.mem <= 1.0))
    for i in np.flatnonzero(cpu_bad | mem_bad).tolist():
        if cpu_bad[i]:
            violations.append(f"layer {i + 1} cpu_cost {float(model.cpu[i])} outside [0, 1]")
        if mem_bad[i]:
            violations.append(f"layer {i + 1} mem_cost {float(model.mem[i])} outside (0, 1]")
    # The constructor kept only nonzero entries (NaN counts as nonzero, -0.0
    # does not), sorted row-major, so each offending edge is listed in the
    # order a row-by-row scan of the dense matrix would meet it.
    bad = ~((model.src < model.dst) & (model.bits >= 0.0) & (model.bits < math.inf))
    for i, j in zip((model.src[bad] + 1).tolist(), (model.dst[bad] + 1).tolist()):
        if i == j:
            violations.append(f"diagonal traffic at ({i},{j})")
        elif i > j:
            violations.append(f"lower-triangular traffic at ({i},{j})")
        else:
            violations.append(f"negative traffic at ({i},{j})")
    if not bad.any() and not np.isfinite(model.cut_table).all():
        p = int(np.argmin(np.isfinite(model.cut_table)))
        violations.append(
            f"traffic crossing a split after layer {p} is {model.cut_table[p]}, not finite"
        )
    return ValidationReport(violations=tuple(violations))


def validate_chain(chain: DeviceChain) -> ValidationReport:
    """Warn about devices that can never host a layer or are un-normalized."""
    warnings: list[str] = []
    capacities = zip(chain.cpu_capacity.tolist(), chain.mem_capacity.tolist())
    for t, (cpu, mem) in enumerate(capacities, start=1):
        if cpu == 0.0 or mem == 0.0:
            warnings.append(f"device {t} has zero capacity and will never host a layer")
        if cpu > 1.0 or mem > 1.0:
            warnings.append(f"device {t} capacity exceeds 1; values look un-normalized")
    return ValidationReport(warnings=tuple(warnings))


def partition(x: SplitSolution, num_layers: int) -> tuple[range, ...]:
    """Expand splitting points into the per-device layer blocks.

    Block ``t-1`` is the 1-based layer range device t receives,
    ``x_{t-1}+1 .. x_t`` (with ``x_0 = 0``); the blocks are non-empty,
    disjoint, and cover ``1 .. num_layers`` exactly.
    """
    if x.points[-1] != num_layers:
        raise ValueError(
            f"last splitting point {x.points[-1]} must equal the layer count {num_layers}"
        )
    blocks = []
    previous = 0
    for point in x.points:
        blocks.append(range(previous + 1, point + 1))
        previous = point
    return tuple(blocks)


def max_split_count(model: FfnnModel, chain: DeviceChain) -> int:
    """Largest usable partition count: one device per partition, one layer each."""
    return min(model.num_layers, chain.num_devices)
