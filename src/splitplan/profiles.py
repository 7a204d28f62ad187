"""Layer-profile ingestion, normalization, and canonical file formats.

Three file kinds live here, all JSON, UTF-8, human-diffable:

* Raw profile: ``{"version": 1, "layers": [{"name", "trainable_params",
  "successors": [{"to": <layer name>, "bits": <number or "derive">}]}]}``.
  The layer order in the file is authoritative; edges must point forward.
  A layer's cpu and memory footprints are both taken from its trainable
  parameter count, and a ``"derive"`` edge carries the source layer's
  memory footprint as its bit count.
* Canonical model: ``{"version": 1, "layers": [{"name", "cpu_cost",
  "mem_cost"}], "edges": [{"from", "to", "bits"}]}`` where ``from``/``to``
  are 1-based layer positions.
* Canonical chain: ``{"devices": [{"cpu_capacity", "mem_capacity"}],
  "links": [{"rate"}]}``.

``normalize`` turns a raw profile plus raw device capacities and link rates
into a model and a chain, each held as arrays, in [0, 1] units: cpu
quantities are divided by the largest cpu capacity among the devices, memory
quantities (including edge bits) by the largest memory capacity, and link
rates by the largest rate.  The divisors are returned so results can be converted back.

Canonical save/load round-trips are bit-identical: loading a saved file and
saving it again reproduces the same bytes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import DeviceChain, FfnnModel

RAW_PROFILE_VERSION = 1
MODEL_FORMAT_VERSION = 1
# Every JSON number in [0, _MAX_FLOAT] converts to a finite float.
_MAX_FLOAT = sys.float_info.max


class ProfileFormatError(ValueError):
    """A profile, model, or chain file is malformed or inconsistent."""


@dataclass(frozen=True)
class RawEdge:
    """Forward edge in a raw profile; ``bits`` is None for "derive"."""

    to: str
    bits: float | None = None


@dataclass(frozen=True)
class RawLayerProfile:
    """One raw layer: name, trainable-parameter count, outgoing edges."""

    name: str
    trainable_params: int
    successors: tuple[RawEdge, ...] = ()


@dataclass(frozen=True)
class NormalizationFactors:
    """The divisors applied by :func:`normalize`, all strictly positive.

    ``cpu_factor`` is the largest cpu capacity among the devices,
    ``mem_factor`` the largest memory capacity, and ``bandwidth_factor``
    the largest link rate (1.0 when the chain has no links).
    """

    cpu_factor: float
    mem_factor: float
    bandwidth_factor: float

    def __post_init__(self) -> None:
        for label, value in (
            ("cpu_factor", self.cpu_factor),
            ("mem_factor", self.mem_factor),
            ("bandwidth_factor", self.bandwidth_factor),
        ):
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{label} must be finite and > 0, got {value}")

    def seconds_per_cost_unit(self) -> float:
        """Multiply a normalized transfer time by this to undo the scaling.

        Normalized costs divide bits by the memory factor and rates by the
        bandwidth factor, so one normalized time unit equals mem_factor /
        bandwidth_factor raw time units.
        """
        return self.mem_factor / self.bandwidth_factor


def _require(condition: bool, template: str, *args: object) -> None:
    """Raise unless ``condition``; the message is ``template.format(*args)``.

    The message is formatted only when the check fails, so per-row checks
    cost no string building on valid input.
    """
    if not condition:
        raise ProfileFormatError(template.format(*args))


def _read_json(path: str | Path) -> object:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ProfileFormatError(f"{path}: not valid JSON: {error}") from error


def _write_json(path: str | Path, payload: object) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _number(value: object, template: str, *args: object) -> float:
    """``value`` as a finite float; ``template.format(*args)`` names it in errors."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            result = float(value)
        except OverflowError:  # an integer beyond the float range
            result = math.inf
        if math.isfinite(result):
            return result
        reason = f"must be finite, got {value!r}"
    else:
        reason = f"must be a number, got {value!r}"
    raise ProfileFormatError(f"{template.format(*args)} {reason}")


def load_profile(path: str | Path) -> list[RawLayerProfile]:
    """Read a raw profile file into ordered :class:`RawLayerProfile` rows.

    Rejects duplicate layer names, negative parameter counts, edges whose
    target is unknown, and edges that do not point to a later layer.
    """
    payload = _read_json(path)
    _require(isinstance(payload, dict), "{}: top level must be an object", path)
    _require(
        payload.get("version") == RAW_PROFILE_VERSION,
        "{}: unsupported version {!r}, expected {}",
        path, payload.get("version"), RAW_PROFILE_VERSION,
    )
    rows = payload.get("layers")
    _require(isinstance(rows, list) and rows, "{}: 'layers' must be a non-empty list", path)

    names: list[str] = []
    order: dict[str, int] = {}  # name -> 1-based position
    for position, row in enumerate(rows, start=1):
        _require(isinstance(row, dict), "{}: layer {} must be an object", path, position)
        name = row.get("name")
        _require(
            isinstance(name, str) and name,
            "{}: layer {} needs a non-empty string name", path, position,
        )
        _require(name not in order, "{}: duplicate layer name {!r}", path, name)
        order[name] = position
        names.append(name)

    layers: list[RawLayerProfile] = []
    for position, row in enumerate(rows, start=1):
        name = names[position - 1]
        params = row.get("trainable_params")
        _require(
            isinstance(params, int) and not isinstance(params, bool),
            "{}: layer {!r} trainable_params must be an integer", path, name,
        )
        _require(
            params >= 0,
            "{}: layer {!r} trainable_params must be >= 0, got {}", path, name, params,
        )
        edges: list[RawEdge] = []
        seen_targets: set[str] = set()
        for edge in row.get("successors", []):
            _require(
                isinstance(edge, dict), "{}: layer {!r} successors must be objects", path, name
            )
            target = edge.get("to")
            _require(
                isinstance(target, str) and target in order,
                "{}: layer {!r} has unknown edge target {!r}", path, name, target,
            )
            _require(
                order[target] > position,
                "{}: backward edge {!r} -> {!r} (targets must come later in the layer order)",
                path, name, target,
            )
            _require(
                target not in seen_targets,
                "{}: layer {!r} lists target {!r} twice", path, name, target,
            )
            seen_targets.add(target)
            bits = edge.get("bits", "derive")
            if bits == "derive":
                edges.append(RawEdge(to=target, bits=None))
            else:
                value = _number(bits, "{}: edge {!r} -> {!r} bits", path, name, target)
                _require(
                    value >= 0.0,
                    "{}: edge {!r} -> {!r} bits must be >= 0", path, name, target,
                )
                edges.append(RawEdge(to=target, bits=value))
        layers.append(
            RawLayerProfile(name=name, trainable_params=params, successors=tuple(edges))
        )
    return layers


def normalize(
    raw_layers: Sequence[RawLayerProfile],
    device_capacities: Sequence[tuple[float, float]],
    link_rates: Sequence[float],
) -> tuple[FfnnModel, DeviceChain, NormalizationFactors]:
    """Scale a raw profile and raw device figures into [0, 1] planning units.

    ``device_capacities`` holds (cpu, mem) pairs in raw units and must list
    one more device than ``link_rates`` has links.  Each cpu quantity is
    divided by the largest cpu capacity, each memory quantity (layer
    footprints and explicit edge bits alike) by the largest memory capacity,
    and each rate by the largest rate.  "derive" edges receive the source
    layer's normalized memory footprint.

    The returned model is only as clean as its inputs: a layer with zero
    trainable parameters yields a zero footprint, which ``validate_model``
    reports, and a layer larger than every device yields a footprint above
    1.  Callers that need a usable model should check the validation report.
    """
    if not raw_layers:
        raise ValueError("normalize needs at least one layer")
    if not device_capacities:
        raise ValueError("normalize needs at least one device")
    if len(link_rates) != len(device_capacities) - 1:
        raise ValueError(
            f"{len(device_capacities)} devices need {len(device_capacities) - 1} "
            f"link rates, got {len(link_rates)}"
        )
    cpu_factor = max(float(cpu) for cpu, _ in device_capacities)
    mem_factor = max(float(mem) for _, mem in device_capacities)
    bandwidth_factor = max(float(r) for r in link_rates) if link_rates else 1.0
    for label, value in (
        ("cpu capacity", cpu_factor),
        ("memory capacity", mem_factor),
        ("link rate", bandwidth_factor),
    ):
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"largest {label} must be > 0 to normalize, got {value}")
    factors = NormalizationFactors(
        cpu_factor=cpu_factor, mem_factor=mem_factor, bandwidth_factor=bandwidth_factor
    )

    names = [raw.name for raw in raw_layers]
    cpu = [raw.trainable_params / cpu_factor for raw in raw_layers]
    mem = [raw.trainable_params / mem_factor for raw in raw_layers]
    order = {raw.name: position for position, raw in enumerate(raw_layers)}
    src: list[int] = []
    dst: list[int] = []
    bits: list[float] = []
    for position, raw in enumerate(raw_layers):
        for edge in raw.successors:
            src.append(position)
            dst.append(order[edge.to])
            bits.append(mem[position] if edge.bits is None else edge.bits / mem_factor)
    model = FfnnModel(cpu, mem, names, src=src, dst=dst, bits=bits)

    chain = DeviceChain(
        cpu_capacity=[float(cpu) / cpu_factor for cpu, _ in device_capacities],
        mem_capacity=[float(mem) / mem_factor for _, mem in device_capacities],
        link_rate=[float(r) / bandwidth_factor for r in link_rates],
    )
    return model, chain, factors


def save_model(model: FfnnModel, path: str | Path) -> None:
    """Write a model to the canonical JSON format, edges in row-major order."""
    edges = [
        {"from": source, "to": target, "bits": bits}
        for source, target, bits in zip(
            (model.src + 1).tolist(), (model.dst + 1).tolist(), model.bits.tolist()
        )
    ]
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "layers": [
            {"name": name, "cpu_cost": cpu, "mem_cost": mem}
            for name, cpu, mem in zip(model.names, model.cpu.tolist(), model.mem.tolist())
        ],
        "edges": edges,
    }
    _write_json(path, payload)


def load_model(path: str | Path) -> FfnnModel:
    """Read a canonical model file; inverse of :func:`save_model`.

    Edges may come in any order.  Every check runs in file order, edge by
    edge, and the first failure is reported; a message is only formatted
    then, so valid input costs O(n + E) plus a sort if the edges are out of
    order.
    """
    payload = _read_json(path)
    _require(isinstance(payload, dict), "{}: top level must be an object", path)
    _require(
        payload.get("version") == MODEL_FORMAT_VERSION,
        "{}: unsupported version {!r}, expected {}",
        path, payload.get("version"), MODEL_FORMAT_VERSION,
    )
    rows = payload.get("layers")
    _require(isinstance(rows, list) and rows, "{}: 'layers' must be a non-empty list", path)
    names: list[str | None] = []
    cpu: list[float] = []
    mem: list[float] = []
    for position, row in enumerate(rows, start=1):
        _require(isinstance(row, dict), "{}: layer {} must be an object", path, position)
        name = row.get("name")
        _require(
            name is None or isinstance(name, str),
            "{}: layer {} name must be a string or null", path, position,
        )
        names.append(name)
        cpu.append(_number(row.get("cpu_cost"), "{}: layer {} cpu_cost", path, position))
        mem.append(_number(row.get("mem_cost"), "{}: layer {} mem_cost", path, position))
    n = len(names)
    edges = payload.get("edges", [])
    _require(isinstance(edges, list), "{}: 'edges' must be a list", path)
    sources: list[int] = []
    targets: list[int] = []
    bits: list[float] = []
    for edge in edges:
        # Fast path: a well-formed edge needs no message.  Anything else goes
        # through _checked_edge, which runs the checks in order and reports
        # the first failure.
        if type(edge) is dict:
            source = edge.get("from")
            target = edge.get("to")
            value = edge.get("bits")
            if (
                type(source) is int
                and type(target) is int
                and 1 <= source < target <= n
                and (type(value) is float or type(value) is int)
                and 0 <= value <= _MAX_FLOAT
            ):
                sources.append(source)
                targets.append(target)
                bits.append(float(value))
                continue
        source, target, value = _checked_edge(path, edge, n, sources, targets)
        sources.append(source)
        targets.append(target)
        bits.append(value)
    try:
        return FfnnModel(
            cpu,
            mem,
            names,
            src=np.array(sources, dtype=np.intp) - 1,
            dst=np.array(targets, dtype=np.intp) - 1,
            bits=np.array(bits, dtype=np.float64),
        )
    except ValueError:
        # Every index is in range, so a repeated pair is the likely cause.
        _reject_repeats(path, sources, targets)
        raise


def _checked_edge(
    path: str | Path, edge: object, n: int, sources: list[int], targets: list[int]
) -> tuple[int, int, float]:
    """Check one edge against the edges before it; raise on the first failure.

    An earlier repeated pair is reported first, since a scan in file order
    would have met it before this edge.
    """
    _reject_repeats(path, sources, targets)
    _require(isinstance(edge, dict), "{}: edges must be objects", path)
    source = edge.get("from")
    target = edge.get("to")
    for label, value in (("from", source), ("to", target)):
        _require(
            isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= n,
            "{}: edge {} {!r} outside layer range 1..{}", path, label, value, n,
        )
    _require(
        source < target,
        "{}: backward edge {} -> {} (edges must point to a later layer)", path, source, target,
    )
    _require(
        (source, target) not in zip(sources, targets),
        "{}: duplicate edge {} -> {}", path, source, target,
    )
    bits = _number(edge.get("bits"), "{}: edge {} -> {} bits", path, source, target)
    _require(bits >= 0.0, "{}: edge {} -> {} bits must be >= 0", path, source, target)
    return source, target, bits


def _reject_repeats(path: str | Path, sources: list[int], targets: list[int]) -> None:
    """Report the first edge whose (from, to) pair came earlier in the file."""
    seen: set[tuple[int, int]] = set()
    for pair in zip(sources, targets):
        _require(pair not in seen, "{}: duplicate edge {} -> {}", path, *pair)
        seen.add(pair)


def save_chain(chain: DeviceChain, path: str | Path) -> None:
    """Write a device chain to the canonical JSON format."""
    payload = {
        "devices": [
            {"cpu_capacity": cpu, "mem_capacity": mem}
            for cpu, mem in zip(chain.cpu_capacity.tolist(), chain.mem_capacity.tolist())
        ],
        "links": [{"rate": rate} for rate in chain.link_rate.tolist()],
    }
    _write_json(path, payload)


def load_chain(path: str | Path) -> DeviceChain:
    """Read a canonical chain file; inverse of :func:`save_chain`."""
    payload = _read_json(path)
    _require(isinstance(payload, dict), "{}: top level must be an object", path)
    rows = payload.get("devices")
    _require(isinstance(rows, list) and rows, "{}: 'devices' must be a non-empty list", path)
    cpu: list[float] = []
    mem: list[float] = []
    for position, row in enumerate(rows, start=1):
        _require(isinstance(row, dict), "{}: device {} must be an object", path, position)
        cpu.append(_number(row.get("cpu_capacity"), "{}: device {} cpu_capacity", path, position))
        mem.append(_number(row.get("mem_capacity"), "{}: device {} mem_capacity", path, position))
    links = payload.get("links")
    _require(isinstance(links, list), "{}: 'links' must be a list", path)
    rates = []
    for position, row in enumerate(links, start=1):
        _require(isinstance(row, dict), "{}: link {} must be an object", path, position)
        rates.append(_number(row.get("rate"), "{}: link {} rate", path, position))
    try:
        return DeviceChain(cpu, mem, rates)
    except ValueError as error:
        raise ProfileFormatError(f"{path}: {error}") from error

