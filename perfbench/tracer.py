"""Layer tracing from outside the package: wrappers, in-memory spans, self time.

The wrappers are installed where each caller looks the name up (for example
``splitplan.cli.load_model`` and ``splitplan.exact.cut_traffic_table``),
because the modules import one another's functions by name.  Each call
records one span ``(name, parent span, operation, start, end)`` in memory;
spans are written out only when the run ends.  A layer's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# Traced layers, as "module.function", each with the call sites
# ("module", "attribute") where its callers look it up.
LAYERS = (
    ("profiles.load_model", (("cli", "load_model"),)),
    ("profiles.load_chain", (("cli", "load_chain"),)),
    ("model.validate_model", (("cli", "validate_model"),)),
    (
        "cost.cut_traffic_table",
        (("cost", "cut_traffic_table"), ("exact", "cut_traffic_table"),
         ("heuristic", "cut_traffic_table")),
    ),
    ("cost.objective", (("cli", "objective"), ("exact", "objective"), ("heuristic", "objective"))),
    ("cost.is_feasible", (("cli", "is_feasible"), ("exact", "is_feasible"))),
    ("heuristic.solve", (("heuristic", "solve"),)),
    ("exact.solve", (("exact", "solve"),)),
    ("scenarios.generate_random_model", (("scenarios", "generate_random_model"),)),
    ("scenarios.generate_device_chain", (("scenarios", "generate_device_chain"),)),
    ("scenarios.footprint_stats", (("scenarios", "footprint_stats"), ("cli", "footprint_stats"))),
    ("scenarios.run_cost_difference_sweep", (("cli", "run_cost_difference_sweep"),)),
    ("svgplot.write_sweep_svg", (("cli", "write_sweep_svg"),)),
    ("cli.main", ()),  # the benchmark's own call into the package
)

# Units of the three metrics each traced layer reports, and of the counts.
LAYER_METRIC_UNITS = {"calls_per_op": "count", "ms_per_op": "ms", "self_share": "ratio"}
COUNT_METRIC_UNITS = {
    "heuristic.iterations_per_call": "count",
    "heuristic.kappa_tried_per_call": "count",
    "heuristic.fail_ratio": "ratio",
    "exact.kappa_solved_per_call": "count",
    "trace.overhead_ratio": "ratio",
}


def metric_unit(name: str) -> str:
    return COUNT_METRIC_UNITS.get(name) or LAYER_METRIC_UNITS[name.rsplit(".", 1)[1]]


def _observe_heuristic(counters: dict, result) -> None:
    counters["heuristic.iterations"] += result.trace.total_iterations
    counters["heuristic.kappa_tried"] += len(result.trace.kappa_attempted)
    counters["heuristic.failures"] += result.solution is None


def _observe_exact(counters: dict, result) -> None:
    counters["exact.kappa_solved"] += len(result.per_kappa)


OBSERVERS = {"heuristic.solve": _observe_heuristic, "exact.solve": _observe_exact}


class Tracer:
    """Wraps the package's layer functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.names = [name for name, _ in LAYERS]
        self.spans: list = []
        self.counters = {
            "heuristic.iterations": 0,
            "heuristic.kappa_tried": 0,
            "heuristic.failures": 0,
            "exact.kappa_solved": 0,
        }
        self.op = -1
        self._stack = [-1]
        self._sites: list | None = None  # (module, attribute, original, wrapper)
        self._skipped: list[str] = []
        # Keyed by id and holding the wrapper, so no id is reused while kept.
        self._wrappers: dict[int, object] = {}

    def wrap(self, name: str, fn):
        name_id = self.names.index(name)
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, parent, self.op, start, end)
            if observe is not None:
                observe(counters, result)
            return result

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def install(self) -> list[str]:
        """Patch every call site; return the sites that could not be patched."""
        if self._sites is None:
            self._sites, self._skipped = self._find_sites()
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        return self._skipped

    def _find_sites(self) -> tuple[list, list[str]]:
        sites, skipped = [], []
        for name, callers in LAYERS:
            home, _, attr = name.partition(".")
            original = getattr(importlib.import_module(f"splitplan.{home}"), attr, None)
            if original is None:
                skipped.append(name)
                continue
            wrapper = self.wrap(name, original)
            for module_name, site_attr in callers:
                module = importlib.import_module(f"splitplan.{module_name}")
                if getattr(module, site_attr, None) is not original:
                    skipped.append(f"{module_name}.{site_attr}")
                    continue
                sites.append((module, site_attr, original, wrapper))
        return sites, skipped

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return any that still holds a wrapper."""
        for module, attr, original, _ in self._sites or ():
            setattr(module, attr, original)
        return [
            f"{module_name}.{attr}"
            for module_name, module in list(sys.modules.items())
            if module_name.split(".")[0] == "splitplan"
            for attr, value in vars(module).items()
            if id(value) in self._wrappers
        ]

    def layer_metrics(self, num_ops: int, op_wall_s: float) -> dict[str, float]:
        """Per-layer calls, inclusive time and self-time share per operation."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for index, (name_id, _, _, start, end) in enumerate(self.spans):
            calls[name_id] += 1
            inclusive[name_id] += end - start
            own[name_id] += end - start - child_time[index]
        metrics = {}
        for name_id, name in enumerate(self.names):
            metrics[f"{name}.calls_per_op"] = calls[name_id] / num_ops
            metrics[f"{name}.ms_per_op"] = inclusive[name_id] * 1e3 / num_ops
            metrics[f"{name}.self_share"] = own[name_id] / op_wall_s
        heuristic_calls = calls[self.names.index("heuristic.solve")]
        exact_calls = calls[self.names.index("exact.solve")]
        c = self.counters
        metrics["heuristic.iterations_per_call"] = _ratio(c["heuristic.iterations"], heuristic_calls)
        metrics["heuristic.kappa_tried_per_call"] = _ratio(
            c["heuristic.kappa_tried"], heuristic_calls
        )
        metrics["heuristic.fail_ratio"] = _ratio(c["heuristic.failures"], heuristic_calls)
        metrics["exact.kappa_solved_per_call"] = _ratio(c["exact.kappa_solved"], exact_calls)
        return metrics

    def write_spans(self, path: Path) -> None:
        """One header line naming the layers, then one JSON array per span:
        ``[span, parent, operation, layer, start_us, end_us]``."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"layers": self.names}) + "\n")
            for index, (name_id, parent, op, start, end) in enumerate(self.spans):
                handle.write(
                    f"[{index},{parent},{op},{name_id},"
                    f"{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}]\n"
                )


def _ratio(count: float, calls: int) -> float:
    return count / calls if calls else 0.0
