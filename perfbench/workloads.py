"""Workloads: their set-up, the cycle of commands a client sends, and output checks.

Set-up draws every input from the benchmark seed, writes it with the
package's own file format, and builds the reference results the checks
need.  A workload's *spec* is plain JSON, so set-up can run in one process
and measurement in another.

Why each workload exists:

* ``plan-large``: ``plan --solver both`` on random models of 256x4, 517x5,
  1000x8 and 2000x16 (layers x devices), about four skip edges per layer.
  JSON load, ``validate_model``, the cut table and the O(kappa n^2) DP
  dominate here.
* ``plan-small``: ``plan --solver heuristic`` on the bundled profiles and
  random models of 20-128 layers x 3-6 devices.  The fixed cost of a call
  dominates (argparse, JSON, validation, rendering); the exact solver never
  runs.
* ``sweep``: one serial ``experiment`` command over 30 small cells with many
  iterations each; per-call overhead of the solvers and generators dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from splitplan import cli, exact, profiles, scenarios
from splitplan.cost import is_feasible, objective
from splitplan.model import SplitSolution, max_split_count

# Shapes are fixed so that every seed does the same amount of work; the seed
# only changes the drawn contents.
LARGE_SHAPES = ((256, 4), (517, 5), (1000, 8), (2000, 16))
SMALL_BUNDLED = ("chain10", "skipnet20")
SMALL_SHAPES = ((20, 3), (28, 6), (40, 4), (64, 5), (96, 6), (128, 3))
SKIP_EDGES_PER_LAYER = 4
SWEEP_GRID = {
    "num_layers": [8, 12, 16, 24, 32],
    "num_devices": [2, 3, 4],
    "skip_probs": [0.0, 0.5],
}
SWEEP_ITERATIONS = 50

NAMES = ("plan-large", "plan-small", "sweep")

# The CSV columns in the order the README documents; the two wall-time
# columns are the only ones allowed to differ between equal runs.
CSV_HEADER = (
    "num_layers,num_devices,skip_prob,iterations,seed,mean_cost_diff,"
    "ci95_halfwidth,heuristic_fail_rate,mean_heuristic_time_s,"
    "mean_exact_time_s,mean_rho_mem,mean_rho_cpu"
)
CSV_TIME_COLUMNS = (8, 9)
# A greedy plan may cost at most this much less than the optimum.
COST_GAP_TOLERANCE = 1e-9
BRUTE_FORCE_MAX_LAYERS = 20
# The checks keep instances of at most this many layers loaded: together they
# hold well under a megabyte, a constant that does not grow with the run.
# Larger ones are loaded afresh for each check and dropped, so no large model
# is held while plans are timed.
CHECK_CACHE_MAX_LAYERS = 128
_check_cache: dict[str, tuple] = {}


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _write_random(dest: Path, label: str, layers: int, devices: int, rng) -> tuple:
    skip_prob = min(1.0, 2.0 * SKIP_EDGES_PER_LAYER / layers)
    model = scenarios.generate_random_model(layers, skip_prob, rng)
    chain = scenarios.generate_device_chain(devices, model)
    model_path = dest / f"{label}.model.json"
    chain_path = dest / f"{label}.chain.json"
    profiles.save_model(model, model_path)
    profiles.save_chain(chain, chain_path)
    return model, chain, str(model_path), str(chain_path)


def _optimum(model, chain) -> float | None:
    """Best cost over every partition count, by exhaustive enumeration."""
    costs = [
        found.cost
        for kappa in range(1, max_split_count(model, chain) + 1)
        if (found := exact.brute_force_fixed_splits(model, chain, kappa)) is not None
    ]
    return min(costs) if costs else None


def _plan_item(label, model, chain, model_path, chain_path, solver) -> dict:
    item = {"label": label, "model": model_path, "chain": chain_path, "solver": solver}
    if model.num_layers <= BRUTE_FORCE_MAX_LAYERS:
        item["optimum"] = _optimum(model, chain)
    return item


def setup(name: str, seed: int, root: Path, dest: Path) -> dict:
    """Write one workload's inputs and references under ``dest``; return its spec."""
    dest.mkdir(parents=True)
    if name == "plan-large":
        items = []
        for index, (layers, devices) in enumerate(LARGE_SHAPES):
            label = f"{layers}x{devices}"
            written = _write_random(dest, label, layers, devices, _rng(seed, index))
            items.append(_plan_item(label, *written, "both"))
        return {"kind": "plan", "items": items}
    if name == "plan-small":
        items = []
        for label in SMALL_BUNDLED:
            model_path = root / "profiles" / f"{label}.model.json"
            chain_path = root / "profiles" / f"{label}.chain.json"
            model = profiles.load_model(model_path)
            chain = profiles.load_chain(chain_path)
            items.append(
                _plan_item(label, model, chain, str(model_path), str(chain_path), "heuristic")
            )
        for index, (layers, devices) in enumerate(SMALL_SHAPES):
            label = f"{layers}x{devices}"
            written = _write_random(dest, label, layers, devices, _rng(seed, index))
            items.append(_plan_item(label, *written, "heuristic"))
        return {"kind": "plan", "items": items}
    if name == "sweep":
        config = dict(SWEEP_GRID, iterations=SWEEP_ITERATIONS, seed=seed)
        config_path = dest / "sweep.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        item = {
            "label": name,
            "config": str(config_path),
            "cells": [
                [layers, devices, float(prob), config["iterations"], seed]
                for devices in config["num_devices"]
                for prob in config["skip_probs"]
                for layers in config["num_layers"]
            ],
            "reference_csv": str(dest / "reference.csv"),
            "reference_svg": str(dest / "reference.svg"),
        }
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(sweep_argv(item, item["reference_csv"], item["reference_svg"]))
        if code != 0:
            raise RuntimeError(f"reference sweep exited with code {code}")
        return {"kind": "sweep", "items": [item]}
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def plan_argv(item: dict, out_path: str) -> list[str]:
    return [
        "plan", "--model", item["model"], "--chain", item["chain"],
        "--solver", item["solver"], "--out", out_path,
    ]


def sweep_argv(item: dict, csv_path: str, svg_path: str) -> list[str]:
    return [
        "experiment", "--config", item["config"], "--out", csv_path, "--svg", svg_path,
        "--threads", "1",
    ]


def units_per_op(item: dict) -> int:
    """Instances planned by one operation: one per plan call, one per sweep iteration."""
    if "cells" in item:
        return sum(cell[3] for cell in item["cells"])
    return 1


def _instance(item: dict) -> tuple:
    found = _check_cache.get(item["model"])
    if found is None:
        found = (profiles.load_model(item["model"]), profiles.load_chain(item["chain"]))
        if found[0].num_layers <= CHECK_CACHE_MAX_LAYERS:
            _check_cache[item["model"]] = found
    return found


def check_plan(item: dict, code, stdout: str, out_path: Path) -> str | None:
    """Check a ``plan`` report against the objective, the capacity rule and references.

    Return why the operation failed, or None when its output is correct.
    """
    if code not in (0, 1):
        return f"exit code {code}"
    model, chain = _instance(item)
    try:
        reports = json.loads(out_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        return f"unreadable report: {error}"
    requested = ("heuristic", "exact") if item["solver"] == "both" else (item["solver"],)
    found = {report.get("solver"): report for report in reports}
    if set(found) - set(requested) or len(found) != len(reports):
        return f"unexpected solvers in report: {[r.get('solver') for r in reports]}"
    if (code == 0) != bool(reports):
        return f"exit code {code} with {len(reports)} reports"
    for solver in requested:
        if solver not in found and f"solver: {solver}\nno feasible solution" not in stdout:
            return f"{solver}: neither a plan nor 'no feasible solution'"
    costs = {}
    for solver, report in found.items():
        reason = _check_report(model, chain, report)
        if reason:
            return f"{solver}: {reason}"
        costs[solver] = report["total_cost"]
    if "heuristic" in costs and "exact" in requested and "exact" not in costs:
        return "exact found nothing although the greedy plan is feasible"
    if "heuristic" in costs and "exact" in costs:
        if costs["exact"] > costs["heuristic"] + COST_GAP_TOLERANCE:
            return f"exact cost {costs['exact']} above greedy cost {costs['heuristic']}"
    if "optimum" in item:
        optimum = item["optimum"]
        if optimum is None and costs:
            return "a plan was reported although enumeration finds none"
        if "exact" in costs and costs["exact"] != optimum:
            return f"exact cost {costs['exact']} differs from enumerated optimum {optimum}"
        if "heuristic" in costs and costs["heuristic"] < optimum - COST_GAP_TOLERANCE:
            return f"greedy cost {costs['heuristic']} below enumerated optimum {optimum}"
    return None


def _check_report(model, chain, report: dict) -> str | None:
    points = report.get("splitting_points")
    if (
        not isinstance(points, list)
        or not points
        or not all(isinstance(p, int) and not isinstance(p, bool) for p in points)
        or any(b <= a for a, b in zip([0] + points, points))
        or points[-1] != model.num_layers
        or len(points) > chain.num_devices
    ):
        return f"invalid splitting points {points}"
    solution = SplitSolution(points=tuple(points))
    feasibility = is_feasible(model, chain, solution)
    if not feasibility.ok:
        return f"infeasible plan: {feasibility.detail}"
    if report.get("feasible") is not True:
        return "report does not mark the plan feasible"
    cost = objective(model, chain, solution).total
    if cost != report.get("total_cost"):
        return f"total cost {report.get('total_cost')} re-evaluates to {cost}"
    if not math.isfinite(cost):
        return f"non-finite cost {cost}"
    return None


def check_sweep(item: dict, code, stdout: str, csv_path: Path, svg_path: Path) -> str | None:
    """Rows in the documented order, equal to the set-up's reference outside the time columns."""
    if code != 0:
        return f"exit code {code}"
    if f"wrote {len(item['cells'])} rows to {csv_path}" not in stdout:
        return "missing 'wrote N rows' line"
    try:
        rows = csv_path.read_bytes().decode("utf-8").split("\r\n")
        reference = Path(item["reference_csv"]).read_bytes().decode("utf-8").split("\r\n")
        svg = svg_path.read_bytes()
    except OSError as error:
        return f"missing output: {error}"
    if rows[0] != CSV_HEADER or rows[-1] != "":
        return "CSV header or line endings differ from the documented format"
    rows = rows[1:-1]
    if len(rows) != len(item["cells"]):
        return f"{len(rows)} rows for {len(item['cells'])} cells"
    for row, cell in zip(rows, item["cells"]):
        fields = row.split(",")
        expected = [str(cell[0]), str(cell[1]), str(cell[2]), str(cell[3]), str(cell[4])]
        if fields[:5] != expected:
            return f"row {fields[:5]} where {expected} was due"
        gap, halfwidth, fail_rate, rho_mem, rho_cpu = (float(fields[i]) for i in (5, 6, 7, 10, 11))
        if gap < -COST_GAP_TOLERANCE or halfwidth < 0 or not all(
            0.0 <= share <= 1.0 for share in (fail_rate, rho_mem, rho_cpu)
        ):
            return f"row {fields} has a negative gap or a share outside [0, 1]"
    if csv_without_times(rows) != csv_without_times(reference[1:-1]):
        return "results differ from the reference run"
    if svg != Path(item["reference_svg"]).read_bytes():
        return "plot differs from the reference run"
    return None


def csv_without_times(rows: list[str]) -> list[list[str]]:
    return [
        [field for index, field in enumerate(row.split(",")) if index not in CSV_TIME_COLUMNS]
        for row in rows
    ]


def plan_stdout_without_times(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if not line.startswith("wall time:")]


def report_without_times(text: str) -> list:
    reports = json.loads(text)
    for report in reports:
        report.pop("wall_time_s", None)
    return reports
