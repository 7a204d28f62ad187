"""Command-line interface: plan, experiment, footprint, validate.

``plan`` loads canonical model and chain files and prints the split chosen
by the greedy or exact solver (or both, with their cost difference).
``experiment`` runs the Monte Carlo sweep described by a JSON config file
and writes a CSV table, optionally rendered to SVG.  ``footprint`` prints
the greedy plan's report, the same one ``plan --solver heuristic`` prints,
per-device resource shares included.  ``validate`` checks
model and chain files and reports violations without planning anything.

Exit codes: 0 on success, 1 when no feasible split exists, 2 for unreadable
or invalid inputs, 3 for internal errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import exact, heuristic
from .cost import CostBreakdown, FeasibilityResult, is_feasible, objective
from .model import (
    DeviceChain,
    FfnnModel,
    SplitSolution,
    partition,
    validate_chain,
    validate_model,
)
from .profiles import ProfileFormatError, load_chain, load_model
from .scenarios import (
    FootprintStats,
    ScenarioConfig,
    footprint_stats,
    run_cost_difference_sweep,
)
from .svgplot import write_sweep_svg

THREADS_ENV_VAR = "SPLITPLAN_THREADS"

# Largest sweep cell: each instance's skip edges come from one (n, n) float64
# draw of 8 * n**2 bytes, 128 MiB at this bound.
MAX_SWEEP_LAYERS = 4096

CSV_COLUMNS = (
    "num_layers",
    "num_devices",
    "skip_prob",
    "iterations",
    "seed",
    "mean_cost_diff",
    "ci95_halfwidth",
    "heuristic_fail_rate",
    "mean_heuristic_time_s",
    "mean_exact_time_s",
    "mean_rho_mem",
    "mean_rho_cpu",
)


class InternalCheckError(RuntimeError):
    """An emitted report failed its own consistency re-check."""


@dataclass(frozen=True)
class PlanReport:
    """Everything one solver produced for one model/chain pair."""

    solver: str
    solution: SplitSolution
    cost: CostBreakdown
    footprint: FootprintStats
    feasibility: FeasibilityResult
    wall_time_s: float


def build_plan_report(
    solver: str,
    model: FfnnModel,
    chain: DeviceChain,
    solution: SplitSolution,
    cost: CostBreakdown,
    wall_time_s: float,
) -> PlanReport:
    return PlanReport(
        solver=solver,
        solution=solution,
        cost=cost,
        footprint=footprint_stats(model, solution),
        feasibility=is_feasible(model, chain, solution),
        wall_time_s=wall_time_s,
    )


def _render_plan_report(model: FfnnModel, chain: DeviceChain, report: PlanReport) -> str:
    # Re-evaluate the objective on the reported solution so a buggy solver
    # can never print a cost its own solution does not have.
    recomputed = objective(model, chain, report.solution).total
    if recomputed != report.cost.total:
        raise InternalCheckError(
            f"reported cost {report.cost.total} does not match "
            f"re-evaluated cost {recomputed}"
        )
    blocks = partition(report.solution, model.num_layers)
    lines = [
        f"solver: {report.solver}",
        f"splitting points: {list(report.solution.points)}",
        f"total cost: {report.cost.total:.9g}",
    ]
    for index, term in enumerate(report.cost.boundary_terms, start=1):
        boundary = report.solution.points[index - 1]
        lines.append(f"  boundary after layer {boundary}: {term:.9g}")
    lines.append("device  layers   mem_share  cpu_share")
    for index, block in enumerate(blocks, start=1):
        span = f"{block[0]}..{block[-1]}"
        lines.append(
            f"{index:>6}  {span:<8} {report.footprint.mem_shares[index - 1]:>9.4f}"
            f"  {report.footprint.cpu_shares[index - 1]:>9.4f}"
        )
    lines.append(
        f"first-device reduction: mem {report.footprint.rho_mem:.4f}, "
        f"cpu {report.footprint.rho_cpu:.4f}"
    )
    lines.append(f"feasible: {report.feasibility.ok}")
    lines.append(f"wall time: {report.wall_time_s:.6f} s")
    return "\n".join(lines)


def _report_payload(report: PlanReport) -> dict:
    return {
        "solver": report.solver,
        "splitting_points": list(report.solution.points),
        "total_cost": report.cost.total,
        "boundary_terms": list(report.cost.boundary_terms),
        "mem_shares": list(report.footprint.mem_shares),
        "cpu_shares": list(report.footprint.cpu_shares),
        "rho_mem": report.footprint.rho_mem,
        "rho_cpu": report.footprint.rho_cpu,
        "feasible": report.feasibility.ok,
        "wall_time_s": report.wall_time_s,
    }


def _load_validated(model_path: str, chain_path: str) -> tuple[FfnnModel, DeviceChain]:
    """Load a valid model and a chain on which no plan's transfer cost overflows."""
    model = load_model(model_path)
    chain = load_chain(chain_path)
    report = validate_model(model)
    if not report.ok:
        raise ProfileFormatError(
            f"{model_path}: invalid model: " + "; ".join(report.violations)
        )
    # A cost sums at most d - 1 terms, each at most the largest cut over the
    # smallest rate (inf without links, which leaves the bound at 0).
    largest = float(model.cut_table.max())
    slowest = float(chain.link_rate.min(initial=math.inf))
    if not math.isfinite(largest / slowest * (chain.num_devices - 1)):
        raise ProfileFormatError(
            f"{chain_path}: transfer cost overflows: largest cut {largest} over smallest "
            f"link rate {slowest}, summed over {chain.num_devices - 1} links"
        )
    return model, chain


def _solve_heuristic(
    model: FfnnModel, chain: DeviceChain, max_splits: int | None
) -> PlanReport | None:
    began = time.perf_counter()
    result = heuristic.solve(model, chain, max_splits=max_splits)
    elapsed = time.perf_counter() - began
    if result.solution is None:
        return None
    return build_plan_report("heuristic", model, chain, result.solution, result.cost, elapsed)


def _solve_exact(
    model: FfnnModel, chain: DeviceChain, max_splits: int | None
) -> PlanReport | None:
    began = time.perf_counter()
    result = exact.solve(model, chain, max_splits=max_splits)
    elapsed = time.perf_counter() - began
    if result.best is None:
        return None
    cost = objective(model, chain, result.best.solution)
    return build_plan_report("exact", model, chain, result.best.solution, cost, elapsed)


def cmd_plan(args: argparse.Namespace) -> int:
    model, chain = _load_validated(args.model, args.chain)
    solvers = ("heuristic", "exact") if args.solver == "both" else (args.solver,)
    reports: list[PlanReport] = []
    failed: list[str] = []
    for solver in solvers:
        runner = _solve_heuristic if solver == "heuristic" else _solve_exact
        report = runner(model, chain, args.max_splits)
        if report is None:
            failed.append(solver)
        else:
            reports.append(report)
    for name in failed:
        print(f"solver: {name}\nno feasible solution")
    for report in reports:
        print(_render_plan_report(model, chain, report))
    if len(reports) == 2:
        difference = reports[0].cost.total - reports[1].cost.total
        print(f"cost difference (heuristic - exact): {difference:.9g}")
    if args.out:
        payload = [_report_payload(report) for report in reports]
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0 if reports else 1


def cmd_footprint(args: argparse.Namespace) -> int:
    model, chain = _load_validated(args.model, args.chain)
    report = _solve_heuristic(model, chain, args.max_splits)
    if report is None:
        print("no feasible solution")
        return 1
    print(_render_plan_report(model, chain, report))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    if not args.model and not args.chain:
        print("validate needs --model and/or --chain", file=sys.stderr)
        return 2
    failures = 0
    if args.model:
        report = validate_model(load_model(args.model))
        for violation in report.violations:
            print(f"{args.model}: violation: {violation}")
        if report.ok:
            print(f"{args.model}: ok")
        else:
            failures += 1
    if args.chain:
        report = validate_chain(load_chain(args.chain))
        for warning in report.warnings:
            print(f"{args.chain}: warning: {warning}")
        print(f"{args.chain}: ok")
    return 2 if failures else 0


def _parse_experiment_config(path: str) -> dict:
    """Read and check a sweep config; raise ``ValueError`` before any draw.

    Every ``num_layers`` entry must be at most ``MAX_SWEEP_LAYERS``.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top level must be an object")
    known = {"iterations", "seed", "threads", "num_layers", "num_devices", "skip_probs"}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key in ("num_layers", "num_devices"):
        values = payload.get(key)
        if not isinstance(values, list) or not all(map(_is_integer, values)):
            raise ValueError(f"{path}: '{key}' must be a list of integers, got {values!r}")
    too_large = [n for n in payload["num_layers"] if n > MAX_SWEEP_LAYERS]
    if too_large:
        raise ValueError(
            f"{path}: 'num_layers' must be at most {MAX_SWEEP_LAYERS} (one n x n "
            f"float64 skip draw per instance), got {too_large[0]}"
        )
    probs = payload.get("skip_probs")
    if not isinstance(probs, list) or not all(
        isinstance(p, (int, float)) and not isinstance(p, bool) and 0.0 <= p <= 1.0
        for p in probs
    ):
        raise ValueError(
            f"{path}: 'skip_probs' must be a list of numbers in [0, 1], got {probs!r}"
        )
    for key in ("iterations", "seed"):
        if not _is_integer(payload.get(key)):
            raise ValueError(f"{path}: '{key}' must be an integer, got {payload.get(key)!r}")
    if not _is_integer(payload.get("threads", 1)):
        raise ValueError(f"{path}: 'threads' must be an integer, got {payload['threads']!r}")
    return payload


def _is_integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _experiment_cells(config: dict, seed_override: int | None) -> list[ScenarioConfig]:
    seed = config["seed"] if seed_override is None else seed_override
    return [
        ScenarioConfig(
            num_layers=layers,
            num_devices=devices,
            skip_prob=float(prob),
            iterations=config["iterations"],
            seed=seed,
        )
        for devices in config["num_devices"]
        for prob in config["skip_probs"]
        for layers in config["num_layers"]
    ]


def _resolve_threads(args: argparse.Namespace, config: dict) -> int:
    """Worker count from the option, the environment or the config, in that order.

    It must lie in 1..os.cpu_count(); the check runs before any worker starts.
    """
    env = os.environ.get(THREADS_ENV_VAR)
    if args.threads is not None:
        threads = args.threads
    elif env is not None:
        try:
            threads = int(env)
        except ValueError as error:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
            ) from error
    else:
        threads = config.get("threads", 1)
    limit = os.cpu_count() or 1
    if not 1 <= threads <= limit:
        raise ValueError(f"threads must be in 1..{limit} (the CPU count), got {threads}")
    return threads


def _write_csv(records, path: str | Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for record in records:
        config = record.config
        row = (
            str(config.num_layers),
            str(config.num_devices),
            str(config.skip_prob),
            str(config.iterations),
            str(config.seed),
            str(record.mean_cost_diff),
            str(record.ci95_halfwidth),
            str(record.failure_rate),
            f"{record.mean_heuristic_time_s:.6f}",
            f"{record.mean_exact_time_s:.6f}",
            str(record.mean_rho_mem),
            str(record.mean_rho_cpu),
        )
        lines.append(",".join(row))
    Path(path).write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _parse_experiment_config(args.config)
    cells = _experiment_cells(config, args.seed)
    threads = _resolve_threads(args, config)
    records = run_cost_difference_sweep(cells, threads=threads)
    _write_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    if args.svg:
        write_sweep_svg(args.out, args.svg)
        print(f"wrote plot to {args.svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitplan",
        description="Plan transfer-minimal splits of layered models over device chains.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser("plan", help="split one model over one device chain")
    plan.add_argument("--model", required=True, help="canonical model JSON file")
    plan.add_argument("--chain", required=True, help="canonical chain JSON file")
    plan.add_argument(
        "--solver", choices=("heuristic", "exact", "both"), default="heuristic"
    )
    plan.add_argument("--max-splits", type=int, default=None)
    plan.add_argument("--out", default=None, help="also write the report as JSON")
    plan.set_defaults(handler=cmd_plan)

    experiment = commands.add_parser(
        "experiment", help="run a Monte Carlo sweep from a config file"
    )
    experiment.add_argument("--config", required=True, help="sweep config JSON file")
    experiment.add_argument("--out", required=True, help="CSV output path")
    experiment.add_argument("--svg", default=None, help="optional SVG plot path")
    experiment.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    experiment.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker processes (default: {THREADS_ENV_VAR} or the config value)",
    )
    experiment.set_defaults(handler=cmd_experiment)

    footprint = commands.add_parser(
        "footprint", help="show per-device resource shares of the greedy plan"
    )
    footprint.add_argument("--model", required=True)
    footprint.add_argument("--chain", required=True)
    footprint.add_argument("--max-splits", type=int, default=None)
    footprint.set_defaults(handler=cmd_footprint)

    validate = commands.add_parser("validate", help="check model and chain files")
    validate.add_argument("--model", default=None)
    validate.add_argument("--chain", default=None)
    validate.set_defaults(handler=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ProfileFormatError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except InternalCheckError as error:
        print(f"internal error: {error}", file=sys.stderr)
        return 3
    except Exception as error:  # last-resort guard so scripts see exit code 3
        print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
