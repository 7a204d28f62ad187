"""Benchmark for the ``splitplan`` command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-large --seed 1 --seconds 30 --trace 0

The workload's inputs are drawn from ``--seed`` and set up several times;
``setup_s`` is the median set-up time.  A separate measuring process then
drives ``splitplan.cli.main`` in-process as one closed-loop client for
``--seconds`` seconds and checks every output (see ``measure.py``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run and the tracing overhead.  Lines before it are a readable
summary.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set up at least this many times and for at least this long, so that the
# median set-up time of a quick set-up rests on many samples.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
WINDOWS = 5
MEASURE_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_percentile(latencies: list[list[float]], pct: int) -> float:
    """A latency percentile of the run, steady against the shared machine's stalls.

    The run's cycles are cut into ``WINDOWS`` consecutive windows.  In each
    window every input's percentile is taken over its own calls, and the
    window's figure is their geometric mean: the inputs differ in size and
    their latencies do not overlap, so a percentile of the pooled calls would
    land on one input alone.  The metric is the median over the windows, so
    a stall that slows less than half of the windows does not move it.
    """
    cycles = len(latencies[0])
    windows = min(WINDOWS, cycles)
    bounds = [cycles * k // windows for k in range(windows + 1)]
    return statistics.median(
        statistics.geometric_mean(percentile(found[a:b], pct) for found in latencies)
        for a, b in zip(bounds, bounds[1:])
    )


def end_to_end(result: dict, setup_times: list[float], kind: str) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and readable lines that also show the sample counts."""
    latencies = [[value * 1e3 for value in found] for found in result["latencies_s"]]
    count = sum(len(found) for found in latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (latency_percentile(latencies, 50), "ms"),
        "latency_p90_ms": (latency_percentile(latencies, 90), "ms"),
        "plans_per_s": (result["units_per_cycle"] / statistics.median(result["cycle_s"]), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    per_input = f"n={count}, {len(latencies)} inputs, median of {min(WINDOWS, len(latencies[0]))} windows"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "latency_p50_ms": per_input,
        "latency_p90_ms": per_input,
        "plans_per_s": (
            f"{result['units_per_cycle']} plans per cycle, median of {len(result['cycle_s'])}"
            if kind == "plan" else
            f"sweep_iters_per_s: {result['units_per_cycle']} iterations per command, "
            f"median of {len(result['cycle_s'])}"
        ),
        "peak_rss_mb": "measuring process",
    }
    lines = [
        f"  {name:<16} {value:>12.4f} {unit:<6} {notes[name]}"
        for name, (value, unit) in metrics.items()
    ]
    if count >= 1000:
        p99 = latency_percentile(latencies, 99)
        lines.append(f"  {'latency_p99_ms':<16} {p99:>12.4f} {'ms':<6} {per_input}")
    else:
        lines.append(f"  {'latency_p99_ms':<16} {'-':>12} {'ms':<6} not reported: n={count} < 1000")
    lines.extend(
        f"    {label:<14} p50 {percentile(found, 50):>10.4f} ms  "
        f"p90 {percentile(found, 90):>10.4f} ms  n={len(found)}"
        for label, found in zip(result["labels"], latencies)
    )
    ratio = result["failed"] / result["attempted"]
    lines.append(
        f"  {'failed_ratio':<16} {ratio:>12.4f} {'ratio':<6} "
        f"{result['failed']} of {result['attempted']} operations"
    )
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    metrics = {
        name: (value, tracer.metric_unit(name)) for name, value in result["per_layer"].items()
    }
    lines = [f"  {name:<52} {value:>12.6f} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, lines


def measure(spec: dict, work: Path) -> dict:
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    done = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), str(spec_path), str(result_path)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=MEASURE_TIMEOUT_S,
        check=False,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"measuring process exited with code {done.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "splitplan" / "__init__.py").is_file():
        print(f"run.py: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
        ):
            repeat = len(setup_times)
            start = time.perf_counter()
            spec = workloads.setup(args.workload, args.seed, ROOT, work / f"setup{repeat}")
            setup_times.append(time.perf_counter() - start)
        spec.update(
            seconds=args.seconds,
            trace=bool(args.trace),
            out_dir=str(work / "out"),
            spans_path=str(WORK / f"spans-{args.workload}.jsonl"),
        )
        result = measure(spec, work)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics, lines = per_layer(result)
        lines.append(f"  spans written to {spec['spans_path']}")
    else:
        metrics, lines = end_to_end(result, setup_times, spec["kind"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(result['cycle_s'])} cycles")
    print("\n".join(lines))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
