"""Summarize one set of benchmark runs, or compare a parent set with a change set.

A set is a directory written by ``collect.py``: ``<set>/<workload>/seed<k>.json``
holds the result line of one run.  Usage:

    python3 perfbench/compare.py SET     # medians, quartiles, spread
    python3 perfbench/compare.py PAIRS   # parent against change, with a verdict

``PAIRS`` is a directory written by ``collect.py --parent ... --change ...``:
its ``parent`` and ``change`` sets were run back to back, seed by seed, so
a pair (the two runs of one seed) saw the same machine.

Spread is the distance between the first and third quartile as a share of
the median.  A set is steady when every end-to-end metric's spread is
within its bound.  A metric whose parent spread is wider than its bound is
*unresolved*, unless every change run beats every parent run.  A change
*improved* a metric when it wins at least nine tenths of the pairs and the
medians differ by more than the parent's quartile distance; it *regressed*
when its median is worse than the parent's by more than the bound.
Anything else is *within bound*.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory: Path) -> dict[str, dict[str, dict]]:
    runs: dict[str, dict[str, dict]] = {}
    for path in sorted(directory.glob("*/seed*.json")):
        runs.setdefault(path.parent.name, {})[path.stem] = json.loads(path.read_text())
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def values(runs: dict[str, dict], metric: str) -> dict[str, float]:
    return {seed: run["metrics"][metric]["value"] for seed, run in runs.items()
            if metric in run["metrics"]}


def failed_line(name: str, runs: dict[str, dict]) -> str:
    attempted = sum(run["attempted"] for run in runs.values())
    failed = sum(run["failed"] for run in runs.values())
    return (f"  {'failed_ratio':<16} {failed / attempted:.4f} ({failed} of {attempted} "
            f"operations in {len(runs)} runs of {name})")


def summary(runs_by_workload: dict, metrics: list[dict]) -> dict:
    """Per workload and metric: unit, median, quartiles and spread over the runs."""
    table = {}
    for workload, runs in runs_by_workload.items():
        rows = {}
        for metric in metrics:
            found = list(values(runs, metric["name"]).values())
            if found:
                q1, median, q3 = quartiles(found)
                rows[metric["name"]] = {
                    "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                    "spread": spread(found),
                }
        table[workload] = {
            "runs": len(runs),
            "attempted": sum(run["attempted"] for run in runs.values()),
            "failed": sum(run["failed"] for run in runs.values()),
            "metrics": rows,
        }
    return table


def summarize(runs_by_workload: dict, metrics: list[dict]) -> bool:
    """Print each metric's median and spread; return whether all are steady."""
    bounds = {metric["name"]: metric.get("bound") for metric in metrics}
    steady = True
    for workload, entry in summary(runs_by_workload, metrics).items():
        print(f"{workload}: {entry['runs']} runs")
        for name, row in entry["metrics"].items():
            bound = bounds[name]
            flag = ""
            if bound is not None:
                ok = row["spread"] <= bound
                steady &= ok
                flag = f"  spread/bound {row['spread'] / bound:.2f}{'' if ok else '  NOT STEADY'}"
            print(f"  {name:<16} median {row['median']:12.4f} {row['unit']:<5} "
                  f"q1 {row['q1']:12.4f} q3 {row['q3']:12.4f} spread {row['spread']:.3f}{flag}")
        print(failed_line(workload, runs_by_workload[workload]))
    return steady


def verdict(metric: dict, parent: dict[str, float], change: dict[str, float]) -> tuple[str, float]:
    lower = metric["better"] == "lower"
    pairs = [(parent[seed], change[seed]) for seed in parent if seed in change]
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    share_won = wins / len(pairs) if pairs else 0.0
    p_q1, p_median, p_q3 = quartiles(list(parent.values()))
    c_median = statistics.median(change.values())
    worse_by = (c_median - p_median) / p_median * (1 if lower else -1)
    bound = metric["bound"]
    always_better = (max(change.values()) < min(parent.values()) if lower
                     else min(change.values()) > max(parent.values()))
    if worse_by > bound:
        return "regressed", share_won
    if spread(list(parent.values())) > bound and not always_better:
        return "unresolved", share_won
    if share_won >= 0.9 and abs(c_median - p_median) > p_q3 - p_q1:
        return "improved", share_won
    return "within bound", share_won


def compare(parent_runs: dict, change_runs: dict, metrics: list[dict]) -> None:
    for workload in parent_runs:
        if workload not in change_runs:
            print(f"{workload}: missing from the change set")
            continue
        print(f"{workload}: {len(parent_runs[workload])} parent runs, "
              f"{len(change_runs[workload])} change runs")
        for metric in metrics:
            parent = values(parent_runs[workload], metric["name"])
            change = values(change_runs[workload], metric["name"])
            if not parent or not change:
                continue
            result, share_won = verdict(metric, parent, change)
            p_q1, p_med, p_q3 = quartiles(list(parent.values()))
            c_q1, c_med, c_q3 = quartiles(list(change.values()))
            print(f"  {metric['name']:<16} parent {p_med:11.4f} [{p_q1:.4f}, {p_q3:.4f}]  "
                  f"change {c_med:11.4f} [{c_q1:.4f}, {c_q3:.4f}] {metric['unit']:<5} "
                  f"{c_med / p_med - 1:+7.1%}  won {share_won:.0%}  {result}")
        print(failed_line("parent", parent_runs[workload]))
        print(failed_line("change", change_runs[workload]))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    directory = Path(argv[0])
    if (directory / "parent").is_dir() and (directory / "change").is_dir():
        compare(load_set(directory / "parent"), load_set(directory / "change"), metrics)
        return 0
    return 0 if summarize(load_set(directory), metrics) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
