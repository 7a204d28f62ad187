"""Run the benchmark over several workloads and seeds and keep every result.

    python3 perfbench/collect.py OUT_DIR [--workloads a,b] [--seeds 1-10] [--trace 0|1]
    python3 perfbench/collect.py OUT_DIR --parent CHECKOUT --change CHECKOUT [...]

The first form runs this checkout.  Each run's readable summary is printed,
with every end-to-end metric and its unit, ``latency_p99_ms`` where a run
has 1,000 plans, and ``failed_ratio``.  It is also kept in
``OUT_DIR/<workload>/seed<k>.txt``, beside the run's result line in
``seed<k>.json``.  At the end the set is summarized in
``OUT_DIR/summary.json`` and printed as by ``compare.py OUT_DIR``: the
median, quartiles and spread of every metric of every workload.  The exit
code is 1 when a run fails or, with tracing off, when a metric's spread is
wider than its bound.

The second form compares a parent checkout with a change checkout.  For each
workload and seed it runs the two back to back, parent first on odd seeds
and change first on even ones, so a drift in machine speed hits both sides
alike.  The sets go to ``OUT_DIR/parent`` and ``OUT_DIR/change`` and are
compared as by ``compare.py OUT_DIR``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(benchmark: dict, checkout: Path, target: Path, workload: str, seed: int,
             trace: int) -> bool:
    """Run one seed in one checkout and keep its output under ``target``."""
    done = subprocess.run(
        [*benchmark["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{checkout} {workload} seed {seed}: exit code {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        return False
    target.mkdir(parents=True, exist_ok=True)
    (target / f"seed{seed}.json").write_text(lines[-1] + "\n")
    (target / f"seed{seed}.txt").write_text(done.stdout + done.stderr)
    print("\n".join(lines[:-1]), flush=True)
    return True


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", type=Path, help="parent checkout, compared with --change")
    parser.add_argument("--change", type=Path, help="change checkout, compared with --parent")
    args = parser.parse_args(argv)
    if (args.parent is None) != (args.change is None):
        parser.error("--parent and --change go together")
    metrics = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]

    if args.parent is None:
        sides = [(ROOT, args.out_dir)]
    else:
        sides = [(args.parent.resolve(), args.out_dir / "parent"),
                 (args.change.resolve(), args.out_dir / "change")]
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            order = sides if seed % 2 else sides[::-1]
            for checkout, out in order:
                if not run_once(benchmark, checkout, out / workload, workload, seed, args.trace):
                    return 1

    if args.parent is not None:
        compare.compare(compare.load_set(sides[0][1]), compare.load_set(sides[1][1]), metrics)
        return 0
    runs = compare.load_set(args.out_dir)
    (args.out_dir / "summary.json").write_text(
        json.dumps(compare.summary(runs, metrics), indent=1) + "\n"
    )
    steady = compare.summarize(runs, metrics)
    return 0 if steady or args.trace else 1


if __name__ == "__main__":
    sys.exit(main())
