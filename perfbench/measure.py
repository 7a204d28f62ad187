"""Measuring process: one closed-loop client driving ``splitplan.cli.main``.

Run by ``run.py`` as ``python3 measure.py SPEC.json RESULT.json``, with the
package sources and this directory on ``PYTHONPATH``.  It runs in a process
of its own so that its peak resident memory is the workload's and not the
set-up's.  The client sends each call only after the previous
one returned and cycles over the spec's items in a fixed order, whole
cycles only, until the timed cycles add up to the run's seconds.  Every
call writes its report to a fresh path.

Each cycle's outputs are checked right after it, outside the timed cycle,
and then dropped and deleted.  What the process keeps per call is one
latency, so its peak memory does not grow with the number of calls that fit
in a run; and the reports, deleted seconds after they were written, are
not written back to the disk while later calls are timed.

With tracing on, untraced and traced cycles alternate for the same time;
each traced operation must give the same output as its untraced twin.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

import tracer
import workloads
from splitplan import cli

MAX_REPORTED_FAILURES = 5


class Record(NamedTuple):
    """What one call returned; kept only until its cycle has been checked."""

    op: int
    item: int
    code: object
    stdout: str
    stderr: str
    latency_s: float


class Client:
    """Sends one command at a time and checks what each returned."""

    def __init__(self, spec: dict, out_dir: Path) -> None:
        self.kind = spec["kind"]
        self.items = spec["items"]
        self.out_dir = out_dir
        self.sent = 0
        self.attempted = 0
        self.failures: dict[int, str] = {}  # operation -> first reason it failed

    def paths(self, op: int) -> list[Path]:
        """The fresh output paths of one operation."""
        stem = self.out_dir / f"op{op}"
        if self.kind == "plan":
            return [stem.with_suffix(".json")]
        return [stem.with_suffix(".csv"), stem.with_suffix(".svg")]

    def call(self, index: int, main) -> Record:
        item = self.items[index]
        op = self.sent
        self.sent += 1
        paths = [str(path) for path in self.paths(op)]
        if self.kind == "plan":
            argv = workloads.plan_argv(item, *paths)
        else:
            argv = workloads.sweep_argv(item, *paths)
        stdout = io.StringIO()
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        except (Exception, SystemExit) as error:  # a raising call is a failed operation
            code = f"raised {type(error).__name__}: {error}"
        latency = time.perf_counter() - start
        return Record(op, index, code, stdout.getvalue(), stderr.getvalue(), latency)

    def cycle(self, main) -> tuple[list[Record], float]:
        """One call per item, in order; return the records and the cycle's wall time."""
        began = time.perf_counter()
        records = [self.call(index, main) for index in range(len(self.items))]
        return records, time.perf_counter() - began

    def check(self, records: list[Record]) -> None:
        """Count the operations, keep the first reason each one failed, and
        delete their outputs."""
        for record in records:
            self.attempted += 1
            item = self.items[record.item]
            paths = self.paths(record.op)
            if self.kind == "plan":
                reason = workloads.check_plan(item, record.code, record.stdout, *paths)
            else:
                reason = workloads.check_sweep(item, record.code, record.stdout, *paths)
            if reason:
                reason = f"{item['label']}: {reason}"
                if record.stderr:
                    reason += f" (stderr: {record.stderr.strip()[:200]})"
                self.failures.setdefault(record.op, reason)
            for path in paths:
                path.unlink(missing_ok=True)

    def comparable(self, record: Record):
        """The parts of an output that tracing must not change."""
        if self.kind == "plan":
            (path,) = self.paths(record.op)
            report = workloads.report_without_times(path.read_text()) if path.exists() else None
            return workloads.plan_stdout_without_times(record.stdout), report
        csv_path, svg_path = self.paths(record.op)
        stdout = record.stdout.replace(str(csv_path), "CSV").replace(str(svg_path), "SVG")
        rows = csv_path.read_bytes().decode("utf-8").split("\r\n") if csv_path.exists() else []
        svg = svg_path.read_bytes() if svg_path.exists() else None
        return stdout, workloads.csv_without_times(rows), svg


class Timings:
    """Each item's latencies and each timed cycle's wall time, as flat arrays."""

    def __init__(self, num_items: int) -> None:
        self.latencies = [array("d") for _ in range(num_items)]
        self.cycles = array("d")

    def add(self, records: list[Record], cycle_s: float) -> None:
        for record in records:
            self.latencies[record.item].append(record.latency_s)
        self.cycles.append(cycle_s)


def plain_run(client: Client, seconds: float) -> Timings:
    timings = Timings(len(client.items))
    while not timings.cycles or sum(timings.cycles) < seconds:
        records, cycle_s = client.cycle(cli.main)
        timings.add(records, cycle_s)
        client.check(records)
    return timings


def traced_run(client: Client, seconds: float, spans_path: Path) -> tuple[Timings, dict]:
    """Alternate untraced and traced cycles, in ABBA order, until the time is up.

    Alternating keeps a drift in machine speed out of ``trace.overhead_ratio``.
    """
    spans = tracer.Tracer()
    traced_main = spans.wrap("cli.main", cli.main)

    def main_for_op(argv):
        spans.op = client.sent - 1  # the operation being sent
        return traced_main(argv)

    plain, traced = Timings(len(client.items)), Timings(len(client.items))
    skipped = set()
    while not plain.cycles or sum(plain.cycles) + sum(traced.cycles) < seconds:
        done = {}
        order = (False, True) if len(plain.cycles) % 2 == 0 else (True, False)
        for with_spans in order:
            if with_spans:
                skipped.update(spans.install())
                done[True] = client.cycle(main_for_op)
                left = spans.uninstall()
                if left:
                    client.failures.setdefault(-1, f"tracing left wrappers behind: {left}")
            else:
                done[False] = client.cycle(cli.main)
        plain.add(*done[False])
        traced.add(*done[True])
        for untraced, with_spans in zip(done[False][0], done[True][0]):
            if client.comparable(untraced) != client.comparable(with_spans):
                client.failures.setdefault(
                    with_spans.op, "traced output differs from the untraced one"
                )
        client.check(done[False][0] + done[True][0])
    if skipped:
        print(f"not traced: {', '.join(sorted(skipped))}", file=sys.stderr)
    num_traced = sum(len(found) for found in traced.latencies)
    per_layer = spans.layer_metrics(num_traced, sum(map(sum, traced.latencies)))
    per_layer["trace.overhead_ratio"] = sum(traced.cycles) / sum(plain.cycles) - 1.0
    spans.write_spans(spans_path)
    return plain, per_layer


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result_path = Path(sys.argv[2])
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True)
    client = Client(spec, out_dir)

    # One untimed cycle lets the allocator and lazy imports settle on every input.
    client.check(client.cycle(cli.main)[0])
    per_layer = {}
    if spec["trace"]:
        timings, per_layer = traced_run(client, spec["seconds"], Path(spec["spans_path"]))
    else:
        timings = plain_run(client, spec["seconds"])
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "attempted": client.attempted,
        "failed": len(client.failures),
        "failures": [
            f"op {op}: {reason}" for op, reason in sorted(client.failures.items())
        ][:MAX_REPORTED_FAILURES],
        "labels": [item["label"] for item in client.items],
        "latencies_s": [list(found) for found in timings.latencies],
        "units_per_cycle": sum(workloads.units_per_op(item) for item in client.items),
        "cycle_s": list(timings.cycles),
        "peak_rss_kb": peak_rss_kb,
        "per_layer": per_layer,
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
