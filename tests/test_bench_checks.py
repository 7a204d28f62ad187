"""The benchmark's own set-up and output checks still accept the program.

``perfbench/workloads.py`` writes its inputs with the package's file
formats and checks every report it gets against the objective, the capacity
rule and enumerated optima.  A change to the model or chain API that breaks
it would fail every benchmark run; this test fails first.  The module is
only loaded and called: nothing under ``perfbench/`` is changed.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_small_reports_pass_the_benchmark_checks(tmp_path, capsys):
    workloads = load_workloads()
    spec = workloads.setup("plan-small", 1, ROOT, tmp_path / "work")
    assert len(spec["items"]) == len(workloads.SMALL_BUNDLED) + len(workloads.SMALL_SHAPES)
    for index, item in enumerate(spec["items"]):
        out = tmp_path / f"report-{index}.json"
        code = workloads.cli.main(workloads.plan_argv(item, str(out)))
        stdout = capsys.readouterr().out
        assert workloads.check_plan(item, code, stdout, out) is None, item["label"]
