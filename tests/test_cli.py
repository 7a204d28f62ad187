import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitplan import scenarios
from splitplan.cli import MAX_SWEEP_LAYERS, _parse_experiment_config, main
from splitplan.cost import objective
from splitplan.model import DeviceChain, FfnnModel, SplitSolution
from splitplan.profiles import load_chain, load_model, save_chain, save_model
from splitplan.scenarios import generate_device_chain, generate_random_model, iteration_rng
from splitplan.svgplot import render_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent
TOY_MODEL = "profiles/chain10.model.json"
TOY_CHAIN = "profiles/chain10.chain.json"


def write_sweep_config(tmp_path, **overrides):
    config = {
        "iterations": 25,
        "seed": 11,
        "num_layers": [8, 12],
        "num_devices": [2, 3],
        "skip_probs": [0.0, 0.5],
    }
    config.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    return path


def refuse_pool(*args, **kwargs):
    raise AssertionError("no worker pool may start")


def rows_without_times(csv_text):
    rows = []
    for line in csv_text.strip().splitlines():
        cells = line.split(",")
        cells[8:10] = ["-", "-"]
        rows.append(cells)
    return rows


class TestPlan:
    def test_both_solvers_print_reports_and_difference(self, capsys):
        code = main(
            ["plan", "--model", TOY_MODEL, "--chain", TOY_CHAIN, "--solver", "both"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("splitting points:") == 2
        difference = float(out.split("cost difference (heuristic - exact):")[1])
        assert difference >= 0.0

    def test_json_report_refeeds_through_the_objective(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "plan",
                "--model",
                TOY_MODEL,
                "--chain",
                TOY_CHAIN,
                "--solver",
                "both",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        model = load_model(TOY_MODEL)
        chain = load_chain(TOY_CHAIN)
        reports = json.loads(report_path.read_text())
        assert [r["solver"] for r in reports] == ["heuristic", "exact"]
        for entry in reports:
            solution = SplitSolution(points=tuple(entry["splitting_points"]))
            assert objective(model, chain, solution).total == entry["total_cost"]

    def test_forced_infeasibility_exits_one(self, capsys):
        code = main(
            [
                "plan",
                "--model",
                TOY_MODEL,
                "--chain",
                TOY_CHAIN,
                "--solver",
                "exact",
                "--max-splits",
                "1",
            ]
        )
        assert code == 1
        assert "no feasible solution" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code = main(
            ["plan", "--model", str(tmp_path / "nope.json"), "--chain", TOY_CHAIN]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_model_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad_model.json"
        bad.write_text(
            json.dumps(
                {
                    "version": 1,
                    "layers": [{"name": None, "cpu_cost": 0.5, "mem_cost": 2.0}],
                    "edges": [],
                }
            )
        )
        code = main(["plan", "--model", str(bad), "--chain", TOY_CHAIN])
        assert code == 2
        assert "invalid model" in capsys.readouterr().err

    def test_overflowing_link_rate_exits_two(self, capsys, tmp_path):
        # A subnormal rate is finite and positive, but a cut over it is not.
        chain_path = tmp_path / "slow.chain.json"
        chain_path.write_text(
            json.dumps(
                {
                    "devices": [
                        {"cpu_capacity": 0.3, "mem_capacity": 0.3},
                        {"cpu_capacity": 1, "mem_capacity": 1},
                    ],
                    "links": [{"rate": 1e-320}],
                }
            )
        )
        out_path = tmp_path / "report.json"
        argv = ["plan", "--model", TOY_MODEL, "--chain", str(chain_path), "--solver", "both"]
        code = main(argv + ["--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "transfer cost overflows" in captured.err
        assert "internal error" not in captured.err
        assert not out_path.exists()

    def test_overflowing_cut_exits_two(self, capsys, tmp_path):
        # Every edge is finite, but the two 1e308-bit edges into layer 3 sum
        # past the float range at the split after layer 2.
        model = FfnnModel(
            [0.25] * 4, [0.25] * 4, src=[0, 1, 2], dst=[2, 2, 3], bits=[1e308, 1e308, 1.0]
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(
                ["plan", "--model", str(model_path), "--chain", TOY_CHAIN, "--solver", "both"]
            )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "invalid model: traffic crossing a split after layer 2 is inf" in captured.err
        assert "internal error" not in captured.err


class TestModuleEntryPoint:
    def test_python_dash_m_runs_without_warnings(self):
        # Importing the package must not import ``splitplan.cli`` ahead of
        # runpy, which warns that the module is already in sys.modules.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "splitplan.cli",
             "plan", "--model", TOY_MODEL, "--chain", TOY_CHAIN],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert "splitting points:" in done.stdout

    def test_cli_stays_importable_from_the_package(self):
        from splitplan import cli

        assert cli.main is main


class TestFootprint:
    def test_toy_chain_prints_shares(self, capsys):
        code = main(["footprint", "--model", TOY_MODEL, "--chain", TOY_CHAIN])
        out = capsys.readouterr().out
        assert code == 0
        assert "first-device reduction" in out
        assert "feasible: True" in out

    def test_single_device_keeps_everything_local(self, capsys, tmp_path):
        model = generate_random_model(5, 0.0, iteration_rng(3, 0))
        chain = DeviceChain([10.0], [10.0], [])
        model_path = tmp_path / "model.json"
        chain_path = tmp_path / "chain.json"
        save_model(model, model_path)
        save_chain(chain, chain_path)
        code = main(["footprint", "--model", str(model_path), "--chain", str(chain_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1..5" in out
        assert "reduction: mem 0.0000, cpu 0.0000" in out

    def test_unsplittable_model_exits_one(self, capsys, tmp_path):
        model = FfnnModel(cpu=[1.0], mem=[1.0])
        chain = DeviceChain([1.0, 1.0], [0.25, 0.25], [1.0])
        model_path = tmp_path / "model.json"
        chain_path = tmp_path / "chain.json"
        save_model(model, model_path)
        save_chain(chain, chain_path)
        code = main(["footprint", "--model", str(model_path), "--chain", str(chain_path)])
        assert code == 1
        assert "no feasible solution" in capsys.readouterr().out


class TestValidate:
    def test_good_files_pass(self, capsys):
        code = main(["validate", "--model", TOY_MODEL, "--chain", TOY_CHAIN])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count(": ok") == 2

    def test_violations_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "version": 1,
                    "layers": [{"name": None, "cpu_cost": 1.5, "mem_cost": 0.5}],
                    "edges": [],
                }
            )
        )
        code = main(["validate", "--model", str(bad)])
        out = capsys.readouterr().out
        assert code == 2
        assert "violation" in out

    def test_without_any_file_exits_two(self, capsys):
        assert main(["validate"]) == 2

    def test_unnormalized_chain_warns_but_passes(self, capsys, tmp_path):
        model = generate_random_model(6, 0.0, iteration_rng(3, 1))
        chain = generate_device_chain(3, model)
        chain_path = tmp_path / "chain.json"
        save_chain(chain, chain_path)
        code = main(["validate", "--chain", str(chain_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "warning" in out


class TestExperiment:
    def test_grid_produces_one_row_per_cell(self, capsys, tmp_path):
        config = write_sweep_config(tmp_path)
        out_csv = tmp_path / "sweep.csv"
        code = main(["experiment", "--config", str(config), "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == (
            "num_layers,num_devices,skip_prob,iterations,seed,mean_cost_diff,"
            "ci95_halfwidth,heuristic_fail_rate,mean_heuristic_time_s,"
            "mean_exact_time_s,mean_rho_mem,mean_rho_cpu"
        )
        assert len(lines) == 1 + 2 * 2 * 2

    def test_two_device_rows_report_zero_difference(self, tmp_path, capsys):
        config = write_sweep_config(tmp_path, num_devices=[2], num_layers=[8])
        out_csv = tmp_path / "sweep.csv"
        assert main(["experiment", "--config", str(config), "--out", str(out_csv)]) == 0
        for line in out_csv.read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[1] == "2"
            assert float(cells[5]) == 0.0

    def test_reruns_match_outside_the_time_columns(self, tmp_path, capsys):
        config = write_sweep_config(tmp_path, num_layers=[8], skip_probs=[0.5])
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["experiment", "--config", str(config), "--out", str(first)]) == 0
        assert main(["experiment", "--config", str(config), "--out", str(second)]) == 0
        assert rows_without_times(first.read_text()) == rows_without_times(
            second.read_text()
        )

    def test_empty_sweep_writes_header_only(self, tmp_path, capsys):
        config = write_sweep_config(tmp_path, num_layers=[])
        out_csv = tmp_path / "empty.csv"
        assert main(["experiment", "--config", str(config), "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("num_layers,")

    def test_seed_override_lands_in_the_seed_column(self, tmp_path, capsys):
        config = write_sweep_config(tmp_path, num_layers=[8], num_devices=[2], skip_probs=[0.0])
        out_csv = tmp_path / "seeded.csv"
        code = main(
            [
                "experiment",
                "--config",
                str(config),
                "--out",
                str(out_csv),
                "--seed",
                "999",
            ]
        )
        assert code == 0
        row = out_csv.read_text().strip().splitlines()[1].split(",")
        assert row[4] == "999"

    def test_rendering_never_alters_the_csv(self, tmp_path, capsys):
        config = write_sweep_config(tmp_path, num_layers=[8, 10], num_devices=[3])
        out_csv = tmp_path / "plot.csv"
        out_svg = tmp_path / "plot.svg"
        code = main(
            [
                "experiment",
                "--config",
                str(config),
                "--out",
                str(out_csv),
                "--svg",
                str(out_svg),
            ]
        )
        assert code == 0
        before = out_csv.read_bytes()
        svg = out_svg.read_text()
        assert "<polyline" in svg
        assert svg.count("<polyline") == 2, "one series per skip probability"
        assert out_csv.read_bytes() == before
        assert render_sweep(out_csv) == svg

    def test_empty_sweep_plot_falls_back_to_a_notice(self, tmp_path, capsys):
        config = write_sweep_config(tmp_path, num_devices=[])
        out_csv = tmp_path / "none.csv"
        out_svg = tmp_path / "none.svg"
        code = main(
            [
                "experiment",
                "--config",
                str(config),
                "--out",
                str(out_csv),
                "--svg",
                str(out_svg),
            ]
        )
        assert code == 0
        assert "no data" in out_svg.read_text()

    def test_thread_count_does_not_change_results(self, tmp_path, capsys, monkeypatch):
        config = write_sweep_config(
            tmp_path, num_layers=[8], num_devices=[3], skip_probs=[0.5], iterations=12
        )
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["experiment", "--config", str(config), "--out", str(serial)]) == 0
        monkeypatch.setenv("SPLITPLAN_THREADS", "2")
        assert main(["experiment", "--config", str(config), "--out", str(parallel)]) == 0
        assert rows_without_times(serial.read_text()) == rows_without_times(
            parallel.read_text()
        )

    def test_bad_threads_env_exits_two(self, tmp_path, capsys, monkeypatch):
        config = write_sweep_config(tmp_path)
        monkeypatch.setenv("SPLITPLAN_THREADS", "many")
        code = main(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_layers": 8},
            {"iterations": "lots"},
            {"extra_key": 1},
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, overrides):
        config = write_sweep_config(tmp_path, **overrides)
        code = main(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"threads": "2"}, "threads"),
            ({"threads": True}, "threads"),
            ({"num_layers": [True]}, "num_layers"),
            ({"num_layers": [8.5]}, "num_layers"),
            ({"num_devices": [2.5]}, "num_devices"),
            ({"num_devices": ["3"]}, "num_devices"),
            ({"skip_probs": ["0.5"]}, "skip_probs"),
            ({"skip_probs": [True]}, "skip_probs"),
            ({"skip_probs": [1.5]}, "skip_probs"),
            ({"skip_probs": [-0.25]}, "skip_probs"),
            ({"skip_probs": [float("nan")]}, "skip_probs"),
            ({"iterations": True}, "iterations"),
            ({"seed": 1.0}, "seed"),
        ],
    )
    def test_mistyped_config_fields_exit_two(self, tmp_path, capsys, monkeypatch, overrides, field):
        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", refuse_pool)
        config = write_sweep_config(tmp_path, **overrides)
        code = main(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert f"'{field}' must be" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("source", ["config", "option", "environment"])
    @pytest.mark.parametrize("threads", [0, (os.cpu_count() or 1) + 1, 5000])
    def test_threads_outside_the_cpu_count_exit_two_before_any_pool(
        self, tmp_path, capsys, monkeypatch, source, threads
    ):
        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", refuse_pool)
        argv = []
        if source == "config":
            config = write_sweep_config(tmp_path, threads=threads)
        else:
            config = write_sweep_config(tmp_path)
        if source == "option":
            argv = ["--threads", str(threads)]
        if source == "environment":
            monkeypatch.setenv("SPLITPLAN_THREADS", str(threads))
        code = main(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "x.csv"), *argv]
        )
        assert code == 2
        assert f"threads must be in 1..{os.cpu_count() or 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("layers", [20000, 1000000])
    def test_oversized_cells_exit_two_before_any_draw_or_pool(
        self, tmp_path, capsys, monkeypatch, layers
    ):
        # One (n, n) skip draw of these cells needs 3 GB and 8 TB.
        def refuse_draw(*args, **kwargs):
            raise AssertionError("no instance may be drawn")

        monkeypatch.setattr(scenarios, "generate_random_model", refuse_draw)
        monkeypatch.setattr(scenarios, "_draw", refuse_draw)
        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", refuse_pool)
        config = write_sweep_config(tmp_path, num_layers=[8, layers], threads=2)
        code = main(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert f"'num_layers' must be at most {MAX_SWEEP_LAYERS}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_the_layer_bound_itself_is_accepted(self, tmp_path):
        config = write_sweep_config(tmp_path, num_layers=[MAX_SWEEP_LAYERS])
        assert _parse_experiment_config(str(config))["num_layers"] == [MAX_SWEEP_LAYERS]

    def test_config_must_be_json(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{nope")
        code = main(
            ["experiment", "--config", str(config), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
