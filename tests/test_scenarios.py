import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from splitplan import exact, heuristic, scenarios
from splitplan.cost import objective
from splitplan.model import FfnnModel, LayerProfile, SplitSolution, validate_model
from splitplan.scenarios import (
    ScenarioConfig,
    footprint_stats,
    generate_device_chain,
    generate_random_model,
    iteration_rng,
    run_cost_difference_sweep,
)
from traffic_views import dense_traffic


def random_fractional_model(rng, max_layers=300):
    n = int(rng.integers(1, max_layers + 1))
    layers = tuple(
        LayerProfile(index=i + 1, cpu_cost=float(cpu), mem_cost=float(mem))
        for i, (cpu, mem) in enumerate(zip(rng.random(n), 1.0 - rng.random(n) * 0.99))
    )
    return FfnnModel(layers=layers)


def test_iteration_rng_is_a_pure_function_of_the_pair():
    a = iteration_rng(42, 7).random(5)
    b = iteration_rng(42, 7).random(5)
    assert np.array_equal(a, b)


def test_iteration_rng_streams_differ_across_indices_and_seeds():
    base = iteration_rng(42, 0).random(5)
    assert not np.array_equal(base, iteration_rng(42, 1).random(5))
    assert not np.array_equal(base, iteration_rng(43, 0).random(5))


class TestGenerateRandomModel:
    def test_no_skips_means_superdiagonal_only(self):
        model = generate_random_model(6, 0.0, iteration_rng(1, 0))
        mem = model.mem_costs()
        expected = np.zeros((6, 6))
        expected[np.arange(5), np.arange(1, 6)] = mem[:-1]
        assert np.array_equal(dense_traffic(model), expected)

    def test_probability_one_fills_every_forward_pair(self):
        model = generate_random_model(4, 1.0, iteration_rng(1, 1))
        mem = model.mem_costs()
        traffic = dense_traffic(model)
        for i in range(4):
            for j in range(4):
                expected = mem[i] if j > i else 0.0
                assert traffic[i][j] == expected

    def test_skip_edges_carry_the_source_memory_cost(self):
        model = generate_random_model(12, 0.5, iteration_rng(9, 3))
        mem = model.mem_costs()
        traffic = dense_traffic(model)
        nonzero = np.argwhere(traffic > 0)
        assert len(nonzero) > 11, "expected at least one skip besides the chain"
        for i, j in nonzero:
            assert j > i
            assert traffic[i][j] == mem[i]

    def test_edges_match_a_dense_draw_and_leave_the_stream_in_step(self):
        # The generator still draws one (n, n) block, so a dense construction
        # from the same stream gives the same traffic and the stream stays in
        # step afterwards: sweep results do not depend on the storage.
        for index in range(40):
            n = 1 + index % 17
            skip_prob = (index % 5) / 4
            ours = iteration_rng(3, index)
            reference = iteration_rng(3, index)
            model = generate_random_model(n, skip_prob, ours)
            mem = 1.0 - reference.random(n) * 0.99
            rows, cols = np.indices((n, n))
            skips = (reference.random((n, n)) < skip_prob) & (cols > rows + 1)
            expected = np.where(skips, mem[:, None], 0.0)
            expected[np.arange(n - 1), np.arange(1, n)] = mem[:-1]
            assert np.array_equal(dense_traffic(model), expected)
            assert ours.random() == reference.random()

    def test_adjacent_edges_always_present(self):
        for index in range(20):
            model = generate_random_model(9, 0.25, iteration_rng(5, index))
            diagonal = dense_traffic(model)[np.arange(8), np.arange(1, 9)]
            assert np.array_equal(diagonal, model.mem_costs()[:-1])

    def test_cost_ranges(self):
        lowest = 1.0
        for index in range(50):
            model = generate_random_model(20, 0.0, iteration_rng(3, index))
            assert np.all(model.cpu_costs() == 1.0)
            mem = model.mem_costs()
            assert np.all(mem > 0.01)
            assert np.all(mem <= 1.0)
            lowest = min(lowest, float(mem.min()))
        assert lowest < 0.1, "uniform draws should reach the low end of the range"

    def test_fixed_seed_reproduces_the_model_bit_for_bit(self):
        one = generate_random_model(10, 0.5, iteration_rng(11, 2))
        two = generate_random_model(10, 0.5, iteration_rng(11, 2))
        assert one == two

    def test_generated_models_validate(self):
        for index in range(10):
            model = generate_random_model(15, 0.5, iteration_rng(8, index))
            assert validate_model(model).ok

    def test_single_layer_model_has_no_traffic(self):
        model = generate_random_model(1, 1.0, iteration_rng(0, 0))
        assert model.num_layers == 1
        assert np.all(dense_traffic(model) == 0.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_bad_skip_probability(self, bad):
        with pytest.raises(ValueError):
            generate_random_model(4, bad, iteration_rng(0, 0))

    def test_rejects_empty_model(self):
        with pytest.raises(ValueError):
            generate_random_model(0, 0.5, iteration_rng(0, 0))


class TestGenerateDeviceChain:
    def test_two_devices_get_half_and_full_totals(self):
        model = generate_random_model(8, 0.5, iteration_rng(2, 0))
        chain = generate_device_chain(2, model)
        mem_total = float(np.sum(model.mem_costs()))
        assert chain.devices[0].mem_capacity == pytest.approx(mem_total / 2)
        assert chain.devices[1].mem_capacity == pytest.approx(mem_total)
        assert chain.devices[0].cpu_capacity == pytest.approx(8 / 2)
        assert chain.devices[1].cpu_capacity == pytest.approx(8)

    def test_three_devices_scale_as_third_half_whole(self):
        model = generate_random_model(6, 0.0, iteration_rng(2, 1))
        chain = generate_device_chain(3, model)
        mem_total = float(np.sum(model.mem_costs()))
        fractions = [1 / 3, 1 / 2, 1.0]
        for device, fraction in zip(chain.devices, fractions):
            assert device.mem_capacity == pytest.approx(mem_total * fraction)
            assert device.cpu_capacity == pytest.approx(6 * fraction)

    @pytest.mark.parametrize("num_devices", [2, 3, 4, 6])
    def test_every_link_shares_one_rate(self, num_devices):
        model = generate_random_model(5, 0.0, iteration_rng(2, 2))
        chain = generate_device_chain(num_devices, model)
        assert len(chain.link_rate) == num_devices - 1
        assert all(rate == 1.0 / (num_devices - 1) for rate in chain.link_rate)

    def test_last_device_always_holds_the_whole_model(self):
        for index in range(10):
            model = generate_random_model(12, 0.5, iteration_rng(6, index))
            chain = generate_device_chain(4, model)
            assert chain.devices[-1].mem_capacity == pytest.approx(
                float(np.sum(model.mem_costs()))
            )

    def test_capacities_equal_the_numpy_sum_ladder_bit_for_bit(self):
        rng = np.random.default_rng(1414)
        for _ in range(200):
            model = random_fractional_model(rng)
            num_devices = int(rng.integers(1, 9))
            chain = generate_device_chain(num_devices, model)
            cpu_total = float(np.sum(model.cpu_costs()))
            mem_total = float(np.sum(model.mem_costs()))
            for t, device in enumerate(chain.devices, start=1):
                assert device.cpu_capacity == cpu_total / (num_devices - t + 1)
                assert device.mem_capacity == mem_total / (num_devices - t + 1)


class TestFootprintStats:
    def test_two_equal_layers_split_between_two_devices(self):
        model = generate_random_model(2, 0.0, iteration_rng(4, 0))
        equal = model.__class__(
            layers=tuple(
                layer.__class__(index=layer.index, cpu_cost=1.0, mem_cost=0.5)
                for layer in model.layers
            ),
            src=model.src,
            dst=model.dst,
            bits=model.bits,
        )
        stats = footprint_stats(equal, SplitSolution(points=(1, 2)))
        assert stats.mem_shares == (0.5, 0.5)
        assert stats.cpu_shares == (0.5, 0.5)
        assert stats.rho_mem == 0.5
        assert stats.rho_cpu == 0.5

    def test_single_block_keeps_everything_on_the_first_device(self):
        model = generate_random_model(7, 0.5, iteration_rng(4, 1))
        stats = footprint_stats(model, SplitSolution(points=(7,)))
        assert stats.mem_shares == (1.0,)
        assert stats.cpu_shares == (1.0,)
        assert stats.rho_mem == 0.0
        assert stats.rho_cpu == 0.0

    def test_hand_worked_three_layer_split(self):
        layers = (
            LayerProfile(index=1, cpu_cost=1.0, mem_cost=0.25),
            LayerProfile(index=2, cpu_cost=0.5, mem_cost=0.25),
            LayerProfile(index=3, cpu_cost=0.5, mem_cost=0.5),
        )
        model = FfnnModel(layers=layers)
        stats = footprint_stats(model, SplitSolution(points=(2, 3)))
        assert stats.mem_shares == (0.5, 0.5)
        assert stats.cpu_shares == (0.75, 0.25)
        assert stats.rho_mem == 0.5
        assert stats.rho_cpu == 0.25

    def test_shares_sum_to_one_on_random_instances(self):
        for index in range(100):
            rng = iteration_rng(13, index)
            model = generate_random_model(10, 0.5, rng)
            points = sorted(rng.choice(range(1, 10), size=2, replace=False))
            solution = SplitSolution(points=(*map(int, points), 10))
            stats = footprint_stats(model, solution)
            assert sum(stats.mem_shares) == pytest.approx(1.0, abs=1e-9)
            assert sum(stats.cpu_shares) == pytest.approx(1.0, abs=1e-9)
            assert stats.rho_mem == pytest.approx(1.0 - stats.mem_shares[0])
            assert stats.rho_cpu == pytest.approx(1.0 - stats.cpu_shares[0])

    def test_shares_equal_per_block_numpy_sums_bit_for_bit(self):
        # Sweep CSVs average these shares; any other summation order (for
        # example differences of prefix sums) moves their last bits.
        rng = np.random.default_rng(2718)
        for _ in range(300):
            model = random_fractional_model(rng)
            n = model.num_layers
            cuts = rng.choice(np.arange(1, n), size=min(n - 1, 6), replace=False)
            points = (*sorted(map(int, cuts)), n)
            stats = footprint_stats(model, SplitSolution(points=points))
            mem, cpu = model.mem_costs(), model.cpu_costs()
            lo = 0
            for t, hi in enumerate(points):
                assert stats.mem_shares[t] == float(np.sum(mem[lo:hi])) / float(np.sum(mem))
                assert stats.cpu_shares[t] == float(np.sum(cpu[lo:hi])) / float(np.sum(cpu))
                lo = hi

    @pytest.mark.parametrize("points", [(3,), (2, 4), (1, 6)])
    def test_rejects_a_last_point_other_than_the_layer_count(self, points):
        model = generate_random_model(5, 0.5, iteration_rng(4, 2))
        with pytest.raises(ValueError, match="last splitting point"):
            footprint_stats(model, SplitSolution(points=points))


def test_chain_only_traffic_objective_matches_direct_formula():
    # Without skip edges the bits crossing a boundary after layer p are
    # exactly the adjacent transfer p -> p+1, so the objective reduces to
    # summing those entries over the internal boundaries.
    for index in range(20):
        rng = iteration_rng(17, index)
        model = generate_random_model(9, 0.0, rng)
        chain = generate_device_chain(3, model)
        points = sorted(rng.choice(range(1, 9), size=2, replace=False))
        solution = SplitSolution(points=(*map(int, points), 9))
        direct = sum(
            dense_traffic(model)[p - 1][p] / chain.link_rate[0] for p in solution.points[:-1]
        )
        assert objective(model, chain, solution).total == pytest.approx(direct)


class TestScenarioConfig:
    def test_accepts_a_valid_cell(self):
        config = ScenarioConfig(
            num_layers=8, num_devices=2, skip_prob=0.5, iterations=10, seed=1
        )
        assert config.num_layers == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_layers": 0},
            {"num_devices": 1},
            {"skip_prob": -0.5},
            {"skip_prob": 1.5},
            {"iterations": 0},
            {"seed": -1},
        ],
    )
    def test_rejects_out_of_range_fields(self, kwargs):
        base = {
            "num_layers": 8,
            "num_devices": 2,
            "skip_prob": 0.5,
            "iterations": 10,
            "seed": 1,
        }
        with pytest.raises(ValueError):
            ScenarioConfig(**{**base, **kwargs})


class TestCostDifferenceSweep:
    def test_two_devices_never_lose_to_the_optimum(self):
        configs = [
            ScenarioConfig(
                num_layers=layers, num_devices=2, skip_prob=prob, iterations=150, seed=31
            )
            for layers in (8, 28)
            for prob in (0.0, 0.5)
        ]
        for record in run_cost_difference_sweep(configs):
            assert record.num_failures == 0
            assert max(record.cost_differences) <= 1e-9
            assert record.mean_cost_diff <= 1e-9

    def test_record_bookkeeping_with_failures(self):
        config = ScenarioConfig(
            num_layers=8, num_devices=4, skip_prob=0.5, iterations=200, seed=4242
        )
        record = run_cost_difference_sweep([config])[0]
        assert record.num_failures >= 1
        assert record.failure_rate == record.num_failures / 200
        assert len(record.cost_differences) == 200 - record.num_failures
        assert len(record.psi_heuristic) == len(record.psi_exact)
        assert min(record.cost_differences) >= -1e-9

    def test_differences_align_with_the_recorded_costs(self):
        config = ScenarioConfig(
            num_layers=12, num_devices=3, skip_prob=0.5, iterations=60, seed=5
        )
        record = run_cost_difference_sweep([config])[0]
        for psi_g, psi_e, diff in zip(
            record.psi_heuristic, record.psi_exact, record.cost_differences
        ):
            assert diff == psi_g - psi_e
            assert psi_g >= psi_e - 1e-9

    def test_aggregates_match_a_recomputation(self):
        config = ScenarioConfig(
            num_layers=10, num_devices=3, skip_prob=0.5, iterations=80, seed=23
        )
        record = run_cost_difference_sweep([config])[0]
        diffs = np.array(record.cost_differences)
        assert record.mean_cost_diff == pytest.approx(float(np.mean(diffs)))
        expected_halfwidth = 1.96 * float(np.std(diffs, ddof=1)) / len(diffs) ** 0.5
        assert record.ci95_halfwidth == pytest.approx(expected_halfwidth)

    def test_mean_shares_cover_the_chain_and_sum_to_one(self):
        config = ScenarioConfig(
            num_layers=10, num_devices=3, skip_prob=0.25, iterations=50, seed=3
        )
        record = run_cost_difference_sweep([config])[0]
        assert len(record.mean_mem_shares) == 3
        assert len(record.mean_cpu_shares) == 3
        assert sum(record.mean_mem_shares) == pytest.approx(1.0, abs=1e-9)
        assert sum(record.mean_cpu_shares) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= record.mean_rho_mem <= 1.0
        assert 0.0 <= record.mean_rho_cpu <= 1.0

    def test_identical_seed_reproduces_everything_but_wall_times(self):
        config = ScenarioConfig(
            num_layers=9, num_devices=3, skip_prob=0.5, iterations=40, seed=77
        )
        first = run_cost_difference_sweep([config])[0]
        second = run_cost_difference_sweep([config])[0]
        assert first.cost_differences == second.cost_differences
        assert first.psi_heuristic == second.psi_heuristic
        assert first.psi_exact == second.psi_exact
        assert first.mean_cost_diff == second.mean_cost_diff
        assert first.ci95_halfwidth == second.ci95_halfwidth
        assert first.mean_mem_shares == second.mean_mem_shares
        assert first.mean_rho_mem == second.mean_rho_mem
        assert first.num_failures == second.num_failures

    def test_worker_processes_match_the_serial_run(self):
        config = ScenarioConfig(
            num_layers=8, num_devices=3, skip_prob=0.5, iterations=12, seed=19
        )
        serial = run_cost_difference_sweep([config], threads=1)[0]
        parallel = run_cost_difference_sweep([config], threads=2)[0]
        assert parallel.cost_differences == serial.cost_differences
        assert parallel.mean_cost_diff == serial.mean_cost_diff
        assert parallel.num_failures == serial.num_failures
        assert parallel.mean_mem_shares == serial.mean_mem_shares

    def test_rejects_a_non_positive_thread_count(self):
        config = ScenarioConfig(
            num_layers=8, num_devices=2, skip_prob=0.0, iterations=5, seed=1
        )
        with pytest.raises(ValueError):
            run_cost_difference_sweep([config], threads=0)


def per_cell_reference_sweep(configs):
    """The sweep as one loop per cell, each cell drawing its own instances."""
    records = []
    for config in configs:
        raw = {
            "psi_heuristic": [],
            "psi_exact": [],
            "diffs": [],
            "mem_shares": [],
            "cpu_shares": [],
            "rho_mem": [],
            "rho_cpu": [],
            "heuristic_times": [],
            "exact_times": [],
            "failures": 0,
        }
        for index in range(config.iterations):
            rng = iteration_rng(config.seed, index)
            model = generate_random_model(config.num_layers, config.skip_prob, rng)
            chain = generate_device_chain(config.num_devices, model)
            began = time.perf_counter()
            greedy = heuristic.solve(model, chain)
            raw["heuristic_times"].append(time.perf_counter() - began)
            began = time.perf_counter()
            optimal = exact.solve(model, chain)
            raw["exact_times"].append(time.perf_counter() - began)
            if greedy.solution is None:
                raw["failures"] += 1
                continue
            diff = greedy.cost.total - optimal.best.cost
            stats = footprint_stats(model, greedy.solution)
            padding = (0.0,) * (config.num_devices - greedy.solution.kappa)
            raw["psi_heuristic"].append(greedy.cost.total)
            raw["psi_exact"].append(optimal.best.cost)
            raw["diffs"].append(diff)
            raw["mem_shares"].append(stats.mem_shares + padding)
            raw["cpu_shares"].append(stats.cpu_shares + padding)
            raw["rho_mem"].append(stats.rho_mem)
            raw["rho_cpu"].append(stats.rho_cpu)
        records.append(scenarios._aggregate(config, raw))
    return records


def without_times(record):
    return dataclasses.replace(record, mean_heuristic_time_s=0.0, mean_exact_time_s=0.0)


class TestSharedInstances:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_grouped_sweep_matches_the_per_cell_loop(self, threads):
        configs = [
            ScenarioConfig(
                num_layers=layers,
                num_devices=devices,
                skip_prob=prob,
                iterations=iterations,
                seed=seed,
            )
            for layers in (6, 11)
            for devices in (2, 3, 4)
            for prob in (0.0, 0.5)
            for iterations, seed in ((12, 3), (13, 3), (12, 4))
        ]
        # Cells of one group lie apart, and a few small ones stay in this
        # process whatever the thread count.
        configs += [
            ScenarioConfig(
                num_layers=7, num_devices=devices, skip_prob=0.5, iterations=3, seed=3
            )
            for devices in (3, 2)
        ]
        configs = [configs[i] for i in np.random.default_rng(99).permutation(len(configs))]
        ours = run_cost_difference_sweep(configs, threads=threads)
        reference = per_cell_reference_sweep(configs)
        assert [record.config for record in ours] == configs
        for got, expected in zip(ours, reference):
            assert without_times(got) == without_times(expected)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stacks_split_at_the_stack_size_match_the_per_cell_loop(self, threads):
        # Serially the group runs as stacks of 256, 256 and 89 instances; with
        # two workers each half of 300 or 301 iterations ends in a short stack.
        iterations = 2 * scenarios.EXACT_STACK_SIZE + 89
        configs = [
            ScenarioConfig(
                num_layers=6, num_devices=devices, skip_prob=0.5, iterations=iterations, seed=5
            )
            for devices in (3, 2)
        ]
        ours = run_cost_difference_sweep(configs, threads=threads)
        reference = per_cell_reference_sweep(configs)
        for got, expected in zip(ours, reference):
            assert without_times(got) == without_times(expected)
        assert all(len(record.psi_exact) > scenarios.EXACT_STACK_SIZE for record in ours)

    def test_each_instance_is_drawn_once_per_group(self, monkeypatch):
        # The benchmark's sweep grid: 10 groups of 3 device counts, 50 iterations.
        calls = []

        def counting(*args):
            calls.append(args)
            return generate_random_model(*args)

        monkeypatch.setattr(scenarios, "generate_random_model", counting)
        configs = [
            ScenarioConfig(
                num_layers=layers, num_devices=devices, skip_prob=prob, iterations=50, seed=1
            )
            for devices in (2, 3, 4)
            for prob in (0.0, 0.5)
            for layers in (8, 12, 16, 24, 32)
        ]
        run_cost_difference_sweep(configs)
        assert len(calls) == 500

    def test_one_worker_pool_per_sweep(self, monkeypatch):
        built = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", CountingPool)
        configs = [
            ScenarioConfig(
                num_layers=layers, num_devices=devices, skip_prob=0.5, iterations=6, seed=2
            )
            for layers in (5, 8, 10)
            for devices in (2, 3)
        ]
        run_cost_difference_sweep(configs, threads=2)
        assert built == [{"max_workers": 2}]
        # Groups too small to split run in this process and start no pool.
        small = [dataclasses.replace(config, iterations=3) for config in configs]
        run_cost_difference_sweep(small, threads=2)
        assert len(built) == 1

    def test_small_groups_run_while_no_chunk_is_outstanding(self, monkeypatch):
        # Pooled groups run one at a time, so a group too small to split
        # never computes in this process beside busy workers.
        run_range = scenarios._run_iteration_range
        outstanding = []
        seen = []

        class Chunk:
            def __init__(self, args):
                self.args = args
                outstanding.append(self)

            def result(self):
                outstanding.remove(self)
                return run_range(*self.args)

        class DeferredPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return Chunk(args)

        def in_this_process(cells, start, stop):
            seen.append(len(outstanding))
            return run_range(cells, start, stop)

        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", DeferredPool)
        monkeypatch.setattr(scenarios, "_run_iteration_range", in_this_process)
        configs = [
            ScenarioConfig(
                num_layers=layers,
                num_devices=devices,
                skip_prob=0.5,
                iterations=iterations,
                seed=5,
            )
            for layers, iterations in ((6, 3), (9, 8), (7, 2), (10, 8))
            for devices in (2, 3)
        ]
        ours = run_cost_difference_sweep(configs, threads=2)
        assert seen == [0, 0]
        assert not outstanding
        serial = run_cost_difference_sweep(configs, threads=1)
        assert [without_times(r) for r in ours] == [without_times(r) for r in serial]
