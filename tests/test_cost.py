import math

import numpy as np
import pytest

from splitplan.cost import (
    cut_traffic_table,
    is_feasible,
    objective,
)
from splitplan.model import DeviceChain, FfnnModel, SplitSolution


def make_model(mem_costs, traffic, cpu_costs=None):
    n = len(mem_costs)
    if cpu_costs is None:
        cpu_costs = [1.0] * n
    return FfnnModel.from_matrix(cpu_costs, mem_costs, traffic)


def make_chain(capacities, rates):
    return DeviceChain([cpu for cpu, _ in capacities], [mem for _, mem in capacities], rates)


def brute_force_cut(traffic, p):
    """Independent double-loop oracle for the boundary traffic."""
    n = len(traffic)
    total = 0.0
    for i in range(1, p + 1):
        for j in range(p + 1, n + 1):
            total += traffic[i - 1][j - 1]
    return total


THREE_LAYER_TRAFFIC = [
    [0.0, 4.0, 2.0],
    [0.0, 0.0, 8.0],
    [0.0, 0.0, 0.0],
]


class TestCutTraffic:
    def test_three_layer_hand_example(self):
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        table = cut_traffic_table(model)
        assert table[1] == 6.0
        assert table[2] == 10.0
        assert table[3] == 0.0

    def test_final_boundary_always_zero(self):
        rng = np.random.default_rng(7)
        n = 9
        traffic = np.triu(rng.random((n, n)), k=1)
        model = make_model([0.5] * n, traffic)
        assert cut_traffic_table(model)[n] == 0.0

    def test_table_matches_double_loop_oracle(self):
        rng = np.random.default_rng(991)
        for _ in range(40):
            n = int(rng.integers(1, 24))
            dense = np.triu(rng.random((n, n)), k=1)
            # Sparsify so zero rows and columns are exercised too.
            dense[rng.random((n, n)) < 0.5] = 0.0
            dense = np.triu(dense, k=1)
            model = make_model([0.5] * n, dense)
            table = cut_traffic_table(model)
            assert table[0] == 0.0
            for p in range(1, n + 1):
                expected = brute_force_cut(dense, p)
                assert math.isclose(table[p], expected, rel_tol=1e-12, abs_tol=1e-12)

    def test_table_from_unsorted_edge_sets_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4417)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            count = int(rng.integers(0, len(pairs) + 1))
            chosen = rng.permutation(len(pairs))[:count]  # random, unsorted order
            src = [pairs[k][0] for k in chosen]
            dst = [pairs[k][1] for k in chosen]
            bits = rng.random(count)
            model = FfnnModel([1.0] * n, [0.5] * n, src=src, dst=dst, bits=bits)
            table = cut_traffic_table(model)
            for p in range(n + 1):
                expected = sum(
                    b for i, j, b in zip(src, dst, bits) if i + 1 <= p < j + 1
                )
                assert math.isclose(table[p], expected, rel_tol=1e-12, abs_tol=1e-12)

    def test_table_is_built_once_per_model_and_read_only(self):
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        table = cut_traffic_table(model)
        assert cut_traffic_table(model) is table
        assert table.tolist() == [0.0, 6.0, 10.0, 0.0]
        with pytest.raises(ValueError):
            table[1] = 0.0
        # An equal model is a separate object with its own table.
        assert cut_traffic_table(make_model([0.5] * 3, THREE_LAYER_TRAFFIC)) is not table


class TestObjective:
    def test_two_device_hand_example(self):
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        chain = make_chain([(1, 10), (1, 10)], [2.0])
        got = objective(model, chain, SplitSolution(points=(1, 3)))
        assert got.boundary_terms == (3.0,)
        assert got.total == 3.0

    def test_three_device_hand_example(self):
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        chain = make_chain([(1, 10)] * 3, [2.0, 1.0])
        got = objective(model, chain, SplitSolution(points=(1, 2, 3)))
        assert got.boundary_terms == (3.0, 10.0)
        assert got.total == 13.0

    def test_single_partition_costs_nothing(self):
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        chain = make_chain([(1, 10)], [])
        got = objective(model, chain, SplitSolution(points=(3,)))
        assert got.boundary_terms == ()
        assert got.total == 0.0

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            kappa = int(rng.integers(2, min(n, 5) + 1))
            traffic = np.triu(rng.random((n, n)), k=1)
            model = make_model([0.5] * n, traffic)
            chain = make_chain([(1, 99)] * kappa, rng.uniform(0.2, 3.0, kappa - 1))
            interior = sorted(rng.choice(np.arange(1, n), kappa - 1, replace=False))
            x = SplitSolution(points=tuple(int(p) for p in interior) + (n,))
            got = objective(model, chain, x)
            assert len(got.boundary_terms) == kappa - 1
            assert got.total == sum(got.boundary_terms)

    def test_scaling_traffic_and_rates_leaves_cost_unchanged(self):
        # Multiplying every traffic entry and every link rate by the same
        # factor cancels out in each term.
        rng = np.random.default_rng(4242)
        for alpha in (0.125, 3.0, 1e6):
            n = 12
            traffic = np.triu(rng.random((n, n)), k=1)
            rates = rng.uniform(0.5, 2.0, 3)
            model = make_model([0.5] * n, traffic)
            scaled = make_model([0.5] * n, traffic * alpha)
            chain = make_chain([(1, 99)] * 4, rates)
            scaled_chain = make_chain([(1, 99)] * 4, rates * alpha)
            x = SplitSolution(points=(3, 7, 9, n))
            base = objective(model, chain, x).total
            got = objective(scaled, scaled_chain, x).total
            assert math.isclose(got, base, rel_tol=1e-12)

    def test_rejects_more_partitions_than_devices(self):
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        chain = make_chain([(1, 10)] * 2, [1.0])
        with pytest.raises(ValueError):
            objective(model, chain, SplitSolution(points=(1, 2, 3)))

    def test_rejects_terminal_mismatch(self):
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        chain = make_chain([(1, 10)] * 2, [1.0])
        with pytest.raises(ValueError):
            objective(model, chain, SplitSolution(points=(1, 2)))


class TestIsFeasible:
    def test_memory_violation_names_device_and_constraint(self):
        model = make_model([0.6, 0.6], np.zeros((2, 2)))
        # Both unit cpu costs fit, so only memory can reject the whole model.
        chain = make_chain([(2.0, 0.6), (2.0, 0.6)], [1.0])
        whole = is_feasible(model, chain, SplitSolution(points=(2,)))
        assert not whole
        assert whole.device == 1
        assert whole.constraint == "mem"
        split = is_feasible(model, chain, SplitSolution(points=(1, 2)))
        assert split.ok

    def test_cpu_is_a_sum_not_a_peak(self):
        whole = SplitSolution(points=(2,))
        chain = make_chain([(0.8, 1.0)], [])
        light = make_model([0.1, 0.1], np.zeros((2, 2)), cpu_costs=[0.4, 0.4])
        assert is_feasible(light, chain, whole).ok
        # Each layer fits on its own; together they need twice the capacity.
        heavy = make_model([0.1, 0.1], np.zeros((2, 2)), cpu_costs=[0.8, 0.8])
        got = is_feasible(heavy, chain, whole)
        assert not got.ok
        assert (got.device, got.constraint) == (1, "cpu")

    def test_cpu_violation_names_device_and_constraint(self):
        model = make_model([0.1, 0.1], np.zeros((2, 2)), cpu_costs=[0.5, 0.9])
        chain = make_chain([(0.5, 1.0), (0.8, 1.0)], [1.0])
        got = is_feasible(model, chain, SplitSolution(points=(1, 2)))
        assert not got.ok
        assert (got.device, got.constraint) == (2, "cpu")
        assert "device 2" in got.detail

    def test_capacity_boundaries_are_inclusive(self):
        # Both block sums land exactly on their capacities.
        model = make_model([0.3, 0.3], np.zeros((2, 2)), cpu_costs=[1.0, 1.0])
        chain = make_chain([(2.0, 0.6)], [])
        assert is_feasible(model, chain, SplitSolution(points=(2,))).ok

    def test_matches_per_block_recheck_on_random_instances(self):
        rng = np.random.default_rng(624)
        for _ in range(120):
            n = int(rng.integers(2, 16))
            kappa = int(rng.integers(1, min(n, 4) + 1))
            mem = rng.uniform(0.01, 1.0, n)
            cpu = rng.uniform(0.0, 1.0, n)
            model = make_model(mem.tolist(), np.zeros((n, n)), cpu.tolist())
            chain = make_chain(
                [(rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0)) for _ in range(kappa)],
                [1.0] * (kappa - 1),
            )
            if kappa == 1:
                points = (n,)
            else:
                interior = sorted(
                    rng.choice(np.arange(1, n), kappa - 1, replace=False)
                )
                points = tuple(int(p) for p in interior) + (n,)
            x = SplitSolution(points=points)
            got = is_feasible(model, chain, x)
            expected = True
            previous = 0
            for t, point in enumerate(points):
                block = range(previous + 1, point + 1)
                if sum(cpu[i - 1] for i in block) > chain.cpu_capacity[t]:
                    expected = False
                if sum(mem[i - 1] for i in block) > chain.mem_capacity[t]:
                    expected = False
                previous = point
            assert got.ok == expected
