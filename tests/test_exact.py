import math
from collections import deque

import numpy as np
import pytest

from splitplan import exact, heuristic, scenarios
from splitplan.cost import cut_traffic_table, is_feasible, objective
from splitplan.exact import EnumerationBudgetExceeded
from splitplan.model import Device, DeviceChain, FfnnModel, LayerProfile, SplitSolution


def make_model(mem_costs, traffic, cpu_costs=None):
    n = len(mem_costs)
    if cpu_costs is None:
        cpu_costs = [1.0] * n
    layers = tuple(
        LayerProfile(index=i + 1, cpu_cost=cpu_costs[i], mem_cost=mem_costs[i])
        for i in range(n)
    )
    return FfnnModel.from_matrix(layers, traffic)


def make_chain(capacities, rates):
    return DeviceChain(
        devices=tuple(Device(cpu, mem) for cpu, mem in capacities),
        link_rate=tuple(rates),
    )


def ample_chain(num_devices, rates=None):
    if rates is None:
        rates = [1.0] * (num_devices - 1)
    return make_chain([(100.0, 100.0)] * num_devices, rates)


THREE_LAYER_TRAFFIC = [
    [0.0, 4.0, 2.0],
    [0.0, 0.0, 8.0],
    [0.0, 0.0, 0.0],
]


def random_instance(rng, max_layers=10, max_devices=4):
    n = int(rng.integers(2, max_layers + 1))
    num_devices = int(rng.integers(2, max_devices + 1))
    mem = 1.0 - rng.random(n) * 0.99
    cpu = rng.uniform(0.05, 0.85, n)
    traffic = np.where(
        np.triu(rng.random((n, n)), k=1) < 0.5, np.broadcast_to(mem[:, None], (n, n)), 0.0
    )
    traffic = np.triu(traffic, k=1)
    model = make_model(mem.tolist(), traffic, cpu.tolist())
    total_cpu = float(np.sum(cpu))
    total_mem = float(np.sum(mem))
    # Later devices are larger, as in an edge-to-core deployment.
    cpu_caps = sorted(
        float(rng.uniform(0.8, 3.2) * total_cpu / num_devices)
        for _ in range(num_devices)
    )
    mem_caps = sorted(
        float(rng.uniform(0.8, 3.2) * total_mem / num_devices)
        for _ in range(num_devices)
    )
    rates = [float(rng.uniform(0.25, 2.0)) for _ in range(num_devices - 1)]
    return model, make_chain(list(zip(cpu_caps, mem_caps)), rates)


def reference_fixed_splits(model, chain, num_splits):
    """The DP rerun for one partition count, with an argmin per split position."""
    n = model.num_layers
    prefix_cpu = np.zeros(n + 1)
    prefix_cpu[1:] = np.cumsum(model.cpu_costs())
    prefix_mem = np.zeros(n + 1)
    prefix_mem[1:] = np.cumsum(model.mem_costs())
    cut_table = cut_traffic_table(model)

    def block_limits(device_index):
        device = chain.devices[device_index]
        cpu_min_q = np.searchsorted(prefix_cpu, prefix_cpu - device.cpu_capacity, "left")
        mem_min_q = np.searchsorted(prefix_mem, prefix_mem - device.mem_capacity, "left")
        return cpu_min_q, mem_min_q

    cpu_min_q, mem_min_q = block_limits(0)
    best = np.full(n + 1, np.inf)
    fits_first = (cpu_min_q == 0) & (mem_min_q == 0)
    best[1:][fits_first[1:]] = 0.0
    parents = []
    for t in range(2, num_splits + 1):
        cpu_min_q, mem_min_q = block_limits(t - 1)
        arrival = best + cut_table / chain.link_rate[t - 2]
        next_best = np.full(n + 1, np.inf)
        parent = np.zeros(n + 1, dtype=np.int64)
        for p in range(t, n + 1):
            lo = max(t - 1, int(cpu_min_q[p]), int(mem_min_q[p]))
            if lo >= p:
                continue
            window = arrival[lo:p]
            k = int(np.argmin(window))
            if window[k] < np.inf:
                next_best[p] = window[k]
                parent[p] = lo + k
        best = next_best
        parents.append(parent)
    if not np.isfinite(best[n]):
        return None
    points = [n]
    for parent in reversed(parents):
        points.append(int(parent[points[-1]]))
    solution = SplitSolution(points=tuple(reversed(points)))
    return exact.SolvedSplit(solution=solution, cost=objective(model, chain, solution).total)


def reference_optimal_points(model, chain, limit):
    """The one-pass DP with a monotone deque per step, as ``exact`` once ran it.

    Returns the optimal splitting points for each partition count
    ``1..limit``, or None where a count is infeasible.
    """
    if limit < 1:
        return []
    n = model.num_layers
    prefix_cpu = model.prefix_cpu
    prefix_mem = model.prefix_mem
    cut_table = cut_traffic_table(model)

    def block_limits(device_index):
        device = chain.devices[device_index]
        cpu_min_q = np.searchsorted(prefix_cpu, prefix_cpu - device.cpu_capacity, "left")
        mem_min_q = np.searchsorted(prefix_mem, prefix_mem - device.mem_capacity, "left")
        return cpu_min_q, mem_min_q

    def trace_back(best, parents):
        if not np.isfinite(best[n]):
            return None
        points = [n]
        for parent in reversed(parents):
            points.append(parent[points[-1]])
        return tuple(reversed(points))

    cpu_min_q, mem_min_q = block_limits(0)
    best = np.full(n + 1, np.inf)
    fits_first = (cpu_min_q == 0) & (mem_min_q == 0)
    best[1:][fits_first[1:]] = 0.0
    parents = []
    optima = [trace_back(best, parents)]
    for t in range(2, limit + 1):
        cpu_min_q, mem_min_q = block_limits(t - 1)
        lo = np.maximum(np.maximum(cpu_min_q, mem_min_q), t - 1).tolist()
        arrival = (best + cut_table / chain.link_rate[t - 2]).tolist()
        next_best = [math.inf] * (n + 1)
        parent = [0] * (n + 1)
        window = deque()
        for p in range(t, n + 1):
            value = arrival[p - 1]
            if value < math.inf:
                while window and arrival[window[-1]] > value:
                    window.pop()
                window.append(p - 1)
            while window and window[0] < lo[p]:
                window.popleft()
            if window:
                q = window[0]
                next_best[p] = arrival[q]
                parent[p] = q
        best = np.array(next_best)
        parents.append(parent)
        optima.append(trace_back(best, parents))
    return optima


def ladder_instance(rng):
    model = scenarios.generate_random_model(
        int(rng.integers(2, 33)), float(rng.choice([0.0, 0.2, 0.5])), rng
    )
    return model, scenarios.generate_device_chain(int(rng.integers(2, 7)), model)


def fractional_instance(rng):
    return random_instance(rng, max_layers=30, max_devices=7)


class TestSolveFixedSplits:
    def test_two_partition_hand_example(self):
        # Splitting after layer 1 forwards 6 bits, after layer 2 forwards 10.
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        got = exact.solve_fixed_splits(model, ample_chain(2, [2.0]), 2)
        assert got.solution.points == (1, 3)
        assert got.cost == 3.0

    def test_single_partition_when_it_fits(self):
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        got = exact.solve_fixed_splits(model, ample_chain(2), 1)
        assert got.solution.points == (3,)
        assert got.cost == 0.0

    def test_single_partition_infeasible_returns_none(self):
        model = make_model([0.6, 0.6], np.zeros((2, 2)))
        chain = make_chain([(2.0, 0.6), (2.0, 0.6)], [1.0])
        assert exact.solve_fixed_splits(model, chain, 1) is None

    def test_memory_constraint_steers_the_optimum(self):
        # The cheap split after layer 1 is ruled out: layers 2..3 no longer
        # fit the second device, so the optimum pays for the expensive cut.
        model = make_model([0.5, 0.5, 0.5], THREE_LAYER_TRAFFIC)
        chain = make_chain([(3.0, 1.0), (3.0, 0.5)], [1.0])
        got = exact.solve_fixed_splits(model, chain, 2)
        assert got.solution.points == (2, 3)
        assert got.cost == 10.0

    def test_cpu_constraint_steers_the_optimum(self):
        model = make_model(
            [0.1] * 3, THREE_LAYER_TRAFFIC, cpu_costs=[0.2, 0.9, 0.2]
        )
        # Layer 2 only runs on the first device, so the cheap cut after
        # layer 1 would overload the second one.
        chain = make_chain([(1.2, 10.0), (0.3, 10.0)], [1.0])
        got = exact.solve_fixed_splits(model, chain, 2)
        assert got.solution.points == (2, 3)
        assert got.cost == 10.0

    def test_cost_ties_pick_the_smaller_split_position(self):
        traffic = np.zeros((4, 4))
        traffic[0][1] = traffic[1][2] = traffic[2][3] = 2.0
        model = make_model([0.25] * 4, traffic)
        got = exact.solve_fixed_splits(model, ample_chain(2), 2)
        assert got.cost == 2.0
        assert got.solution.points == (1, 4)

    def test_rejects_out_of_range_num_splits(self):
        model = make_model([0.5] * 3, THREE_LAYER_TRAFFIC)
        with pytest.raises(ValueError):
            exact.solve_fixed_splits(model, ample_chain(2), 3)
        with pytest.raises(ValueError):
            exact.solve_fixed_splits(model, ample_chain(2), 0)


class TestSolveGlobal:
    def test_prefers_fewer_partitions_on_cost_ties(self):
        # Zero traffic makes every feasible split free.
        model = make_model([0.2] * 4, np.zeros((4, 4)))
        got = exact.solve(model, ample_chain(3))
        assert got.best.cost == 0.0
        assert got.best.solution.points == (4,)
        assert set(got.per_kappa) == {1, 2, 3}

    def test_reports_infeasible_partition_counts(self):
        model = make_model([0.6, 0.6], np.zeros((2, 2)))
        chain = make_chain([(2.0, 0.6), (2.0, 0.7)], [1.0])
        got = exact.solve(model, chain)
        assert got.per_kappa[1] is None
        assert got.per_kappa[2].solution.points == (1, 2)
        assert got.best.cost == got.per_kappa[2].cost

    def test_no_solution_at_all(self):
        model = make_model([0.9, 0.9], np.zeros((2, 2)))
        chain = make_chain([(1.0, 0.5), (1.0, 0.5)], [1.0])
        got = exact.solve(model, chain)
        assert got.best is None
        assert got.per_kappa == {1: None, 2: None}

    def test_max_splits_caps_the_search(self):
        model = make_model([0.2] * 6, np.zeros((6, 6)))
        got = exact.solve(model, ample_chain(4), max_splits=2)
        assert set(got.per_kappa) == {1, 2}

    def test_global_picks_the_cheapest_count(self):
        # One partition is infeasible; three partitions pay two boundaries.
        traffic = np.zeros((4, 4))
        traffic[0][1] = 1.0
        traffic[1][2] = 1.0
        traffic[2][3] = 1.0
        model = make_model([0.5] * 4, traffic)
        chain = make_chain([(4.0, 1.0), (4.0, 1.0), (4.0, 2.0)], [1.0, 1.0])
        got = exact.solve(model, chain)
        assert got.per_kappa[1] is None
        assert got.best.cost == got.per_kappa[2].cost
        assert got.best.solution.kappa == 2


class TestOnePassAgainstPerCountReference:
    """The one DP pass must reproduce the per-count reruns bit for bit."""

    @pytest.mark.parametrize(
        "make_instance, seed",
        [(ladder_instance, 4471), (fractional_instance, 5113)],
        ids=["capacity-ladder", "fractional-random-capacity"],
    )
    def test_per_kappa_matches_reference_exactly(self, make_instance, seed):
        rng = np.random.default_rng(seed)
        feasible = 0
        for _ in range(500):
            model, chain = make_instance(rng)
            got = exact.solve(model, chain)
            limit = min(model.num_layers, chain.num_devices)
            assert list(got.per_kappa) == list(range(1, limit + 1))
            for kappa, entry in got.per_kappa.items():
                expected = reference_fixed_splits(model, chain, kappa)
                # SolvedSplit equality compares the points and the exact cost.
                assert entry == expected
                assert exact.solve_fixed_splits(model, chain, kappa) == expected
                feasible += expected is not None
        assert feasible > 500  # both families must exercise feasible counts

    def test_cost_ties_keep_the_leftmost_split_for_every_count(self):
        # Zero traffic makes every split free, so each step's window holds
        # equal minima and the smallest q must win at every step.
        n = 6
        model = make_model([0.1] * n, np.zeros((n, n)))
        got = exact.solve(model, ample_chain(4))
        for kappa in range(1, 5):
            expected = tuple(range(1, kappa)) + (n,)
            assert got.per_kappa[kappa].solution.points == expected
            assert got.per_kappa[kappa].cost == 0.0
            fixed = exact.solve_fixed_splits(model, ample_chain(4), kappa)
            assert fixed.solution.points == expected

    def test_empty_windows_leave_the_count_infeasible(self):
        # Device 2 can host no layer at all, so no split reaches device 3.
        model = make_model([0.2] * 4, np.zeros((4, 4)))
        chain = make_chain([(100.0, 100.0), (0.0, 0.0), (100.0, 100.0)], [1.0, 1.0])
        got = exact.solve(model, chain)
        assert got.per_kappa[2] is None and got.per_kappa[3] is None
        assert got.best.solution.points == (4,)


class TestAgainstEnumeration:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(20817)
        checked = 0
        for _ in range(300):
            model, chain = random_instance(rng)
            limit = min(model.num_layers, chain.num_devices)
            for kappa in range(1, limit + 1):
                got = exact.solve_fixed_splits(model, chain, kappa)
                expected = exact.brute_force_fixed_splits(model, chain, kappa)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert math.isclose(got.cost, expected.cost, rel_tol=1e-9, abs_tol=1e-12)
                    checked += 1
        assert checked > 200  # the sweep must actually exercise feasible cases

    def test_relaxing_a_capacity_preserves_feasibility(self):
        rng = np.random.default_rng(3140)
        relaxed_checks = 0
        for _ in range(150):
            model, chain = random_instance(rng)
            limit = min(model.num_layers, chain.num_devices)
            for kappa in range(1, limit + 1):
                if exact.solve_fixed_splits(model, chain, kappa) is None:
                    continue
                t = int(rng.integers(0, chain.num_devices))
                old = chain.devices[t]
                bumped = list(chain.devices)
                if rng.random() < 0.5:
                    bumped[t] = Device(old.cpu_capacity + 0.5, old.mem_capacity)
                else:
                    bumped[t] = Device(old.cpu_capacity, old.mem_capacity + 0.5)
                relaxed = DeviceChain(devices=tuple(bumped), link_rate=chain.link_rate)
                assert exact.solve_fixed_splits(model, relaxed, kappa) is not None
                relaxed_checks += 1
        assert relaxed_checks > 50


class TestBruteForce:
    def test_budget_is_enforced(self):
        model = make_model([0.01] * 40, np.zeros((40, 40)))
        chain = ample_chain(5)
        with pytest.raises(EnumerationBudgetExceeded):
            exact.brute_force_fixed_splits(model, chain, 5, budget=1000)

    def test_budget_counts_candidates_not_layers(self):
        model = make_model([0.01] * 40, np.zeros((40, 40)))
        chain = ample_chain(2)
        got = exact.brute_force_fixed_splits(model, chain, 1, budget=1)
        assert got.solution.points == (40,)


class TestCpuLadderTies:
    """Unit cpu costs sum exactly to ladder capacities such as 28 / 4 = 7.0.

    The sweeps produce these ties on every instance, so the greedy scan, the
    DP, the enumeration and ``is_feasible`` must all treat a block whose cpu
    sum equals its capacity as fitting.
    """

    def test_blocks_that_exactly_fill_every_device(self):
        n = 28
        traffic = np.zeros((n, n))
        traffic[np.arange(n - 1), np.arange(1, n)] = 1.0
        model = make_model([0.01] * n, traffic)
        # A quarter, a quarter and a half of the model: the only feasible
        # three-way split puts exactly 7, 7 and 14 layers on the devices.
        chain = make_chain([(n / 4, 100.0), (n / 4, 100.0), (n / 2, 100.0)], [1.0, 1.0])
        tight = SplitSolution(points=(7, 14, n))
        assert is_feasible(model, chain, tight).ok
        for points, device in (((8, 14, n), 1), ((7, 15, n), 2), ((6, 13, n), 3)):
            over = is_feasible(model, chain, SplitSolution(points=points))
            assert (over.ok, over.device, over.constraint) == (False, device, "cpu")

        assert heuristic.solve(model, chain).solution == tight
        for kappa in (1, 2):
            assert exact.solve_fixed_splits(model, chain, kappa) is None
            assert exact.brute_force_fixed_splits(model, chain, kappa) is None
        dp = exact.solve_fixed_splits(model, chain, 3)
        assert dp == exact.brute_force_fixed_splits(model, chain, 3)
        assert (dp.solution, dp.cost) == (tight, 2.0)

    def test_moved_layers_that_exactly_fill_the_next_device_stay_there(self):
        # The cheap cut after layer 1 moves layers 2..3 onto device 2, whose
        # cpu capacity they fill exactly; layer 4 then overflows it.
        traffic = np.zeros((4, 4))
        traffic[0][1] = 1.0
        traffic[1][2] = 5.0
        traffic[2][3] = 5.0
        model = make_model([0.01] * 4, traffic)
        chain = make_chain([(3.0, 1.0), (2.0, 1.0), (4.0, 1.0)], [1.0, 1.0])
        greedy = heuristic.solve_fixed_splits(model, chain, 3)
        assert greedy.solution.points == (1, 3, 4)
        assert is_feasible(model, chain, greedy.solution).ok
        dp = exact.solve_fixed_splits(model, chain, 3)
        assert dp == exact.brute_force_fixed_splits(model, chain, 3)
        assert dp.cost == 6.0


def stacked_optima(models, chains):
    """One kernel pass over a stack: per instance, the points or None per count."""
    limit = min(models[0].num_layers, chains[0].num_devices)
    prefixes = np.array([[m.prefix_cpu for m in models], [m.prefix_mem for m in models]])
    cut_table = np.array([cut_traffic_table(m) for m in models])
    steps = list(exact._steps(prefixes, cut_table, *exact._chain_arrays(chains), limit))
    costs = np.array([best[:, -1] for best, _ in steps])
    parents = [parent for _, parent in steps]
    n = models[0].num_layers
    return [
        [
            exact._trace_back(parents, row, kappa, n) if np.isfinite(cost) else None
            for kappa, cost in enumerate(costs[:, row], start=1)
        ]
        for row in range(len(models))
    ], costs


def assert_stack_matches_reference(models, chains):
    """Points of every count equal the deque's; costs equal the objective's bits."""
    points, costs = stacked_optima(models, chains)
    best = exact.optimal_costs(
        np.array([m.prefix_cpu for m in models]),
        np.array([m.prefix_mem for m in models]),
        np.array([cut_traffic_table(m) for m in models]),
        chains,
    )
    feasible = 0
    for row, (model, chain) in enumerate(zip(models, chains)):
        expected = reference_optimal_points(model, chain, len(points[row]))
        assert points[row] == expected
        for kappa, found in enumerate(expected, start=1):
            if found is None:
                assert costs[kappa - 1, row] == np.inf
                continue
            total = objective(model, chain, SplitSolution(points=found)).total
            assert costs[kappa - 1, row] == total  # bit for bit, no tolerance
            feasible += 1
        optimum = exact.solve(model, chain).best
        assert best[row] == (np.inf if optimum is None else optimum.cost)
    return feasible


def block_sum_capacities(rng, model, num_devices):
    """Capacities that each equal some block's sum, summed two different ways."""
    n = model.num_layers
    capacities = []
    for _ in range(num_devices):
        q, p = sorted(int(i) for i in rng.choice(n + 1, size=2, replace=False))
        if rng.random() < 0.5:
            cpu = model.prefix_cpu[p] - model.prefix_cpu[q]
            mem = model.prefix_mem[p] - model.prefix_mem[q]
        else:
            cpu = sum(model.cpu_costs()[q:p].tolist())
            mem = sum(model.mem_costs()[q:p].tolist())
        capacities.append((float(cpu), float(mem)))
    return capacities


class TestStackedKernelAgainstDeque:
    """The stacked kernel reproduces the deque's points for every count."""

    @pytest.mark.parametrize("skip_prob", [0.0, 0.5, 1.0])
    def test_sweep_shaped_stacks(self, skip_prob):
        feasible = 0
        for layers in (3, 8, 18, 28):
            for devices in (2, 3, 4, 5):
                rng = scenarios.iteration_rng(layers * 10 + devices, int(skip_prob * 2))
                models = [
                    scenarios.generate_random_model(layers, skip_prob, rng) for _ in range(12)
                ]
                chains = [scenarios.generate_device_chain(devices, m) for m in models]
                feasible += assert_stack_matches_reference(models, chains)
        assert feasible > 150  # the ladder leaves most small counts infeasible

    def test_fractional_costs_with_capacities_on_block_sums(self):
        rng = np.random.default_rng(6151)
        feasible = 0
        for layers, devices in ((2, 2), (5, 3), (9, 4), (16, 6), (30, 7)):
            models, chains = [], []
            for _ in range(40):
                mem = 1.0 - rng.random(layers) * 0.99
                cpu = rng.uniform(0.05, 0.85, layers)
                traffic = np.triu(rng.uniform(0.0, 2.0, (layers, layers)), k=1)
                traffic[rng.random((layers, layers)) < 0.5] = 0.0
                model = make_model(mem.tolist(), traffic, cpu.tolist())
                capacities = block_sum_capacities(rng, model, devices)
                rates = rng.uniform(0.25, 2.0, devices - 1).tolist()
                models.append(model)
                chains.append(make_chain(capacities, rates))
            feasible += assert_stack_matches_reference(models, chains)
        assert feasible > 20

    def test_zero_traffic_ties_take_the_leftmost_plan(self):
        n = 7
        models = [make_model([0.1] * n, np.zeros((n, n))) for _ in range(4)]
        chains = [
            ample_chain(4),
            make_chain([(2.0, 0.2), (100.0, 100.0), (100.0, 100.0), (100.0, 100.0)], [1.0] * 3),
            make_chain([(1.0, 100.0), (1.0, 100.0), (2.0, 100.0), (100.0, 100.0)], [0.5] * 3),
            make_chain([(100.0, 0.35), (100.0, 0.25), (100.0, 0.4), (100.0, 1.0)], [2.0] * 3),
        ]
        assert_stack_matches_reference(models, chains)
        points, _ = stacked_optima(models, chains)
        assert points[0] == [(n,), (1, n), (1, 2, n), (1, 2, 3, n)]

    def test_unreachable_counts_and_a_device_that_hosts_nothing(self):
        n = 5
        models = [make_model([0.2] * n, np.zeros((n, n))) for _ in range(3)]
        chains = [
            # Device 2 hosts nothing, so only the single block is feasible.
            make_chain([(100.0, 100.0), (0.0, 0.0), (100.0, 100.0), (100.0, 100.0)], [1.0] * 3),
            # One layer per device at most: only four or five partitions could fit,
            # and four devices cannot host five layers.
            make_chain([(1.0, 0.2)] * 4, [1.0] * 3),
            # The first device hosts nothing: no count is feasible.
            make_chain([(0.0, 0.0)] + [(100.0, 100.0)] * 3, [1.0] * 3),
        ]
        assert_stack_matches_reference(models, chains)
        points, costs = stacked_optima(models, chains)
        assert points[0] == [(n,), None, None, None]
        assert points[1] == [None] * 4
        assert points[2] == [None] * 4
        assert np.isinf(costs[:, 1:]).all()

    @pytest.mark.parametrize("layers, devices", [(256, 4), (517, 5), (1000, 8), (2000, 16)])
    def test_stacks_of_one_at_plan_scale(self, layers, devices):
        rng = np.random.default_rng([layers, devices])
        model = scenarios.generate_random_model(layers, 8.0 / layers, rng)
        chain = scenarios.generate_device_chain(devices, model)
        assert assert_stack_matches_reference([model], [chain]) >= 1
        got = exact.solve(model, chain)
        expected = reference_optimal_points(model, chain, devices)
        assert [
            None if entry is None else entry.solution.points for entry in got.per_kappa.values()
        ] == expected
