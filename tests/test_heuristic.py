import numpy as np
import pytest

from splitplan import exact, heuristic
from splitplan.cost import cut_traffic_table, is_feasible
from splitplan.model import DeviceChain, FfnnModel
from splitplan.scenarios import generate_device_chain, generate_random_model
from greedy_stacks import assert_stack_matches_solve
from traffic_views import dense_traffic


def make_model(mem_costs, traffic, cpu_costs=None):
    n = len(mem_costs)
    if cpu_costs is None:
        cpu_costs = [1.0] * n
    return FfnnModel.from_matrix(cpu_costs, mem_costs, traffic)


def make_chain(capacities, rates):
    return DeviceChain([cpu for cpu, _ in capacities], [mem for _, mem in capacities], rates)


def brute_cut(traffic, p):
    n = len(traffic)
    return sum(traffic[i][j] for i in range(p) for j in range(p, n))


def reference_rescan(model, chain, num_splits):
    """Literal backtracking scan: the pointer rolls back to the committed
    split and every moved layer is re-examined one at a time.  Slower than
    the shipped solver but an independent description of the same policy."""
    n = model.num_layers
    cpu = model.cpu.tolist()
    mem = model.mem.tolist()
    traffic = dense_traffic(model).tolist()
    cut = [0.0] + [brute_cut(traffic, p) for p in range(1, n + 1)]
    committed = []
    device = 1
    candidates = []
    cpu_load = 0.0
    mem_load = 0.0
    layer = 1
    steps = 0
    while layer <= n:
        steps += 1
        assert steps <= 10 * n * num_splits + 10, "reference scan diverged"
        fits_cpu = cpu_load + cpu[layer - 1] <= chain.cpu_capacity[device - 1]
        fits_mem = mem_load + mem[layer - 1] <= chain.mem_capacity[device - 1]
        if fits_cpu and fits_mem:
            candidates.append(layer)
            cpu_load += cpu[layer - 1]
            mem_load += mem[layer - 1]
            layer += 1
            continue
        if device + 1 > num_splits or not candidates:
            return None
        best = candidates[0]
        for p in candidates[1:]:
            if cut[p] <= cut[best]:
                best = p
        committed.append(best)
        device += 1
        candidates = []
        cpu_load = 0.0
        mem_load = 0.0
        layer = best + 1
    return committed + [n]


def random_instance(rng, max_layers=14, max_devices=5):
    n = int(rng.integers(2, max_layers + 1))
    num_devices = int(rng.integers(2, max_devices + 1))
    mem = 1.0 - rng.random(n) * 0.99
    cpu = rng.uniform(0.05, 0.85, n)
    keep = np.triu(rng.random((n, n)), k=1) < 0.45
    traffic = np.triu(np.where(keep, np.broadcast_to(mem[:, None], (n, n)), 0.0), k=1)
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


# The hand-built models below have at most four layers of unit cpu cost, so
# their devices get a cpu capacity of 4.0 and only memory shapes the plans.


class TestSolveFixedSplits:
    """``solve`` with ``max_splits=k``: the greedy scan on at most k devices.

    Its plan is that scan's plan, and the scan's iteration count is the last
    entry of the trace's ``while_iterations``."""

    def test_everything_fits_the_first_device(self):
        model = make_model([0.25] * 4, np.zeros((4, 4)))
        chain = make_chain([(4.0, 1.0), (4.0, 1.0)], [1.0])
        got = heuristic.solve(model, chain, max_splits=1)
        assert got.solution.points == (4,)
        assert got.trace.while_iterations[-1] == 4

    def test_two_layer_forced_split(self):
        traffic = [[0.0, 1.0], [0.0, 0.0]]
        model = make_model([0.6, 0.6], traffic)
        chain = make_chain([(4.0, 0.6), (4.0, 1.2)], [1.0])
        got = heuristic.solve(model, chain, max_splits=2)
        assert got.solution.points == (1, 2)

    def test_single_device_out_of_memory(self):
        model = make_model([0.6, 0.6], np.zeros((2, 2)))
        chain = make_chain([(4.0, 0.6)], [])
        got = heuristic.solve(model, chain, max_splits=1)
        assert got.solution is None

    def test_backtracks_to_the_cheapest_recorded_cut(self):
        # The first device accepts layers 1..3 before layer 4 overflows it.
        # Splitting after layer 3 forwards 10 bits; after 1 or 2, 11 bits.
        traffic = np.zeros((4, 4))
        traffic[0][1] = 10.0
        traffic[0][2] = 1.0
        traffic[1][2] = 10.0
        traffic[2][3] = 10.0
        model = make_model([0.25] * 4, traffic)
        chain = make_chain([(4.0, 0.75), (4.0, 1.0)], [1.0])
        got = heuristic.solve(model, chain, max_splits=2)
        assert got.solution.points == (3, 4)
        expected = min(range(1, 4), key=lambda p: brute_cut(traffic.tolist(), p))
        assert got.solution.points[0] == expected

    def test_cheapest_cut_tie_picks_the_latest_position(self):
        traffic = np.zeros((4, 4))
        traffic[0][1] = 2.0
        traffic[1][2] = 2.0
        traffic[2][3] = 5.0
        model = make_model([0.25] * 4, traffic)
        chain = make_chain([(4.0, 0.75), (4.0, 1.0)], [1.0])
        got = heuristic.solve(model, chain, max_splits=2)
        # Cuts after layers 1 and 2 both forward 2 bits; the later one wins.
        assert got.solution.points == (2, 4)

    def test_moved_layers_are_rechecked_downstream(self):
        # Backtracking to the cheap early cut moves layers 2..3 to device 2,
        # which cannot hold both; the cascade must settle on device 3.
        traffic = np.zeros((4, 4))
        traffic[0][1] = 1.0
        traffic[1][2] = 5.0
        traffic[2][3] = 5.0
        model = make_model([0.25] * 4, traffic)
        chain = make_chain(
            [(4.0, 0.75), (4.0, 0.25), (4.0, 1.0)], [1.0, 1.0]
        )
        got = heuristic.solve(model, chain, max_splits=3)
        assert got.solution is not None
        assert list(got.solution.points) == reference_rescan(model, chain, 3)
        assert is_feasible(model, chain, got.solution).ok

    def test_first_layer_too_big_for_first_device(self):
        model = make_model([0.9, 0.1], np.zeros((2, 2)))
        chain = make_chain([(4.0, 0.5), (4.0, 2.0)], [1.0])
        got = heuristic.solve(model, chain, max_splits=2)
        assert got.solution is None

    def test_a_device_that_fits_nothing_fails_the_attempt(self):
        # Device 2 cannot take the overhang's first layer, and committing an
        # empty block for it is never allowed.
        model = make_model([0.5, 0.5, 0.5], np.zeros((3, 3)))
        chain = make_chain([(4.0, 1.0), (4.0, 0.25), (4.0, 2.0)], [1.0, 1.0])
        got = heuristic.solve(model, chain, max_splits=3)
        assert got.solution is None

    def test_may_use_fewer_partitions_than_allowed(self):
        model = make_model([0.25] * 4, np.zeros((4, 4)))
        chain = make_chain([(4.0, 1.0), (4.0, 1.0)], [1.0])
        got = heuristic.solve(model, chain, max_splits=2)
        assert got.solution.points == (4,)

    def test_rejects_out_of_range_num_splits(self):
        model = make_model([0.5] * 3, np.zeros((3, 3)))
        chain = make_chain([(4.0, 9.0), (4.0, 9.0)], [1.0])
        with pytest.raises(ValueError):
            heuristic.solve(model, chain, max_splits=0)


class TestAgainstReferenceRescan:
    def test_matches_the_literal_rescan_on_random_instances(self):
        rng = np.random.default_rng(90125)
        agreements = 0
        for _ in range(400):
            model, chain = random_instance(rng)
            limit = min(model.num_layers, chain.num_devices)
            for kappa in range(1, limit + 1):
                got = heuristic.solve(model, chain, max_splits=kappa)
                expected = reference_rescan(model, chain, kappa)
                if expected is None:
                    assert got.solution is None
                else:
                    assert got.solution is not None
                    assert list(got.solution.points) == expected
                    agreements += 1
        assert agreements > 150


class TestSolve:
    def test_stops_at_the_first_working_partition_count(self):
        model = make_model([0.25] * 4, np.zeros((4, 4)))
        chain = make_chain([(4.0, 1.0), (4.0, 1.0)], [1.0])
        got = heuristic.solve(model, chain)
        assert got.solution.points == (4,)
        assert got.trace.kappa_attempted == (1,)
        assert got.trace.outcome == "solution"

    def test_attempts_grow_until_success(self):
        model = make_model([0.5] * 4, np.zeros((4, 4)))
        chain = make_chain([(4.0, 1.0), (4.0, 1.0), (4.0, 2.0)], [1.0, 1.0])
        got = heuristic.solve(model, chain)
        assert got.trace.kappa_attempted == (1, 2)
        assert got.solution.kappa == 2

    def test_no_solution_reports_every_attempt(self):
        model = make_model([0.9, 0.9], np.zeros((2, 2)))
        chain = make_chain([(4.0, 0.5), (4.0, 0.5)], [1.0])
        got = heuristic.solve(model, chain)
        assert got.solution is None
        assert got.cost is None
        assert got.trace.outcome == "no-solution"
        assert got.trace.kappa_attempted == (1, 2)

    def test_max_splits_caps_the_attempts(self):
        model = make_model([0.5] * 4, np.zeros((4, 4)))
        chain = make_chain([(4.0, 1.0), (4.0, 1.0), (4.0, 2.0)], [1.0, 1.0])
        got = heuristic.solve(model, chain, max_splits=1)
        assert got.solution is None
        assert got.trace.kappa_attempted == (1,)

    def test_cost_matches_objective_of_the_solution(self):
        rng = np.random.default_rng(5150)
        for _ in range(80):
            model, chain = random_instance(rng)
            got = heuristic.solve(model, chain)
            if got.solution is None:
                continue
            assert got.cost.total == sum(got.cost.boundary_terms)
            assert len(got.cost.boundary_terms) == got.solution.kappa - 1

    def test_returned_solutions_are_always_feasible(self):
        rng = np.random.default_rng(77)
        feasible = 0
        for _ in range(400):
            model, chain = random_instance(rng)
            got = heuristic.solve(model, chain)
            if got.solution is None:
                continue
            assert is_feasible(model, chain, got.solution).ok
            assert got.solution.points[-1] == model.num_layers
            feasible += 1
        assert feasible > 150

    def test_never_beats_the_exact_solver(self):
        rng = np.random.default_rng(2501)
        compared = 0
        for _ in range(200):
            model, chain = random_instance(rng, max_layers=10, max_devices=4)
            got = heuristic.solve(model, chain)
            if got.solution is None:
                continue
            best = exact.solve(model, chain).best
            assert best is not None
            assert got.cost.total >= best.cost - 1e-9
            compared += 1
        assert compared > 80

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(31337)
        model, chain = random_instance(rng)
        first = heuristic.solve(model, chain)
        second = heuristic.solve(model, chain)
        assert first == second


class TestIterationAccounting:
    def test_budget_formulas(self):
        assert heuristic.iteration_budget(10, 3) == 12
        assert heuristic.total_iteration_budget(517, 5) == 2595
        for n in (1, 2, 9, 40):
            for k in (1, 2, 5):
                expected = sum(heuristic.iteration_budget(n, kappa) for kappa in range(1, k + 1))
                assert heuristic.total_iteration_budget(n, k) == expected

    def test_per_attempt_iterations_stay_within_budget(self):
        rng = np.random.default_rng(888)
        for _ in range(300):
            model, chain = random_instance(rng)
            got = heuristic.solve(model, chain)
            for kappa, count in zip(got.trace.kappa_attempted, got.trace.while_iterations):
                assert count <= heuristic.iteration_budget(model.num_layers, kappa)

    def test_total_iterations_stay_within_budget_when_all_attempts_fail(self):
        model = make_model([0.9, 0.9, 0.9], np.zeros((3, 3)))
        chain = make_chain([(4.0, 0.5)] * 3, [1.0, 1.0])
        got = heuristic.solve(model, chain)
        assert got.solution is None
        assert got.trace.total_iterations <= heuristic.total_iteration_budget(3, 3)


def reference_solve(model, chain, max_splits=None):
    """The per-count loop ``solve`` once ran: one scan per partition count
    (``solve`` limited to that count), smallest first, returning the first
    scan that places every layer."""
    limit = min(model.num_layers, chain.num_devices)
    if max_splits is not None:
        limit = min(limit, max_splits)
    attempted = []
    iteration_counts = []
    for num_splits in range(1, limit + 1):
        attempt = heuristic.solve(model, chain, max_splits=num_splits)
        attempted.append(num_splits)
        iteration_counts.append(attempt.trace.while_iterations[-1])
        if attempt.solution is not None:
            trace = heuristic.HeuristicTrace(
                kappa_attempted=tuple(attempted),
                while_iterations=tuple(iteration_counts),
                outcome="solution",
            )
            return heuristic.HeuristicResult(
                solution=attempt.solution,
                cost=heuristic.objective(model, chain, attempt.solution),
                trace=trace,
            )
    trace = heuristic.HeuristicTrace(
        kappa_attempted=tuple(attempted),
        while_iterations=tuple(iteration_counts),
        outcome="no-solution",
    )
    return heuristic.HeuristicResult(solution=None, cost=None, trace=trace)


def fractional_instance(rng, n=None, num_devices=None):
    """Fractional costs and unsorted random capacities: many greedy failures.

    The layer and device counts are drawn unless given.
    """
    if n is None:
        n = int(rng.integers(1, 41))
    if num_devices is None:
        num_devices = int(rng.integers(1, 8))
    mem = 1.0 - rng.random(n) * 0.99
    cpu = rng.uniform(0.05, 0.85, n)
    src, dst = np.nonzero(np.triu(rng.random((n, n)) < 0.4, k=1))
    model = FfnnModel(cpu, mem, src=src, dst=dst, bits=rng.random(len(src)))
    capacities = [
        (
            float(rng.uniform(0.4, 4.0) * cpu.sum() / num_devices),
            float(rng.uniform(0.4, 4.0) * mem.sum() / num_devices),
        )
        for _ in range(num_devices)
    ]
    rates = [float(rng.uniform(0.25, 2.0)) for _ in range(num_devices - 1)]
    return model, make_chain(capacities, rates)


class TestSingleScanAgainstPerCountReference:
    """``solve`` scans once; the per-count loop must give the same result.

    3,180 seeded instances (1,680 capacity ladders, 1,500 fractional), each
    solved without and with a random ``max_splits`` in 1..8."""

    @staticmethod
    def assert_same(model, chain, max_splits=None):
        got = heuristic.solve(model, chain, max_splits=max_splits)
        expected = reference_solve(model, chain, max_splits=max_splits)
        assert got.solution == expected.solution
        assert got.trace == expected.trace
        if expected.cost is None:
            assert got.cost is None
        else:
            assert got.cost.total == expected.cost.total
        return got

    def test_capacity_ladders(self):
        outcomes = {"solution": 0, "no-solution": 0}
        rng = np.random.default_rng(7001)
        for n in range(1, 41):
            for num_devices in range(1, 8):
                for skip in (0.0, 0.5, 1.0):
                    for _ in range(2):
                        model = generate_random_model(n, skip, rng)
                        chain = generate_device_chain(num_devices, model)
                        for max_splits in (None, int(rng.integers(1, 9))):
                            got = self.assert_same(model, chain, max_splits)
                            outcomes[got.trace.outcome] += 1
        assert sum(outcomes.values()) == 2 * 2 * 40 * 7 * 3
        assert outcomes["no-solution"] > 50

    def test_fractional_costs_with_random_capacities(self):
        outcomes = {"solution": 0, "no-solution": 0}
        kappas = set()
        rng = np.random.default_rng(7002)
        for _ in range(1500):
            model, chain = fractional_instance(rng)
            for max_splits in (None, int(rng.integers(1, 9))):
                got = self.assert_same(model, chain, max_splits)
                outcomes[got.trace.outcome] += 1
                if got.solution is not None:
                    kappas.add(got.solution.kappa)
        assert outcomes["solution"] > 500
        assert outcomes["no-solution"] > 500
        assert kappas >= {1, 2, 3, 4}

    def test_stacks_of_fractional_instances_match_row_by_row(self):
        # Each stack mixes rows that finish at different counts with rows
        # that fail at different devices.
        rng = np.random.default_rng(7003)
        outcomes = set()
        for n, num_devices in ((1, 3), (6, 1), (12, 4), (30, 7), (40, 5)):
            instances = [fractional_instance(rng, n, num_devices) for _ in range(60)]
            outcomes.update(assert_stack_matches_solve(*zip(*instances)))
        assert {kappa for outcome, kappa in outcomes if outcome == "solution"} >= {1, 2, 3, 4}
        assert {device for outcome, device in outcomes if outcome == "no-solution"} >= {
            1, 2, 3, 4
        }

    def test_a_failed_scan_reports_every_count_up_to_the_limit(self):
        # Layer 3 overflows device 1 at iteration 3 and device 2 at iteration
        # 4; device 2 then holds nothing, so the scan stops there, and the
        # scan limited to 3 devices stops at the same iteration.
        model = make_model([0.5, 0.5, 0.5], np.zeros((3, 3)))
        chain = make_chain([(4.0, 1.0), (4.0, 0.25), (4.0, 2.0)], [1.0, 1.0])
        got = self.assert_same(model, chain)
        assert got.trace.kappa_attempted == (1, 2, 3)
        assert got.trace.while_iterations == (3, 4, 4)
        assert got.trace.outcome == "no-solution"


# ``heuristic._scan`` as a layer-by-layer loop with running loads, kept
# verbatim (only renamed) from before the greedy became one block search
# per device.  Nothing else checks the closed-form trace against a literal
# scan.
def layer_scan(
    model: FfnnModel, chain: DeviceChain, num_splits: int
) -> tuple[tuple[int, ...] | None, int, list[int]]:
    """The greedy scan on at most ``num_splits`` devices.

    Returns the splitting points (None when the scan runs out of devices),
    the loop iteration count, and ``needed``: ``needed[k - 1]`` is the
    iteration count at which the scan first needed device ``k + 1``, which
    is where the same scan limited to ``k`` devices stops.
    """
    n = model.num_layers
    # Plain lists index faster than arrays in the scan below; the model
    # builds each array once, so a scan only copies them out.
    cpu = model.cpu.tolist()
    mem = model.mem.tolist()
    prefix_cpu = model.prefix_cpu.tolist()
    prefix_mem = model.prefix_mem.tolist()
    cut = cut_traffic_table(model).tolist()
    cpu_cap = chain.cpu_capacity.tolist()
    mem_cap = chain.mem_capacity.tolist()

    committed: list[int] = []
    needed: list[int] = []
    device = 1  # 1-based index of the device being filled
    block_start = 1  # first layer of that device's block
    accepted = 0  # last layer accepted on it (0 = none yet)
    cpu_load = 0.0  # its running cpu load
    mem_load = 0.0  # its running memory load
    layer = 1
    iterations = 0

    while layer <= n:
        iterations += 1
        if (
            cpu_load + cpu[layer - 1] <= cpu_cap[device - 1]
            and mem_load + mem[layer - 1] <= mem_cap[device - 1]
        ):
            accepted = layer
            cpu_load += cpu[layer - 1]
            mem_load += mem[layer - 1]
            layer += 1
            continue
        # The layer does not fit: commit a split for this device and move the
        # overhang to the next one, cascading while the overhang overflows.
        while True:
            needed.append(iterations)
            if device + 1 > num_splits:
                return None, iterations, needed
            if accepted < block_start:
                # Nothing was ever accepted here; committing now would leave
                # the device without layers, which no valid split allows.
                return None, iterations, needed
            best = block_start
            for p in range(block_start + 1, accepted + 1):
                if cut[p] <= cut[best]:
                    best = p
            committed.append(best)
            device += 1
            block_start = best + 1
            # Layers best+1 .. layer-1 move onto the new device.
            accepted = best
            overflowed = False
            for p in range(best + 1, layer):
                if (
                    prefix_cpu[p] - prefix_cpu[best] > cpu_cap[device - 1]
                    or prefix_mem[p] - prefix_mem[best] > mem_cap[device - 1]
                ):
                    overflowed = True
                    break
                accepted = p
            cpu_load = prefix_cpu[accepted] - prefix_cpu[best]
            mem_load = prefix_mem[accepted] - prefix_mem[best]
            if not overflowed:
                break
        # Retry the same layer on the device the cascade settled on.

    return tuple(committed) + (n,), iterations, needed


class TestClosedFormAgainstLayerScan:
    """Points, iteration count and ``needed`` match the literal scan."""

    @staticmethod
    def assert_same(model, chain):
        limit = min(model.num_layers, chain.num_devices)
        for num_splits in range(1, limit + 1):
            got = heuristic._scan(model, chain, num_splits)
            assert got == layer_scan(model, chain, num_splits)
        return got[0] is None

    def test_capacity_ladders(self):
        failures = 0
        rng = np.random.default_rng(7003)
        for n in range(1, 41):
            for num_devices in range(1, 8):
                for skip in (0.0, 0.5, 1.0):
                    model = generate_random_model(n, skip, rng)
                    failures += self.assert_same(model, generate_device_chain(num_devices, model))
        assert failures > 50

    def test_fractional_costs_with_random_capacities(self):
        failures = 0
        rng = np.random.default_rng(7004)
        for _ in range(1500):
            failures += self.assert_same(*fractional_instance(rng))
        assert failures > 500

    def test_retrying_the_layer_a_cascade_settled_on(self):
        # Device 2 takes the moved layers 2..3 and no more, so the scan fails
        # on layer 4 again: a new failed check at the layer it overflowed.
        traffic = np.zeros((4, 4))
        traffic[0][1] = 1.0
        traffic[1][2] = 5.0
        traffic[2][3] = 5.0
        model = make_model([0.25] * 4, traffic)
        chain = make_chain([(4.0, 0.75), (4.0, 0.5), (4.0, 1.0)], [1.0, 1.0])
        got = heuristic._scan(model, chain, 3)
        assert got == layer_scan(model, chain, 3)
        assert got == ((1, 3, 4), 6, [4, 5])


class TestZeroLayerModel:
    def test_both_solvers_find_no_solution(self):
        model = FfnnModel([], [])
        chain = make_chain([(1.0, 1.0)], [])
        got = heuristic.solve(model, chain)
        assert got.solution is None and got.cost is None
        assert got.trace == heuristic.HeuristicTrace(
            kappa_attempted=(), while_iterations=(), outcome="no-solution"
        )
        assert exact.solve(model, chain) == exact.ExactResult(per_kappa={}, best=None)
