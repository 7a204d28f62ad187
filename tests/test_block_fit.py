"""Capacities that sit exactly on a block's sum, or one float step off it.

``cost`` states one block-fit rule that ``is_feasible`` (and through it the
enumeration), the DP and the greedy all apply.  Costs like 0.1 do not sum
exactly, so a capacity set to a block's Python ``sum`` lands on the rounding
boundary where three separate codings of "fits" used to disagree.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from splitplan import exact, heuristic
from splitplan.cost import block_threshold, is_feasible
from splitplan.model import DeviceChain, FfnnModel, SplitSolution
from greedy_stacks import assert_stack_matches_solve


def block_sum_capacity(costs, rng):
    """The Python ``sum`` of a random non-empty block of ``costs``."""
    start = int(rng.integers(0, len(costs)))
    stop = int(rng.integers(start + 1, len(costs) + 1))
    return sum(costs[start:stop])


def boundary_instance(rng):
    n = int(rng.integers(2, 12))
    num_devices = int(rng.integers(2, 5))
    cpu = rng.uniform(0.05, 1.0, n).tolist()
    mem = rng.uniform(0.05, 1.0, n).tolist()
    src, dst = np.nonzero(np.triu(rng.random((n, n)) < 0.5, k=1))
    model = FfnnModel(cpu, mem, src=src, dst=dst, bits=rng.uniform(0.0, 10.0, len(src)))
    capacities = [
        (block_sum_capacity(cpu, rng), block_sum_capacity(mem, rng))
        for _ in range(num_devices)
    ]
    return model, chain_of(capacities, rng.uniform(0.25, 2.0, num_devices - 1))


def chain_of(capacities, rates):
    """A chain of the (cpu, mem) ``capacities`` pairs, in order."""
    return DeviceChain([cpu for cpu, _ in capacities], [mem for _, mem in capacities], rates)


def assert_solvers_agree(model, chain):
    """DP against enumeration for every count, and a feasible greedy plan.

    Returns the number of counts with a feasible split.
    """
    feasible = 0
    for kappa in range(1, min(model.num_layers, chain.num_devices) + 1):
        got = exact.solve_fixed_splits(model, chain, kappa)
        expected = exact.brute_force_fixed_splits(model, chain, kappa)
        assert (got is None) == (expected is None), (kappa, got, expected)
        if expected is not None:
            assert got.cost == expected.cost
            assert is_feasible(model, chain, got.solution).ok
            feasible += 1
    greedy = heuristic.solve(model, chain)
    if greedy.solution is not None:
        assert is_feasible(model, chain, greedy.solution).ok
    return feasible


def test_block_sum_capacities_fuzz():
    rng = np.random.default_rng(1717)
    feasible = 0
    shapes = {}
    for _ in range(3000):
        model, chain = boundary_instance(rng)
        feasible += assert_solvers_agree(model, chain)
        shape = (model.num_layers, chain.num_devices)
        shapes.setdefault(shape, []).append((model, chain))
    assert feasible > 300
    # The stacked greedy, one stack per shape: rows that finish at different
    # counts beside rows that fail at different devices.
    outcomes = set()
    for instances in shapes.values():
        outcomes.update(assert_stack_matches_solve(*zip(*instances)))
    assert {kappa for outcome, kappa in outcomes if outcome == "solution"} >= {1, 2, 3}
    assert {device for outcome, device in outcomes if outcome == "no-solution"} >= {1, 2, 3}


def test_threshold_rule_is_inclusive():
    prefix = [0.0, 0.25, 1.0]
    assert prefix[1] >= block_threshold(prefix[2], 0.75)
    assert not prefix[1] >= block_threshold(prefix[2], math.nextafter(0.75, 0.0))
    assert np.array_equal(
        block_threshold(np.array(prefix), np.array([[0.25], [0.75]])),
        np.array([[-0.25, 0.0, 0.75], [-0.75, -0.5, 0.25]]),
    )


def test_rule_reads_the_prefix_sums_not_the_block_alone():
    # 0.1 + 0.2 rounds above 0.3, so on these prefix sums a layer of 0.2
    # after one of 0.1 needs a little more than 0.2, and every solver agrees.
    model = FfnnModel([1.0, 1.0], [0.1, 0.2])
    chain = DeviceChain([1.0, 1.0], [0.1, 0.2], [1.0])
    got = is_feasible(model, chain, SplitSolution(points=(1, 2)))
    assert (got.ok, got.device, got.constraint) == (False, 2, "mem")
    assert heuristic.solve(model, chain).solution is None
    assert exact.solve(model, chain).best is None
    assert exact.brute_force_fixed_splits(model, chain, 2) is None


costs = st.floats(min_value=0.05, max_value=1.0)
steps = st.sampled_from((-1, 0, 1))


@st.composite
def on_boundary(draw, values):
    """A block sum of ``values``, or the float one step below or above it."""
    start = draw(st.integers(0, len(values) - 1))
    stop = draw(st.integers(start + 1, len(values)))
    capacity = sum(values[start:stop])
    step = draw(steps)
    return math.nextafter(capacity, step * math.inf) if step else capacity


@st.composite
def boundary_instances(draw):
    n = draw(st.integers(2, 8))
    cpu = draw(st.lists(costs, min_size=n, max_size=n))
    mem = draw(st.lists(costs, min_size=n, max_size=n))
    num_devices = draw(st.integers(1, 4))
    capacities = [
        (draw(on_boundary(cpu)), draw(on_boundary(mem))) for _ in range(num_devices)
    ]
    bits = draw(st.lists(st.floats(0.0, 10.0), min_size=n - 1, max_size=n - 1))
    model = FfnnModel(cpu, mem, src=np.arange(n - 1), dst=np.arange(1, n), bits=bits)
    rates = draw(
        st.lists(st.floats(0.25, 2.0), min_size=num_devices - 1, max_size=num_devices - 1)
    )
    return model, chain_of(capacities, rates)


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(boundary_instances())
def test_solvers_agree_on_and_next_to_block_sums(instance):
    assert_solvers_agree(*instance)
    assert_stack_matches_solve(*zip(instance))


def block_fits(model, capacity, q, p):
    """``is_feasible`` on block ``q+1..p`` of a device of (cpu, mem) ``capacity``.

    The other blocks go on ample devices.
    """
    n = model.num_layers
    ample = (n, n)
    points = ((q,) if q else ()) + (p,) + ((n,) if p < n else ())
    capacities = ((ample,) if q else ()) + (capacity,) + ((ample,) if p < n else ())
    chain = chain_of(capacities, (1.0,) * (len(capacities) - 1))
    return is_feasible(model, chain, SplitSolution(points=points)).ok


@SETTINGS
@given(boundary_instances())
def test_greedy_blocks_end_where_is_feasible_stops(instance):
    # Each device takes layers while ``is_feasible`` accepts its block, then
    # splits at the latest of the cheapest cuts it took.
    model, chain = instance
    n = model.num_layers
    cut = model.cut_table.tolist()
    expected = None
    points = []
    for capacity in list(zip(chain.cpu_capacity, chain.mem_capacity))[:n]:
        start = points[-1] + 1 if points else 1
        end = start - 1
        while end < n and block_fits(model, capacity, start - 1, end + 1):
            end += 1
        if end == n:
            expected = SplitSolution(points=tuple(points) + (n,))
            break
        if end < start:
            break
        points.append(min(range(end, start - 1, -1), key=cut.__getitem__))
    assert heuristic.solve(model, chain).solution == expected
