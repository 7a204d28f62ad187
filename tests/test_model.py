import numpy as np
import pytest

from splitplan.model import (
    DeviceChain,
    FfnnModel,
    SplitSolution,
    max_split_count,
    partition,
    validate_chain,
    validate_model,
)


def make_model(mem_costs, traffic=None, cpu_costs=None):
    n = len(mem_costs)
    if cpu_costs is None:
        cpu_costs = [1.0] * n
    if traffic is None:
        traffic = np.zeros((n, n))
    return FfnnModel.from_matrix(cpu_costs, mem_costs, traffic)


class TestSplitSolution:
    def test_points_are_stored_as_tuple(self):
        x = SplitSolution(points=[1, 3, 5])
        assert x.points == (1, 3, 5)
        assert x.kappa == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SplitSolution(points=())

    @pytest.mark.parametrize("points", [(2, 2), (3, 1), (1, 4, 4), (5, 2, 8)])
    def test_rejects_non_increasing(self, points):
        with pytest.raises(ValueError):
            SplitSolution(points=points)

    def test_rejects_non_positive_first_point(self):
        with pytest.raises(ValueError):
            SplitSolution(points=(0, 2))

    def test_immutable(self):
        x = SplitSolution(points=(1, 2))
        with pytest.raises(AttributeError):
            x.points = (1, 3)


class TestPartition:
    def test_single_device_takes_everything(self):
        got = partition(SplitSolution(points=(4,)), num_layers=4)
        assert got == (range(1, 5),)

    def test_three_way_split(self):
        got = partition(SplitSolution(points=(1, 3, 6)), num_layers=6)
        assert got == (range(1, 2), range(2, 4), range(4, 7))

    def test_rejects_terminal_mismatch(self):
        with pytest.raises(ValueError):
            partition(SplitSolution(points=(1, 3)), num_layers=4)

    def test_random_solutions_cover_disjointly(self):
        # Blocks must be non-empty, pairwise disjoint, and cover 1..n exactly.
        rng = np.random.default_rng(2203)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            kappa = int(rng.integers(1, n + 1))
            interior = sorted(rng.choice(np.arange(1, n), size=kappa - 1, replace=False))
            x = SplitSolution(points=tuple(int(p) for p in interior) + (n,))
            got = partition(x, num_layers=n)
            assert len(got) == kappa
            seen: list[int] = []
            for block in got:
                assert len(block) >= 1
                seen.extend(block)
            assert seen == list(range(1, n + 1))

    def test_block_ends_equal_the_splitting_points(self):
        x = SplitSolution(points=(2, 5, 9))
        got = partition(x, num_layers=9)
        assert tuple(block[-1] for block in got) == x.points


class TestFfnnModel:
    def test_traffic_is_read_only(self):
        model = make_model([0.5, 0.5], traffic=[[0, 1], [0, 0]])
        for array in (model.src, model.dst, model.bits):
            with pytest.raises(ValueError):
                array[0] = 3

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_model([0.5, 0.5], traffic=np.zeros((3, 3)))

    def test_equality_covers_traffic(self):
        a = make_model([0.5, 0.5], traffic=[[0, 1], [0, 0]])
        b = make_model([0.5, 0.5], traffic=[[0, 1], [0, 0]])
        c = make_model([0.5, 0.5], traffic=[[0, 2], [0, 0]])
        assert a == b
        assert a != c

    def test_cost_arrays(self):
        # Read-only float64 copies of whatever sequences were passed in.
        cpu = [0.5, 1]
        mem = np.array([0.25, 0.75])
        model = FfnnModel(cpu, mem)
        mem[0] = 9.0
        assert model.cpu.tolist() == [0.5, 1.0]
        assert model.mem.tolist() == [0.25, 0.75]
        for array in (model.cpu, model.mem):
            assert array.dtype == np.float64
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_names_default_to_none(self):
        assert FfnnModel([1.0, 1.0], [0.5, 0.5]).names == (None, None)
        named = FfnnModel([1.0, 1.0], [0.5, 0.5], ["in", None])
        assert named.names == ("in", None)
        assert named.num_layers == 2

    @pytest.mark.parametrize(
        "cpu, mem, names",
        [
            ([1.0, 1.0], [0.5], None),
            ([1.0], [0.5, 0.5], None),
            ([1.0, 1.0], [0.5, 0.5], ["only"]),
            ([1.0], [0.5], ["a", "b"]),
        ],
    )
    def test_layer_arrays_of_different_lengths_raise(self, cpu, mem, names):
        with pytest.raises(ValueError, match="layer arrays differ in length"):
            FfnnModel(cpu, mem, names)

    def test_equality_covers_costs_and_names(self):
        base = FfnnModel([1.0, 1.0], [0.5, 0.5], ["a", "b"])
        assert base == FfnnModel([1.0, 1.0], [0.5, 0.5], ["a", "b"])
        assert base != FfnnModel([1.0, 1.0], [0.5, 0.5], ["a", "c"])
        assert base != FfnnModel([1.0, 1.0], [0.5, 0.5])
        assert base != FfnnModel([1.0, 0.5], [0.5, 0.5], ["a", "b"])
        assert base != FfnnModel([1.0, 1.0], [0.5, 0.25], ["a", "b"])

    def test_prefix_sums_are_cached_left_to_right_sums(self):
        cpu = [0.1, 0.2, 0.3, 0.7]
        mem = [0.3, 0.1, 0.6, 0.2]
        model = make_model(mem, cpu_costs=cpu)
        assert model.prefix_cpu is model.prefix_cpu
        running = 0.0
        for p in range(1, 5):
            running += cpu[p - 1]
            assert model.prefix_cpu[p] == running
        assert model.prefix_mem.tolist() == [0.0, 0.3, 0.4, 1.0, 1.2]
        with pytest.raises(ValueError):
            model.prefix_mem[1] = 0.0

    def test_cost_totals_are_cached_numpy_sums(self):
        rng = np.random.default_rng(31)
        for n in (1, 7, 8, 9, 127, 128, 129, 1000):
            mem = (1.0 - rng.random(n) * 0.99).tolist()
            model = make_model(mem, cpu_costs=rng.random(n).tolist())
            assert "cpu_total" not in vars(model) and "mem_total" not in vars(model)
            cpu_total, mem_total = model.cpu_total, model.mem_total
            # Built once: later reads return the very object of the first.
            assert model.cpu_total is cpu_total
            assert model.mem_total is mem_total
            assert type(cpu_total) is float and type(mem_total) is float
            assert cpu_total == float(np.sum(model.cpu))
            assert mem_total == float(np.sum(model.mem))


class TestEdgeArrays:
    COSTS = [0.5] * 4

    def test_edges_are_sorted_row_major_and_zeros_dropped(self):
        nan = float("nan")
        model = FfnnModel(
            self.COSTS,
            self.COSTS,
            src=[2, 0, 1, 0, 0, 1, 3],
            dst=[3, 3, 2, 1, 2, 3, 0],
            bits=[5.0, 4.0, -0.0, 1.0, 0.0, nan, 2.0],
        )
        assert model.src.tolist() == [0, 0, 1, 2, 3]
        assert model.dst.tolist() == [1, 3, 3, 3, 0]
        assert model.bits[[0, 1, 3, 4]].tolist() == [1.0, 4.0, 5.0, 2.0]
        assert np.isnan(model.bits[2])

    def test_edge_order_does_not_change_the_model(self):
        a = FfnnModel(self.COSTS, self.COSTS, src=[0, 1, 0], dst=[1, 3, 2], bits=[1.0, 2.0, 3.0])
        b = FfnnModel(self.COSTS, self.COSTS, src=[1, 0, 0], dst=[3, 2, 1], bits=[2.0, 3.0, 1.0])
        matrix = np.zeros((4, 4))
        matrix[0, 1], matrix[1, 3], matrix[0, 2] = 1.0, 2.0, 3.0
        assert a == b == FfnnModel.from_matrix(self.COSTS, self.COSTS, matrix)

    def test_inputs_are_copied(self):
        bits = np.array([1.0, 2.0])
        model = FfnnModel(self.COSTS, self.COSTS, src=[0, 1], dst=[1, 2], bits=bits)
        bits[0] = 9.0
        assert model.bits.tolist() == [1.0, 2.0]

    def test_no_edges_means_no_traffic(self):
        model = FfnnModel(self.COSTS, self.COSTS)
        assert model.cut_table.tolist() == [0.0] * 5
        assert validate_model(model).ok

    @pytest.mark.parametrize(
        "src, dst, match",
        [
            ([0, 1, 0], [1, 2, 1], "duplicate edge"),
            ([0, 2, 2], [1, 3, 3], "duplicate edge"),
            ([0, 4], [1, 2], "outside 0..3"),
            ([0, 1], [1, 4], "outside 0..3"),
            ([0, -1], [1, 2], "outside 0..3"),
            ([0, 1], [-3, 2], "outside 0..3"),
        ],
    )
    def test_structural_errors_raise(self, src, dst, match):
        with pytest.raises(ValueError, match=match):
            FfnnModel(self.COSTS, self.COSTS, src=src, dst=dst, bits=[1.0] * len(src))

    def test_a_duplicate_is_an_error_even_with_zero_bits(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            FfnnModel(self.COSTS, self.COSTS, src=[0, 0], dst=[1, 1], bits=[0.0, 1.0])

    def test_mismatched_or_non_integer_arrays_raise(self):
        with pytest.raises(ValueError, match="differ in length"):
            FfnnModel(self.COSTS, self.COSTS, src=[0, 1], dst=[1], bits=[1.0, 1.0])
        with pytest.raises(ValueError, match="integers"):
            FfnnModel(self.COSTS, self.COSTS, src=[0.0], dst=[1], bits=[1.0])
        with pytest.raises(ValueError, match="integers"):
            FfnnModel(self.COSTS, self.COSTS, src=[0], dst=[True], bits=[1.0])


class TestValidateModel:
    def test_clean_model_passes(self):
        model = make_model([0.5, 0.5], traffic=[[0, 1], [0, 0]])
        report = validate_model(model)
        assert report.ok
        assert report.violations == ()

    def test_lower_triangular_traffic_is_reported(self):
        model = make_model([0.5, 0.5], traffic=[[0, 0], [1, 0]])
        report = validate_model(model)
        assert not report.ok
        assert "lower-triangular traffic at (2,1)" in report.violations

    def test_diagonal_traffic_is_reported(self):
        model = make_model([0.5, 0.5], traffic=[[1, 0], [0, 0]])
        report = validate_model(model)
        assert "diagonal traffic at (1,1)" in report.violations

    def test_negative_traffic_is_reported(self):
        model = make_model([0.5, 0.5], traffic=[[0, -2], [0, 0]])
        report = validate_model(model)
        assert "negative traffic at (1,2)" in report.violations

    def test_traffic_violations_are_listed_in_row_major_order(self):
        nan, inf = float("nan"), float("inf")
        traffic = [
            [nan, 2.0, -1.0, inf],
            [0.0, 0.0, -0.0, nan],
            [3.0, 0.0, 0.0, 1.0],
            [nan, -0.0, 0.0, 0.0],
        ]
        report = validate_model(make_model([0.5] * 4, traffic=traffic))
        # -0.0 equals zero, so neither of its cells is reported.
        assert report.violations == (
            "diagonal traffic at (1,1)",
            "negative traffic at (1,3)",
            "negative traffic at (1,4)",
            "negative traffic at (2,4)",
            "lower-triangular traffic at (3,1)",
            "lower-triangular traffic at (4,1)",
        )

    def test_a_cut_that_overflows_is_reported_once(self):
        # Finite edges whose sum at a split exceeds the float range: the
        # cut table reads [0, 1e308, inf, nan, 0].
        model = FfnnModel(
            [0.5] * 4, [0.5] * 4, src=[0, 1, 2], dst=[2, 2, 3], bits=[1e308, 1e308, 1.0]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = validate_model(model)
        assert report.violations == (
            "traffic crossing a split after layer 2 is inf, not finite",
        )

    def test_cost_ranges_are_reported(self):
        model = make_model([1.5, 0.5], cpu_costs=[1.0, 2.0])
        report = validate_model(model)
        assert "layer 1 mem_cost 1.5 outside (0, 1]" in report.violations
        assert "layer 2 cpu_cost 2.0 outside [0, 1]" in report.violations

    def test_zero_mem_cost_is_reported(self):
        model = make_model([0.0, 0.5])
        report = validate_model(model)
        assert "layer 1 mem_cost 0.0 outside (0, 1]" in report.violations

    def test_cost_violations_are_listed_layer_by_layer_cpu_first(self):
        nan = float("nan")
        model = make_model([0.5, 0.0, 2.0, nan], cpu_costs=[1.5, 0.5, nan, -0.25])
        assert validate_model(model).violations == (
            "layer 1 cpu_cost 1.5 outside [0, 1]",
            "layer 2 mem_cost 0.0 outside (0, 1]",
            "layer 3 cpu_cost nan outside [0, 1]",
            "layer 3 mem_cost 2.0 outside (0, 1]",
            "layer 4 cpu_cost -0.25 outside [0, 1]",
            "layer 4 mem_cost nan outside (0, 1]",
        )


class TestDeviceChain:
    def test_link_count_must_match(self):
        with pytest.raises(ValueError, match="2 devices need 1 links, got 0"):
            DeviceChain([1, 1], [1, 1], [])

    def test_rejects_zero_rate_link(self):
        with pytest.raises(ValueError, match=r"link 1->2 rate must be > 0, got 0.0"):
            DeviceChain([1, 1], [1, 1], [0.0])

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="cpu_capacity must be finite and >= 0, got -1.0"):
            DeviceChain([-1.0], [0.5], [])

    def test_needs_a_device(self):
        with pytest.raises(ValueError, match="at least one device"):
            DeviceChain([], [], [])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("label", ["cpu", "mem"])
    def test_rejects_a_bad_capacity(self, label, value):
        capacities = {"cpu": [1.0, 1.0], "mem": [1.0, 1.0]}
        capacities[label][1] = value
        with pytest.raises(ValueError, match=f"{label}_capacity must be finite and >= 0"):
            DeviceChain(capacities["cpu"], capacities["mem"], [1.0])

    @pytest.mark.parametrize("rate", [np.nan, 0.0, -1.0, np.inf])
    def test_rejects_a_bad_link_rate(self, rate):
        with pytest.raises(ValueError, match=r"link 2->3 rate must be > 0"):
            DeviceChain([1, 1, 1], [1, 1, 1], [1.0, rate])

    @pytest.mark.parametrize("cpu, mem", [([1, 1], [1]), ([1], [1, 1]), ([], [1])])
    def test_rejects_capacity_arrays_of_different_lengths(self, cpu, mem):
        with pytest.raises(ValueError, match="capacity arrays differ in length"):
            DeviceChain(cpu, mem, [1.0] * (len(cpu) - 1))

    @pytest.mark.parametrize("field", ["cpu_capacity", "mem_capacity", "link_rate"])
    def test_arrays_are_read_only(self, field):
        chain = DeviceChain([1, 2], [3, 4], [5])
        array = getattr(chain, field)
        assert array.dtype == np.float64
        with pytest.raises(ValueError):
            array[0] = 0.5

    def test_keeps_its_own_copies(self):
        cpu = np.array([1.0, 2.0])
        chain = DeviceChain(cpu, [3, 4], [5])
        cpu[0] = 9.0
        assert chain.cpu_capacity.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("field, index", [
        ("cpu_capacity", 0), ("mem_capacity", 1), ("link_rate", 0)
    ])
    def test_equality_compares_the_arrays(self, field, index):
        values = {"cpu_capacity": [1, 2], "mem_capacity": [3, 4], "link_rate": [5]}
        chain = DeviceChain(**values)
        assert chain == DeviceChain([1.0, 2.0], np.array([3.0, 4.0]), (5.0,))
        values[field][index] += 0.5
        assert chain != DeviceChain(**values)

    @pytest.mark.parametrize("other", [None, 1.0, ([1.0], [1.0], [])])
    def test_equality_with_other_types_is_not_implemented(self, other):
        chain = DeviceChain([1.0], [1.0], [])
        assert chain.__eq__(other) is NotImplemented
        assert chain != other

    def test_single_device_chain_has_no_links(self):
        chain = DeviceChain([1], [1], [])
        assert chain.num_devices == 1
        assert chain.link_rate.shape == (0,)

    def test_zero_capacity_device_warns(self):
        chain = DeviceChain([0.0, 1], [1, 1], [1.0])
        report = validate_chain(chain)
        assert report.ok
        assert any("device 1" in w and "zero capacity" in w for w in report.warnings)

    def test_unnormalized_capacity_warns(self):
        chain = DeviceChain([1, 1], [4.0, 8.0], [1.0])
        report = validate_chain(chain)
        assert len(report.warnings) == 2


class TestMaxSplitCount:
    def test_limited_by_devices(self):
        model = make_model([0.5] * 6)
        chain = DeviceChain([1, 1], [1, 1], [1.0])
        assert max_split_count(model, chain) == 2

    def test_limited_by_layers(self):
        model = make_model([0.5, 0.5])
        chain = DeviceChain([1, 1, 1], [1, 1, 1], [1.0, 1.0])
        assert max_split_count(model, chain) == 2
