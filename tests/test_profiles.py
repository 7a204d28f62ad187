import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from splitplan.cost import cut_traffic_table
from splitplan.model import validate_model
from splitplan.profiles import (
    NormalizationFactors,
    ProfileFormatError,
    RawEdge,
    RawLayerProfile,
    load_chain,
    load_model,
    load_profile,
    normalize,
    save_chain,
    save_model,
)
from splitplan.scenarios import generate_device_chain, generate_random_model, iteration_rng
from traffic_views import dense_traffic

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_profile(tmp_path, layers, version=1, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"version": version, "layers": layers}))
    return path


def linear_layers(params):
    layers = []
    for i, count in enumerate(params):
        successors = []
        if i + 1 < len(params):
            successors.append({"to": f"layer{i + 1}", "bits": "derive"})
        layers.append(
            {"name": f"layer{i}", "trainable_params": count, "successors": successors}
        )
    return layers


class TestLoadProfile:
    def test_three_layer_linear_chain(self, tmp_path):
        path = write_profile(tmp_path, linear_layers([100, 300, 600]))
        rows = load_profile(path)
        assert [r.name for r in rows] == ["layer0", "layer1", "layer2"]
        assert [r.trainable_params for r in rows] == [100, 300, 600]
        assert rows[0].successors == (RawEdge(to="layer1", bits=None),)
        assert rows[2].successors == ()

    def test_explicit_bits_are_kept(self, tmp_path):
        layers = linear_layers([10, 20])
        layers[0]["successors"][0]["bits"] = 1234.5
        rows = load_profile(write_profile(tmp_path, layers))
        assert rows[0].successors == (RawEdge(to="layer1", bits=1234.5),)

    def test_missing_bits_field_means_derive(self, tmp_path):
        layers = linear_layers([10, 20])
        del layers[0]["successors"][0]["bits"]
        rows = load_profile(write_profile(tmp_path, layers))
        assert rows[0].successors[0].bits is None

    def test_large_profile_is_accepted(self, tmp_path):
        rows = load_profile(write_profile(tmp_path, linear_layers([1000] * 177)))
        assert len(rows) == 177

    def test_rejects_backward_edge(self, tmp_path):
        layers = linear_layers([1, 2, 3])
        layers[2]["successors"] = [{"to": "layer0", "bits": "derive"}]
        with pytest.raises(ProfileFormatError, match="backward edge"):
            load_profile(write_profile(tmp_path, layers))

    def test_rejects_self_edge(self, tmp_path):
        layers = linear_layers([1, 2])
        layers[1]["successors"] = [{"to": "layer1", "bits": "derive"}]
        with pytest.raises(ProfileFormatError, match="backward edge"):
            load_profile(write_profile(tmp_path, layers))

    def test_rejects_unknown_target(self, tmp_path):
        layers = linear_layers([1, 2])
        layers[0]["successors"] = [{"to": "missing", "bits": "derive"}]
        with pytest.raises(ProfileFormatError, match="unknown edge target"):
            load_profile(write_profile(tmp_path, layers))

    def test_rejects_duplicate_names(self, tmp_path):
        layers = linear_layers([1, 2])
        layers[1]["name"] = "layer0"
        layers[0]["successors"] = []
        with pytest.raises(ProfileFormatError, match="duplicate layer name"):
            load_profile(write_profile(tmp_path, layers))

    def test_rejects_duplicate_edge_targets(self, tmp_path):
        layers = linear_layers([1, 2])
        layers[0]["successors"].append({"to": "layer1", "bits": 5})
        with pytest.raises(ProfileFormatError, match="twice"):
            load_profile(write_profile(tmp_path, layers))

    @pytest.mark.parametrize("params", [-1, 2.5, True, "many"])
    def test_rejects_bad_parameter_counts(self, tmp_path, params):
        layers = linear_layers([1, 2])
        layers[0]["trainable_params"] = params
        with pytest.raises(ProfileFormatError, match="trainable_params"):
            load_profile(write_profile(tmp_path, layers))

    def test_rejects_negative_bits(self, tmp_path):
        layers = linear_layers([1, 2])
        layers[0]["successors"][0]["bits"] = -4
        with pytest.raises(ProfileFormatError, match="bits"):
            load_profile(write_profile(tmp_path, layers))

    def test_rejects_wrong_version(self, tmp_path):
        path = write_profile(tmp_path, linear_layers([1]), version=99)
        with pytest.raises(ProfileFormatError, match="version"):
            load_profile(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        with pytest.raises(ProfileFormatError, match="not valid JSON"):
            load_profile(path)

    def test_rejects_empty_layer_list(self, tmp_path):
        with pytest.raises(ProfileFormatError, match="non-empty"):
            load_profile(write_profile(tmp_path, []))


class TestNormalize:
    def chain3(self):
        return [
            RawLayerProfile(
                name="a", trainable_params=100, successors=(RawEdge(to="b"),)
            ),
            RawLayerProfile(
                name="b", trainable_params=300, successors=(RawEdge(to="c"),)
            ),
            RawLayerProfile(name="c", trainable_params=600),
        ]

    def test_costs_divide_by_the_largest_device_capacity(self):
        model, chain, factors = normalize(
            self.chain3(), [(300.0, 500.0), (600.0, 1000.0)], [2.0e6]
        )
        assert factors.cpu_factor == 600.0
        assert factors.mem_factor == 1000.0
        assert factors.bandwidth_factor == 2.0e6
        assert model.cpu.tolist() == [100 / 600, 300 / 600, 600 / 600]
        assert model.mem.tolist() == [0.1, 0.3, 0.6]
        assert model.names == ("a", "b", "c")

    def test_single_device_normalizes_itself_to_one(self):
        model, chain, factors = normalize(self.chain3(), [(750.0, 2000.0)], [])
        assert chain.cpu_capacity.tolist() == [1.0]
        assert chain.mem_capacity.tolist() == [1.0]
        assert factors.bandwidth_factor == 1.0
        assert chain.link_rate.tolist() == []

    def test_capacities_and_rates_land_in_unit_range(self):
        _, chain, _ = normalize(
            self.chain3(),
            [(100.0, 400.0), (300.0, 800.0), (600.0, 1600.0)],
            [5.0e6, 1.0e7],
        )
        for capacities in (chain.cpu_capacity, chain.mem_capacity):
            assert ((0.0 < capacities) & (capacities <= 1.0)).all()
            assert capacities.max() == 1.0
        assert chain.link_rate.tolist() == [0.5, 1.0]

    def test_derive_edges_carry_the_normalized_source_footprint(self):
        model, _, _ = normalize(self.chain3(), [(600.0, 1000.0)], [])
        assert dense_traffic(model)[0][1] == model.mem[0]
        assert dense_traffic(model)[1][2] == model.mem[1]

    def test_explicit_bits_divide_by_the_memory_factor(self):
        raw = [
            RawLayerProfile(
                name="a", trainable_params=100, successors=(RawEdge(to="b", bits=250.0),)
            ),
            RawLayerProfile(name="b", trainable_params=300),
        ]
        model, _, _ = normalize(raw, [(600.0, 1000.0)], [])
        assert dense_traffic(model)[0][1] == 0.25

    def test_normalized_model_validates(self):
        model, _, _ = normalize(
            self.chain3(), [(300.0, 500.0), (600.0, 1000.0)], [1.0e6]
        )
        assert validate_model(model).ok

    def test_denormalization_reproduces_the_raw_values(self):
        raw = self.chain3()
        capacities = [(313.0, 517.0), (601.0, 997.0)]
        rates = [3.3e6]
        model, chain, factors = normalize(raw, capacities, rates)
        for cpu, mem, source in zip(model.cpu, model.mem, raw):
            assert cpu * factors.cpu_factor == pytest.approx(
                source.trainable_params, rel=1e-12
            )
            assert mem * factors.mem_factor == pytest.approx(
                source.trainable_params, rel=1e-12
            )
        for cpu_capacity, mem_capacity, (cpu, mem) in zip(
            chain.cpu_capacity, chain.mem_capacity, capacities
        ):
            assert cpu_capacity * factors.cpu_factor == pytest.approx(cpu, rel=1e-12)
            assert mem_capacity * factors.mem_factor == pytest.approx(mem, rel=1e-12)
        for rate, source in zip(chain.link_rate, rates):
            assert rate * factors.bandwidth_factor == pytest.approx(source, rel=1e-12)

    def test_seconds_per_cost_unit(self):
        factors = NormalizationFactors(
            cpu_factor=10.0, mem_factor=4.0e6, bandwidth_factor=2.0e6
        )
        assert factors.seconds_per_cost_unit() == 2.0

    def test_rejects_zero_maxima(self):
        with pytest.raises(ValueError, match="must be > 0"):
            normalize(self.chain3(), [(0.0, 0.0)], [])

    def test_rejects_mismatched_link_count(self):
        with pytest.raises(ValueError, match="link rates"):
            normalize(self.chain3(), [(1.0, 1.0), (2.0, 2.0)], [])

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError, match="at least one layer"):
            normalize([], [(1.0, 1.0)], [])
        with pytest.raises(ValueError, match="at least one device"):
            normalize(self.chain3(), [], [])

    @pytest.mark.parametrize("field", ["cpu_factor", "mem_factor", "bandwidth_factor"])
    def test_factors_must_be_positive(self, field):
        values = {"cpu_factor": 1.0, "mem_factor": 1.0, "bandwidth_factor": 1.0}
        values[field] = 0.0
        with pytest.raises(ValueError):
            NormalizationFactors(**values)


class TestCanonicalFiles:
    def test_model_round_trip_is_bit_identical(self, tmp_path):
        # Generated models carry no names: null names load back as None.
        model = generate_random_model(12, 0.5, iteration_rng(21, 0))
        first = tmp_path / "model.json"
        second = tmp_path / "model2.json"
        save_model(model, first)
        loaded = load_model(first)
        assert loaded.names == (None,) * 12
        assert loaded == model
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("name", ["chain10", "skipnet20"])
    def test_bundled_models_save_back_to_the_same_bytes(self, tmp_path, name):
        source = REPO_ROOT / "profiles" / f"{name}.model.json"
        saved = tmp_path / "saved.json"
        save_model(load_model(source), saved)
        assert saved.read_bytes() == source.read_bytes()

    def test_unsorted_edges_save_in_row_major_order(self, tmp_path):
        edges = [
            {"from": 2, "to": 4, "bits": 0.5},
            {"from": 1, "to": 3, "bits": 0.25},
            {"from": 3, "to": 4, "bits": 0.0},  # a zero edge is no edge
            {"from": 1, "to": 2, "bits": 1.5},
            {"from": 2, "to": 3, "bits": 2},
        ]
        layers = [{"name": f"l{i}", "cpu_cost": 0.5, "mem_cost": 0.25} for i in range(4)]
        unsorted = tmp_path / "unsorted.json"
        unsorted.write_text(json.dumps({"version": 1, "layers": layers, "edges": edges}))
        saved = tmp_path / "saved.json"
        save_model(load_model(unsorted), saved)
        canonical = {
            "version": 1,
            "layers": layers,
            "edges": [
                {"from": 1, "to": 2, "bits": 1.5},
                {"from": 1, "to": 3, "bits": 0.25},
                {"from": 2, "to": 3, "bits": 2.0},
                {"from": 2, "to": 4, "bits": 0.5},
            ],
        }
        expected = json.dumps(canonical, indent=2, sort_keys=True) + "\n"
        assert saved.read_text(encoding="utf-8") == expected
        again = tmp_path / "again.json"
        save_model(load_model(saved), again)
        assert again.read_bytes() == saved.read_bytes()

    def test_large_sparse_model_needs_no_dense_matrix(self, tmp_path):
        # 5,000 layers with about four edges each: a dense float matrix alone
        # would take 200 MB.  Loading, validating and building the cut table
        # must stay far below that.
        n = 5000
        rng = np.random.default_rng(5000)
        edges = []
        for i in range(1, n):
            targets = {i + 1} | {int(t) for t in rng.integers(i + 1, n + 1, size=3)}
            edges.extend({"from": i, "to": t, "bits": 0.001 * t} for t in sorted(targets))
        layers = [{"name": None, "cpu_cost": 0.0001, "mem_cost": 0.0001}] * n
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"version": 1, "layers": layers, "edges": edges}))
        del edges, layers
        tracemalloc.start()
        try:
            model = load_model(path)
            assert validate_model(model).ok
            table = cut_traffic_table(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == n + 1 and table[-1] == 0.0
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_chain_round_trip_is_bit_identical(self, tmp_path):
        model = generate_random_model(9, 0.25, iteration_rng(21, 1))
        chain = generate_device_chain(4, model)
        first = tmp_path / "chain.json"
        second = tmp_path / "chain2.json"
        save_chain(chain, first)
        loaded = load_chain(first)
        assert loaded == chain
        save_chain(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_layer_names_survive_the_round_trip(self, tmp_path):
        raw = [
            RawLayerProfile(name="stem", trainable_params=50, successors=(RawEdge("head"),)),
            RawLayerProfile(name="head", trainable_params=70),
        ]
        model, _, _ = normalize(raw, [(70.0, 70.0)], [])
        path = tmp_path / "named.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.names == ("stem", "head")
        assert loaded == model

    def test_full_pipeline_round_trip(self, tmp_path):
        profile_path = write_profile(tmp_path, linear_layers([100, 300, 600]))
        raw = load_profile(profile_path)
        model, chain, _ = normalize(raw, [(300.0, 500.0), (600.0, 1000.0)], [1.0e7])
        model_path = tmp_path / "model.json"
        chain_path = tmp_path / "chain.json"
        save_model(model, model_path)
        save_chain(chain, chain_path)
        assert load_model(model_path) == model
        assert load_chain(chain_path) == chain

    def test_load_model_rejects_backward_edges(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "layers": [
                        {"name": None, "cpu_cost": 0.5, "mem_cost": 0.5},
                        {"name": None, "cpu_cost": 0.5, "mem_cost": 0.5},
                    ],
                    "edges": [{"from": 2, "to": 1, "bits": 0.5}],
                }
            )
        )
        with pytest.raises(ProfileFormatError, match="backward edge"):
            load_model(path)

    def test_load_model_rejects_out_of_range_edges(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "layers": [{"name": None, "cpu_cost": 0.5, "mem_cost": 0.5}],
                    "edges": [{"from": 1, "to": 5, "bits": 0.5}],
                }
            )
        )
        with pytest.raises(ProfileFormatError, match="outside layer range"):
            load_model(path)

    def test_load_model_rejects_duplicate_edges(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "layers": [
                        {"name": None, "cpu_cost": 0.5, "mem_cost": 0.5},
                        {"name": None, "cpu_cost": 0.5, "mem_cost": 0.5},
                    ],
                    "edges": [
                        {"from": 1, "to": 2, "bits": 0.5},
                        {"from": 1, "to": 2, "bits": 0.25},
                    ],
                }
            )
        )
        with pytest.raises(ProfileFormatError, match="duplicate edge"):
            load_model(path)

    # Each bad edge follows a valid one, so the check must reach it; the
    # message is pinned in full, path prefix included.
    @pytest.mark.parametrize(
        "edge, message",
        [
            (["not", "an", "object"], "edges must be objects"),
            ({"from": 0, "to": 2, "bits": 0.5}, "edge from 0 outside layer range 1..3"),
            ({"from": 1, "to": 4, "bits": 0.5}, "edge to 4 outside layer range 1..3"),
            ({"from": True, "to": 2, "bits": 0.5}, "edge from True outside layer range 1..3"),
            ({"from": 1, "to": False, "bits": 0.5}, "edge to False outside layer range 1..3"),
            ({"from": 1, "to": "2", "bits": 0.5}, "edge to '2' outside layer range 1..3"),
            (
                {"from": 3, "to": 1, "bits": 0.5},
                "backward edge 3 -> 1 (edges must point to a later layer)",
            ),
            (
                {"from": 2, "to": 2, "bits": 0.5},
                "backward edge 2 -> 2 (edges must point to a later layer)",
            ),
            ({"from": 1, "to": 2, "bits": 0.25}, "duplicate edge 1 -> 2"),
            (
                {"from": 2, "to": 3, "bits": "0.5"},
                "edge 2 -> 3 bits must be a number, got '0.5'",
            ),
            ({"from": 2, "to": 3}, "edge 2 -> 3 bits must be a number, got None"),
            ({"from": 2, "to": 3, "bits": True}, "edge 2 -> 3 bits must be a number, got True"),
            (
                {"from": 2, "to": 3, "bits": float("nan")},
                "edge 2 -> 3 bits must be finite, got nan",
            ),
            ({"from": 2, "to": 3, "bits": -0.5}, "edge 2 -> 3 bits must be >= 0"),
        ],
    )
    def test_load_model_rejection_messages(self, tmp_path, edge, message):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "layers": [{"name": None, "cpu_cost": 0.5, "mem_cost": 0.5}] * 3,
                    "edges": [{"from": 1, "to": 2, "bits": 0.5}, edge],
                }
            )
        )
        with pytest.raises(ProfileFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)

    def test_load_model_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 2, "layers": [], "edges": []}))
        with pytest.raises(ProfileFormatError, match="version"):
            load_model(path)

    def test_load_chain_rejects_structural_problems(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"devices": [], "links": []}))
        with pytest.raises(ProfileFormatError, match="non-empty"):
            load_chain(path)
        path.write_text(
            json.dumps(
                {
                    "devices": [
                        {"cpu_capacity": 1.0, "mem_capacity": 1.0},
                        {"cpu_capacity": 1.0, "mem_capacity": 1.0},
                    ],
                    "links": [{"rate": -1.0}],
                }
            )
        )
        with pytest.raises(ProfileFormatError, match="rate"):
            load_chain(path)
        path.write_text(
            json.dumps(
                {
                    "devices": [{"cpu_capacity": 1.0, "mem_capacity": 1.0}],
                    "links": [{"rate": 0.5}],
                }
            )
        )
        with pytest.raises(ProfileFormatError, match="links"):
            load_chain(path)

