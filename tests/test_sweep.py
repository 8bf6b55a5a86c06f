import csv
import dataclasses
import io
import json

import numpy as np
import pytest

import ferroent.spectra
import ferroent.sweep

from ferroent.graphs import (
    ChainParams,
    cube_graph,
    make_graph,
    open_chain,
    random_graph,
    ring_chain,
    save_graph,
    star_graph,
)
from ferroent.spectra import Levels, full_spectrum
from ferroent.sweep import (
    GeometrySpec,
    GraphThermalEngine,
    SweepConfig,
    _raw_concurrence,
    build_geometry,
    builtin_graph_set,
    run_sweep,
    summary_row,
    verify,
    zero_temperature_scan,
)
from oracles import (
    gibbs_terms,
    member_entries,
    pair_rdm_mixed,
    pair_rdm_pure,
    sector_levels,
    sector_spectra,
    x_state_from_matrix,
)

RING_CONFIG = SweepConfig(
    geometries=(GeometrySpec(kind="ring"),),
    n_values=(4,),
    g1=-1.0,
    g2_values=(-2.0, 0.0),
    g3_values=(0.0,),
    t_grid=(0.0, 1.0, 2.0),
    b_grid=(0.0, 2.0),
)


def ascending_positions(spectrum):
    """The positions among a one-graph level table's members, in row-major order, of
    each sector's levels in ascending order, sector by sector: the order of
    ``sector_spectra``'s eigenvalues."""
    positions, start = [], 0
    for values in sector_levels(spectrum):
        positions.append(start + np.argsort(values, kind="stable"))
        start += len(values)
    return np.concatenate(positions)


def run_to_strings(config, workers=1, **kwargs):
    output = io.StringIO()
    summary = io.StringIO()
    result = run_sweep(config, output=output, summary=summary, workers=workers, **kwargs)
    return result, output.getvalue(), summary.getvalue()


class TestConfig:
    def test_from_dict_round_trip(self):
        data = {
            "geometries": [
                {"kind": "ring"},
                {"kind": "grid", "rows": 3, "cols": 3, "periodic": True},
            ],
            "n_values": [4, 5],
            "g1": -1.0,
            "g2_values": [-4.0, 0.0],
            "g3_values": [0.0],
            "t_grid": {"points": 3, "max": "n"},
            "b_grid": [0.0],
            "pairs": "all",
        }
        config = SweepConfig.from_dict(data)
        assert config.geometries[0].kind == "ring"
        assert config.geometries[1].label() == "grid3x3p"
        assert config.t_grid == {"points": 3, "max": "n"}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig.from_dict({"geometries": [{"kind": "ring"}], "bogus": 1})

    @pytest.mark.parametrize("change, message", [
        ({"n_values": (4, 4.5)}, "n_values must be integers"),
        ({"n_values": ("4",)}, "n_values must be integers"),
        ({"t_grid": {"points": 3, "max_t": 0.5}}, "t_grid takes the keys points and max"),
        ({"b_grid": {"point": 3}}, "b_grid takes the keys points and max"),
        ({"t_grid": {"points": 2.7}}, "t_grid points must be a whole number"),
        ({"t_grid": (0.0, -1.0)}, "t_grid temperatures must be >= 0"),
        ({"t_grid": {"points": 2, "max": -1.0}}, "t_grid temperatures must be >= 0"),
    ], ids=["float-n", "string-n", "misspelled-max", "misspelled-points", "fractional-points",
            "negative-t", "negative-max"])
    def test_malformed_grid_values_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(geometries=(GeometrySpec(kind="ring"),), **change)

    def test_whole_float_points_and_negative_fields_accepted(self):
        config = SweepConfig(geometries=(GeometrySpec(kind="ring"),),
                             t_grid={"points": 3.0, "max": 2.0}, b_grid=(-1.0, 0.0))
        records = [json.loads(line) for line in run_to_strings(config)[1].splitlines()]
        assert [(record["t"], record["b"]) for record in records] == [
            (0.0, -1.0), (0.0, 0.0), (1.0, -1.0), (1.0, 0.0), (2.0, -1.0), (2.0, 0.0)]

    def test_empty_temperature_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(geometries=(GeometrySpec(kind="ring"),), t_grid=())

    def test_empty_geometries_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(geometries=())

    def test_unknown_geometry_kind_rejected(self):
        with pytest.raises(ValueError):
            GeometrySpec(kind="dodecahedron")

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "geometries": [{"kind": "open"}],
            "n_values": [4],
            "t_grid": [0.0],
            "b_grid": [0.0],
        }))
        config = SweepConfig.from_file(str(path))
        assert config.geometries[0].kind == "open"

    def test_build_geometry_kinds(self):
        assert build_geometry(GeometrySpec(kind="ring"), 5, -1.0, 0.0, 0.0).n_spins == 5
        assert build_geometry(GeometrySpec(kind="cube"), 0, 0.0, 0.0, 0.0).n_spins == 8
        assert (
            build_geometry(GeometrySpec(kind="star", n_spins=6), 0, 0.0, 0.0, 0.0).n_spins
            == 6
        )
        g = build_geometry(
            GeometrySpec(kind="random", edge_probability=0.7, j_range=(-2.0, -0.5), seed=3),
            6, -1.0, 0.0, 0.0,
        )
        assert g.n_spins == 6 and g.is_ferromagnetic

    def test_points_grid_spaces_its_values_evenly_from_zero(self):
        config = dataclasses.replace(RING_CONFIG, g2_values=(0.0,),
                                     t_grid={"points": 3, "max": 4.0},
                                     b_grid={"points": 5, "max": "n"})
        records = [json.loads(line) for line in run_to_strings(config)[1].splitlines()]
        assert sorted({record["t"] for record in records}) == [0.0, 2.0, 4.0]
        assert sorted({record["b"] for record in records}) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_one_point_grid_is_zero(self):
        config = dataclasses.replace(RING_CONFIG, g2_values=(0.0,),
                                     t_grid={"points": 1, "max": 3.0}, b_grid=(0.0,))
        [record] = [json.loads(line) for line in run_to_strings(config)[1].splitlines()]
        assert (record["t"], record["b"]) == (0.0, 0.0)
        with pytest.raises(ValueError, match="at least one point"):
            dataclasses.replace(config, t_grid={"points": 0, "max": 3.0})

    def test_default_g1_is_ferromagnetic(self):
        # a config without "g1" sweeps ferromagnetic chains
        config = SweepConfig.from_dict({"geometries": [{"kind": "ring"}], "n_values": [4]})
        [record] = [json.loads(line) for line in run_to_strings(config)[1].splitlines()]
        assert record["g1"] == -1.0
        assert record["ground_energy"] == pytest.approx(-1.0, abs=1e-12)
        assert record["ground_degeneracy"] == 5

    def test_random_geometry_default_couplings_are_minus_one(self):
        graph = build_geometry(GeometrySpec(kind="random", edge_probability=0.6, seed=2),
                               6, -1.0, 0.0, 0.0)
        assert graph.edges and all(coupling == -1.0 for _, _, coupling in graph.edges)


class TestRunSweep:
    def test_record_count_is_grid_product(self):
        result, output, _ = run_to_strings(RING_CONFIG)
        # 1 geometry * 1 n * 2 g2 * 1 g3 * 3 t * 2 b
        assert result.records_written == 12
        assert len(output.strip().splitlines()) == 12

    def test_indices_are_dense_and_ordered(self):
        _, output, _ = run_to_strings(RING_CONFIG)
        indices = [json.loads(line)["index"] for line in output.strip().splitlines()]
        assert indices == list(range(12))

    def test_byte_identical_across_runs(self):
        _, output_a, summary_a = run_to_strings(RING_CONFIG)
        _, output_b, summary_b = run_to_strings(RING_CONFIG)
        assert output_a == output_b
        assert summary_a == summary_b

    def test_workers_do_not_change_output(self):
        config = SweepConfig(
            geometries=(GeometrySpec(kind="ring"), GeometrySpec(kind="open")),
            n_values=(4, 5),
            g2_values=(-1.0, 0.0),
            t_grid=(0.0, 1.0),
            b_grid=(0.0, 1.0),
        )
        _, serial, _ = run_to_strings(config, workers=1)
        _, parallel, _ = run_to_strings(config, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("elements", [1, 2**30])
    def test_grid_budget_does_not_change_output(self, monkeypatch, elements):
        # at N = 10 the default budget takes 20 temperatures per step, so 31
        # go in two; a budget of 1 takes one point per step, and 2^30 all 31
        config = SweepConfig(
            geometries=(GeometrySpec(kind="ring"), GeometrySpec(kind="open")),
            n_values=(5, 10),
            g2_values=(-1.0, 0.0),
            t_grid={"points": 31, "max": "n"},
            b_grid=(0.0, 0.7),
        )
        _, default, summary = run_to_strings(config)
        monkeypatch.setattr(ferroent.sweep, "_GRID_ELEMENTS", elements)
        assert run_to_strings(config)[1:] == (default, summary)

    def test_ferromagnetic_sweep_has_no_entanglement(self):
        result, output, _ = run_to_strings(RING_CONFIG)
        assert result.violations == 0
        assert result.max_concurrence <= 1e-12
        for line in output.strip().splitlines():
            record = json.loads(line)
            pair_values = [raw for _, _, raw in record["pairs"]]
            assert record["max_concurrence"] == max(pair_values)
            assert all(np.isfinite(v) for v in pair_values)

    def test_zero_point_records_universal_degeneracy(self):
        _, output, _ = run_to_strings(RING_CONFIG)
        for line in output.strip().splitlines():
            record = json.loads(line)
            if record["t"] == 0.0 and record["b"] == 0.0:
                assert record["ground_degeneracy"] == record["n_spins"] + 1
                assert record["ground_energy"] == pytest.approx(
                    0.25 * (-4.0 + record["g2"] * 4.0), abs=1e-10
                )

    def test_antiferromagnetic_control_is_flagged(self, tmp_path):
        path = tmp_path / "af.json"
        save_graph(make_graph(2, [(0, 1, 1.0)]), str(path))
        config = SweepConfig(
            geometries=(GeometrySpec(kind="file", path=str(path)),),
            t_grid=(0.0,),
            b_grid=(0.0,),
        )
        result, output, _ = run_to_strings(config)
        assert result.violations == 1
        record = json.loads(output.strip())
        assert record["max_concurrence"] == pytest.approx(1.0, abs=1e-10)

    def test_skip_records_resumes_suffix(self):
        _, full_output, _ = run_to_strings(RING_CONFIG)
        result, tail_output, _ = run_to_strings(RING_CONFIG, skip_records=7)
        assert result.records_written == 5
        assert tail_output == "".join(full_output.splitlines(keepends=True)[7:])

    def test_resumed_statistics_count_written_records_only(self, tmp_path):
        # an antiferromagnetic dimer: entangled at low T, not at high T
        path = tmp_path / "af.json"
        save_graph(make_graph(2, [(0, 1, 1.0)]), str(path))
        dimer = GeometrySpec(kind="file", path=str(path))
        config = SweepConfig(geometries=(dimer, dimer), t_grid=(0.0, 0.2, 100.0),
                             b_grid=(0.0,))
        _, full_output, full_summary = run_to_strings(config)
        # skip the first task and the first record of the second one
        result, output, summary = run_to_strings(config, skip_records=4)
        records = [json.loads(line) for line in output.splitlines()]
        assert [r["index"] for r in records] == [4, 5]
        assert result.records_written == 2
        assert result.violations == sum(r["max_concurrence"] > 1e-12 for r in records) == 1
        assert result.max_concurrence == max(r["max_concurrence"] for r in records)
        assert output == "".join(full_output.splitlines(keepends=True)[4:])
        # no header: a resumed summary continues the rows already written
        assert summary == "".join(full_summary.splitlines(keepends=True)[5:])

    def test_summary_columns(self):
        _, _, summary = run_to_strings(RING_CONFIG)
        lines = summary.strip().splitlines()
        assert lines[0] == "index,geometry,n_spins,g1,g2,g3,t,b,max_concurrence"
        assert len(lines) == 13

    def test_coupling_axes_collapse_for_fixed_geometries(self):
        config = SweepConfig(
            geometries=(GeometrySpec(kind="cube"),),
            n_values=(4, 5),
            g2_values=(-1.0, 0.0),
            g3_values=(-1.0, 0.0),
            t_grid=(0.0,),
            b_grid=(0.0,),
        )
        result, _, _ = run_to_strings(config)
        assert result.records_written == 1


def _encoder_configs(tmp_path):
    """Configs whose record text the JSON encoder must reproduce exactly."""
    graph_path = tmp_path / 'g 100%s %d "q" \u00e9.json'
    comma_path = tmp_path / "a,b.json"
    for path in (graph_path, comma_path):
        save_graph(make_graph(3, [(0, 1, -1.0), (1, 2, -0.5)]), str(path))
    return {
        "int couplings": {"geometries": [{"kind": "ring"}, {"kind": "open"}], "n_values": [4],
                          "g1": -1, "g2_values": [0, -2], "g3_values": [0],
                          "t_grid": {"points": 3, "max": "n"}, "b_grid": {"points": 2, "max": 1}},
        "explicit grids": {"geometries": [{"kind": "cube"}], "t_grid": [0.0, 0.1, 1e-07, 3.5],
                           "b_grid": [-1.25, 0.0, 2.0]},
        "pair subset": {"geometries": [{"kind": "star", "n_spins": 5}],
                        "t_grid": [0.0, 1.0], "b_grid": [0.0, 0.5],
                        "pairs": [[0, 1], [3, 1], [2, 4]]},
        "file path": {"geometries": [{"kind": "file", "path": str(graph_path)}],
                      "t_grid": [0.0, 0.7], "b_grid": [0.0, 0.3]},
        "comma path": {"geometries": [{"kind": "file", "path": str(comma_path)}],
                       "t_grid": [0.0, 0.7], "b_grid": [0.0]},
    }


ENCODER_CONFIGS = ["int couplings", "explicit grids", "pair subset", "file path", "comma path"]


@pytest.mark.parametrize("name", ENCODER_CONFIGS)
def test_written_text_is_the_json_encoders(tmp_path, name):
    # the line layout is the on-disk contract: each line must be the
    # json.dumps of its own record and each CSV row that record's summary_row,
    # which csv.reader reads back as the record's nine fields
    config = SweepConfig.from_dict(_encoder_configs(tmp_path)[name])
    _, output, summary = run_to_strings(config)
    lines = output.splitlines(keepends=True)
    rows = summary.splitlines(keepends=True)
    assert rows[0] == ferroent.sweep.SUMMARY_HEADER
    assert len(lines) == len(rows) - 1 > 0
    for line, row in zip(lines, rows[1:]):
        record = json.loads(line)
        assert json.dumps(record) + "\n" == line
        assert summary_row(record) == row
        [fields] = csv.reader([row])
        assert fields[:3] == [str(record["index"]), record["geometry"], str(record["n_spins"])]
        keys = ("g1", "g2", "g3", "t", "b", "max_concurrence")
        assert [float(field) for field in fields[3:]] == [record[key] for key in keys]
    record = json.loads(lines[-1])
    if name == "int couplings":
        assert (record["g1"], record["g2"]) == (-1, -2)
        assert '"g1": -1, "g2": -2, "g3": 0,' in lines[-1]
    if name == "pair subset":
        assert [pair[:2] for pair in record["pairs"]] == [[0, 1], [3, 1], [2, 4]]
    if name == "file path":
        assert record["geometry"] == "file:" + config.geometries[0].path
        quoted = config.geometries[0].path.replace('"', '""')  # the path holds quotes
        assert rows[-1].startswith(f'{record["index"]},"file:{quoted}",3,')


def _split_records(text):
    """The exact fields of each record, and the floats of all (ground energy, raw concurrences)."""
    exact, floats = [], []
    for line in text.splitlines():
        record = json.loads(line)
        pairs = record.pop("pairs")
        floats += [record.pop("ground_energy"), record.pop("max_concurrence")]
        floats += [raw for _, _, raw in pairs]
        exact.append((record, [pair[:2] for pair in pairs]))
    return exact, np.array(floats)


BATCHED_CONFIG = SweepConfig(
    geometries=(GeometrySpec(kind="ring"), GeometrySpec(kind="open")),
    n_values=(4, 5),
    g2_values=(-1.0, 0.0),
    g3_values=(-2.0, 0.0),
    t_grid=(0.0, 0.5, 2.0),
    b_grid=(0.0, 1.0),
)


class TestBatches:
    def test_graphs_of_different_scale_in_one_batch_match_their_own_sweeps(self):
        config = SweepConfig(
            geometries=(GeometrySpec(kind="ring"),),
            n_values=(6,),
            g2_values=(-4.0, 0.0),
            g3_values=(-4.0, 0.0),
            t_grid=(0.0, 0.3, 6.0),
            b_grid=(0.0, 0.7),
        )
        [batch] = ferroent.sweep._expand_batches(config)
        assert len(batch.graphs) == 4
        _, together, _ = run_to_strings(config)
        lines = together.splitlines()
        points = 6
        for k, (_, g2, g3) in enumerate(batch.couplings):
            alone = dataclasses.replace(config, g2_values=(g2,), g3_values=(g3,))
            _, text, _ = run_to_strings(alone)
            exact, floats = _split_records("\n".join(lines[k * points : (k + 1) * points]))
            expected_exact, expected_floats = _split_records(text)
            for (record, pairs), (expected, expected_pairs) in zip(exact, expected_exact):
                assert record["index"] == expected["index"] + k * points
                # ground_degeneracy among them
                assert dict(record, index=None) == dict(expected, index=None)
                assert pairs == expected_pairs
            assert np.max(np.abs(floats - expected_floats)) <= 1e-15

    @pytest.mark.parametrize("budget", [1, 1 << 30])
    def test_batch_budget_does_not_change_records(self, monkeypatch, budget):
        batches = ferroent.sweep._expand_batches(BATCHED_CONFIG)
        assert [len(batch.graphs) for batch in batches] == [4, 4, 4, 4]
        _, expected, _ = run_to_strings(BATCHED_CONFIG)
        monkeypatch.setattr(ferroent.sweep, "_BATCH_ENTRIES", budget)
        sizes = [len(batch.graphs) for batch in ferroent.sweep._expand_batches(BATCHED_CONFIG)]
        assert sizes == ([1] * 16 if budget == 1 else [4, 4, 4, 4])
        _, output, _ = run_to_strings(BATCHED_CONFIG)
        (exact, floats), (expected_exact, expected_floats) = (
            _split_records(output), _split_records(expected)
        )
        assert exact == expected_exact
        assert np.max(np.abs(floats - expected_floats)) <= 1e-15

    def test_batch_bounds_depend_on_the_config_alone(self):
        _, serial, serial_summary = run_to_strings(BATCHED_CONFIG, workers=1)
        _, parallel, parallel_summary = run_to_strings(BATCHED_CONFIG, workers=2)
        assert serial == parallel and serial_summary == parallel_summary
        # record 9 is the fourth of the second graph of the first batch
        lines = serial.splitlines(keepends=True)
        for workers in (1, 2):
            result, tail, _ = run_to_strings(BATCHED_CONFIG, workers=workers, skip_records=9)
            assert tail == "".join(lines[9:])
            assert result.records_written == len(lines) - 9

    def test_pool_takes_at_most_one_worker_per_batch_left(self, monkeypatch):
        # a fork pool starts all its workers at the first submit; this fake runs each
        # batch in the test process and records the pool size it was asked for
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, function, *args):
                future = concurrent.futures.Future()
                future.set_result(function(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        _, serial, _ = run_to_strings(BATCHED_CONFIG)
        lines = serial.splitlines(keepends=True)
        # 4 batches of 24 records: none, one and three of them on disk
        for skip, pools in ((0, [4]), (30, [3]), (73, [])):
            sizes.clear()
            result, tail, _ = run_to_strings(BATCHED_CONFIG, workers=64, skip_records=skip)
            assert tail == "".join(lines[skip:]) and result.records_written == len(lines) - skip
            assert sizes == pools

    def test_one_eig_sym_call_per_spin_over_the_batch(self, monkeypatch):
        shapes = []
        original = ferroent.spectra.eig_sym

        def counting(matrix):
            shapes.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(ferroent.spectra, "eig_sym", counting)
        run_sweep(dataclasses.replace(BATCHED_CONFIG, geometries=(GeometrySpec(kind="ring"),)))
        # N = 4: S = 0, 1, 2 with 2, 3, 1 levels; N = 5: S = 1/2, 3/2, 5/2 with 5, 4, 1
        assert shapes == [(4, 2, 2), (4, 3, 3), (4, 1, 1), (4, 5, 5), (4, 4, 4), (4, 1, 1)]


class TestThermalEngine:
    def test_batch_engine_matches_one_graph_engines(self):
        # a connected ferromagnet, two triangles (16-fold ground at B = 0) and
        # an antiferromagnetic ring: every per-graph reduction differs
        triangles = [(0, 1, -1.0), (1, 2, -1.0), (0, 2, -1.0),
                     (3, 4, -1.0), (4, 5, -1.0), (3, 5, -1.0)]
        graphs = [random_graph(6, 0.5, (-2.0, -0.3), seed=3), make_graph(6, triangles),
                  ring_chain(ChainParams(n_spins=6, g1=1.0, g2=-0.3))]
        pairs = [(0, 1), (4, 2), (3, 5)]
        temperatures = (0.0, 0.4, 3.0)
        batch = GraphThermalEngine(graphs, pairs)
        stack = member_entries(batch)  # every level's own entries, from one-hot weight tables
        assert stack.shape == (3, 3, 64, 5)
        for b_field in (0.0, 0.6):
            levels = Levels.at(batch.spectrum, b_field)
            weights = levels.weights(temperatures)
            raw = _raw_concurrence(batch.pair_entries(levels, temperatures))
            energies, degeneracies = levels.ground_energy, levels.degeneracy
            for k, graph in enumerate(graphs):
                single = GraphThermalEngine(graph, pairs)
                single_levels = Levels.at(single.spectrum, b_field)
                single_weights = single_levels.weights(temperatures)
                assert np.array_equal(weights[k], single_weights)
                single_raw = _raw_concurrence(single.pair_entries(single_levels, temperatures))
                assert np.max(np.abs(raw[:, k] - single_raw)) <= 1e-15
                assert (energies[k], degeneracies[k]) == (single_levels.ground_energy,
                                                          single_levels.degeneracy)
                assert np.array_equal(batch.spectrum.energies[k], single.spectrum.energies)
                # shared by the batch
                assert np.array_equal(batch.spectrum.spin, single.spectrum.spin)
                assert np.array_equal(batch.spectrum.slots, single.spectrum.slots)
                assert batch.spin_residual[k] == single.spin_residual
                assert np.max(np.abs(stack[:, k] - member_entries(single))) <= 1e-15
        assert Levels.at(batch.spectrum, 0.0).degeneracy.tolist() == [7, 16, 1]

    def test_batch_engine_needs_one_spin_count(self):
        with pytest.raises(ValueError, match="one spin count"):
            GraphThermalEngine([ring_chain(ChainParams(n_spins=4, g1=-1.0)),
                                ring_chain(ChainParams(n_spins=5, g1=-1.0))], [(0, 1)])

    def test_weights_match_gibbs_module(self):
        g = random_graph(6, 0.5, (-2.0, -0.3), seed=19)
        engine = GraphThermalEngine(g)
        spectra = sector_spectra(g)
        order = ascending_positions(full_spectrum(g))
        temperatures = (0.0, 0.3, 2.0)
        tables = Levels.at(engine.spectrum, 0.0).weights(temperatures)
        for temperature, table in zip(temperatures, tables):
            flat = table[engine.spectrum.slots]  # the members, row-major
            terms = gibbs_terms(spectra, temperature)
            lookup = {}
            position = 0
            for spectrum in spectra:
                for k in range(len(spectrum.eigenvalues)):
                    lookup[(spectrum.n_up, k)] = order[position]
                    position += 1
            reference = np.zeros_like(flat)
            for n_up, k, w in terms:
                reference[lookup[(n_up, k)]] = w
            assert flat == pytest.approx(reference, abs=1e-12)

    def test_entries_match_mixed_rdm_with_field(self):
        g = open_chain(ChainParams(n_spins=5, g1=-1.0, g2=-0.5, periodic=False))
        pairs = [(0, 1), (1, 4), (2, 3)]
        engine = GraphThermalEngine(g, pairs)
        temperature, b_field = 0.8, 1.3
        spectra_b = sector_spectra(g, b_field=b_field)
        mixture = gibbs_terms(spectra_b, temperature)
        entries = engine.pair_entries(Levels.at(engine.spectrum, b_field), (temperature,))
        for pair, [row] in zip(pairs, entries):
            rho = pair_rdm_mixed(mixture, spectra_b, pair)
            state = x_state_from_matrix(rho)
            alpha, beta, gamma, delta, epsilon = row
            assert alpha == pytest.approx(state.alpha, abs=1e-12)
            assert beta == pytest.approx(state.beta, abs=1e-12)
            assert gamma == pytest.approx(state.gamma.real, abs=1e-12)
            assert delta == pytest.approx(state.delta, abs=1e-12)
            assert epsilon == pytest.approx(state.epsilon, abs=1e-12)

    def test_one_pair_engine_matches_all_pairs_engine_exactly(self):
        g = random_graph(6, 0.5, (-2.0, -0.3), seed=23)
        everything = GraphThermalEngine(g)
        temperatures = (0.0, 0.7, 3.0)
        rows = everything.pair_entries(Levels.at(everything.spectrum, 0.4), temperatures)
        raws = _raw_concurrence(rows)
        for k, pair in enumerate(g.pairs()):
            single = GraphThermalEngine(g, [pair])
            [row] = single.pair_entries(Levels.at(single.spectrum, 0.4), temperatures)
            assert np.array_equal(row, rows[k])
            assert np.array_equal(_raw_concurrence(row), raws[k])

    @pytest.mark.parametrize("n_spins, count", [(4, 11), (5, 7), (6, 4), (8, 3), (10, 2), (12, 1)])
    def test_point_entries_are_the_same_alone_and_among_many(self, n_spins, count):
        # each entry is one dot product of its own point's moments with the pair's
        # coefficients: a temperature alone gives the bits it gets among the
        # field's others and the batch's graphs
        graphs = [random_graph(n_spins, 0.6, (-2.0, -0.2), seed=seed) for seed in range(count)]
        pairs = None if n_spins < 12 else [(0, 1), (0, 6), (3, 11), (7, 2)]
        engine = GraphThermalEngine(graphs, pairs)
        temperatures = (0.0, 0.05, 0.4, 1.0, 3.0, float(n_spins))
        for b_field in (0.0, 0.7):
            levels = Levels.at(engine.spectrum, b_field)
            together = engine.pair_entries(levels, temperatures)
            for k, temperature in enumerate(temperatures):
                alone = engine.pair_entries(levels, (temperature,))
                assert np.array_equal(alone[:, :, 0], together[:, :, k])

    @pytest.mark.parametrize("n_spins", [6, 7])
    def test_stack_matches_oracle_on_every_sector(self, n_spins):
        # every sector, the central one too, holds Wigner-Eckart entries rebuilt
        # from the central columns' c, zz and <S . S_a>; check all, reversed
        # pairs included, against the per-eigenstate partial trace of the
        # per-sector ED (no level of this graph is degenerate within a sector)
        g = random_graph(n_spins, 0.5, (-2.0, -0.2), seed=40 + n_spins)
        pairs = [(0, 1), (n_spins - 1, 2), (3, 1), (2, 5)]
        engine = GraphThermalEngine(g, pairs)
        stack = member_entries(engine)  # every level's own entries
        central = full_spectrum(g)
        order = ascending_positions(central)
        # each member's level and S^z, row-major
        energies = np.concatenate(sector_levels(central))
        sz = np.nonzero(engine.spectrum.slots)[0] - 0.5 * n_spins
        position = 0
        for spectrum, values in zip(sector_spectra(g), sector_levels(central)):
            for k in range(len(spectrum.eigenvalues)):
                assert energies[order[position]] == np.sort(values)[k]
                assert sz[order[position]] == spectrum.basis.sz
                for pair, entries in zip(pairs, stack[:, order[position]]):
                    rho = pair_rdm_pure(spectrum.eigenvectors[:, k], spectrum.basis, pair)
                    expected = [rho[0, 0].real, rho[1, 1].real, rho[1, 2].real,
                                rho[2, 2].real, rho[3, 3].real]
                    assert np.max(np.abs(entries - expected)) <= 1e-12
                position += 1
        assert position == 2**n_spins

    @pytest.mark.parametrize("b_field", [0.8, -0.8])
    def test_polarized_ground_state_is_an_exact_product(self, b_field):
        # at T = 0 a field polarizes a ferromagnet: all down for B > 0, all up
        # for B < 0.  Every entry but the occupied population is a kinematic
        # zero, exact whatever the rounding of the coefficients
        for g in (make_graph(2, [(0, 1, -1.0)]), ring_chain(ChainParams(n_spins=6, g1=-1.0)),
                  random_graph(7, 0.5, (-2.0, -0.3), seed=9)):
            pairs = g.pairs() + [(b, a) for a, b in g.pairs()]
            engine = GraphThermalEngine(g, pairs)
            entries = engine.pair_entries(Levels.at(engine.spectrum, b_field), (0.0,))[:, 0]
            alpha, beta, gamma, delta, epsilon = entries.T
            empty, full = (alpha, epsilon) if b_field > 0 else (epsilon, alpha)
            for entry in (empty, beta, gamma, delta):
                assert np.all(entry == 0.0)
            assert np.max(np.abs(full - 1.0)) <= 1e-14
            assert np.all(_raw_concurrence(entries) == 0.0)

    def test_batched_raw_concurrence_matches_per_point(self):
        g = open_chain(ChainParams(n_spins=6, g1=-1.0, g2=-0.7, periodic=False))
        engine = GraphThermalEngine(g)
        temperatures = (0.0, 0.4, 2.5)
        for b_field in (0.0, 0.9, 3.0):
            levels = Levels.at(engine.spectrum, b_field)
            batched = _raw_concurrence(engine.pair_entries(levels, temperatures))
            assert batched.shape == (len(engine.pairs), len(temperatures))
            for column, temperature in zip(batched.T, temperatures):
                alone = _raw_concurrence(engine.pair_entries(levels, (temperature,)))[:, 0]
                assert np.max(np.abs(column - alone)) <= 1e-15

    def test_sweep_records_match_per_point_contraction(self):
        _, output, _ = run_to_strings(RING_CONFIG)
        records = [json.loads(line) for line in output.splitlines()]
        engines = {}
        for record in records:
            g = build_geometry(GeometrySpec(kind="ring"), 4, -1.0, record["g2"], 0.0)
            engine = engines.setdefault(record["g2"], GraphThermalEngine(g))
            levels = Levels.at(engine.spectrum, record["b"])
            raw = _raw_concurrence(engine.pair_entries(levels, (record["t"],)))[:, 0]
            assert [[i, j] for i, j, _ in record["pairs"]] == [list(p) for p in engine.pairs]
            assert np.max(np.abs([r for _, _, r in record["pairs"]] - raw)) <= 1e-15
            assert (record["ground_energy"], record["ground_degeneracy"]) == (
                levels.ground_energy, levels.degeneracy)

    def test_field_weights_rows_equal_per_point_weights_bitwise(self):
        # one weight row per temperature at a fixed field must be bit for bit
        # the per-point computation: shifted energies, minimum, exp, sum
        g = open_chain(ChainParams(n_spins=6, g1=-1.0, g2=-0.7, periodic=False))
        engine = GraphThermalEngine(g)
        temperatures = (0.0, 1e-3, 0.4, 2.5, 6.0)
        slots, energies = engine.spectrum.slots, engine.spectrum.energies
        sectors, columns = np.nonzero(slots)  # the members, row-major
        for b_field in (0.0, 0.9, -3.0):
            levels = Levels.at(engine.spectrum, b_field)
            rows = levels.weights(temperatures)
            shifted = energies[columns] + b_field * (sectors - 0.5 * engine.graph.n_spins)
            for temperature, table in zip(temperatures, rows):
                row = table[slots]
                assert np.all(table[~slots] == 0.0)
                if temperature == 0.0:
                    spread = shifted.max() - shifted.min()
                    members = shifted <= shifted.min() + 1e-9 * max(1.0, spread)
                    expected = members / members.sum()
                else:
                    factors = np.exp(-(shifted - float(shifted.min())) / temperature)
                    expected = factors / factors.sum()
                assert np.array_equal(row, expected)
                assert np.array_equal(table, levels.weights((temperature,))[0])

    def test_field_weights_reject_negative_and_nan(self):
        engine = GraphThermalEngine(make_graph(2, [(0, 1, -1.0)]))
        for bad in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="temperature"):
                engine.pair_entries(Levels.at(engine.spectrum, 0.0), (0.0, bad, 1.0))

    @pytest.mark.parametrize("field", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_field_rejected(self, field):
        graph = make_graph(2, [(0, 1, -1.0)])
        for table in (GraphThermalEngine(graph).spectrum, full_spectrum(graph)):
            with pytest.raises(ValueError, match="field must be finite"):
                Levels.at(table, field)

    def test_non_finite_field_grid_writes_no_record(self):
        # refused when the config loads, so no sweep can start on it
        with pytest.raises(ValueError, match="b_grid values must be finite"):
            SweepConfig.from_dict(json.loads(
                '{"geometries": [{"kind": "ring"}], "n_values": [4], '
                '"t_grid": [0.0, 1.0], "b_grid": [NaN, Infinity]}'
            ))

    def test_ground_info_with_field_splits_multiplet(self):
        g = ring_chain(ChainParams(n_spins=4, g1=-1.0))
        engine = GraphThermalEngine(g)
        zero, field = Levels.at(engine.spectrum, 0.0), Levels.at(engine.spectrum, 1.0)
        energy_zero, degeneracy_zero = zero.ground_energy, zero.degeneracy
        assert degeneracy_zero == 5
        energy_field, degeneracy_field = field.ground_energy, field.degeneracy
        assert degeneracy_field == 1
        assert energy_field == pytest.approx(energy_zero - 2.0)  # all-down wins


def _universal(graph, graph_id):
    [report], _ = verify([(graph_id, graph)], "universal")
    return report


def _degeneracy(graph, graph_id):
    [report], _ = verify([(graph_id, graph)], "degeneracy")
    return report


def _doctor_engines(monkeypatch, name, edit):
    """Make ``verify`` build engines whose spectrum's ``name`` is ``edit`` of the built one."""

    class Doctored(GraphThermalEngine):
        def __init__(self, graphs):
            super().__init__(graphs)
            edited = {name: edit(getattr(self.spectrum, name))}
            self.spectrum = dataclasses.replace(self.spectrum, **edited)

    monkeypatch.setattr(ferroent.sweep, "GraphThermalEngine", Doctored)


class TestVerifyUniversal:
    def test_cube(self):
        report = _universal(cube_graph(-1.0), "cube")
        assert report.passed
        assert report.ground_degeneracy == 9
        assert report.max_rdm_deviation <= 1e-10
        assert report.max_raw_concurrence <= 1e-12

    def test_random_inhomogeneous(self):
        g = random_graph(7, 0.5, (-1.5, -0.1), seed=42)
        report = _universal(g, "random7")
        assert report.passed
        assert report.max_rdm_deviation <= 1e-10

    def test_positive_coupling_flagged(self):
        g = make_graph(3, [(0, 1, -1.0), (1, 2, 0.5)])
        report = _universal(g, "mixed-sign")
        assert not report.ferromagnetic
        assert not report.preconditions_ok
        assert not report.passed

    def test_disconnected_flagged(self):
        g = make_graph(4, [(0, 1, -1.0), (2, 3, -1.0)])
        report = _universal(g, "disjoint")
        assert not report.connected
        assert not report.preconditions_ok
        assert not report.passed

    def test_report_serializes(self):
        report = _universal(cube_graph(-1.0), "cube")
        payload = dataclasses.asdict(report)
        assert payload["check"] == "universal"
        json.dumps(payload)


class TestVerifyDegeneracy:
    def test_open_path(self):
        g = open_chain(ChainParams(n_spins=5, g1=-1.0, periodic=False))
        report = _degeneracy(g, "path5")
        assert report.passed
        assert report.ground_degeneracy == 6
        assert report.ground_energy == pytest.approx(-1.0, abs=1e-12)

    def test_star_with_zero_couplings_stays_connected(self):
        report = _degeneracy(star_graph(6, -1.0), "star6")
        assert report.passed
        assert report.ground_degeneracy == 7
        assert report.ground_energy == pytest.approx(-1.25, abs=1e-12)

    def test_connected_graph_expects_n_plus_one_levels(self):
        for n in (2, 5):
            graph = open_chain(ChainParams(n_spins=n, g1=-1.0, periodic=False))
            report = _degeneracy(graph, "path")
            assert report.expected_degeneracy == n + 1
            assert report.degeneracy_ok and report.passed

    def test_energy_check_is_relative_to_the_expected_energy(self, monkeypatch):
        # ring 4 with J = -100: E0 = -100, so the check allows 1e-10 * 100 = 1e-8
        graph = ring_chain(ChainParams(n_spins=4, g1=-100.0))
        for offset, passed in ((5e-9, True), (2e-8, False)):
            _doctor_engines(monkeypatch, "energies", lambda energies: energies + offset)
            report = _degeneracy(graph, "ring4")
            assert report.expected_ground_energy == -100.0
            assert report.energy_ok is passed

    def test_two_disconnected_triangles(self):
        g = make_graph(
            6,
            [(0, 1, -1.0), (1, 2, -1.0), (0, 2, -1.0),
             (3, 4, -1.0), (4, 5, -1.0), (3, 5, -1.0)],
        )
        report = _degeneracy(g, "triangles")
        assert not report.connected
        assert report.expected_degeneracy is None
        assert report.degeneracy_ok is None
        assert report.ground_degeneracy == 16  # product of two 4-fold multiplets
        assert report.ground_energy == pytest.approx(-1.5, abs=1e-12)
        assert report.energy_ok  # quarter coupling sum holds per component


class TestGroundSpin:
    def test_connected_ferromagnets_have_spin_half_n(self):
        graphs = builtin_graph_set()
        reports, scans = verify(graphs, "degeneracy")
        assert scans == [] and len(reports) == len(graphs)
        for (graph_id, g), report in zip(graphs, reports):
            assert report.graph_id == graph_id and report.passed
            assert report.ground_spin == 0.5 * g.n_spins
            assert report.spin_residual <= 1e-6
            assert report.window_gap_ratio >= 1e7

    def test_wrong_ground_spin_fails_the_degeneracy_suite(self, monkeypatch):
        graph = ring_chain(ChainParams(n_spins=5, g1=-1.0))
        assert _degeneracy(graph, "ring5").passed
        _doctor_engines(monkeypatch, "spin", lambda spin: np.full_like(spin, 0.5))
        report = _degeneracy(graph, "ring5")
        assert report.ground_spin == 0.5
        assert not report.passed

    def test_level_just_above_the_window_fails_the_degeneracy_suite(self, monkeypatch):
        # the ring's ground multiplet plus a split multiplet injected above E0
        # at 1.2 and 0.8 window widths of 1e-9 * spectral range: the first is
        # outside the window, the second inside with all 2S + 1 of its members
        graph = ring_chain(ChainParams(n_spins=5, g1=-1.0))
        engine = GraphThermalEngine([graph])
        energies = engine.spectrum.energies
        e_min, width = energies.min(), 1e-9 * (energies.max() - energies.min())
        excited = np.flatnonzero(energies[0] > e_min + 1e-3)[0]
        members = int(2 * engine.spectrum.spin[excited] + 1)
        for split, ratio, degeneracy in ((1.2, 1.2, 6), (0.8, None, 6 + members)):
            injected = energies.copy()
            injected[0, excited] = e_min + split * width
            _doctor_engines(monkeypatch, "energies", lambda _: injected)
            report = _degeneracy(graph, "ring5")
            assert report.ground_degeneracy == degeneracy
            if ratio is None:
                assert not report.degeneracy_ok  # absorbed: the count catches it
            else:
                assert report.window_gap_ratio == pytest.approx(ratio, rel=1e-6)
                assert report.degeneracy_ok and not report.passed

    def test_disconnected_ground_window_holds_lower_spins(self):
        g = make_graph(4, [(0, 1, -1.0), (2, 3, -1.0)])  # two triplets: S = 0, 1, 2
        report = _degeneracy(g, "dimers")
        assert report.ground_spin == 0.0
        assert report.passed  # no single-multiplet claim for a disconnected graph

    def test_report_fields_serialize(self):
        reports, _ = verify([("cube", cube_graph(-1.0))])
        assert [report.check for report in reports] == ["universal", "degeneracy"]
        for report in reports:
            payload = json.loads(json.dumps(dataclasses.asdict(report)))
            assert payload["ground_spin"] == 4.0
            assert 0.0 <= payload["spin_residual"] <= 1e-6


class TestZeroTemperatureScan:
    def test_scan_stops_at_the_first_entangled_temperature(self):
        # antiferromagnetic dimer in a field above J: the polarized T = 0
        # ground state is a product, the singlet admixed at T = 0.1 is not;
        # the scan keeps the clean prefix even if a later point is clean again
        engine = GraphThermalEngine([make_graph(2, [(0, 1, 1.0)])])
        assert zero_temperature_scan(engine, [0.0, 0.1, 100.0], b_field=1.5) == [0.0]
        # a batch scans each graph on its own: the ferromagnetic dimer stays clean
        batch = GraphThermalEngine([make_graph(2, [(0, 1, -1.0)]), make_graph(2, [(0, 1, 1.0)])])
        assert zero_temperature_scan(batch, [0.0, 0.1, 100.0], b_field=1.5) == [100.0, 0.0]


    def test_ferromagnet_survives_whole_grid(self):
        engine = GraphThermalEngine([ring_chain(ChainParams(n_spins=5, g1=-1.0))])
        grid = [5.0 * k / 20 for k in range(21)]
        assert zero_temperature_scan(engine, grid) == [grid[-1]]

    def test_single_point_grid(self):
        engine = GraphThermalEngine([ring_chain(ChainParams(n_spins=4, g1=-1.0))])
        assert zero_temperature_scan(engine, [0.0]) == [0.0]

    def test_antiferromagnet_fails_immediately(self):
        engine = GraphThermalEngine([make_graph(2, [(0, 1, 1.0)])])
        assert zero_temperature_scan(engine, [0.0, 0.5]) == [None]

    def test_grid_must_start_at_zero(self):
        engine = GraphThermalEngine([make_graph(2, [(0, 1, -1.0)])])
        with pytest.raises(ValueError):
            zero_temperature_scan(engine, [0.5, 1.0])
        with pytest.raises(ValueError):
            zero_temperature_scan(engine, [0.0, 2.0, 1.0])

    def test_grid_may_repeat_a_temperature(self):
        # ascending, not strictly: a repeated point is scanned like any other
        engine = GraphThermalEngine([make_graph(2, [(0, 1, -1.0)])])
        assert zero_temperature_scan(engine, [0.0, 0.0, 1.0, 1.0]) == [1.0]
