import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ferroent.spectra
import ferroent.sweep
from ferroent.cli import main
from ferroent.graphs import (
    ChainParams,
    cube_graph,
    grid_graph,
    make_graph,
    open_chain,
    random_graph,
    ring_chain,
    save_graph,
    star_graph,
)
from oracles import build_sector_hamiltonian, gibbs_terms, pair_rdm_mixed, sector_spectra


def run_cli(*argv):
    return main(list(argv))


def write_edge_graph(tmp_path, coupling=-1.0):
    path = tmp_path / "edge.json"
    save_graph(make_graph(2, [(0, 1, coupling)]), str(path))
    return str(path)


# the output of an earlier run, which a refused sweep must leave as it is
EARLIER = '{"index": 0}\n'


def read_rdm_csv(text):
    """{(row, col): (real, imag text)} from the rdm command's CSV."""
    entries = {}
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("row"):
            continue
        row, col, re_part, im_part = line.split(",")
        entries[(int(row), int(col))] = (float(re_part), im_part)
    return entries


class TestSpectrumCommand:
    def test_two_spin_edge(self, tmp_path, capsys):
        path = write_edge_graph(tmp_path)
        assert run_cli("spectrum", "--graph", path) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n_up,index,eigenvalue"
        values = sorted(float(l.split(",")[2]) for l in lines[1:])
        assert values == pytest.approx([-0.25, -0.25, -0.25, 0.75])
        assert "# ground_energy=" in out
        assert "# gap=" in out

    def test_edge_free_graph_has_gap_0(self, tmp_path, capsys):
        # every level is in the ground window, so none lies above it
        path = tmp_path / "free.json"
        save_graph(make_graph(5, []), str(path))
        assert run_cli("spectrum", "--graph", str(path), "--b-field", "0") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["# ground_energy=0", "# gap=0", "n_up,index,eigenvalue"]
        assert len(lines) == 2**5 + 3

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run_cli("spectrum", "--graph", str(tmp_path / "nope.json")) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_field_shifts_sectors(self, tmp_path, capsys):
        path = write_edge_graph(tmp_path)
        run_cli("spectrum", "--graph", path)
        base = capsys.readouterr().out
        run_cli("spectrum", "--graph", path, "--b-field", "1.0")
        shifted = capsys.readouterr().out

        def rows(text):
            out = {}
            for line in text.splitlines():
                if line.startswith("#") or line.startswith("n_up"):
                    continue
                n_up, idx, value = line.split(",")
                out[(int(n_up), int(idx))] = float(value)
            return out

        base_rows, shifted_rows = rows(base), rows(shifted)
        for (n_up, idx), value in base_rows.items():
            assert shifted_rows[(n_up, idx)] == pytest.approx(value + (n_up - 1.0))

    def test_builtin_ring_source(self, capsys):
        assert run_cli("spectrum", "--ring", "4") == 0
        out = capsys.readouterr().out
        assert "# ground_energy=-1" in out

    def test_output_file(self, tmp_path):
        target = tmp_path / "spectrum.csv"
        assert run_cli("spectrum", "--ring", "3", "--output", str(target)) == 0
        assert target.read_text().count("\n") == 2**3 + 3

    @pytest.mark.parametrize("b_field", [0.0, -0.7])
    def test_each_sector_ascends_and_matches_the_oracle(self, tmp_path, capsys, b_field):
        # mixed signs: in solve order (S group by S group) no sector ascends
        graph = make_graph(7, [(0, 1, -1.0), (1, 2, 0.6), (2, 3, -1.3), (3, 4, -0.4),
                               (4, 5, 0.9), (5, 6, -1.0), (0, 6, -0.7), (1, 4, 0.3)])
        path = tmp_path / "g.json"
        save_graph(graph, str(path))
        assert run_cli("spectrum", "--graph", str(path), "--b-field", str(b_field)) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if not line.startswith(("#", "n_up"))]
        for oracle in sector_spectra(graph, b_field):
            sector = [row for row in rows if int(row[0]) == oracle.n_up]
            assert [int(row[1]) for row in sector] == list(range(len(oracle.eigenvalues)))
            values = np.array([float(row[2]) for row in sector])
            assert np.all(np.diff(values) >= 0.0)
            assert np.max(np.abs(values - oracle.eigenvalues)) <= 1e-12
        assert len(rows) == 2**7

    def test_overflowing_field_exits_2(self, tmp_path, capsys):
        # the levels' spread overflows, so every level would count as ground
        target = tmp_path / "spectrum.csv"
        assert run_cli("spectrum", "--ring", "4", "--b-field", "6e307", "-o", str(target)) == 2
        assert "overflow" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_dump_sector_overflowing_field_exits_2(self, tmp_path, capsys, to_file):
        # sector n_up = 0 of 4 spins has S^z = -2: its one level overflows to -inf
        target = tmp_path / "sector.csv"
        output = ["-o", str(target)] if to_file else []
        assert run_cli("spectrum", "--ring", "4", "--dump-sector", "0",
                       "--b-field", "1e308", *output) == 2
        captured = capsys.readouterr()
        assert "overflow" in captured.err
        assert captured.out == ""
        assert not target.exists()
        # sector n_up = 2 has S^z = 0: the field adds nothing, and its matrix is finite
        assert run_cli("spectrum", "--ring", "4", "--dump-sector", "2",
                       "--b-field", "1e308", *output) == 0
        lines = (target.read_text() if to_file else capsys.readouterr().out).splitlines()
        assert lines[0] == "# sector n_up=2, dimension 6, row-major"
        assert np.isfinite([[float(x) for x in line.split(",")] for line in lines[1:]]).all()

    def test_dump_sector_matrix(self, capsys):
        assert run_cli("spectrum", "--ring", "4", "--dump-sector", "1") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# sector n_up=1")
        matrix = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(matrix) == 4 and len(matrix[0]) == 4
        assert matrix[0][1] == -0.5  # exchange flip element of the ring

    @pytest.mark.parametrize("b_field", [0.0, 0.5])
    def test_dump_sector_is_the_dense_sector_matrix(self, capsys, b_field):
        graph = ring_chain(ChainParams(n_spins=4, g1=-1.0))
        for n_up in range(5):
            assert run_cli("spectrum", "--ring", "4", "--dump-sector", str(n_up),
                           "--b-field", str(b_field)) == 0
            lines = capsys.readouterr().out.splitlines()
            expected = build_sector_hamiltonian(graph, n_up, b_field)
            assert lines[0] == "# sector n_up=%d, dimension %d, row-major" % (n_up, len(expected))
            assert np.array_equal([[float(x) for x in line.split(",")] for line in lines[1:]],
                                  expected)


class TestGraphCommand:
    def test_export_import_round_trip(self, tmp_path):
        target = tmp_path / "ring6.json"
        assert run_cli("graph", "--ring", "6", "--g2", "-0.5", "--output", str(target)) == 0
        from ferroent.graphs import load_graph
        g = load_graph(str(target))
        assert g.n_spins == 6
        assert len(g.edges) == 12  # 6 nearest + 6 second-neighbor

    def test_stdout_json(self, capsys):
        assert run_cli("graph", "--cube") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 8
        assert len(payload["edges"]) == 12

    @pytest.mark.parametrize("argv, graph", [
        (["--ring", "6", "--g2", "-0.5"], ring_chain(ChainParams(n_spins=6, g1=-1.0, g2=-0.5))),
        (["--chain", "5", "--g1", "-2", "--g3", "-0.3"],
         open_chain(ChainParams(n_spins=5, g1=-2.0, g3=-0.3, periodic=False))),
        (["--grid", "2", "3", "--periodic", "--coupling", "-0.7"], grid_graph(2, 3, True, -0.7)),
        (["--grid", "2", "3"], grid_graph(2, 3, False, -1.0)),
        (["--cube", "--coupling", "-1.5"], cube_graph(-1.5)),
        (["--star", "5"], star_graph(5, -1.0)),
        (["--random", "7", "3", "--edge-probability", "0.6", "--j-range", "-2", "-0.5"],
         random_graph(7, 0.6, (-2.0, -0.5), 3)),
        (["--random", "6", "9"], random_graph(6, 0.5, (-1.0, -1.0), 9)),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
    def test_each_source_flag_builds_its_graph(self, capsys, argv, graph):
        # the flags and their defaults, built through the sweep's geometry kinds
        assert run_cli("graph", *argv) == 0
        assert capsys.readouterr().out == graph.to_json() + "\n"

    @pytest.mark.parametrize("coupling", ["inf", "-inf", "nan"])
    def test_non_finite_coupling_exits_2(self, capsys, coupling):
        # an Infinity edge would not even be valid JSON
        assert run_cli("graph", "--ring", "4", f"--g1={coupling}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite coupling" in captured.err


class TestRdmCommand:
    def test_ground_rdm_is_universal(self, capsys):
        assert run_cli("rdm", "--ring", "5", "--pair", "0", "2") == 0
        out = capsys.readouterr().out
        entries = {}
        for line in out.splitlines():
            if line.startswith("#") or line.startswith("row"):
                continue
            row, col, re_part, im_part = line.split(",")
            entries[(int(row), int(col))] = complex(float(re_part), float(im_part))
        assert len(entries) == 16
        assert entries[(0, 0)].real == pytest.approx(1 / 3, abs=1e-10)
        assert entries[(1, 2)].real == pytest.approx(1 / 6, abs=1e-10)
        assert entries[(0, 3)] == 0
        assert "basis order" in out

    def test_bad_pair(self, capsys):
        assert run_cli("rdm", "--ring", "4", "--pair", "0", "7") == 2
        assert "invalid pair" in capsys.readouterr().err

    def test_thermal_field_rdm_matches_oracle(self, tmp_path, capsys):
        graph = random_graph(6, 0.6, (-2.0, -0.3), seed=5)
        path = tmp_path / "g.json"
        save_graph(graph, str(path))
        temperature, b_field, pair = 0.7, 0.4, (4, 1)
        assert run_cli("rdm", "--graph", str(path), "--pair", "4", "1",
                       "-T", str(temperature), "--b-field", str(b_field)) == 0
        entries = read_rdm_csv(capsys.readouterr().out)
        spectra = sector_spectra(graph, b_field)
        expected = pair_rdm_mixed(gibbs_terms(spectra, temperature), spectra, pair)
        assert len(entries) == 16
        for (row, col), (real, imag) in entries.items():
            assert imag == "0"
            assert abs(real - expected[row, col]) <= 1e-12

    def test_ring_10_sweep_points_bit_for_bit(self, tmp_path, capsys):
        # at N = 10 each sweep batch is one graph with all 45 pairs, and the
        # one-pair engine of rdm must give each record's raw concurrence exactly
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"geometries": [{"kind": "ring"}], "n_values": [10],
                                      "g2_values": [-0.5, 0.0],
                                      "t_grid": {"points": 4, "max": "n"}, "b_grid": [0.0, 0.3]}))
        results = tmp_path / "out.jsonl"
        assert run_cli("sweep", "--config", str(config), "--output", str(results)) == 0
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert len(records) == 16
        for record in records[::2]:
            i, j, raw = record["pairs"][(7 * record["index"]) % 45]
            capsys.readouterr()
            assert run_cli("rdm", "--ring", "10", f"--g2={record['g2']!r}", "--pair", str(i),
                           str(j), f"-T={record['t']!r}", f"--b-field={record['b']!r}") == 0
            rho = read_rdm_csv(capsys.readouterr().out)
            entries = np.array([rho[0, 0][0], rho[1, 1][0], rho[1, 2][0], rho[2, 2][0],
                                rho[3, 3][0]])
            assert ferroent.sweep._raw_concurrence(entries) == raw

    @pytest.mark.parametrize("temperature", ["-0.5", "nan"])
    def test_negative_temperature_rejected(self, capsys, monkeypatch, temperature):
        # refused while the arguments are parsed, before any solve
        def no_solve(graphs, consume):
            raise AssertionError("the temperature was not checked before the solve")

        monkeypatch.setattr(ferroent.sweep, "central_stream", no_solve)
        with pytest.raises(SystemExit) as err:
            run_cli("rdm", "--ring", "4", "--pair", "0", "1", "-T", temperature)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --temperature/-T: must be >= 0, got {temperature}" in captured.err

    @pytest.mark.parametrize("b_field", ["6e307", "1e308"])
    def test_overflowing_field_exits_2(self, capsys, b_field):
        # 6e307: the window's span overflows and every state would be ground;
        # 1e308: the lowest level overflows and the entries would be NaN
        assert run_cli("rdm", "--ring", "4", "--pair", "0", "1", "-T", "0",
                       "--b-field", b_field) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err

    def test_largest_safe_field_polarizes(self, capsys):
        assert run_cli("rdm", "--ring", "4", "--pair", "0", "1", "-T", "0",
                       "--b-field", "1e307") == 0
        entries = read_rdm_csv(capsys.readouterr().out)
        assert entries[(3, 3)][0] == 1.0 and entries[(0, 0)][0] == 0.0

    def test_subnormal_temperature_warns_nothing(self, capsys):
        # at T = 1e-320 every excited level's exponent overflows to -inf, a
        # weight of 0: the field's all-down ground state, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("rdm", "--ring", "4", "--pair", "0", "1", "-T", "1e-320",
                           "--b-field", "1") == 0
        captured = capsys.readouterr()
        entries = read_rdm_csv(captured.out)
        assert captured.err == ""
        assert entries[(3, 3)][0] == 1.0
        assert all(value == 0.0 for key, (value, _) in entries.items() if key != (3, 3))

    def test_infinite_temperature_is_the_uniform_mixture(self, capsys):
        assert run_cli("rdm", "--ring", "4", "--pair", "0", "1", "-T", "inf") == 0
        entries = read_rdm_csv(capsys.readouterr().out)
        for k in range(4):
            assert entries[(k, k)][0] == pytest.approx(0.25, abs=1e-15)


class TestAnalyticCommand:
    def test_table(self, capsys):
        assert run_cli("analytic", "--n", "4") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        row = lines[3].split(",")  # n_up = 2
        assert row[1] == "1/6"
        assert row[2] == "1/3"
        assert float(row[6]) == pytest.approx(1 / 3)

    def test_zone(self, capsys):
        assert run_cli("analytic", "--n", "6", "--zone") == 0
        out = capsys.readouterr().out
        line = out.strip().splitlines()[1].split(",")
        assert line[3] == "2 3 4"
        assert float(line[4]) == pytest.approx(1 / 9)

    @pytest.mark.parametrize("argv", [["--n", "-1"], ["--n", "1"], ["--n", "0", "--zone"]])
    def test_too_few_spins_exit_2_and_create_no_file(self, tmp_path, capsys, argv):
        target = tmp_path / "table.csv"
        assert run_cli("analytic", *argv, "-o", str(target)) == 2
        assert "n_total must be >= 2" in capsys.readouterr().err
        assert not target.exists()
        assert run_cli("analytic", *argv) == 2
        assert capsys.readouterr().out == ""


class TestFiguresCommand:
    def test_figure1(self, tmp_path):
        target = tmp_path / "fig1.csv"
        assert run_cli("figures", "1", "--n", "100", "--output", str(target)) == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "n_up,concurrence_symmetric,concurrence_pairwise_mixed"
        assert len(lines) == 102
        peak = lines[51].split(",")
        assert float(peak[2]) == pytest.approx(1 / 99, abs=1e-15)

    def test_figure2(self, tmp_path):
        target = tmp_path / "fig2.csv"
        assert run_cli("figures", "2", "--n-min", "2", "--n-max", "20",
                       "--output", str(target)) == 0
        rows = {int(l.split(",")[0]): float(l.split(",")[1])
                for l in target.read_text().strip().splitlines()[1:]}
        assert rows[6] == pytest.approx(1 / 9, abs=1e-15)

    def test_unknown_figure_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("figures", "3")
        assert err.value.code == 2

    def test_inverted_range_is_input_error(self, capsys):
        assert run_cli("figures", "2", "--n-min", "5", "--n-max", "3") == 2
        assert "n_min" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["1", "--n", "-3"], ["2", "--n-min", "5", "--n-max", "2"]])
    def test_bad_input_exits_2_and_creates_no_file(self, tmp_path, capsys, argv):
        target = tmp_path / "figure.csv"
        assert run_cli("figures", *argv, "-o", str(target)) == 2
        assert not target.exists()
        assert run_cli("figures", *argv) == 2
        assert capsys.readouterr().out == ""


class TestSweepCommand:
    def test_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "geometries": [{"kind": "ring"}],
            "n_values": [4],
            "g1": -1.0,
            "g2_values": [0.0],
            "g3_values": [0.0],
            "t_grid": [0.0, 1.0],
            "b_grid": [0.0, 1.0],
        }))
        results = tmp_path / "out.jsonl"
        summary = tmp_path / "summary.csv"
        code = run_cli("sweep", "--config", str(config), "--output", str(results),
                       "--summary", str(summary), "--assert-zero")
        assert code == 0
        assert "4 records" in capsys.readouterr().out
        assert len(results.read_text().strip().splitlines()) == 4
        assert summary.read_text().startswith("index,geometry")

    def test_assert_zero_fails_on_antiferromagnet(self, tmp_path, capsys):
        graph_path = tmp_path / "af.json"
        save_graph(make_graph(2, [(0, 1, 1.0)]), str(graph_path))
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "geometries": [{"kind": "file", "path": str(graph_path)}],
            "t_grid": [0.0],
            "b_grid": [0.0],
        }))
        code = run_cli("sweep", "--config", str(config), "--assert-zero")
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_non_finite_field_exits_2_without_records(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text('{"geometries": [{"kind": "ring"}], "n_values": [4], '
                          '"t_grid": [0.0, 1.0], "b_grid": [NaN, Infinity]}')
        results = tmp_path / "out.jsonl"
        code = run_cli("sweep", "--config", str(config), "--output", str(results),
                       "--assert-zero")
        assert code == 2
        assert "b_grid values must be finite" in capsys.readouterr().err
        assert not results.exists()  # refused when the config loads

    @pytest.mark.parametrize("grid", [
        '"t_grid": [0.0, 1e400]',
        '"t_grid": {"points": 3, "max": 1e400}',
        '"t_grid": {"points": NaN}',
        '"t_grid": [0.0], "b_grid": {"points": -Infinity, "max": 1.0}',
    ])
    def test_non_finite_grid_exits_2_without_records(self, tmp_path, capsys, grid):
        # an infinite t would be written as "t": Infinity, which is not JSON
        config = tmp_path / "sweep.json"
        config.write_text('{"geometries": [{"kind": "ring"}], "n_values": [4], ' + grid + "}")
        results = tmp_path / "out.jsonl"
        assert run_cli("sweep", "--config", str(config), "--output", str(results)) == 2
        assert "grid values must be finite" in capsys.readouterr().err
        assert not results.exists()

    def test_non_finite_threshold_exits_2(self, tmp_path, capsys):
        # a NaN threshold would count no record above it and turn --assert-zero off
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"geometries": [{"kind": "ring"}], "n_values": [4],
                                      "g1": 1.0, "t_grid": [0.0], "b_grid": [0.0]}))
        results = tmp_path / "out.jsonl"
        assert run_cli("sweep", "--config", str(config), "--assert-zero") == 1
        assert "1 above threshold" in capsys.readouterr().out
        for threshold in ("nan", "inf", "-inf"):
            # refused while the arguments are parsed
            with pytest.raises(SystemExit) as err:
                run_cli("sweep", "--config", str(config), "--output", str(results),
                        "--assert-zero", f"--threshold={threshold}")
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument --threshold: must be finite, got {threshold}" in captured.err
            assert not results.exists()

    def test_non_finite_raw_concurrence_exits_2_without_its_batch(
        self, tmp_path, capsys, monkeypatch
    ):
        # the N = 5 batch yields NaN: the N = 4 records stay, none of N = 5 is written
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"geometries": [{"kind": "ring"}], "n_values": [4, 5],
                                      "t_grid": [0.0, 1.0], "b_grid": [0.0]}))
        original = ferroent.sweep.GraphThermalEngine.pair_entries

        def poisoned(engine, levels, temperatures):
            entries = original(engine, levels, temperatures)
            return entries * np.nan if engine.graph.n_spins == 5 else entries

        monkeypatch.setattr(ferroent.sweep.GraphThermalEngine, "pair_entries", poisoned)
        results, summary = tmp_path / "out.jsonl", tmp_path / "out.csv"
        code = run_cli("sweep", "--config", str(config), "--output", str(results),
                       "--summary", str(summary), "--assert-zero")
        assert code == 2
        captured = capsys.readouterr()
        assert "non-finite raw concurrence" in captured.err
        assert "above threshold" not in captured.out
        lines = results.read_text().splitlines()
        assert [json.loads(line)["n_spins"] for line in lines] == [4, 4]
        assert "NaN" not in results.read_text() and "nan" not in summary.read_text()
        assert len(summary.read_text().splitlines()) == 3

    def test_resume_appends_missing_records(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "geometries": [{"kind": "ring"}],
            "n_values": [4],
            "t_grid": [0.0, 1.0],
            "b_grid": [0.0, 1.0],
        }))
        results = tmp_path / "out.jsonl"
        run_cli("sweep", "--config", str(config), "--output", str(results))
        complete = results.read_text()
        # truncate to the first two lines and resume
        results.write_text("".join(complete.splitlines(keepends=True)[:2]))
        code = run_cli("sweep", "--config", str(config), "--output", str(results),
                       "--resume")
        assert code == 0
        assert results.read_text() == complete

    @pytest.mark.parametrize("cut", ["mid-line", "line end"])
    @pytest.mark.parametrize("csv_state", ["cut", "missing"])
    def test_resume_after_torn_write(self, tmp_path, capsys, cut, csv_state):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "geometries": [{"kind": "ring"}, {"kind": "open"}],
            "n_values": [4],
            "t_grid": [0.0, 1.0],
            "b_grid": [0.0, 1.0],
        }))
        results, summary = tmp_path / "out.jsonl", tmp_path / "out.csv"
        sweep = ["sweep", "--config", str(config), "--output", str(results),
                 "--summary", str(summary)]
        assert run_cli(*sweep) == 0
        complete, complete_csv = results.read_bytes(), summary.read_bytes()
        lines = complete.splitlines(keepends=True)
        kept = b"".join(lines[:5])
        results.write_bytes(kept + lines[5][: len(lines[5]) // 2] if cut == "mid-line" else kept)
        if csv_state == "cut":
            summary.write_bytes(complete_csv[: len(complete_csv) // 3])
        else:
            summary.unlink()
        capsys.readouterr()
        assert run_cli(*sweep, "--resume") == 0
        assert results.read_bytes() == complete
        assert summary.read_bytes() == complete_csv
        assert capsys.readouterr().out.startswith("sweep: 8 records")

    def test_resume_refuses_misnumbered_records(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "geometries": [{"kind": "ring"}], "n_values": [4], "t_grid": [0.0, 1.0],
        }))
        results = tmp_path / "out.jsonl"
        assert run_cli("sweep", "--config", str(config), "--output", str(results)) == 0
        first, second = results.read_text().splitlines(keepends=True)
        shuffled = second + first
        results.write_text(shuffled)
        capsys.readouterr()
        code = run_cli("sweep", "--config", str(config), "--output", str(results), "--resume")
        assert code == 2
        assert "line 1 is not record 0" in capsys.readouterr().err
        assert results.read_text() == shuffled

    def test_resume_refuses_another_config(self, tmp_path, capsys):
        # two ring N = 4 records and a torn third, resumed with an open N = 5 config
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "geometries": [{"kind": "ring"}], "n_values": [4], "t_grid": [0.0, 1.0, 2.0],
        }))
        results = tmp_path / "out.jsonl"
        assert run_cli("sweep", "--config", str(config), "--output", str(results)) == 0
        partial = b"".join(results.read_bytes().splitlines(keepends=True)[:2]) + b'{"index": 2'
        results.write_bytes(partial)
        other = tmp_path / "other.json"
        other.write_text(json.dumps({
            "geometries": [{"kind": "open"}], "n_values": [5], "t_grid": [0.0, 1.0, 2.0],
        }))
        capsys.readouterr()
        code = run_cli("sweep", "--config", str(other), "--output", str(results), "--resume")
        assert code == 2
        captured = capsys.readouterr()
        assert "line 1 is not record 0 of this config's sweep" in captured.err
        assert "records" not in captured.out
        assert results.read_bytes() == partial

    @pytest.mark.parametrize(
        "field, value", [("t", 2.0), ("g2", -0.5), ("n_spins", 5), ("g1", -1)]
    )
    def test_resume_refuses_a_moved_grid_point(self, tmp_path, capsys, field, value):
        # record 1 is at t = 1.0, g1 = -1.0, g2 = 0.0 and n_spins = 4; an int
        # g1 = -1 is the same number but not the same text
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "geometries": [{"kind": "ring"}], "n_values": [4], "t_grid": [0.0, 1.0],
        }))
        results = tmp_path / "out.jsonl"
        assert run_cli("sweep", "--config", str(config), "--output", str(results)) == 0
        first, second = results.read_text().splitlines(keepends=True)
        record = json.loads(second)
        record[field] = value
        edited = first + json.dumps(record) + "\n"
        results.write_text(edited)
        code = run_cli("sweep", "--config", str(config), "--output", str(results), "--resume")
        assert code == 2
        assert "line 2 is not record 1" in capsys.readouterr().err
        assert results.read_text() == edited

    def test_resumed_statistics_cover_the_whole_file(self, tmp_path, capsys):
        # an antiferromagnetic dimer is entangled at T = 0 only: record 0
        # is the one above threshold, and a resume after it must still count it
        graph = tmp_path / "dimer.json"
        graph.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.0]]}))
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "geometries": [{"kind": "file", "path": str(graph)}], "t_grid": [0.0, 2.0],
        }))
        results = tmp_path / "out.jsonl"
        sweep = ["sweep", "--config", str(config), "--output", str(results), "--assert-zero"]
        capsys.readouterr()
        assert run_cli(*sweep) == 1
        complete, line = results.read_bytes(), capsys.readouterr().out
        assert "1 above threshold" in line
        results.write_bytes(complete.splitlines(keepends=True)[0])
        assert run_cli(*sweep, "--resume") == 1
        assert capsys.readouterr().out == line
        assert results.read_bytes() == complete

    def test_negative_temperature_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "geometries": [{"kind": "ring"}],
            "n_values": [4],
            "t_grid": [0.0, -0.5],
            "b_grid": [0.0],
        }))
        results = tmp_path / "out.jsonl"
        results.write_text(EARLIER)
        code = run_cli("sweep", "--config", str(config), "--output", str(results),
                       "--assert-zero")
        assert code == 2
        assert "temperature" in capsys.readouterr().err
        assert results.read_text() == EARLIER  # refused when the config loads

    def test_overflowing_field_exits_2_without_the_batch(self, tmp_path, capsys):
        # B = 3e307 keeps the N = 4 levels' spread finite (4 B) but not N = 6's (6 B)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"geometries": [{"kind": "ring"}], "n_values": [4, 6],
                                      "t_grid": [0.0], "b_grid": [3e307]}))
        results = tmp_path / "out.jsonl"
        assert run_cli("sweep", "--config", str(config), "--output", str(results)) == 2
        assert "overflow" in capsys.readouterr().err
        [record] = [json.loads(line) for line in results.read_text().splitlines()]
        assert record["n_spins"] == 4 and record["ground_degeneracy"] == 1

    def test_out_of_range_pair_exits_2_before_any_record(self, tmp_path, capsys):
        # pair (0, 5) fits N = 6 but not N = 4: refused before the N = 6 records
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"geometries": [{"kind": "ring"}], "n_values": [6, 4],
                                      "t_grid": [0.0], "b_grid": [0.0],
                                      "pairs": [[0, 1], [0, 5]]}))
        results = tmp_path / "out.jsonl"
        results.write_text(EARLIER)
        assert run_cli("sweep", "--config", str(config), "--output", str(results)) == 2
        assert "invalid pair (0, 5) for 4 spins" in capsys.readouterr().err
        assert results.read_text() == EARLIER  # refused before the file is opened

    @pytest.mark.parametrize("change, message", [
        ({"n_values": [4, 15]}, "n_spins=15 exceeds the solver cap of 14"),
        ({"t_grid": [0.0, -1.0]}, "t_grid temperatures must be >= 0"),
        ({"t_grid": {"points": 3, "max": -0.5}}, "t_grid temperatures must be >= 0"),
        ({"n_values": [4.5]}, "n_values must be integers"),
        ({"t_grid": {"points": 3, "max_t": 0.5}}, "t_grid takes the keys points and max"),
        ({"b_grid": {"points": 2.7, "max": 1.0}}, "b_grid points must be a whole number"),
    ], ids=["spin-cap", "negative-t", "negative-max", "float-n", "misspelled-key",
            "fractional-points"])
    def test_refused_config_leaves_its_outputs_alone(self, tmp_path, capsys, change, message):
        # refused before any solve and before any output file is opened
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"geometries": [{"kind": "ring"}], "n_values": [4],
                                      **change}))
        results, summary = tmp_path / "out.jsonl", tmp_path / "out.csv"
        results.write_text(EARLIER)
        summary.write_text(EARLIER)
        assert run_cli("sweep", "--config", str(config), "--output", str(results),
                       "--summary", str(summary), "--assert-zero") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert results.read_text() == summary.read_text() == EARLIER

    @pytest.mark.parametrize("pairless", ["one-spin file geometry", "empty pair list"])
    def test_pairless_sweep_exits_2(self, tmp_path, capsys, pairless):
        graph = tmp_path / "one.json"
        graph.write_text(json.dumps({"n": 1, "edges": []}))
        if pairless == "empty pair list":
            data = {"geometries": [{"kind": "ring"}], "pairs": []}
        else:
            data = {"geometries": [{"kind": "file", "path": str(graph)}]}
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(data))
        results = tmp_path / "out.jsonl"
        results.write_text(EARLIER)
        assert run_cli("sweep", "--config", str(config), "--output", str(results)) == 2
        assert "no spin pairs" in capsys.readouterr().err
        assert results.read_text() == EARLIER

    @pytest.mark.parametrize("content", ['{"edges": []}', '{"n": 2, "edges": 5}', "[1, 2]",
                                         '{"n": "two", "edges": []}', "{"])
    def test_malformed_file_geometry_exits_2(self, tmp_path, capsys, content):
        graph = tmp_path / "f.json"
        graph.write_text(content)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"geometries": [{"kind": "file", "path": str(graph)}],
                                      "t_grid": [0.0], "b_grid": [0.0]}))
        results = tmp_path / "out.jsonl"
        results.write_text(EARLIER)
        assert run_cli("sweep", "--config", str(config), "--output", str(results)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"malformed graph file {str(graph)!r}" in captured.err
        assert results.read_text() == EARLIER

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"geometries": [{"kind": "ring"}], "bogus": True}))
        assert run_cli("sweep", "--config", str(config)) == 2
        assert "bad config" in capsys.readouterr().err


class TestVerifyCommand:
    def test_antiferromagnet_precondition_failure(self, tmp_path, capsys):
        path = write_edge_graph(tmp_path, coupling=1.0)
        code = run_cli("verify", "--suite", "universal", "--graph", path)
        assert code == 1
        out = capsys.readouterr().out
        assert "precondition failure" in out
        assert "FAILURES detected" in out

    def test_degeneracy_on_star(self, tmp_path, capsys):
        path = tmp_path / "star.json"
        from ferroent.graphs import star_graph
        save_graph(star_graph(6, -1.0), str(path))
        code = run_cli("verify", "--suite", "degeneracy", "--graph", str(path))
        assert code == 0
        assert "degeneracy 7" in capsys.readouterr().out

    def test_json_report(self, tmp_path):
        graph_path = write_edge_graph(tmp_path)
        report_path = tmp_path / "report.json"
        code = run_cli("verify", "--suite", "degeneracy", "--graph", str(graph_path),
                       "--json", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert payload["reports"][0]["ground_degeneracy"] == 3

    def test_level_near_the_ground_window_fails_by_name(self, tmp_path, capsys):
        # an edge of J = -5e-8 puts the singlet 5e-8 above the ground triplet:
        # 50 window widths of 1e-9; at J = -2e-7 it is 200 widths above
        report_path = tmp_path / "report.json"
        for coupling, ratio, code in ((-5e-8, 50.0, 1), (-2e-7, 200.0, 0)):
            path = write_edge_graph(tmp_path, coupling)
            assert run_cli("verify", "--suite", "all", "--graph", path,
                           "--json", str(report_path)) == code
            out = capsys.readouterr().out
            universal, degeneracy = json.loads(report_path.read_text())["reports"]
            for report in (universal, degeneracy):
                assert report["window_gap_ratio"] == pytest.approx(ratio, rel=1e-6)
                assert report["degeneracy_ok"] is True
            assert universal["passed"] is True
            assert degeneracy["passed"] is (code == 0)
            assert ("window gap failure: the next level is 50 window widths" in out) is (code == 1)

    def test_sweep_zero_suite_on_single_graph(self, tmp_path, capsys):
        path = write_edge_graph(tmp_path)
        code = run_cli("verify", "--suite", "sweep-zero", "--graph", path)
        assert code == 0
        assert "sweep-zero" in capsys.readouterr().out

    def test_sweep_zero_overflowing_field_exits_2(self, tmp_path, capsys):
        path = write_edge_graph(tmp_path)
        code = run_cli("verify", "--suite", "sweep-zero", "--graph", path, "--b-field", "1e308")
        assert code == 2
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "rdm"])
    @pytest.mark.parametrize("content", ['{"edges": []}', '{"n": 2, "edges": 5}', "[1, 2]",
                                         '{"n": 2, "edges": [[0, 1, Infinity]]}', "{"])
    def test_malformed_graph_file_exits_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        extra = ["--pair", "0", "1"] if command == "rdm" else []
        assert run_cli(command, "--graph", str(path), *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed graph file" in captured.err

    def test_missing_graph_file_exits_2(self, tmp_path, capsys):
        assert run_cli("verify", "--graph", str(tmp_path / "absent.json")) == 2
        assert "cannot read graph file" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["universal", "degeneracy", "sweep-zero", "all"])
    def test_pairless_graph_exits_2(self, tmp_path, capsys, suite):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "edges": []}))
        report_path = tmp_path / "report.json"
        code = run_cli("verify", "--suite", suite, "--graph", str(path),
                       "--json", str(report_path))
        assert code == 2
        assert "no spin pairs" in capsys.readouterr().err
        assert not report_path.exists()

    def test_all_suites_check_connectivity_once_per_graph(self, monkeypatch, capsys):
        calls = []
        original = ferroent.sweep.is_connected

        def counting(graph):
            calls.append(graph.n_spins)
            return original(graph)

        monkeypatch.setattr(ferroent.sweep, "is_connected", counting)
        assert run_cli("verify", "--suite", "all") == 0
        graphs = [graph for _, graph in ferroent.sweep.builtin_graph_set()]
        # in batch order: the graphs of one spin count together
        batches = ferroent.sweep.verify_batches(graphs)
        assert calls == [graphs[k].n_spins for batch in batches for k in batch]
        assert sorted(k for batch in batches for k in batch) == list(range(len(graphs)))

    @pytest.mark.parametrize("source", ["builtin", "interleaved files"])
    def test_batched_reports_equal_batches_of_one(self, tmp_path, monkeypatch, source):
        # graphs of one spin count share an engine; each report must be the one
        # its graph gets alone, and reports and scans keep the input order
        if source == "builtin":
            graphs, argv = ferroent.sweep.builtin_graph_set(), []
        else:
            graphs, argv = [], []
            # the last, two triangles, is the third of the N = 6 batch, and its pairs
            # across the triangles are far from the universal state: it fails (exit 1)
            triangles = make_graph(6, [(0, 1, -1.0), (1, 2, -1.0), (0, 2, -1.0),
                                       (3, 4, -1.0), (4, 5, -1.0), (3, 5, -1.0)])
            instances = [random_graph(n, 0.6, (-2.0, -0.3), seed)
                         for n, seed in [(6, 3), (8, 5), (6, 4), (9, 2), (8, 6)]]
            for k, graph in enumerate(instances + [triangles]):
                path = str(tmp_path / f"g{k}.json")
                save_graph(graph, path)
                graphs.append((path, graph))
                argv += ["--graph", path]
        eig_calls = []
        original = ferroent.spectra.eig_sym
        monkeypatch.setattr(ferroent.spectra, "eig_sym",
                            lambda matrix: eig_calls.append(matrix.shape) or original(matrix))
        report_path = tmp_path / "report.json"
        code = run_cli("verify", "--suite", "all", *argv, "--json", str(report_path))
        assert code == (0 if source == "builtin" else 1)
        # one solve per spin count, one eig_sym call per S of each
        spin_counts = sorted({graph.n_spins for _, graph in graphs})
        assert len(eig_calls) == sum(n // 2 + 1 for n in spin_counts)
        monkeypatch.undo()
        payload = json.loads(report_path.read_text())
        ids = [graph_id for graph_id, _ in graphs]
        assert [report["graph_id"] for report in payload["reports"]] == ids * 2
        assert [scan["graph_id"] for scan in payload["scans"]] == ids
        last_bits = ("max_rdm_deviation", "max_raw_concurrence")
        for k, (graph_id, graph) in enumerate(graphs):
            alone, [scan] = ferroent.sweep.verify([(graph_id, graph)])
            assert payload["scans"][k] == scan
            # the scan against one built here: T = N j / 20 for j = 0..20
            t_grid = [graph.n_spins * j / 20.0 for j in range(21)]
            engine = ferroent.sweep.GraphThermalEngine([graph])
            assert scan["grid_top"] == graph.n_spins
            assert scan["max_clean_t"] == ferroent.sweep.zero_temperature_scan(engine, t_grid)[0]
            for report, expected in zip(payload["reports"][k :: len(graphs)], alone, strict=True):
                expected = dataclasses.asdict(expected)
                for key, value in report.items():
                    if key in last_bits and value is not None:
                        assert abs(value - expected[key]) <= 1e-15, (graph_id, key)
                    else:
                        assert value == expected[key], (graph_id, key)

    def test_each_batch_shares_one_zero_field_level_table(self, monkeypatch, capsys):
        # the built-in set makes 8 batches: per batch one engine, one zero-field level
        # table for both report suites and the universal T = 0 entries, and one table
        # and one entry call for the scan
        calls = dict.fromkeys(["engines", "levels", "eig_sym", "pair_entries"], 0)

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return counted

        engine = ferroent.sweep.GraphThermalEngine
        for target, attribute, name in [(engine, "__init__", "engines"),
                                        (ferroent.spectra.Levels, "at", "levels"),
                                        (ferroent.spectra, "eig_sym", "eig_sym"),
                                        (engine, "pair_entries", "pair_entries")]:
            monkeypatch.setattr(target, attribute, counting(name, getattr(target, attribute)))
        assert run_cli("verify", "--suite", "all") == 0
        assert calls == {"engines": 8, "levels": 16, "eig_sym": 28, "pair_entries": 16}

    def test_large_graphs_form_batches_of_one(self):
        g12 = [random_graph(12, 0.4, (-2.0, -0.2), seed) for seed in (1, 2)]
        ring14 = ring_chain(ChainParams(n_spins=14, g1=-1.0))
        graphs = [g12[0], ring14, g12[1], ring14]
        assert ferroent.sweep.verify_batches(graphs) == [[0], [2], [1], [3]]
        builtin = [graph for _, graph in ferroent.sweep.builtin_graph_set()]
        batches = ferroent.sweep.verify_batches(builtin)
        assert [len({builtin[k].n_spins for k in batch}) for batch in batches] == [1] * 8

    def test_json_report_is_the_encoders_text_of_the_reports(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("verify", "--suite", "all", "--json", str(report_path)) == 0
        written = report_path.read_text()
        payload = json.loads(written)
        reports = [ferroent.sweep.VerifyReport(**report) for report in payload["reports"]]
        payload["reports"] = [dataclasses.asdict(report) for report in reports]
        assert written == json.dumps(payload, indent=2) + "\n"

    def test_all_suites_on_builtin_set(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli("verify", "--suite", "all", "--json", str(report_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out
        payload = json.loads(report_path.read_text())
        # universal + degeneracy reports for each of the 20 builtin graphs
        assert len(payload["reports"]) == 40
        assert len(payload["scans"]) == 20
        assert payload["passed"] is True


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            run_cli("spectrum", "--ring", "4", "--frobnicate")
        assert err.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            run_cli("transmogrify")
        assert err.value.code == 2

    def test_help_mentions_all_commands(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("--help")
        assert err.value.code == 0
        out = capsys.readouterr().out
        for command in ("spectrum", "rdm", "analytic", "figures", "sweep", "verify"):
            assert command in out


class TestNonFiniteField:
    @pytest.mark.parametrize("command", [
        ["rdm", "--ring", "4", "--pair", "0", "1", "-T", "1", "--b-field", "nan"],
        ["spectrum", "--ring", "4", "--b-field", "nan"],
        ["spectrum", "--ring", "4", "--b-field", "inf", "--dump-sector", "2"],
        ["verify", "--suite", "sweep-zero", "--b-field=-inf"],
        ["verify", "--suite", "universal", "--b-field", "nan"],
        ["verify", "--suite", "degeneracy", "--b-field", "nan"],
    ])
    def test_exits_2_and_prints_nothing(self, capsys, monkeypatch, command):
        # refused while the arguments are parsed, for every suite, before any solve
        def no_solve(graphs, consume):
            raise AssertionError("the field was not checked before the solve")

        monkeypatch.setattr(ferroent.spectra, "central_stream", no_solve)
        monkeypatch.setattr(ferroent.sweep, "central_stream", no_solve)
        with pytest.raises(SystemExit) as err:
            run_cli(*command)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --b-field: must be finite, got " in captured.err


class TestOneDiagonalizationPerCommand:
    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "all"],
        ["rdm", "--pair", "0", "3", "-T", "0.5", "--b-field", "0.2"],
    ])
    def test_eig_sym_calls(self, tmp_path, monkeypatch, capsys, command):
        graph = random_graph(6, 0.5, (-2.0, -0.3), seed=8)
        path = tmp_path / "g.json"
        save_graph(graph, str(path))
        calls = []
        original = ferroent.spectra.eig_sym

        def counting(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(ferroent.spectra, "eig_sym", counting)
        assert run_cli(*command, "--graph", str(path)) == 0
        # one solve, a batch of one graph: one block per S = 0..3 of the
        # central sector, C(6, 3 - S) - C(6, 2 - S) columns each
        assert calls == [(1, 5, 5), (1, 9, 9), (1, 5, 5), (1, 1, 1)]

    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "all"],
        ["rdm", "--pair", "0", "3", "-T", "0.5", "--b-field", "0.2"],
    ])
    def test_eig_sym_calls_odd_n(self, tmp_path, monkeypatch, capsys, command):
        graph = random_graph(7, 0.5, (-2.0, -0.3), seed=8)
        path = tmp_path / "g.json"
        save_graph(graph, str(path))
        calls = []
        original = ferroent.spectra.eig_sym

        def counting(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(ferroent.spectra, "eig_sym", counting)
        assert run_cli(*command, "--graph", str(path)) == 0
        # the central sector n_up = 3, S = 1/2..7/2, a batch of one graph
        assert calls == [(1, 14, 14), (1, 14, 14), (1, 6, 6), (1, 1, 1)]


def test_cli_import_leaves_the_process_pool_out():
    # only ``sweep --workers`` above 1 starts a pool; no other command pays its import
    code = "import sys, ferroent.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("command", [
    ["graph", "--ring", "5", "--g2", "-0.5"],
    ["spectrum", "--ring", "4"],
    ["spectrum", "--chain", "4", "--dump-sector", "2"],
    ["rdm", "--ring", "4", "--pair", "0", "2", "-T", "1"],
    ["analytic", "--n", "4"],
    ["analytic", "--n", "6", "--zone"],
    ["figures", "1", "--n", "5"],
    ["figures", "2", "--n-max", "6"],
])
def test_file_output_is_the_stdout_text(tmp_path, capsys, command):
    # one opener for every command: a file gets the bytes stdout gets, and
    # stdout ("-" or no --output) is left open
    target = tmp_path / "out.txt"
    assert run_cli(*command, "--output", str(target)) == 0
    assert run_cli(*command, "--output", "-") == 0
    assert run_cli(*command) == 0
    text = capsys.readouterr().out
    assert text == 2 * target.read_text(encoding="utf-8") and text
    assert not sys.stdout.closed


class TestBrokenPipe:
    def test_closed_stdout_exits_0(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert run_cli("spectrum", "--ring", "4") == 0
