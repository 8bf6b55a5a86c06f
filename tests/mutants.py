"""The mutation gate, outside tier-1: each mutant must make its named tests fail.

pytest does not collect this file (its name does not match ``test_*``);
run it directly from the repository root:

    python tests/mutants.py

A mutant is (file, exact old text, new text, test ids): one deliberate
fault in the package, such as a comparison turned round or a check
dropped, and the tests that are there to catch it.  The gate copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory and
first runs every named test on the unchanged copy, which must pass.
Then, for each mutant, it writes the fault into the copy and runs that
mutant's tests there: the mutant is killed when pytest reports a failed
test (exit code 1), and the copy is restored.  The gate exits 1 if an
old text does not occur exactly once in its file, if the unchanged copy
fails, or if a mutant survives, and prints one line per mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SPECTRA, SWEEP, CLI = "src/ferroent/spectra.py", "src/ferroent/sweep.py", "src/ferroent/cli.py"

# (name, file, old text, new text, test ids that must fail)
MUTANTS = (
    (
        "slot mask >= turned into >",
        SPECTRA,
        "slots = 2.0 * spins >= np.abs(",
        "slots = 2.0 * spins > np.abs(",
        ["tests/test_spectra.py::TestFullSpectrum::test_total_count_is_full_space"],
    ),
    (
        "mirrored moment rows not reversed",
        SWEEP,
        "np.concatenate([rows, rows[:, ::-1]])",
        "np.concatenate([rows, rows])",
        ["tests/test_sweep.py::TestThermalEngine::test_entries_match_mixed_rdm_with_field"],
    ),
    (
        "spectrum prints each sector unsorted",
        SPECTRA,
        'return [np.sort(row[members], kind="stable")',
        "return [row[members]",
        ["tests/test_cli.py::TestSpectrumCommand::test_each_sector_ascends_and_matches_the_oracle"],
    ),
    (
        "overflowing field not refused",
        SPECTRA,
        "if not np.isfinite(width).all():",
        "if False:",
        ["tests/test_cli.py::TestRdmCommand::test_overflowing_field_exits_2",
         "tests/test_cli.py::TestSweepCommand::test_overflowing_field_exits_2_without_the_batch"],
    ),
    (
        "sweep pairs not checked before the first batch",
        SWEEP,
        "            _check_pairs(pairs, n_spins)",
        "            pass",
        ["tests/test_cli.py::TestSweepCommand::test_out_of_range_pair_exits_2_before_any_record"],
    ),
    (
        "sweep config checked only after its outputs are opened",
        CLI,
        "    _expand_batches(config)\n",
        "",
        ["tests/test_cli.py::TestSweepCommand::test_refused_config_leaves_its_outputs_alone"],
    ),
    (
        "C(N, n_up) level count not checked",
        SPECTRA,
        "if np.count_nonzero(row) != comb(n, n_up):",
        "if False:",
        ["tests/test_spectra.py::TestCentralSector::test_sector_counts_fail_by_name"],
    ),
    (
        "DEGENERACY_TOL x 1e3",
        SPECTRA,
        "DEGENERACY_TOL = 1e-9",
        "DEGENERACY_TOL = 1e-6",
        ["tests/test_spectra.py::TestGroundSubspace"
         "::test_window_absorbs_rounding_but_not_a_split_level"],
    ),
    (
        "ground window twice as wide",
        SPECTRA,
        "width = DEGENERACY_TOL * np.maximum(top - lowest, 1.0)",
        "width = 2.0 * DEGENERACY_TOL * np.maximum(top - lowest, 1.0)",
        ["tests/test_sweep.py::TestGroundSpin"
         "::test_level_just_above_the_window_fails_the_degeneracy_suite"],
    ),
    (
        "WINDOW_GAP_RATIO_MIN not checked",
        SWEEP,
        "and (ratio is None or ratio >= WINDOW_GAP_RATIO_MIN)",
        "and True",
        ["tests/test_cli.py::TestVerifyCommand::test_level_near_the_ground_window_fails_by_name"],
    ),
    (
        "resume does not compare the config's grid points",
        SWEEP,
        "or not isinstance(record, dict) or expected != json.dumps(",
        "or not isinstance(record, dict) or False and expected != json.dumps(",
        ["tests/test_cli.py::TestSweepCommand::test_resume_refuses_another_config"],
    ),
    (
        "CSV summary label not quoted",
        SWEEP,
        "if any(char in geometry for char in ',\"\\r\\n'):",
        "if False:",
        ["tests/test_sweep.py::test_written_text_is_the_json_encoders"],
    ),
    (
        "JSON record format's % escapes dropped",
        SWEEP,
        "fixed[1:-1].replace(\"%\", \"%%\")",
        "fixed[1:-1]",
        ["tests/test_sweep.py::test_written_text_is_the_json_encoders"],
    ),
    (
        "non-finite raw concurrence written",
        SWEEP,
        "if not np.isfinite(raw).all():",
        "if False:",
        ["tests/test_cli.py::TestSweepCommand"
         "::test_non_finite_raw_concurrence_exits_2_without_its_batch"],
    ),
    (
        "points back as the columns of the contraction's products",
        SWEEP,
        "moments = (self._moment_rows @ points).reshape(count, p, 2, 7 * dim, 1)\n"
        "        coefficients = self._coefficients\n"
        "        # the products' order: alpha, epsilon | beta, delta | gamma\n"
        "        entries = np.empty((len(self.pairs), count, p, 5, 1, 1))\n"
        "        np.matmul(coefficients[..., : 3 * dim], moments[..., : 3 * dim, :],\n"
        "                  out=entries[:, :, :, :2])\n"
        "        np.matmul(coefficients[..., 2 * dim :], moments[..., 3 * dim :, :],\n"
        "                  out=entries[:, :, :, 2:4])\n"
        "        np.matmul(coefficients[..., 2 * dim : 4 * dim], "
        "moments[:, :, :1, 3 * dim : 5 * dim],\n"
        "                  out=entries[:, :, :, 4:])\n"
        "        return entries.reshape(len(self.pairs), count, p, 5)[..., _ENTRY_ORDER]",
        # (G, 1, 2, 7 dim, p) moments: each product (1, K) @ (K, p)
        "moments = (self._moment_rows @ points).reshape(count, p, 2, 7 * dim)\n"
        "        moments = moments.transpose(0, 2, 3, 1)[:, None]\n"
        "        coefficients = self._coefficients\n"
        "        entries = np.empty((len(self.pairs), count, 1, 5, 1, p))\n"
        "        np.matmul(coefficients[..., : 3 * dim], moments[..., : 3 * dim, :],\n"
        "                  out=entries[:, :, :, :2])\n"
        "        np.matmul(coefficients[..., 2 * dim :], moments[..., 3 * dim :, :],\n"
        "                  out=entries[:, :, :, 2:4])\n"
        "        np.matmul(coefficients[..., 2 * dim : 4 * dim], "
        "moments[:, :, :1, 3 * dim : 5 * dim],\n"
        "                  out=entries[:, :, :, 4:])\n"
        "        entries = entries.reshape(len(self.pairs), count, 5, p).swapaxes(2, 3)\n"
        "        return entries[..., _ENTRY_ORDER]",
        ["tests/test_sweep.py::TestThermalEngine"
         "::test_point_entries_are_the_same_alone_and_among_many",
         "tests/test_sweep.py::TestRunSweep::test_grid_budget_does_not_change_output",
         "tests/test_cli.py::TestRdmCommand::test_ring_10_sweep_points_bit_for_bit"],
    ),
    (
        "rank-2 term of zz with the wrong sign",
        SWEEP,
        "coefficients[:, :, 2] = 3.0 * rank2",
        "coefficients[:, :, 2] = -3.0 * rank2",
        ["tests/test_sweep.py::TestThermalEngine::test_stack_matches_oracle_on_every_sector"],
    ),
    (
        "rank-2 term of zz scaled by 1.001",
        SWEEP,
        "coefficients[:, :, 2] = 3.0 * rank2",
        "coefficients[:, :, 2] = 3.003 * rank2",
        ["tests/test_sweep.py::TestThermalEngine::test_stack_matches_oracle_on_every_sector"],
    ),
    (
        "z term with the wrong sign",
        SWEEP,
        "coefficients[:, :, 1] = 0.5 * (g[first] + g[second])",
        "coefficients[:, :, 1] = -0.5 * (g[first] + g[second])",
        ["tests/test_sweep.py::TestThermalEngine::test_entries_match_mixed_rdm_with_field"],
    ),
    (
        "gamma with the wrong sign of zz",
        SWEEP,
        "coefficients[:, :, 3] = c - zz0",
        "coefficients[:, :, 3] = c + zz0",
        ["tests/test_sweep.py::TestThermalEngine::test_stack_matches_oracle_on_every_sector"],
    ),
    (
        "M of the central sector taken as 0 at odd N",
        SWEEP,
        "m0 = n // 2 - 0.5 * n",
        "m0 = 0.0",
        ["tests/test_sweep.py::TestThermalEngine::test_stack_matches_oracle_on_every_sector"],
    ),
    (
        "alpha's kinematic zero below 2 up spins dropped",
        SWEEP,
        "top, middle = 1.0 * (sector >= 2),",
        "top, middle = 1.0 * (sector >= 1),",
        ["tests/test_spectra.py::TestCentralSector::test_kinematic_zeros_are_exact"],
    ),
    (
        "flip-parity sign of the lower half",
        SPECTRA,
        "np.multiply(upper[::-1], -1.0 if parity else 1.0, out=target[dim // 2 :])",
        "np.multiply(upper[::-1], 1.0 if parity else -1.0, out=target[dim // 2 :])",
        ["tests/test_sweep.py::TestThermalEngine::test_stack_matches_oracle_on_every_sector"],
    ),
    (
        "engine spin residual not checked",
        SWEEP,
        "if residual.max() > SPIN_LABEL_TOL:",
        "if False:",
        ["tests/test_spectra.py::TestCentralSector::test_label_residual_fails_by_name"],
    ),
    (
        "full_spectrum carries back its eigenvectors",
        SPECTRA,
        "batch = central_stream([graph])",
        "batch = central_stream([graph], lambda positions, vectors: None)",
        ["tests/test_spectra.py::TestFullSpectrum::test_forms_no_eigenvector"],
    ),
    (
        "folded hop with the wrong sign",
        SPECTRA,
        "block[member[folded], row[folded], column[folded]] += sign * value[folded]",
        "block[member[folded], row[folded], column[folded]] -= sign * value[folded]",
        ["tests/test_spectra.py::test_stacked_blocks_are_the_dense_central_block_bit_for_bit"],
    ),
    (
        "one ground window for a whole batch",
        SPECTRA,
        "lowest = np.min(shifted, axis=(-2, -1), keepdims=True)",
        "lowest = np.min(shifted, axis=None, keepdims=True)",
        ["tests/test_sweep.py::TestThermalEngine::test_batch_engine_matches_one_graph_engines"],
    ),
    (
        "verify reports of a batch attributed to the wrong graph",
        SWEEP,
        "engine = GraphThermalEngine([graphs[k][1] for k in batch])",
        "engine = GraphThermalEngine([graphs[k][1] for k in batch[::-1]])",
        ["tests/test_cli.py::TestVerifyCommand::test_batched_reports_equal_batches_of_one"],
    ),
    (
        "a batch's universal reports read graph 0's entries for every graph",
        SWEEP,
        "entries = engine.pair_entries(levels, (0.0,))[..., 0, :]",
        "entries = engine.pair_entries(levels, (0.0,))[:, [0] * len(batch), 0, :]",
        ["tests/test_cli.py::TestVerifyCommand::test_batched_reports_equal_batches_of_one"],
    ),
    (
        "verify's scan grid reaching 2N",
        SWEEP,
        "t_grid = [engine.graph.n_spins * j / 20.0 for j in range(21)]",
        "t_grid = [engine.graph.n_spins * j / 10.0 for j in range(21)]",
        ["tests/test_cli.py::TestVerifyCommand::test_batched_reports_equal_batches_of_one"],
    ),
    (
        "verify's scan grid stopping at N/2",
        SWEEP,
        "t_grid = [engine.graph.n_spins * j / 20.0 for j in range(21)]",
        "t_grid = [engine.graph.n_spins * j / 20.0 for j in range(11)]",
        ["tests/test_cli.py::TestVerifyCommand::test_batched_reports_equal_batches_of_one"],
    ),
    (
        "dump-sector overflow not refused",
        CLI,
        "if not np.isfinite(matrix).all():",
        "if False:",
        ["tests/test_cli.py::TestSpectrumCommand::test_dump_sector_overflowing_field_exits_2"],
    ),
    (
        "least ground spin taken as the largest",
        SPECTRA,
        "return np.where(self.window, self.spectrum.spin, np.inf).min(axis=(-2, -1))",
        "return np.where(self.window, self.spectrum.spin, -np.inf).max(axis=(-2, -1))",
        ["tests/test_sweep.py::TestGroundSpin::test_disconnected_ground_window_holds_lower_spins"],
    ),
    (
        "degeneracy counts multiplets, not levels",
        SPECTRA,
        "return self.window.sum(axis=(-2, -1))",
        "return self.window.any(axis=-2).sum(axis=-1)",
        ["tests/test_spectra.py::TestGroundSubspace::test_ring5_has_six_states"],
    ),
    (
        "gap taken over the ground window too",
        SPECTRA,
        "initial=np.inf, where=~self.window)",
        "initial=np.inf, where=self.spectrum.slots)",
        ["tests/test_spectra.py::test_ground_gap_of_single_edge"],
    ),
    (
        "gap ratio None test dropped",
        SPECTRA,
        "return [ratio if ratio else None for ratio in",
        "return [ratio for ratio in",
        ["tests/test_spectra.py::TestGroundSubspace"
         "::test_window_absorbs_rounding_but_not_a_split_level"],
    ),
    (
        "Boltzmann weights not normalized",
        SPECTRA,
        "factors /= np.ascontiguousarray(factors[..., slots]).sum(axis=-1)[..., None, None]",
        "pass",
        ["tests/test_spectra.py::TestGibbsWeights::test_infinite_temperature_limit"],
    ),
    (
        "eig_sym's symmetry check a no-op on a stack",
        SPECTRA,
        "np.abs(matrix - matrix.swapaxes(-1, -2))",
        "np.abs(matrix - matrix.swapaxes(1, -2))",
        ["tests/test_spectra.py::TestEigSym::test_rejects_asymmetric_matrix_in_a_stack"],
    ),
    (
        "points grid step multiplied by its interval count",
        SWEEP,
        "top * k / (points - 1)",
        "top * k * (points - 1)",
        ["tests/test_sweep.py::TestConfig::test_points_grid_spaces_its_values_evenly_from_zero"],
    ),
    (
        "one-point grid refused",
        SWEEP,
        'if int(grid.get("points", 0)) < 1:',
        'if int(grid.get("points", 0)) <= 1:',
        ["tests/test_sweep.py::TestConfig::test_one_point_grid_is_zero"],
    ),
    (
        "default g1 antiferromagnetic",
        SWEEP,
        "    g1: float = -1.0",
        "    g1: float = 1.0",
        ["tests/test_sweep.py::TestConfig::test_default_g1_is_ferromagnetic"],
    ),
    (
        "default random j_range antiferromagnetic",
        SWEEP,
        "j_range: tuple[float, float] = (-1.0, -1.0)",
        "j_range: tuple[float, float] = (1.0, 1.0)",
        ["tests/test_sweep.py::TestConfig::test_random_geometry_default_couplings_are_minus_one"],
    ),
    (
        "expected degeneracy of a connected graph N - 1",
        SWEEP,
        "expected_degeneracy = n + 1 if connected else None",
        "expected_degeneracy = n - 1 if connected else None",
        ["tests/test_sweep.py::TestVerifyDegeneracy"
         "::test_connected_graph_expects_n_plus_one_levels"],
    ),
    (
        "ground energy check divided by the energy scale",
        SWEEP,
        "<= 1e-10 * max(1.0, abs(expected_energy))",
        "<= 1e-10 / max(1.0, abs(expected_energy))",
        ["tests/test_sweep.py::TestVerifyDegeneracy"
         "::test_energy_check_is_relative_to_the_expected_energy"],
    ),
    (
        "scan grid with a repeated temperature refused",
        SWEEP,
        "if any(t_values[k] > t_values[k + 1]",
        "if any(t_values[k] >= t_values[k + 1]",
        ["tests/test_sweep.py::TestZeroTemperatureScan::test_grid_may_repeat_a_temperature"],
    ),
)


def run_tests(copy: Path, test_ids: list[str]) -> int:
    """pytest's exit code for ``test_ids`` in the copy."""
    # no bytecode cache: a mutant and the original can share a size and an mtime second
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_ids]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, check=False).returncode


def main() -> int:
    failed = False
    for name, path, old, _, _ in MUTANTS:
        found = (ROOT / path).read_text(encoding="utf-8").count(old)
        if found != 1:
            print(f"{name}: the old text occurs {found} times in {path}, not once")
            failed = True
    if failed:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        every_id = sorted({test_id for *_, test_ids in MUTANTS for test_id in test_ids})
        if run_tests(copy, every_id) != 0:
            print("the named tests do not pass on the unchanged code")
            return 1
        for name, path, old, new, test_ids in MUTANTS:
            original = (copy / path).read_text(encoding="utf-8")
            (copy / path).write_text(original.replace(old, new), encoding="utf-8")
            code = run_tests(copy, test_ids)
            (copy / path).write_text(original, encoding="utf-8")
            killed = code == 1
            failed |= not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {name} (pytest exit {code})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
