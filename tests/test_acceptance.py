"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines on success; tolerances are fixed here and nowhere else.
"""

import numpy as np

from ferroent.analytic import (
    UNIVERSAL_ENTRIES,
    concurrence_pairwise_mixed,
    concurrence_symmetric,
    ground_mixture_entries,
    symmetric_rdm_entries,
    zone,
    zone_mixture_concurrence,
)
from ferroent.cli import main as cli_main
from ferroent.graphs import make_graph
from ferroent.hilbert import sector_basis
from ferroent.spectra import Levels
from ferroent.sweep import (
    GeometrySpec,
    GraphThermalEngine,
    SweepConfig,
    _raw_concurrence,
    builtin_graph_set,
    run_sweep,
)
from oracles import (
    XStateRDM,
    concurrence_wootters,
    concurrence_x,
    dicke_vector,
    embed_sector_vector,
    naive_pair_rdm,
    sxsx_correlator,
)

UNIVERSAL = XStateRDM(*map(float, UNIVERSAL_ENTRIES))


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}{detail}")
    assert passed, f"criterion {number} ({name}) failed{detail}"


def test_criterion_1_universal_ground_rdm():
    target = UNIVERSAL.matrix()
    worst_deviation = 0.0
    worst_raw = -np.inf
    clamp_ok = True
    for graph_id, graph in builtin_graph_set():
        engine = GraphThermalEngine(graph)
        entries = engine.pair_entries(Levels.at(engine.spectrum, 0.0), (0.0,))[:, 0]
        for row, raw in zip(entries, _raw_concurrence(entries)):
            rho = XStateRDM(*row).matrix()
            worst_deviation = max(worst_deviation, float(np.max(np.abs(rho - target))))
            worst_raw = max(worst_raw, raw)
            clamp_ok &= max(0.0, raw) == 0.0
    passed = worst_deviation <= 1e-10 and worst_raw <= 1e-12 and clamp_ok
    report(
        1,
        "universal-ground-rdm",
        passed,
        f" (max entry deviation {worst_deviation:.3e}, max raw concurrence {worst_raw:.3e})",
    )


def test_criterion_2_ground_degeneracy_and_energy():
    failures = []
    for graph_id, graph in builtin_graph_set():
        levels = Levels.at(GraphThermalEngine(graph).spectrum, 0.0)
        e_min, degeneracy = levels.ground_energy, levels.degeneracy
        expected = 0.25 * graph.coupling_sum
        if degeneracy != graph.n_spins + 1:
            failures.append(f"{graph_id}: d={degeneracy} != {graph.n_spins + 1}")
        if abs(e_min - expected) > 1e-10 * abs(expected):
            failures.append(f"{graph_id}: E0={e_min} != {expected}")
    has_star = any(graph_id == "star6" for graph_id, _ in builtin_graph_set())
    report(
        2,
        "ground-degeneracy-energy",
        not failures and has_star,
        f" ({'; '.join(failures) if failures else 'all graphs incl. star'})",
    )


def test_criterion_3_analytic_numeric_equivalence():
    worst_entry = 0.0
    for n_total in range(2, 11):
        for n_up in range(n_total + 1):
            expected = symmetric_rdm_entries(n_total, n_up)
            target = np.zeros((4, 4), dtype=complex)
            target[0, 0] = float(expected.alpha)
            target[1, 1] = float(expected.beta)
            target[1, 2] = target[2, 1] = float(expected.gamma)
            target[2, 2] = float(expected.delta)
            target[3, 3] = float(expected.epsilon)
            basis = sector_basis(n_total, n_up)
            full = embed_sector_vector(dicke_vector(n_total, n_up), basis)
            for a in range(n_total):
                for b in range(a + 1, n_total):
                    rho = naive_pair_rdm(full, n_total, (a, b))
                    worst_entry = max(worst_entry, float(np.max(np.abs(rho - target))))
    entries_ok = worst_entry <= 1e-12

    worst_formula = 0.0
    for n_total in range(2, 201):
        for n_up in range(n_total + 1):
            entries = symmetric_rdm_entries(n_total, n_up)
            state = XStateRDM(*map(float, (entries.alpha, entries.beta, entries.gamma,
                                           entries.delta, entries.epsilon)))
            worst_formula = max(
                worst_formula,
                abs(concurrence_symmetric(n_total, n_up) - concurrence_x(state)),
            )
    formula_ok = worst_formula <= 1e-12

    summation_ok = all(
        ground_mixture_entries(n_total) == UNIVERSAL_ENTRIES for n_total in range(2, 65)
    )
    report(
        3,
        "analytic-numeric-equivalence",
        entries_ok and formula_ok and summation_ok,
        f" (entries dev {worst_entry:.3e}, formula dev {worst_formula:.3e}, "
        f"exact summation {summation_ok})",
    )


def test_criterion_4_pairwise_cancellation_structure():
    structure_ok = True
    for n_total in range(2, 201):
        members = set(zone(n_total).members)
        for n_up in range(n_total + 1):
            value = concurrence_pairwise_mixed(n_total, n_up)
            if n_up in members:
                structure_ok &= value > 0.0
            else:
                structure_ok &= value == 0.0
    worst_peak = 0.0
    for n_total in range(2, 201):
        if n_total % 2 == 0:
            peak = concurrence_pairwise_mixed(n_total, n_total // 2)
            worst_peak = max(worst_peak, abs(peak - 1.0 / (n_total - 1)))
        else:
            for n_up in ((n_total - 1) // 2, (n_total + 1) // 2):
                peak = concurrence_pairwise_mixed(n_total, n_up)
                worst_peak = max(worst_peak, abs(peak - 1.0 / n_total))
    passed = structure_ok and worst_peak <= 1e-12
    report(
        4,
        "pairwise-cancellation",
        passed,
        f" (zone structure {structure_ok}, peak deviation {worst_peak:.3e})",
    )


def test_criterion_5_zone_mixture_core(tmp_path):
    six_ok = abs(zone_mixture_concurrence(6) - 1.0 / 9.0) <= 1e-12
    band_ok = all(
        0.3 <= n_total * zone_mixture_concurrence(n_total) <= 3.0
        for n_total in range(20, 401)
    )
    figure2_path = tmp_path / "figure2.csv"
    code = cli_main(["figures", "2", "--n-min", "2", "--n-max", "400",
                     "--output", str(figure2_path)])
    rows = figure2_path.read_text().strip().splitlines()
    file_ok = code == 0 and len(rows) == 400 and rows[0].startswith("n_total")
    report(
        5,
        "zone-mixture-core",
        six_ok and band_ok and file_ok,
        f" (C(6)-1/9 ok {six_ok}, N*C band ok {band_ok}, file rows {len(rows)})",
    )


def test_criterion_6_zero_entanglement_sweep():
    coupling_grid = (-4.0, -3.0, -2.0, -1.0, 0.0)
    chain_config = SweepConfig(
        geometries=(GeometrySpec(kind="ring"), GeometrySpec(kind="open")),
        n_values=(4, 5, 6, 7, 8),
        g1=-1.0,
        g2_values=coupling_grid,
        g3_values=coupling_grid,
        t_grid={"points": 6, "max": "n"},
        b_grid={"points": 6, "max": "n"},
    )
    fixed_config = SweepConfig(
        geometries=(
            GeometrySpec(kind="grid", rows=3, cols=3, periodic=False),
            GeometrySpec(kind="grid", rows=3, cols=3, periodic=True),
            GeometrySpec(kind="cube"),
        ),
        t_grid={"points": 6, "max": "n"},
        b_grid={"points": 6, "max": "n"},
    )
    random_configs = [
        SweepConfig(
            geometries=(GeometrySpec(kind="random", edge_probability=p,
                                     j_range=j_range, seed=seed),),
            n_values=(n,),
            t_grid={"points": 6, "max": "n"},
            b_grid={"points": 6, "max": "n"},
        )
        for n, p, j_range, seed in [
            (6, 0.6, (-2.0, -0.5), 11),
            (7, 0.5, (-1.5, -0.1), 42),
            (8, 0.4, (-3.0, -0.2), 7),
        ]
    ]
    total_records = 0
    worst = -np.inf
    violations = 0
    for config in [chain_config, fixed_config, *random_configs]:
        result = run_sweep(config, output=None, workers=2, threshold=1e-12)
        total_records += result.records_written
        worst = max(worst, result.max_concurrence)
        violations += result.violations
    expected_records = 2 * 5 * 5 * 5 * 36 + 3 * 36 + 3 * 36
    passed = violations == 0 and worst <= 1e-12 and total_records == expected_records
    report(
        6,
        "zero-entanglement-sweep",
        passed,
        f" ({total_records} grid points, max raw concurrence {worst:.3e})",
    )


def test_criterion_7_detection_control():
    engine = GraphThermalEngine(make_graph(2, [(0, 1, 1.0)]))
    levels = Levels.at(engine.spectrum, 0.0)
    [[row]] = engine.pair_entries(levels, (0.0,))  # the one pair (0, 1)
    rho = XStateRDM(*row).matrix()
    value = concurrence_wootters(rho)
    passed = abs(value - 1.0) <= 1e-10 and levels.degeneracy == 1
    report(7, "detection-control", passed, f" (singlet concurrence {value!r})")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10_000):
        populations = rng.dirichlet(np.ones(4))
        alpha, beta, delta, epsilon = populations
        magnitude = rng.uniform(0.0, 1.0) * np.sqrt(beta * delta)
        phase = rng.uniform(0.0, 2 * np.pi)
        state = XStateRDM(alpha=alpha, beta=beta,
                          gamma=magnitude * np.exp(1j * phase),
                          delta=delta, epsilon=epsilon)
        worst = max(
            worst, abs(concurrence_wootters(state.matrix()) - concurrence_x(state))
        )
    mixed_value = concurrence_wootters(np.eye(4, dtype=complex) / 4)
    passed = worst <= 1e-10 and mixed_value == 0.0
    report(
        8,
        "oracle-equivalence",
        passed,
        f" (max |wootters - x| over 1e4 states {worst:.3e}, I/4 -> {mixed_value})",
    )


def test_criterion_9_correlator():
    value = sxsx_correlator(UNIVERSAL.matrix())
    passed = abs(value - 1.0 / 12.0) <= 1e-12
    report(9, "universal-correlator", passed, f" (<SxSx> = {value!r})")


def test_criterion_10_figure1_regeneration(tmp_path):
    figure1_path = tmp_path / "figure1.csv"
    code = cli_main(["figures", "1", "--n", "100", "--output", str(figure1_path)])
    rows = figure1_path.read_text().strip().splitlines()
    count_ok = code == 0 and len(rows) == 102
    worst = 0.0
    peak = None
    for line in rows[1:]:
        n_up_text, upper_text, lower_text = line.split(",")
        n_up = int(n_up_text)
        worst = max(worst, abs(float(upper_text) - concurrence_symmetric(100, n_up)))
        worst = max(worst, abs(float(lower_text) - concurrence_pairwise_mixed(100, n_up)))
        if n_up == 50:
            peak = float(lower_text)
    peak_ok = peak is not None and abs(peak - 1.0 / 99.0) <= 1e-12
    passed = count_ok and worst == 0.0 and peak_ok
    report(
        10,
        "figure1-regeneration",
        passed,
        f" (rows {len(rows) - 1}, round-trip deviation {worst:.3e}, peak {peak!r})",
    )
