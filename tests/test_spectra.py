import tracemalloc
from math import comb

import numpy as np
import pytest

import ferroent.rdm
import ferroent.spectra
from ferroent.graphs import (
    ChainParams,
    cube_graph,
    grid_graph,
    is_connected,
    make_graph,
    open_chain,
    random_graph,
    ring_chain,
    star_graph,
)
from ferroent.hilbert import central_spin_basis, sector_basis
from ferroent.spectra import (
    SPIN_LABEL_TOL,
    SpinLabelError,
    central_stream,
    CentralSpectrum,
    Levels,
    eig_sym,
    full_spectrum,
)
from ferroent.sweep import (
    GraphThermalEngine,
    _raw_concurrence,
    builtin_graph_set,
)
from oracles import (
    build_sector_hamiltonian,
    central_eigenvectors,
    member_entries,
    sector_levels,
    sector_spectra,
    sector_thermal_entries,
)

EDGE = make_graph(2, [(0, 1, -1.0)])

TEST_GRAPHS = [
    ring_chain(ChainParams(n_spins=4, g1=-1.0)),
    ring_chain(ChainParams(n_spins=6, g1=-1.0, g2=-2.0, g3=-0.5)),
    random_graph(6, 0.5, (-2.0, -0.3), seed=12),
    random_graph(7, 0.4, (-1.5, -0.1), seed=13),
]


class TestEigSym:
    def test_two_by_two_closed_form(self):
        values, vectors = eig_sym(np.array([[0.25, -0.5], [-0.5, 0.25]]))
        assert values == pytest.approx([-0.25, 0.75])
        assert vectors.shape == (2, 2)

    def test_diagonal_matrix(self):
        values, vectors = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert values == pytest.approx([1.0, 2.0, 3.0])
        # permutation columns, up to sign
        assert np.abs(vectors) == pytest.approx(np.eye(3)[:, [1, 2, 0]])

    def test_scalar(self):
        values, vectors = eig_sym(np.array([[4.5]]))
        assert values == pytest.approx([4.5])
        assert abs(vectors[0, 0]) == pytest.approx(1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_asymmetric_matrix_in_a_stack(self):
        stack = np.array([[[1.0, 0.5], [0.5, 1.0]], [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValueError, match="not symmetric"):
            eig_sym(stack)
        values, _ = eig_sym(stack[:1])
        assert values.tolist() == [[0.5, 1.5]]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_residual_and_orthonormality_contract(self):
        for g in TEST_GRAPHS:
            for n_up in range(g.n_spins + 1):
                h = build_sector_hamiltonian(g, n_up)
                values, vectors = eig_sym(h)
                scale = max(1.0, np.linalg.norm(h))
                residual = h @ vectors - vectors * values
                assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-10 * scale
                gram = vectors.T @ vectors
                assert np.max(np.abs(gram - np.eye(len(values)))) <= 1e-10
                # reconstruction and trace preservation
                rebuilt = (vectors * values) @ vectors.T
                assert np.max(np.abs(rebuilt - h)) <= 1e-9 * scale
                assert np.sum(values) == pytest.approx(np.trace(h), rel=1e-10, abs=1e-10)


class TestFullSpectrum:
    def test_two_spin_edge(self):
        values = sorted(np.concatenate(sector_levels(full_spectrum(EDGE))))
        assert values == pytest.approx([-0.25, -0.25, -0.25, 0.75])

    def test_ring3_ground_multiplicity(self):
        spectrum = full_spectrum(ring_chain(ChainParams(n_spins=3, g1=-1.0)))
        values = sorted(np.concatenate(sector_levels(spectrum)))
        assert values[0] == pytest.approx(-0.75, abs=1e-12)
        assert sum(1 for v in values if abs(v + 0.75) < 1e-10) == 4

    def test_total_count_is_full_space(self):
        # one energy per central column, and C(N, n_up) members in sector row n_up
        for g in TEST_GRAPHS:
            n = g.n_spins
            spectrum = full_spectrum(g)
            assert spectrum.energies.shape == spectrum.spin.shape == (comb(n, n // 2),)
            assert spectrum.slots.shape == (n + 1, comb(n, n // 2))
            counts = [np.count_nonzero(row) for row in spectrum.slots]
            assert counts == [comb(n, n_up) for n_up in range(n + 1)]
            assert sum(counts) == np.sum(2 * spectrum.spin + 1) == 2**n

    def test_forms_no_eigenvector(self, monkeypatch):
        # the levels need no carry-back; the engine, which reduces the
        # eigenvectors, cannot do without it
        levels = {g: full_spectrum(g).energies for g in TEST_GRAPHS}

        def refuse(*args):
            raise AssertionError("an eigenvector was carried back")

        monkeypatch.setattr(ferroent.spectra, "_carry_back", refuse)
        for g, energies in levels.items():
            assert np.array_equal(full_spectrum(g).energies, energies)
        with pytest.raises(AssertionError, match="carried back"):
            GraphThermalEngine(TEST_GRAPHS[0])

    def test_flip_symmetry_at_zero_field(self):
        g = TEST_GRAPHS[1]
        levels = sector_levels(full_spectrum(g))
        for n_up, values in enumerate(levels):
            assert np.array_equal(values, levels[g.n_spins - n_up])

    @pytest.mark.parametrize("b_field", [0.0, -0.6])
    def test_every_sector_solves_its_own_block(self, b_field):
        # every sector's levels are its own block's eigenvalues; the central
        # eigenvectors are an orthonormal eigenbasis of the central block
        for g in TEST_GRAPHS + [make_graph(5, [(0, 1, 1.0), (2, 3, -0.7)])]:
            spectrum, vectors = central_eigenvectors(g)
            levels = sector_levels(spectrum, b_field)
            for n_up, (values, members) in enumerate(zip(levels, spectrum.slots)):
                h = build_sector_hamiltonian(g, n_up, b_field)
                spins = spectrum.spin[members]
                # solve order: S group by S group, each ascending as its eigh returns it
                assert np.all(np.diff(spins) >= 0.0)
                for spin in np.unique(spins):
                    assert np.all(np.diff(values[spins == spin]) >= 0.0)
                assert np.max(np.abs(np.sort(values) - np.linalg.eigvalsh(h))) <= 1e-12
            n_up = g.n_spins // 2
            assert spectrum.slots[n_up].all()  # the central row holds every column
            h = build_sector_hamiltonian(g, n_up, b_field)
            values = levels[n_up]
            assert np.max(np.abs(h @ vectors - vectors * values)) <= 1e-12
            assert np.max(np.abs(vectors.T @ vectors - np.eye(len(values)))) <= 1e-12

    def test_central_eigenvectors_have_flip_parity(self):
        # even N: each column is [x; +-x[::-1]] / sqrt(2), so reversing its
        # rows gives it back exactly, up to the sign
        for g in TEST_GRAPHS[:3] + [cube_graph(-1.0)]:
            _, vectors = central_eigenvectors(g)
            for column in vectors.T:
                assert np.array_equal(column[::-1], column) or np.array_equal(
                    column[::-1], -column
                )

    def test_field_shifts_zero_field_eigenvalues(self):
        # member (n_up, k) of the table is E_k + B (n_up - N/2); an empty slot
        # holds +inf, is no level and lies outside the window
        g = TEST_GRAPHS[3]
        zero = full_spectrum(g)
        levels = Levels.at(zero, 1.3)
        shifted, lowest, window = levels.shifted, levels.lowest, levels.window
        members = shifted[zero.slots]
        assert lowest.tolist() == [[members.min()]]
        spread = members.max() - members.min()
        inside = shifted <= members.min() + 1e-9 * max(1.0, spread)
        assert np.array_equal(window, zero.slots & inside)
        for n_up, (row, slots) in enumerate(zip(shifted, zero.slots)):
            sz = n_up - 0.5 * g.n_spins
            assert np.array_equal(row[slots], zero.energies[slots] + 1.3 * sz)
            assert np.all(row[~slots] == np.inf)

    def test_cap(self):
        with pytest.raises(ValueError):
            full_spectrum(make_graph(15, []))

    def test_ground_energy_is_quarter_coupling_sum(self):
        for g in TEST_GRAPHS:
            energy = Levels.at(GraphThermalEngine(g).spectrum, 0.0).ground_energy
            expected = 0.25 * g.coupling_sum
            assert abs(energy - expected) <= 1e-10 * max(1.0, abs(expected))


def weights_at(engine, temperature, b_field=0.0):
    """The engine's weight table at one (T, B)."""
    return Levels.at(engine.spectrum, b_field).weights((temperature,))[0]


class TestGroundSubspace:
    def test_triplet(self):
        weights = weights_at(GraphThermalEngine(EDGE), 0.0)
        members = weights[weights > 0.0]
        assert len(members) == 3
        assert members == pytest.approx([1 / 3] * 3)

    def test_ring5_has_six_states(self):
        engine = GraphThermalEngine(ring_chain(ChainParams(n_spins=5, g1=-1.0)))
        assert Levels.at(engine.spectrum, 0.0).degeneracy == 6

    def test_disconnected_pair_of_triplets(self):
        g = make_graph(4, [(0, 1, -1.0), (2, 3, -1.0)])
        assert Levels.at(GraphThermalEngine(g).spectrum, 0.0).degeneracy == 9

    def test_connected_ferromagnets_have_n_plus_one(self):
        for g in TEST_GRAPHS:
            assert Levels.at(GraphThermalEngine(g).spectrum, 0.0).degeneracy == g.n_spins + 1

    def test_window_absorbs_rounding_but_not_a_split_level(self):
        # relative to max(1, range): 1e-9 * 10 here
        # a table of one sector row, S^z = 0, whose four columns are all members
        energies, row = np.array([-2.0, -2.0 + 5e-9, -2.0 + 2e-8, 8.0]), np.ones((1, 4), bool)
        window = Levels.at(CentralSpectrum(energies, np.zeros(4), row), 0.0).window
        assert window.tolist() == [[True, True, False, False]]
        # the split level is 2e-8 above E0, 2 window widths of 1e-8
        stack = CentralSpectrum(np.stack([energies, np.zeros(4)]), np.zeros(4), row)
        [ratio, none] = Levels.at(stack, 0.0).gap_ratio
        assert ratio == pytest.approx(2.0, rel=1e-6)
        assert none is None  # no level above the window


class TestGibbsWeights:
    def test_infinite_temperature_limit(self):
        engine = GraphThermalEngine(TEST_GRAPHS[0])
        weights = weights_at(engine, 1e12)
        assert np.max(np.abs(weights[engine.spectrum.slots] - 2.0**-4)) < 1e-9
        assert np.all(weights[~engine.spectrum.slots] == 0.0)  # an empty slot is no level

    def test_two_spin_boltzmann_ratio(self):
        # columns: singlet, triplet (S ascending); the central row n_up = 1 holds both; gap is 1
        weights = weights_at(GraphThermalEngine(EDGE), 1.0)
        assert weights[1, 0] / weights[1, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_zero_temperature_delegates_to_ground_subspace(self):
        engine = GraphThermalEngine(ring_chain(ChainParams(n_spins=4, g1=-1.0)))
        weights = weights_at(engine, 0.0)
        assert np.count_nonzero(weights) == Levels.at(engine.spectrum, 0.0).degeneracy == 5
        assert weights[weights > 0.0] == pytest.approx([0.2] * 5)

    def test_continuity_near_zero(self):
        for g in TEST_GRAPHS:
            engine = GraphThermalEngine(g)
            cold, frozen = (weights_at(engine, t) for t in (1e-9, 0.0))
            assert np.max(np.abs(cold - frozen)) < 1e-6
            assert cold[frozen == 0.0].sum() < 1e-6

    def test_negative_temperature_rejected(self):
        engine = GraphThermalEngine(EDGE)
        with pytest.raises(ValueError):
            engine.pair_entries(Levels.at(engine.spectrum, 0.0), (-0.1,))


def test_ground_gap_of_single_edge():
    spectrum = full_spectrum(EDGE)
    for b_field, gap in ((0.0, 1.0), (0.3, 0.3), (-1.5, 1.5)):  # the triplet splits by B
        assert Levels.at(spectrum, b_field).gap == pytest.approx(gap)
    free = full_spectrum(make_graph(3, []))
    assert Levels.at(free, 0.0).gap == 0.0  # no level above


def _oracle_graphs():
    """The built-in set, the README sweep's ring/open coupling grid at N = 6 and 7,
    and the graphs without a single ferromagnetic multiplet for a ground state."""
    graphs = [(name, g) for name, g in builtin_graph_set()]
    for n in (6, 7):
        for g2 in (-4.0, -3.0, -2.0, -1.0, 0.0):
            for g3 in (-4.0, -3.0, -2.0, -1.0, 0.0):
                for periodic in (True, False):
                    chain = ring_chain if periodic else open_chain
                    params = ChainParams(n_spins=n, g1=-1.0, g2=g2, g3=g3, periodic=periodic)
                    graphs.append((f"{'ring' if periodic else 'open'}{n}-{g2}-{g3}", chain(params)))
    graphs += [
        ("star6", star_graph(6, -1.0)),
        ("dimers", make_graph(6, [(0, 1, -1.0), (2, 3, -1.0), (4, 5, -1.0)])),
        ("afm-ring6", ring_chain(ChainParams(n_spins=6, g1=1.0))),
        ("edge-free5", make_graph(5, [])),
        ("edge2", EDGE),
        ("path3", make_graph(3, [(0, 1, -1.0), (1, 2, -0.5)])),
    ]
    return graphs


ORACLE_GRAPHS = _oracle_graphs()


class TestCentralSector:
    @pytest.mark.parametrize("name, g", ORACLE_GRAPHS, ids=[name for name, _ in ORACLE_GRAPHS])
    def test_engine_matches_per_sector_oracle(self, name, g):
        # sector eigenvalues and thermal pair entries of the central-sector
        # engine against every sector diagonalized on its own
        for oracle, values in zip(sector_spectra(g), sector_levels(full_spectrum(g))):
            assert np.max(np.abs(np.sort(values) - oracle.eigenvalues)) <= 1e-12
        engine = GraphThermalEngine(g, g.pairs() + [(j, i) for i, j in g.pairs()[:3]])
        temperatures = (0.0, 0.3, 1.0, 5.0)
        for b_field in (0.0, 0.4, -1.1):
            expected = sector_thermal_entries(g, engine.pairs, temperatures, b_field)
            entries = engine.pair_entries(Levels.at(engine.spectrum, b_field), temperatures)
            assert np.max(np.abs(entries.swapaxes(0, 1) - expected)) <= 1e-12

    @pytest.mark.parametrize("name, g", ORACLE_GRAPHS, ids=[name for name, _ in ORACLE_GRAPHS])
    def test_multiplet_bookkeeping(self, name, g):
        n = g.n_spins
        spectrum, vectors = central_eigenvectors(g)
        # the columns are the central sector in solve order: S group by S group,
        # each an eigenvector of the central block at its level
        energy, spin = spectrum.energies, spectrum.spin
        groups = central_spin_basis(n)
        labels = np.repeat([s for s, _ in groups], [columns.shape[1] for _, columns in groups])
        assert np.array_equal(spin, labels)
        h = build_sector_hamiltonian(g, n // 2)
        assert np.max(np.abs(h @ vectors - vectors * energy)) <= 1e-12
        assert np.sum(2 * spin + 1) == 2**n
        # the members are the (sector, column) slots with S >= |M|, C(N, n_up) per sector
        m = np.arange(n + 1) - 0.5 * n
        assert np.array_equal(spectrum.slots, spin >= np.abs(m)[:, None])
        for n_up, values in enumerate(sector_levels(spectrum)):
            assert len(values) == np.count_nonzero(spectrum.slots[n_up]) == comb(n, n_up)
        engine = GraphThermalEngine(g)
        for name in ("energies", "spin", "slots"):
            assert np.array_equal(getattr(engine.spectrum, name), getattr(spectrum, name))
        assert engine.spin_residual <= SPIN_LABEL_TOL
        if g.is_ferromagnetic and is_connected(g):
            assert spin[np.argmin(energy)] == 0.5 * n
            assert np.count_nonzero(spin == 0.5 * n) == 1

    def test_degenerate_clusters_are_pure_spin(self):
        # the cube and the periodic 3x3 grid have many multiplets of different
        # S at one energy; every column must still be an S^2 eigenvector
        for g in (cube_graph(-1.0), grid_graph(3, 3, True, -1.0), star_graph(6, -1.0)):
            spectrum, vectors = central_eigenvectors(g)
            n = g.n_spins
            complete = make_graph(n, [(a, b, 2.0) for a, b in g.pairs()])
            square = build_sector_hamiltonian(complete, n // 2) + 0.75 * n * np.eye(len(vectors))
            spin = spectrum.spin
            assert np.max(np.abs(square @ vectors - vectors * spin * (spin + 1.0))) <= 1e-12
            h = build_sector_hamiltonian(g, n // 2)
            assert np.max(np.abs(h @ vectors - vectors * spectrum.energies)) <= 1e-12

    def test_close_levels_of_different_spin_stay_pure(self):
        # LAPACK mixes levels 3.6e-6 apart by ~1e-10; without the first-order
        # step a column of this graph is 6e-10 away from an S^2 eigenvector
        g = random_graph(10, 0.5, (-2.0, -0.1), seed=12)
        spectrum, vectors = central_eigenvectors(g)
        complete = make_graph(10, [(a, b, 2.0) for a, b in g.pairs()])
        square = build_sector_hamiltonian(complete, 5) + 7.5 * np.eye(len(vectors))
        spin = spectrum.spin
        assert np.max(np.abs(square @ vectors - vectors * spin * (spin + 1.0))) <= 1e-12

    def test_near_crossing_of_spin_multiplets_matches_oracle(self):
        # ring 8 with J1 = -1 and J2 = x: at this x the lowest S = 4 and S = 2
        # levels are 1.8e-7 apart, outside the cluster window; a first-order
        # admixture of one in the other would reach the rebuilt sectors
        n, x = 8, 0.269747464991
        g = make_graph(
            n,
            [(min(i, (i + k) % n), max(i, (i + k) % n), c)
             for i in range(n) for k, c in ((1, -1.0), (2, x))],
        )
        engine = GraphThermalEngine(g)
        temperatures = (0.0, 0.001, 0.01, 0.1)
        for b_field in (0.01, 0.1):
            expected = sector_thermal_entries(g, engine.pairs, temperatures, b_field)
            entries = engine.pair_entries(Levels.at(engine.spectrum, b_field), temperatures)
            assert np.max(np.abs(entries.swapaxes(0, 1) - expected)) <= 1e-12

    def test_label_residual_fails_by_name(self, monkeypatch):
        # at N = 6 the S = 0 and S = 2 groups both have five columns of odd flip
        # parity: with their labels swapped every sector keeps its C(N, n_up)
        # levels and the solve passes, but <S^2> from the engine's pair
        # correlations no longer matches the labels
        original = ferroent.spectra.central_spin_basis

        def swapped(n):
            (zero, first), one, (two, third), *rest = original(n)
            return ((two, first), one, (zero, third), *rest)

        monkeypatch.setattr(ferroent.spectra, "central_spin_basis", swapped)
        graph = TEST_GRAPHS[2]
        full_spectrum(graph)
        with pytest.raises(SpinLabelError, match="S\\(S\\+1\\)"):
            GraphThermalEngine(graph)

    def test_sector_counts_fail_by_name(self, monkeypatch):
        # the spin basis hands every group of columns a label one too high
        original = ferroent.spectra.central_spin_basis

        def raised(n):
            return tuple((spin + 1, columns) for spin, columns in original(n))

        monkeypatch.setattr(ferroent.spectra, "central_spin_basis", raised)
        with pytest.raises(SpinLabelError, match="expected C\\(6, 0\\) = 1"):
            full_spectrum(TEST_GRAPHS[2])

    def test_kinematic_zeros_are_exact(self):
        # below two up spins no pair is both up (and mirrored for down); the
        # polarized state's raw concurrence 2(|gamma| - sqrt(alpha epsilon))
        # would otherwise read the square root of a rounding error.  At N = 2
        # and 3 the central sector n_up = 1 is among them.
        for g in (
            make_graph(2, [(0, 1, -1.0)]),
            make_graph(3, [(0, 1, -1.0), (1, 2, -0.6)]),
            random_graph(7, 0.5, (-2.0, -0.3), seed=5),
            TEST_GRAPHS[1],
        ):
            n = g.n_spins
            engine = GraphThermalEngine(g)
            entries = member_entries(engine)  # every level's own
            sectors = np.nonzero(engine.spectrum.slots)[0]
            for n_up in (0, 1, n - 1, n):
                block = entries[:, sectors == n_up]
                if n_up < 2:
                    assert np.all(block[..., 0] == 0.0)
                if n - n_up < 2:
                    assert np.all(block[..., 4] == 0.0)
                if n_up in (0, n):
                    assert np.all(block[..., 1:4] == 0.0)
            polarized = engine.pair_entries(Levels.at(engine.spectrum, 0.8), (0.0,))
            assert np.all(_raw_concurrence(polarized) == 0.0)


def _mixed_sign_graph(n, probability, seed):
    """Seeded graph with couplings drawn from [-1.5, 1], both signs, so ground
    states of every total spin occur."""
    rng = np.random.default_rng(seed)
    return make_graph(
        n,
        [(a, b, float(rng.uniform(-1.5, 1.0)))
         for a in range(n) for b in range(a + 1, n) if rng.random() < probability],
    )


MIXED_SIGN_GRAPHS = [
    (f"mixed{n}-s{seed}", _mixed_sign_graph(n, 0.6, seed)) for n in range(2, 11) for seed in (3, 4)
] + [("mixed12-s5", _mixed_sign_graph(12, 0.3, 5))]


@pytest.mark.parametrize(
    "name, g",
    ORACLE_GRAPHS + MIXED_SIGN_GRAPHS,
    ids=[name for name, _ in ORACLE_GRAPHS + MIXED_SIGN_GRAPHS],
)
def test_zero_field_pair_states_are_werner_states(name, g):
    # At B = 0 the thermal state commutes with every global rotation, so
    # each pair state is a Werner state: alpha = epsilon, beta = delta,
    # gamma = alpha - beta and zz = c / 3, with c = <S_a . S_b> = gamma + zz.
    # The engine's central gather and its Wigner-Eckart rebuild of the
    # other sectors must both keep that, for either order of a pair.
    pairs = g.pairs() + [(j, i) for i, j in g.pairs()]
    engine = GraphThermalEngine(g, pairs)
    entries = engine.pair_entries(Levels.at(engine.spectrum, 0.0), (0.0, 0.3, 1.0, 5.0))
    alpha, beta, gamma, delta, epsilon = entries.T
    zz = 0.25 * (alpha + epsilon - beta - delta)
    c = gamma + zz
    for residual in (alpha - epsilon, beta - delta, gamma - (alpha - beta), zz - c / 3.0):
        assert np.max(np.abs(residual)) <= 1e-13


def _block_graphs(n, seed):
    """Seeded graphs of N spins: mixed-sign dense, ferromagnetic split into two
    components, and edge-free."""
    rng = np.random.default_rng(seed)
    mixed = [(a, b, float(rng.uniform(-2.0, 1.5)))
             for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    half = n // 2
    split = [(a, b, float(rng.uniform(-2.0, -0.2)))
             for a in range(n) for b in range(a + 1, n)
             if (a < half) == (b < half) and rng.random() < 0.7]
    return [make_graph(n, mixed), make_graph(n, split), make_graph(n, [])]


@pytest.mark.parametrize("n", range(2, 13))
def test_stacked_blocks_are_the_dense_central_block_bit_for_bit(n):
    # the hop-list fill of one batch against the dense view: the central
    # block for odd N, and A + C[:, ::-1], A - C[:, ::-1] of its quarters
    # for even N (at N = 2 and 4 a folded hop of C lands on an entry of A)
    graphs = _block_graphs(n, seed=100 + n) + [ring_chain(ChainParams(n_spins=n, g1=-1.0, g2=0.5))]
    basis = sector_basis(n, n // 2)
    blocks = np.array(list(ferroent.spectra._stacked_blocks(graphs, basis)))
    half = len(basis) // 2
    for k, g in enumerate(graphs):
        h = build_sector_hamiltonian(g, n // 2)
        if n % 2:
            assert blocks.shape == (1, len(graphs), len(basis), len(basis))
            assert np.array_equal(blocks[0, k], h)
            continue
        upper, mirrored = h[:half, :half], h[:half, half:][:, ::-1]
        assert blocks.shape == (2, len(graphs), half, half)
        assert np.array_equal(blocks[0, k], upper + mirrored)
        assert np.array_equal(blocks[1, k], upper - mirrored)


def test_one_chunk_per_spin_group_gives_the_same_engine(monkeypatch):
    # a batch of two graphs, streamed as one chunk and then as one chunk per
    # S group: every central column is handed over exactly once, and the
    # engine agrees to rounding (BLAS may block the chunks' columns otherwise)
    graphs = [TEST_GRAPHS[1], ring_chain(ChainParams(n_spins=6, g1=-1.0, g2=0.4))]
    whole = GraphThermalEngine(graphs)
    monkeypatch.setattr(ferroent.spectra, "_CHUNK_ELEMENTS", 1)
    seen = []
    central_stream(graphs, lambda positions, vectors, flips: seen.append(positions))
    assert len(seen) == len(ferroent.spectra.central_spin_basis(6))
    assert sorted(np.concatenate(seen).tolist()) == list(range(2 * comb(6, 3)))
    # each graph's columns of a chunk arrive ascending and contiguous, in solve order
    for positions in seen:
        for columns in positions.reshape(2, -1):
            assert np.array_equal(columns, np.arange(columns[0], columns[0] + len(columns)))
    chunked = GraphThermalEngine(graphs)
    assert np.max(chunked.spin_residual) <= SPIN_LABEL_TOL
    assert np.array_equal(chunked.spectrum.energies, whole.spectrum.energies)
    assert np.array_equal(chunked.spectrum.spin, whole.spectrum.spin)
    assert np.max(np.abs(member_entries(chunked) - member_entries(whole))) <= 1e-14


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_stream_hands_over_half_rows_and_flip_parities_for_even_n(n):
    # even N: the first halves x of the eigenvectors [x; p x[::-1]] / sqrt(2),
    # C(N, N/2) / 2 rows, with p = (-1)^(N/2 - S) per column; odd N: the whole
    # eigenvectors and no parities
    graphs = [ring_chain(ChainParams(n_spins=n, g1=-1.0, g2=g2)) for g2 in (0.0, 0.5)]
    dim = comb(n, n // 2)
    chunks = []
    spectrum = central_stream(graphs, lambda *chunk: chunks.append(chunk))
    for positions, vectors, flips in chunks:
        assert vectors.shape == (dim // 2 if n % 2 == 0 else dim, len(positions))
        if n % 2:
            assert flips is None
            continue
        spin = spectrum.spin[positions % dim]
        assert np.array_equal(flips, np.where((n // 2 - spin) % 2, -1.0, 1.0))
        # each half has unit norm, as [x; p x[::-1]] / sqrt(2) has
        assert np.allclose(np.sum(vectors * vectors, axis=0), 1.0, atol=1e-12)


def test_engine_takes_the_level_table_of_the_solve_bit_for_bit():
    # one graph and a batch of three N = 6 graphs: the engine's level table is
    # the solve's, and a batch of one is full_spectrum with the axis in front
    one = TEST_GRAPHS[3]
    three = [TEST_GRAPHS[1], TEST_GRAPHS[2], ring_chain(ChainParams(n_spins=6, g1=-1.0, g2=0.4))]
    batch = central_stream(three, lambda *chunk: None)
    assert batch.energies.shape == (3, 20)
    # the labels and the mask depend on N alone: the batch shares them
    assert batch.spin.shape == (20,) and batch.slots.shape == (7, 20)
    for engine, spectrum in (
        (GraphThermalEngine(one), full_spectrum(one)),
        (GraphThermalEngine(three), batch),
    ):
        for name in ("energies", "spin", "slots"):
            assert np.array_equal(getattr(engine.spectrum, name), getattr(spectrum, name))
    alone, single = central_stream([one], lambda *chunk: None), full_spectrum(one)
    assert np.array_equal(alone.energies[0], single.energies)
    for name in ("spin", "slots"):
        assert np.array_equal(getattr(alone, name), getattr(single, name))
        for graph in three:
            assert np.array_equal(getattr(batch, name), getattr(full_spectrum(graph), name))


@pytest.mark.parametrize("build, bound_mb", [(full_spectrum, 11.0), (GraphThermalEngine, 10.0)])
def test_ring_12_memory_peak(build, bound_mb):
    # tracemalloc peak from cold caches.  The solve streams its eigenvectors
    # in chunks, for even N their first halves alone, and the engine reduces
    # each chunk to pair correlations, so neither holds the (924 x 924)
    # eigenvector matrix: 6.2 MiB for the spectrum and 8.6 MiB for the
    # all-pairs engine, which keeps six coefficients per pair and central
    # column (9.5 MiB with both halves carried back), against 19.5 and 27.0 MB
    # with the matrix formed and 18.2 MB with an entry stack of all pairs and
    # states (66 x 4096 x 5); the bounds leave 77% and 16%
    g = ring_chain(ChainParams(n_spins=12, g1=-1.0))
    for cache in (sector_basis, central_spin_basis, ferroent.rdm._pair_tables):
        cache.cache_clear()
    tracemalloc.start()
    try:
        build(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2**20
