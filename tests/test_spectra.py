import numpy as np
import pytest

from ferroent.graphs import ChainParams, make_graph, random_graph, ring_chain
from ferroent.hilbert import build_sector_hamiltonian, sector_basis
from ferroent.spectra import eig_sym, energy_gap, full_spectrum, ground_window
from ferroent.sweep import GraphThermalEngine

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
        spectra = full_spectrum(EDGE)
        values = sorted(v for s in spectra for v in s.eigenvalues)
        assert values == pytest.approx([-0.25, -0.25, -0.25, 0.75])

    def test_ring3_ground_multiplicity(self):
        spectra = full_spectrum(ring_chain(ChainParams(n_spins=3, g1=-1.0)))
        values = sorted(v for s in spectra for v in s.eigenvalues)
        assert values[0] == pytest.approx(-0.75, abs=1e-12)
        assert sum(1 for v in values if abs(v + 0.75) < 1e-10) == 4

    def test_total_count_is_full_space(self):
        for g in TEST_GRAPHS:
            spectra = full_spectrum(g)
            assert sum(len(s.eigenvalues) for s in spectra) == 2**g.n_spins

    def test_flip_symmetry_at_zero_field(self):
        g = TEST_GRAPHS[1]
        spectra = full_spectrum(g)
        for s_low in spectra:
            s_high = spectra[g.n_spins - s_low.n_up]
            assert s_low.eigenvalues == pytest.approx(s_high.eigenvalues, abs=1e-11)

    @pytest.mark.parametrize("b_field", [0.0, -0.6])
    def test_every_sector_solves_its_own_block(self, b_field):
        # sectors above N // 2 come from the spin flip; each must still be
        # an orthonormal eigenbasis of its own block, on its own basis
        for g in TEST_GRAPHS + [make_graph(5, [(0, 1, 1.0), (2, 3, -0.7)])]:
            for spectrum in full_spectrum(g, b_field):
                n_up = spectrum.n_up
                assert spectrum.basis.masks.tolist() == sector_basis(g.n_spins, n_up).masks.tolist()
                h = build_sector_hamiltonian(g, n_up, b_field)
                vectors, values = spectrum.eigenvectors, spectrum.eigenvalues
                assert np.all(np.diff(values) >= 0.0)
                assert np.max(np.abs(h @ vectors - vectors * values)) <= 1e-12
                assert np.max(np.abs(vectors.T @ vectors - np.eye(len(values)))) <= 1e-12

    def test_mirrored_sectors_are_views_of_their_partners(self):
        for g in TEST_GRAPHS:
            n = g.n_spins
            spectra = full_spectrum(g)
            for low in spectra[: (n + 1) // 2]:
                high = spectra[n - low.n_up]
                assert np.array_equal(high.eigenvalues, low.eigenvalues)
                assert np.shares_memory(high.eigenvectors, low.eigenvectors)
                assert np.array_equal(high.eigenvectors, low.eigenvectors[::-1])

    def test_field_shifts_zero_field_eigenvalues(self):
        g = TEST_GRAPHS[3]
        for zero, shifted in zip(full_spectrum(g), full_spectrum(g, 1.3)):
            assert np.array_equal(shifted.eigenvalues, zero.eigenvalues + 1.3 * zero.basis.sz)
            assert np.array_equal(shifted.eigenvectors, zero.eigenvectors)

    def test_cap(self):
        with pytest.raises(ValueError):
            full_spectrum(make_graph(15, []))

    def test_ground_energy_is_quarter_coupling_sum(self):
        for g in TEST_GRAPHS:
            energy, _ = GraphThermalEngine(g).ground_info(0.0)
            expected = 0.25 * g.coupling_sum
            assert abs(energy - expected) <= 1e-10 * max(1.0, abs(expected))


class TestGroundSubspace:
    def test_triplet(self):
        weights = GraphThermalEngine(EDGE).weights(0.0, 0.0)
        members = weights[weights > 0.0]
        assert len(members) == 3
        assert members == pytest.approx([1 / 3] * 3)

    def test_ring5_has_six_states(self):
        engine = GraphThermalEngine(ring_chain(ChainParams(n_spins=5, g1=-1.0)))
        assert engine.ground_info(0.0)[1] == 6

    def test_disconnected_pair_of_triplets(self):
        g = make_graph(4, [(0, 1, -1.0), (2, 3, -1.0)])
        assert GraphThermalEngine(g).ground_info(0.0)[1] == 9

    def test_connected_ferromagnets_have_n_plus_one(self):
        for g in TEST_GRAPHS:
            assert GraphThermalEngine(g).ground_info(0.0)[1] == g.n_spins + 1

    def test_window_absorbs_rounding_but_not_a_split_level(self):
        # relative to max(1, range): 1e-9 * 10 here
        energies = np.array([-2.0, -2.0 + 5e-9, -2.0 + 2e-8, 8.0])
        assert ground_window(energies).tolist() == [True, True, False, False]


class TestGibbsWeights:
    def test_infinite_temperature_limit(self):
        weights = GraphThermalEngine(TEST_GRAPHS[0]).weights(1e12, 0.0)
        assert np.max(np.abs(weights - 2.0**-4)) < 1e-9

    def test_two_spin_boltzmann_ratio(self):
        # flat order: n_up = 0 | n_up = 1 (triplet, singlet) | n_up = 2; gap is 1
        weights = GraphThermalEngine(EDGE).weights(1.0, 0.0)
        assert weights[2] / weights[1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_zero_temperature_delegates_to_ground_subspace(self):
        engine = GraphThermalEngine(ring_chain(ChainParams(n_spins=4, g1=-1.0)))
        weights = engine.weights(0.0, 0.0)
        assert np.count_nonzero(weights) == engine.ground_info(0.0)[1] == 5
        assert weights[weights > 0.0] == pytest.approx([0.2] * 5)

    def test_continuity_near_zero(self):
        for g in TEST_GRAPHS:
            engine = GraphThermalEngine(g)
            cold = engine.weights(1e-9, 0.0)
            frozen = engine.weights(0.0, 0.0)
            assert np.max(np.abs(cold - frozen)) < 1e-6
            assert cold[frozen == 0.0].sum() < 1e-6

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            GraphThermalEngine(EDGE).weights(-0.1, 0.0)


def test_energy_gap_of_single_edge():
    assert energy_gap(full_spectrum(EDGE)) == pytest.approx(1.0)
