from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ferroent.spectra
from ferroent.graphs import ChainParams, make_graph, random_graph, ring_chain
from ferroent.hilbert import sector_basis
from ferroent.rdm import pair_correlations
from ferroent.spectra import Levels, central_stream
from ferroent.sweep import GraphThermalEngine
from oracles import (
    XStateRDM,
    concurrence_wootters,
    concurrence_wootters_raw,
    concurrence_x,
    concurrence_x_raw,
    dicke_vector,
    eigenstate_pair_entries,
    embed_sector_vector,
    gibbs_terms,
    naive_pair_rdm,
    pair_rdm_mixed,
    pair_rdm_pure,
    sector_spectra,
    sxsx_correlator,
    validate_rdm,
    x_state_from_matrix,
)

BELL = XStateRDM(alpha=0.0, beta=0.5, gamma=0.5, delta=0.5, epsilon=0.0)


def random_x_state(rng):
    populations = rng.dirichlet(np.ones(4))
    alpha, beta, delta, epsilon = populations
    magnitude = rng.uniform(0.0, 1.0) * np.sqrt(beta * delta)
    phase = rng.uniform(0.0, 2 * np.pi)
    gamma = magnitude * np.exp(1j * phase)
    return XStateRDM(alpha=alpha, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon)


class TestPairRdmPure:
    """The per-eigenstate oracle, pinned to closed forms and the full-space trace."""

    def test_dicke_4_2_entries(self):
        rho = pair_rdm_pure(dicke_vector(4, 2), sector_basis(4, 2), (0, 1))
        state = x_state_from_matrix(rho)
        assert state.alpha == pytest.approx(1 / 6, abs=1e-14)
        assert state.beta == pytest.approx(1 / 3, abs=1e-14)
        assert state.gamma.real == pytest.approx(1 / 3, abs=1e-14)
        assert state.delta == pytest.approx(1 / 3, abs=1e-14)
        assert state.epsilon == pytest.approx(1 / 6, abs=1e-14)

    def test_all_down_state(self):
        rho = pair_rdm_pure(np.array([1.0]), sector_basis(5, 0), (1, 3))
        assert rho == pytest.approx(np.diag([0.0, 0.0, 0.0, 1.0]))

    def test_bell_like_state(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = pair_rdm_pure(v, sector_basis(2, 1), (0, 1))
        state = x_state_from_matrix(rho)
        assert state.beta == pytest.approx(0.5)
        assert state.delta == pytest.approx(0.5)
        assert abs(state.gamma) == pytest.approx(0.5)
        assert concurrence_x(state) == pytest.approx(1.0)

    def test_matches_naive_full_space_trace(self):
        rng = np.random.default_rng(42)
        for n in range(3, 9):
            for n_up in (1, n // 2, n - 1):
                basis = sector_basis(n, n_up)
                v = rng.normal(size=len(basis))
                v /= np.linalg.norm(v)
                full = embed_sector_vector(v, basis)
                for pair in [(0, 1), (0, n - 1), (1, n - 2)]:
                    if pair[0] == pair[1]:
                        continue
                    rho = pair_rdm_pure(v, basis, pair)
                    assert np.max(np.abs(rho - naive_pair_rdm(full, n, pair))) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            pair_rdm_pure(np.array([1.0, 1.0]), sector_basis(2, 1), (0, 1))

    def test_bad_pair_rejected(self):
        for pair in [(0, 2), (1, 1), (-1, 0)]:
            with pytest.raises(ValueError, match="invalid pair"):
                GraphThermalEngine(make_graph(2, [(0, 1, -1.0)]), [pair])

    def test_x_pattern_zeros_for_eigenstates_and_thermal_states(self):
        g = random_graph(6, 0.5, (-2.0, -0.3), seed=21)
        spectra = sector_spectra(g, b_field=0.4)
        structural = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0), (1, 3), (2, 3), (3, 1), (3, 2)]
        for spectrum in spectra[:3]:
            rho = pair_rdm_pure(spectrum.eigenvectors[:, 0], spectrum.basis, (0, 4))
            for a, b in structural:
                assert abs(rho[a, b]) <= 1e-12
        thermal = pair_rdm_mixed(gibbs_terms(spectra, 0.7), spectra, (2, 5))
        for a, b in structural:
            assert abs(thermal[a, b]) <= 1e-12


class TestPairRdmMixed:
    def test_single_state_spec_equals_pure(self):
        g = ring_chain(ChainParams(n_spins=5, g1=-1.0))
        spectra = sector_spectra(g)
        direct = pair_rdm_pure(spectra[2].eigenvectors[:, 3], spectra[2].basis, (1, 4))
        assert pair_rdm_mixed([(2, 3, 1.0)], spectra, (1, 4)) == pytest.approx(direct)

    def test_mirror_mixture_averages_entries(self):
        n, n_up = 6, 2
        spectra = sector_spectra(ring_chain(ChainParams(n_spins=n, g1=-1.0)))
        # lowest state of each mirror sector is the symmetric one
        terms = [(n_up, 0, 0.5), (n - n_up, 0, 0.5)]
        mixed = pair_rdm_mixed(terms, spectra, (0, 3))
        lo = pair_rdm_pure(spectra[n_up].eigenvectors[:, 0], spectra[n_up].basis, (0, 3))
        hi = pair_rdm_pure(
            spectra[n - n_up].eigenvectors[:, 0], spectra[n - n_up].basis, (0, 3)
        )
        assert mixed == pytest.approx((lo + hi) / 2)

    def test_ground_mixture_is_universal(self):
        g = random_graph(7, 0.5, (-2.0, -0.2), seed=33)
        spectra = sector_spectra(g)
        mixture = gibbs_terms(spectra, 0.0)
        target = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
        target[1, 2] = target[2, 1] = 1 / 6
        for pair in [(0, 1), (2, 6), (3, 4)]:
            rho = pair_rdm_mixed(mixture, spectra, pair)
            assert np.max(np.abs(rho - target)) < 1e-10


class TestConcurrenceX:
    def test_universal_entries_give_zero(self):
        state = XStateRDM(alpha=1 / 3, beta=1 / 6, gamma=1 / 6, delta=1 / 6, epsilon=1 / 3)
        assert concurrence_x(state) == 0.0
        assert concurrence_x_raw(state) == pytest.approx(-1 / 3)

    def test_bell(self):
        assert concurrence_x(BELL) == pytest.approx(1.0)

    def test_half_filled_four_spin_symmetric_state(self):
        state = XStateRDM(alpha=1 / 6, beta=1 / 3, gamma=1 / 3, delta=1 / 3, epsilon=1 / 6)
        assert concurrence_x(state) == pytest.approx(1 / 3, abs=1e-14)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            XStateRDM(alpha=0.5, beta=0.5, gamma=0.4, delta=0.1, epsilon=-0.1)
        with pytest.raises(ValueError):
            XStateRDM(alpha=0.25, beta=0.25, gamma=0.4, delta=0.25, epsilon=0.25)


class TestConcurrenceWootters:
    def test_maximally_mixed(self):
        assert concurrence_wootters(np.eye(4, dtype=complex) / 4) == 0.0

    def test_universal_matrix(self):
        state = XStateRDM(alpha=1 / 3, beta=1 / 6, gamma=1 / 6, delta=1 / 6, epsilon=1 / 3)
        assert concurrence_wootters(state.matrix()) == 0.0

    def test_agrees_with_x_formula_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            state = random_x_state(rng)
            assert abs(
                concurrence_wootters(state.matrix()) - concurrence_x(state)
            ) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_agrees_with_x_formula_hypothesis(self, data):
        populations = data.draw(
            st.lists(st.floats(0.001, 1.0), min_size=4, max_size=4)
        )
        total = sum(populations)
        alpha, beta, delta, epsilon = (p / total for p in populations)
        fraction = data.draw(st.floats(0.0, 1.0))
        phase = data.draw(st.floats(0.0, 2 * np.pi))
        gamma = fraction * np.sqrt(beta * delta) * np.exp(1j * phase)
        state = XStateRDM(alpha=alpha, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon)
        # At |gamma| = sqrt(beta*delta) the flip product is singular and the
        # square root turns ~1e-16 eigenvalue noise into ~1e-8; away from that
        # rank boundary the two routes agree to 1e-10 (see the randomized test).
        assert abs(concurrence_wootters(state.matrix()) - concurrence_x(state)) < 5e-8

    def test_raw_value_sign_matches(self):
        state = XStateRDM(alpha=1 / 3, beta=1 / 6, gamma=1 / 6, delta=1 / 6, epsilon=1 / 3)
        assert concurrence_wootters_raw(state.matrix()) == pytest.approx(-1 / 3, abs=1e-10)

    def test_validates_input(self):
        with pytest.raises(ValueError):
            concurrence_wootters(np.eye(4, dtype=complex))  # trace 4


class TestPairSymmetry:
    def test_concurrence_invariant_under_pair_swap(self):
        pairs = [(0, 3), (1, 5), (2, 4)]
        reversed_pairs = [(j, i) for i, j in pairs]
        engine = GraphThermalEngine(
            random_graph(6, 0.5, (-2.0, -0.3), seed=17), pairs + reversed_pairs
        )
        concurrence = [
            concurrence_wootters(XStateRDM(*row).matrix())
            for [row] in engine.pair_entries(Levels.at(engine.spectrum, 0.0), (0.9,))
        ]
        for k in range(len(pairs)):
            assert concurrence[k] == pytest.approx(concurrence[k + len(pairs)], abs=1e-12)


class TestCorrelator:
    def test_universal_value(self):
        state = XStateRDM(alpha=1 / 3, beta=1 / 6, gamma=1 / 6, delta=1 / 6, epsilon=1 / 3)
        assert sxsx_correlator(state.matrix()) == pytest.approx(1 / 12, abs=1e-14)

    def test_product_state(self):
        assert sxsx_correlator(np.diag([0, 0, 0, 1.0]).astype(complex)) == 0.0

    def test_bell(self):
        assert sxsx_correlator(BELL.matrix()) == pytest.approx(0.25)

    def test_equals_half_real_coherence_on_x_states(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            state = random_x_state(rng)
            assert sxsx_correlator(state.matrix()) == pytest.approx(
                state.gamma.real / 2, abs=1e-14
            )


class TestVectorizedEntries:
    def test_matches_pair_rdm_pure_per_eigenstate(self):
        g = random_graph(7, 0.4, (-2.0, -0.2), seed=29)
        spectra = sector_spectra(g)
        pairs = g.pairs() + [(b, a) for a, b in g.pairs()]
        for spectrum in spectra:
            stack = eigenstate_pair_entries(spectrum.basis, spectrum.eigenvectors, pairs)
            assert stack.shape == (len(pairs), len(spectrum.eigenvalues), 5)
            # a reversed pair (b, a) is the same state with beta and delta swapped
            for pair, rows in zip(pairs, stack):
                for k in (0, len(spectrum.eigenvalues) - 1):
                    rho = pair_rdm_pure(spectrum.eigenvectors[:, k], spectrum.basis, pair)
                    expected = np.array(
                        [rho[0, 0].real, rho[1, 1].real, rho[1, 2].real,
                         rho[2, 2].real, rho[3, 3].real]
                    )
                    assert rows[k] == pytest.approx(expected, abs=1e-13)


CORRELATION_BATCHES = {
    "N2": [make_graph(2, [(0, 1, -1.0)])],
    "N3": [make_graph(3, [(0, 1, -1.0), (1, 2, 0.6)])],
    "N7": [random_graph(7, 0.5, (-2.0, -0.2), seed=31)],
    # three graphs side by side, 210 columns: several blocks of _STATES_PER_BLOCK
    "N8-batch": [ring_chain(ChainParams(n_spins=8, g1=-1.0, g2=g2)) for g2 in (0.0, 0.7, -1.3)],
}


def check_stream(graphs):
    """Check each chunk the solve streams against the per-eigenstate oracle.

    c = gamma + zz and zz = (alpha + epsilon - beta - delta) / 4 of the
    oracle's entries, for every pair a < b and every central eigenvector,
    each rebuilt from an even-N chunk's half x and parity p as
    [x; p x[::-1]] / sqrt(2).  Returns each chunk's (positions, flips).
    """
    n = graphs[0].n_spins
    basis = sector_basis(n, n // 2)
    pairs = graphs[0].pairs()
    seen = []

    def check(positions, vectors, flips):
        c, zz = pair_correlations(n, vectors, flips)
        assert c.shape == zz.shape == (len(pairs), vectors.shape[1])
        if flips is not None:
            vectors = np.vstack([vectors, flips * vectors[::-1]]) / np.sqrt(2.0)
        alpha, beta, gamma, delta, epsilon = np.moveaxis(
            eigenstate_pair_entries(basis, vectors, pairs), 2, 0
        )
        expected = 0.25 * (alpha + epsilon - beta - delta)
        assert np.max(np.abs(zz - expected)) <= 1e-14
        assert np.max(np.abs(c - (gamma + expected))) <= 1e-14
        seen.append((positions, flips))

    central_stream(graphs, check)
    return seen


class TestPairCorrelations:
    @pytest.mark.parametrize("name", CORRELATION_BATCHES)
    def test_matches_the_per_eigenstate_entries(self, name):
        graphs = CORRELATION_BATCHES[name]
        n = graphs[0].n_spins
        positions = np.concatenate([positions for positions, _ in check_stream(graphs)])
        assert sorted(positions.tolist()) == list(range(len(graphs) * comb(n, n // 2)))

    def test_even_n_chunks_that_mix_flip_parities(self, monkeypatch):
        # two N = 10 graphs, 126 half rows, S groups of 42, 90, 75, 35, 9 and 1
        # columns per graph with parities -, +, -, +, -, +: a budget of 132
        # columns a graph puts S = 0 and 1 in one chunk and S = 2 to 5 in another
        graphs = [random_graph(10, 0.4, (-2.0, -0.2), seed=seed) for seed in (3, 8)]
        monkeypatch.setattr(ferroent.spectra, "_CHUNK_ELEMENTS", 126 * 2 * 132)
        seen = check_stream(graphs)
        assert len(seen) == 2
        assert sorted(np.concatenate([positions for positions, _ in seen]).tolist()) == list(
            range(2 * comb(10, 5)))
        for _, flips in seen:
            assert set(flips.tolist()) == {1.0, -1.0}


class TestValidateRdm:
    def test_accepts_valid(self):
        validate_rdm(BELL.matrix())

    def test_rejects_non_hermitian(self):
        rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        rho[0, 1] = 0.1
        with pytest.raises(ValueError):
            validate_rdm(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            validate_rdm(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            validate_rdm(np.diag([1.2, 0.0, 0.0, -0.2]).astype(complex))

    def test_x_extraction_rejects_broken_pattern(self):
        rho = BELL.matrix()
        rho[0, 3] = rho[3, 0] = 0.1
        with pytest.raises(ValueError):
            x_state_from_matrix(rho)
