from math import comb

import numpy as np
import pytest

from ferroent.graphs import ChainParams, make_graph, random_graph, ring_chain, star_graph
from ferroent.hilbert import (
    _coupled_sector,
    central_spin_basis,
    sector_basis,
    sector_hops,
)
from oracles import (
    build_sector_hamiltonian,
    dicke_vector,
    kron_hamiltonian,
    permutation_hamiltonian,
    sector_block,
)

EDGE = make_graph(2, [(0, 1, -1.0)])


class TestSectorBasis:
    def test_empty_sector(self):
        assert sector_basis(4, 0).masks.tolist() == [0]

    def test_half_filled_four_spins(self):
        assert sector_basis(4, 2).masks.tolist() == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]

    def test_full_sector(self):
        assert sector_basis(3, 3).masks.tolist() == [0b111]

    def test_dimensions_sum_to_full_space(self):
        for n in range(1, 9):
            assert sum(comb(n, k) for k in range(n + 1)) == 2**n

    def test_states_ascending(self):
        basis = sector_basis(7, 3)
        assert basis.masks.tolist() == sorted(basis.masks.tolist())
        assert all(int(m).bit_count() == 3 for m in basis.masks)

    def test_bad_n_up(self):
        with pytest.raises(ValueError):
            sector_basis(4, 5)

    def test_cached_with_read_only_masks(self):
        basis = sector_basis(6, 3)
        assert sector_basis(6, 3) is basis
        assert not basis.masks.flags.writeable
        with pytest.raises(ValueError):
            basis.masks[0] = 0


class TestBuildHamiltonian:
    def test_single_edge_midsector(self):
        h = build_sector_hamiltonian(EDGE, 1)
        assert np.array_equal(h, np.array([[0.25, -0.5], [-0.5, 0.25]]))
        values = np.linalg.eigvalsh(h)
        assert values == pytest.approx([-0.25, 0.75])

    def test_all_down_sector_is_quarter_coupling_sum(self):
        g = random_graph(6, 0.6, (-2.0, -0.2), seed=5)
        h = build_sector_hamiltonian(g, 0, b_field=0.3)
        expected = 0.25 * g.coupling_sum + 0.3 * (0 - 3.0)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_ring4_ground_energy(self):
        g = ring_chain(ChainParams(n_spins=4, g1=-1.0))
        h = build_sector_hamiltonian(g, 2)
        assert h.shape == (6, 6)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_exactly_symmetric(self):
        g = random_graph(7, 0.4, (-3.0, -0.1), seed=2)
        for n_up in range(8):
            h = build_sector_hamiltonian(g, n_up, b_field=0.7)
            assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("b_field", [0.0, 0.8])
    def test_matches_operator_product_oracle(self, b_field):
        graphs = [
            ring_chain(ChainParams(n_spins=5, g1=-1.0, g2=-2.0)),
            star_graph(5, -1.5),
            random_graph(6, 0.5, (-2.0, -0.3), seed=3),
            make_graph(4, [(0, 1, 1.0), (2, 3, -0.5)]),  # mixed signs on purpose
            make_graph(3, []),  # no edges: the field term alone
        ]
        for g in graphs:
            full = kron_hamiltonian(g, b_field)
            for n_up in range(g.n_spins + 1):
                basis = sector_basis(g.n_spins, n_up)
                h = build_sector_hamiltonian(g, n_up, b_field)
                assert np.max(np.abs(h - sector_block(full, basis))) < 1e-13

    def test_matches_permutation_identity_oracle(self):
        g = random_graph(6, 0.5, (-2.0, -0.3), seed=8)
        full = permutation_hamiltonian(g, 0.4)
        for n_up in range(7):
            basis = sector_basis(6, n_up)
            h = build_sector_hamiltonian(g, n_up, 0.4)
            assert np.max(np.abs(h - sector_block(full, basis))) < 1e-13

    def test_hop_list_holds_each_entry_once_with_its_transpose(self):
        g = make_graph(6, [(0, 1, -1.0), (1, 2, 0.5), (0, 4, -2.0), (3, 5, 1.5)])
        for n_up in range(7):
            basis = sector_basis(6, n_up)
            diagonal, row, column, value = sector_hops(g, basis)
            entries = dict(zip(zip(row.tolist(), column.tolist()), value.tolist()))
            assert len(entries) == len(row)
            assert all(entries[c, r] == v for (r, c), v in entries.items())
            assert all(r != c for r, c in entries)
            h = build_sector_hamiltonian(g, n_up)
            assert np.array_equal(np.diag(h), diagonal)
            assert np.count_nonzero(h - np.diag(diagonal)) == len(row)

    def test_flip_symmetry_at_zero_field(self):
        g = random_graph(6, 0.5, (-2.0, -0.3), seed=4)
        for n_up in range(7):
            low = np.linalg.eigvalsh(build_sector_hamiltonian(g, n_up))
            high = np.linalg.eigvalsh(build_sector_hamiltonian(g, 6 - n_up))
            assert low == pytest.approx(high, abs=1e-12)


def mixed_graphs(seed):
    """Seeded mixed-sign graphs: dense, sparse (mostly disconnected) and edge-free."""
    rng = np.random.default_rng(seed)
    graphs = []
    for n in range(1, 9):
        for density in (0.8, 0.3, 0.0):
            edges = [
                (i, j, float(rng.uniform(-2.0, 1.5)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < density
            ]
            graphs.append(make_graph(n, edges))
    return graphs


class TestSpinFlipMirror:
    def test_flipped_basis_is_the_complement_sector(self):
        # complemented masks in reverse order are the sector N - n_up; at the
        # central sector this is the flip-parity split of ``spectra``
        for n in range(1, 9):
            full = (1 << n) - 1
            for n_up in range(n + 1):
                flipped = (full ^ sector_basis(n, n_up).masks)[::-1]
                assert flipped.tolist() == sector_basis(n, n - n_up).masks.tolist()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mirror_block_is_bitwise_reversed(self, seed):
        for g in mixed_graphs(seed):
            n = g.n_spins
            for n_up in range(n + 1):
                h = build_sector_hamiltonian(g, n_up)
                assert np.array_equal(build_sector_hamiltonian(g, n - n_up), h[::-1, ::-1])


def central_columns(n):
    """The spins and the full central-sector columns of ``central_spin_basis(n)``."""
    spins, columns = [], []
    for spin, block in central_spin_basis(n):
        if n % 2 == 0:  # [y; p y[::-1]] / sqrt(2), p = (-1)^(N/2 - S)
            block = np.vstack([block, (-1.0) ** (n // 2 - spin) * block[::-1]]) * np.sqrt(0.5)
        spins += [spin] * block.shape[1]
        columns.append(block)
    return np.array(spins), np.hstack(columns)


def total_spin_square(n):
    """S^2 on the central sector: the complete graph with J = 2, plus 3N/4."""
    complete = make_graph(n, [(a, b, 2.0) for a in range(n) for b in range(a + 1, n)])
    return build_sector_hamiltonian(complete, n // 2) + 0.75 * n * np.eye(comb(n, n // 2))


SPIN_BASIS_SIZES = list(range(1, 13))


class TestCentralSpinBasis:
    @pytest.mark.parametrize("n", SPIN_BASIS_SIZES)
    def test_columns_are_orthonormal(self, n):
        _, columns = central_columns(n)
        assert columns.shape == (comb(n, n // 2), comb(n, n // 2))
        assert np.max(np.abs(columns.T @ columns - np.eye(columns.shape[1]))) <= 1e-13

    @pytest.mark.parametrize("n", SPIN_BASIS_SIZES)
    def test_columns_are_total_spin_eigenvectors(self, n):
        spins, columns = central_columns(n)
        residual = total_spin_square(n) @ columns - columns * (spins * (spins + 1.0))
        assert np.max(np.abs(residual)) <= 1e-12

    @pytest.mark.parametrize("n", SPIN_BASIS_SIZES)
    def test_column_count_per_spin(self, n):
        blocks = central_spin_basis(n)
        assert [spin for spin, _ in blocks] == [n / 2 - k for k in range(n // 2, -1, -1)]
        for spin, block in blocks:
            k = round(n / 2 - spin)
            assert block.shape[1] == comb(n, k) - (comb(n, k - 1) if k else 0)

    @pytest.mark.parametrize("n", [m for m in SPIN_BASIS_SIZES if m % 2 == 0])
    def test_even_n_columns_have_flip_parity(self, n):
        # the unfolded coupled basis of the central sector: a spin-S column is
        # (-1)^(N/2 - S) times its reversed self, and its first half is the
        # kept column of ``central_spin_basis`` over sqrt(2)
        matrix, groups = _coupled_sector(n, n // 2)
        half = len(matrix) // 2
        for (spin, kept), (twice_s, (first, last)) in zip(central_spin_basis(n), groups.items()):
            assert twice_s == 2 * spin
            columns = matrix[:, first:last]
            assert np.array_equal(columns[::-1], (-1.0) ** (n // 2 - spin) * columns)
            assert np.max(np.abs(kept - np.sqrt(2.0) * columns[:half])) <= 1e-15

    def test_cached_per_n_and_read_only(self):
        assert central_spin_basis(6) is central_spin_basis(6)
        for _, block in central_spin_basis(6):
            assert not block.flags.writeable


class TestDickeVector:
    def test_boundary_sectors_are_single_states(self):
        assert np.array_equal(dicke_vector(5, 0), [1.0])
        assert np.array_equal(dicke_vector(5, 5), [1.0])

    def test_uniform_amplitudes(self):
        v = dicke_vector(4, 2)
        assert v == pytest.approx(np.full(6, 1 / np.sqrt(6)))

    def test_is_common_eigenvector_of_ferromagnets(self):
        graphs = [
            ring_chain(ChainParams(n_spins=6, g1=-1.0, g2=-0.5, g3=-2.0)),
            star_graph(6, -1.0),
            random_graph(6, 0.5, (-2.0, -0.3), seed=6),
        ]
        b_field = 0.9
        for g in graphs:
            for n_up in range(7):
                v = dicke_vector(6, n_up)
                hv = build_sector_hamiltonian(g, n_up, b_field) @ v
                energy = 0.25 * g.coupling_sum + b_field * (n_up - 3.0)
                assert hv == pytest.approx(energy * v, abs=1e-12)
