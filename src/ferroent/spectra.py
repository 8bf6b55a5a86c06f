"""The central-sector eigendecomposition, spin labels and the ground-window rule.

Every Hamiltonian here is isotropic exchange: it commutes with total S^2,
so each eigenstate is a member |S, M> of a spin multiplet, and each
multiplet has exactly one member in the central sector n_up = N // 2
(S^z = 0 for even N, -1/2 for odd N).  ``full_spectrum`` therefore builds
and diagonalizes that one block.  Sector n_up holds the central levels
with S >= |n_up - N/2|, at the same energies; a field B adds B * S^z.
The S of a central eigenvector comes from its pair correlations,
<S^2> = 3N/4 + 2 sum_{a<b} <S_a . S_b>, and must land on some S(S+1)
within SPIN_LABEL_TOL.

For even N the central block is centrosymmetric, H == H[::-1, ::-1]: the
global spin flip maps the sector onto itself with its mask order
reversed.  With A and C its upper-left and upper-right quarters it splits
into the flip-parity blocks A + C[:, ::-1] and A - C[:, ::-1], whose
eigenvectors x give the central ones [x; +x[::-1]] / sqrt(2) and
[x; -x[::-1]] / sqrt(2).  Flip parity fixes S mod 2 at S^z = 0.

Within a block, a run of eigenvalues closer than the ground window's
width is a cluster, and LAPACK may return any mixture of the cluster's
multiplets.  Each cluster is made pure-S: S^2 restricted to it is
diagonalized, then H within each group of equal S.  Levels of different
S that are close but not clustered come back mixed by about
eps ||H|| / gap; one first-order step with the matrix of S^2 between the
columns removes that.  The S^2 block is ``build_sector_hamiltonian`` of
the complete graph with J = 2, plus 3N/4.

The ground multiplet is identified from a flat array of energies by one
rule, ``ground_window``; the thermal engine, the gap report and the
verification suites all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import SpinGraph, make_graph
from .hilbert import SectorBasis, build_sector_hamiltonian, sector_basis
from .rdm import eigenstate_pair_entries

N_SPINS_CAP = 14
DEGENERACY_TOL = 1e-9
SPIN_LABEL_TOL = 1e-6

_SYMMETRY_TOL = 1e-14


class SpinLabelError(RuntimeError):
    """The central eigenvectors do not resolve into whole spin multiplets."""


@dataclass(frozen=True)
class CentralSpectrum:
    """The central S^z block, solved at zero field, and the sectors it gives.

    ``eigenvalues`` ascend; column k of ``eigenvectors`` is a state of spin
    ``spins[k]``.  ``pair_entries`` holds the X-form entries of every pair
    a < b (``SpinGraph.pairs`` order) of every column, (pairs, columns, 5).
    ``sector_columns[n_up]`` lists, ascending, the columns whose multiplet
    reaches sector n_up; ``spin_residual`` is max |<S^2> - S(S+1)|.
    """

    basis: SectorBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    spins: np.ndarray
    spin_residual: float
    pair_entries: np.ndarray
    sector_columns: tuple[np.ndarray, ...]
    b_field: float = 0.0

    def sector_eigenvalues(self, n_up: int) -> np.ndarray:
        """Ascending eigenvalues of sector n_up, the field's B * S^z included."""
        sz = n_up - 0.5 * self.basis.n_spins
        return self.eigenvalues[self.sector_columns[n_up]] + self.b_field * sz

    @property
    def energies(self) -> np.ndarray:
        """All 2^N eigenvalues, sector by sector (n_up = 0..N)."""
        return np.concatenate(
            [self.sector_eigenvalues(n_up) for n_up in range(len(self.sector_columns))]
        )


def eig_sym(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix, eigenvalues ascending.

    Validates symmetry and finiteness, then defers to LAPACK's symmetric
    solver; non-convergence surfaces as a LinAlgError from the backend.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    if matrix.shape[0] > 1 and np.max(np.abs(matrix - matrix.T)) > _SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric to within 1e-14")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return eigenvalues, eigenvectors


def _parity_blocks(matrix: np.ndarray, n_spins: int) -> list[np.ndarray]:
    """The flip-parity blocks (+, -) of a central block for even N; the block itself for odd N."""
    if n_spins % 2:
        return [matrix]
    half = len(matrix) // 2
    upper, mirrored = matrix[:half, :half], matrix[:half, half:][:, ::-1]
    return [upper + mirrored, upper - mirrored]


def _spin_of(squares: np.ndarray, n_spins: int) -> np.ndarray:
    """Nearest allowed S (integer for even N, half-integer for odd N) to each S(S+1)."""
    offset = 0.5 * (n_spins % 2)
    raw = 0.5 * (np.sqrt(1.0 + 4.0 * np.maximum(squares, 0.0)) - 1.0)
    return np.maximum(np.round(raw - offset), 0.0) + offset


def _clusters(values: np.ndarray, width: float) -> list[tuple[int, int]]:
    """(start, stop) of each run of two or more eigenvalues spaced at most width apart."""
    breaks = np.flatnonzero(np.diff(values) > width) + 1
    bounds = zip([0, *breaks.tolist()], [*breaks.tolist(), len(values)])
    return [(start, stop) for start, stop in bounds if stop - start > 1]


def _symmetric(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.T)


def _cluster_rotation(
    values: np.ndarray, square: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Energies and rotation that make a cluster's columns pure-S, or None if they are.

    ``square`` is S^2 restricted to the cluster: its eigenvectors split the
    cluster by S, then H is diagonalized within each group of equal S.
    The new columns are ascending in energy.
    """
    squares, rotation = eig_sym(_symmetric(square))
    spins = _spin_of(squares, n)
    if spins[0] == spins[-1]:
        return None  # one S: the columns are already pure-S eigenvectors of H
    energies, turns = [], []
    for spin in dict.fromkeys(spins.tolist()):  # ascending, as the S^2 eigenvalues
        group = rotation[:, spins == spin]
        if group.shape[1] > 1:
            within, turn = eig_sym(_symmetric(group.T @ (values[:, None] * group)))
            group = group @ turn
        else:
            within = group.T @ (values * group[:, 0])
        energies.append(within)
        turns.append(group)
    energies, turns = np.concatenate(energies), np.concatenate(turns, axis=1)
    order = np.argsort(energies, kind="stable")
    return energies[order], turns[:, order]


def _make_spin_pure(
    graph: SpinGraph, basis: SectorBasis, solved: list[tuple[np.ndarray, np.ndarray]]
) -> None:
    """Make every column of each parity block's eigenpairs pure-S, in place.

    LAPACK mixes levels of different S by about eps ||H|| / gap, and the
    Wigner-Eckart rebuild would carry that mixing into every other sector
    to first order.  Within a cluster the mixing is arbitrary: S^2, then
    H, is diagonalized there.  Across clusters one first-order step
    removes it: with M = V^T S^2 V and s_i the nearest S(S+1) to M_ii,
    column i loses sum_j v_j M_ji / (s_j - s_i) over the columns j of
    another S.
    """
    n = graph.n_spins
    width = _window_width(np.concatenate([values for values, _ in solved]))
    complete = make_graph(n, [(a, b, 2.0) for a, b in graph.pairs()])
    square = build_sector_hamiltonian(complete, n // 2, basis=basis)
    square[np.diag_indices(len(basis))] += 0.75 * n
    blocks = _parity_blocks(square, n)
    del square  # for even N only the parity blocks are needed
    for (values, vectors), block in zip(solved, blocks):
        applied = block @ vectors  # S^2 V
        for start, stop in _clusters(values, width):
            cluster = slice(start, stop)
            pure = _cluster_rotation(
                values[cluster], vectors[:, cluster].T @ applied[:, cluster], n
            )
            if pure is not None:
                values[cluster], rotation = pure
                vectors[:, cluster] = vectors[:, cluster] @ rotation
                applied[:, cluster] = applied[:, cluster] @ rotation
        coupling = _symmetric(vectors.T @ applied)
        casimir = _spin_of(np.diag(coupling), n)
        casimir *= casimir + 1.0
        split = casimir[:, None] - casimir[None, :]
        mixing = np.divide(coupling, split, out=np.zeros_like(coupling), where=split != 0.0)
        vectors -= vectors @ mixing


def _central_eigenpairs(graph: SpinGraph, basis: SectorBasis) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the central block, each eigenvector of one S."""
    n = graph.n_spins
    blocks = _parity_blocks(build_sector_hamiltonian(graph, n // 2, basis=basis), n)
    solved = [eig_sym(block) for block in blocks]
    del blocks  # H is not needed again; free it before S^2 is built
    _make_spin_pure(graph, basis, solved)
    if n % 2:
        return solved[0]
    eigenvalues = np.concatenate([values for values, _ in solved])
    order = np.argsort(eigenvalues, kind="stable")
    destination = np.empty_like(order)
    destination[order] = np.arange(len(order))
    eigenvectors = np.empty((len(basis), len(basis)))
    half = len(basis) // 2
    for sign, (_, vectors), columns in zip(
        (1.0, -1.0), solved, (destination[:half], destination[half:])
    ):
        vectors *= np.sqrt(0.5)
        eigenvectors[:half, columns] = vectors
        eigenvectors[half:, columns] = sign * vectors[::-1]
    return eigenvalues[order], eigenvectors


def _spin_labels(entries: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """S of every column from its pair entries, and max |<S^2> - S(S+1)|."""
    alpha, beta, gamma, delta, epsilon = np.moveaxis(entries, 2, 0)
    # <S_a . S_b> = (xx + yy) + zz, with gamma = xx + yy and zz from the populations
    squares = 0.75 * n + 2.0 * (gamma + 0.25 * (alpha + epsilon - beta - delta)).sum(axis=0)
    spins = _spin_of(squares, n)
    residual = float(np.max(np.abs(squares - spins * (spins + 1.0))))
    if residual > SPIN_LABEL_TOL:
        raise SpinLabelError(
            f"<S^2> of a central eigenvector is {residual:.3g} away from every S(S+1) "
            f"(tolerance {SPIN_LABEL_TOL:g})"
        )
    return spins, residual


def full_spectrum(graph: SpinGraph, b_field: float = 0.0) -> CentralSpectrum:
    """The spectrum of every S^z sector from one solve of the central sector, N <= N_SPINS_CAP.

    The central block is diagonalized at zero field, as two flip-parity
    blocks for even N; clusters of degenerate columns are made pure-S and
    every column gets a spin label.  Raises SpinLabelError if a label is
    off by more than SPIN_LABEL_TOL or a sector would not get C(N, n_up)
    levels.
    """
    n = graph.n_spins
    if n > N_SPINS_CAP:
        raise ValueError(f"n_spins={n} exceeds the solver cap of {N_SPINS_CAP}")
    basis = sector_basis(n, n // 2)
    eigenvalues, eigenvectors = _central_eigenpairs(graph, basis)
    entries = eigenstate_pair_entries(basis, eigenvectors, graph.pairs())
    spins, residual = _spin_labels(entries, n)
    sector_columns = tuple(
        np.flatnonzero(2.0 * spins >= abs(2 * n_up - n)) for n_up in range(n + 1)
    )
    for n_up, columns in enumerate(sector_columns):
        if len(columns) != comb(n, n_up):
            raise SpinLabelError(
                f"the spin labels give sector n_up={n_up} {len(columns)} levels, "
                f"expected C({n}, {n_up}) = {comb(n, n_up)}"
            )
    return CentralSpectrum(
        basis=basis,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        spins=spins,
        spin_residual=residual,
        pair_entries=entries,
        sector_columns=sector_columns,
        b_field=b_field,
    )


def _window_width(energies: np.ndarray) -> float:
    e_min = float(energies.min())
    return DEGENERACY_TOL * max(1.0, float(energies.max()) - e_min)


def ground_window(energies: np.ndarray) -> np.ndarray:
    """Mask of the flat energies that belong to the ground multiplet.

    The window is E_min + DEGENERACY_TOL * max(1, spectral range): the
    multiplet is exactly degenerate in exact arithmetic and the tolerance
    only absorbs floating-point spread.
    """
    return energies <= float(energies.min()) + _window_width(energies)


def energy_gap(spectrum: CentralSpectrum) -> float:
    """Gap from the ground multiplet to the first state above it (0 if none)."""
    energies = spectrum.energies
    above = energies[~ground_window(energies)]
    return float(above.min() - energies.min()) if above.size else 0.0
