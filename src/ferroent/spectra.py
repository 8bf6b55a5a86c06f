"""The central-sector eigendecomposition, spin labels and the ground-window rule.

Every Hamiltonian here is isotropic exchange: it commutes with total S^2,
so each eigenstate is a member |S, M> of a spin multiplet, and each
multiplet has exactly one member in the central sector n_up = N // 2
(S^z = 0 for even N, -1/2 for odd N).  ``full_spectrum`` therefore builds
and diagonalizes that one block.  Sector n_up holds the central levels
with S >= |n_up - N/2|, at the same energies; a field B adds B * S^z.

For even N the central block is centrosymmetric, H == H[::-1, ::-1]: the
global spin flip maps the sector onto itself with its mask order
reversed.  With A and C its upper-left and upper-right quarters it splits
into the flip-parity blocks A + C[:, ::-1] and A - C[:, ::-1], whose
eigenvectors x give the central ones [x; +x[::-1]] / sqrt(2) and
[x; -x[::-1]] / sqrt(2).  Flip parity fixes S mod 2 at S^z = 0.

H is solved in ``hilbert.central_spin_basis``, orthonormal columns built
from Clebsch-Gordan coefficients and grouped by S: it is projected onto
each group (within its parity block for even N) and diagonalized there,
one ``eigh`` per S, so every eigenvector is pure-S by construction and
takes its group's S as its label.  The label is checked on the returned
columns: <S^2> = |S^+ v|^2 + M(M + 1) must be within SPIN_LABEL_TOL of
S(S+1).

The ground multiplet is identified from a flat array of energies by one
rule, ``ground_window``; the thermal engine, the gap report and the
verification suites all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import SpinGraph
from .hilbert import SectorBasis, build_sector_hamiltonian, central_spin_basis, sector_basis

N_SPINS_CAP = 14
DEGENERACY_TOL = 1e-9
SPIN_LABEL_TOL = 1e-6

_SYMMETRY_TOL = 1e-14
_GATHER_ELEMENTS = 1 << 20  # entries of S^+ V formed at once by the spin check


class SpinLabelError(RuntimeError):
    """The central eigenvectors do not resolve into whole spin multiplets."""


@dataclass(frozen=True)
class CentralSpectrum:
    """The central S^z block, solved at zero field, and the sectors it gives.

    ``eigenvalues`` ascend; column k of ``eigenvectors`` is a state of spin
    ``spins[k]``.  ``sector_columns[n_up]`` lists, ascending, the columns
    whose multiplet reaches sector n_up; ``spin_residual`` is
    max |<S^2> - S(S+1)| over the columns.
    """

    basis: SectorBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    spins: np.ndarray
    spin_residual: float
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


def _symmetric(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.T)


def _central_eigenpairs(
    graph: SpinGraph, basis: SectorBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the central block, its eigenvectors and their spins.

    H is projected onto each spin-S block of ``central_spin_basis`` (for
    even N, the flip-parity block of that S), diagonalized there, and the
    eigenvectors are carried back; a column's S is its block's.
    """
    n, half = graph.n_spins, len(basis) // 2
    blocks = _parity_blocks(build_sector_hamiltonian(graph, n // 2, basis=basis), n)
    spin_blocks = central_spin_basis(n)
    # the block of each S: for even N its flip parity (-1)^(N/2 - S), 0 for + and 1 for -
    parities = [0 if n % 2 else int(n // 2 - spin) % 2 for spin, _ in spin_blocks]
    solved = [
        eig_sym(_symmetric(columns.T @ (blocks[parity] @ columns)))
        for parity, (_, columns) in zip(parities, spin_blocks)
    ]
    del blocks  # free the parity blocks before the eigenvectors are assembled
    eigenvalues = np.concatenate([values for values, _ in solved])
    spins = np.repeat([spin for spin, _ in spin_blocks], [len(values) for values, _ in solved])
    order = np.argsort(eigenvalues, kind="stable")
    destination = np.empty_like(order)
    destination[order] = np.arange(len(order))
    eigenvectors = np.empty((len(basis), len(basis)))
    start = 0
    for parity, (_, columns), (values, turn) in zip(parities, spin_blocks, solved):
        targets = destination[start : start + len(values)]
        start += len(values)
        vectors = columns @ turn
        if n % 2:
            eigenvectors[:, targets] = vectors
            continue
        vectors *= np.sqrt(0.5)
        eigenvectors[:half, targets] = vectors
        if parity:
            np.negative(vectors, out=vectors)
        eigenvectors[half:, targets] = vectors[::-1]
    return eigenvalues[order], eigenvectors, spins[order]


def _spin_residual(basis: SectorBasis, vectors: np.ndarray, spins: np.ndarray) -> float:
    """max |<S^2> - S(S+1)| over the columns, with <S^2> = |S^+ v|^2 + M(M + 1).

    S^+ v is one gather-sum into the sector above: each of its masks
    collects the central masks with one of its up spins lowered.
    """
    n, m = basis.n_spins, basis.sz
    above = sector_basis(n, basis.n_up + 1).masks
    bits = 1 << np.arange(n)
    lowered = above[:, None] ^ bits
    rows = np.searchsorted(basis.masks, lowered[(above[:, None] & bits) != 0])
    rows = rows.reshape(len(above), basis.n_up + 1)
    squares = np.empty(vectors.shape[1])
    step = max(1, _GATHER_ELEMENTS // len(above))
    for start in range(0, vectors.shape[1], step):
        block = np.ascontiguousarray(vectors[:, start : start + step])
        raised = block[rows[:, 0]]
        for row in rows.T[1:]:
            raised += block[row]
        np.square(raised, out=raised)
        # a pairwise sum along rows: down the columns, ring 14 gained 3.9e-12 of rounding
        squares[start : start + step] = np.ascontiguousarray(raised.T).sum(axis=1)
    return float(np.max(np.abs(squares + m * (m + 1.0) - spins * (spins + 1.0))))


def full_spectrum(graph: SpinGraph, b_field: float = 0.0) -> CentralSpectrum:
    """The spectrum of every S^z sector from one solve of the central sector, N <= N_SPINS_CAP.

    The central block is diagonalized at zero field, one spin-S block at a
    time.  Raises ValueError for a non-finite field, and SpinLabelError if
    a column's <S^2> is off its label by more than SPIN_LABEL_TOL or a
    sector would not get C(N, n_up) levels.
    """
    n = graph.n_spins
    if n > N_SPINS_CAP:
        raise ValueError(f"n_spins={n} exceeds the solver cap of {N_SPINS_CAP}")
    if not np.isfinite(b_field):
        raise ValueError(f"the field must be finite, got {b_field}")
    basis = sector_basis(n, n // 2)
    eigenvalues, eigenvectors, spins = _central_eigenpairs(graph, basis)
    residual = _spin_residual(basis, eigenvectors, spins)
    if residual > SPIN_LABEL_TOL:
        raise SpinLabelError(
            f"<S^2> of a central eigenvector is {residual:.3g} away from its S(S+1) "
            f"(tolerance {SPIN_LABEL_TOL:g})"
        )
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
        sector_columns=sector_columns,
        b_field=b_field,
    )


def ground_window(energies: np.ndarray) -> np.ndarray:
    """Mask of the flat energies that belong to the ground multiplet.

    The window is E_min + DEGENERACY_TOL * max(1, spectral range): the
    multiplet is exactly degenerate in exact arithmetic and the tolerance
    only absorbs floating-point spread.
    """
    e_min = float(energies.min())
    return energies <= e_min + DEGENERACY_TOL * max(1.0, float(energies.max()) - e_min)


def energy_gap(spectrum: CentralSpectrum) -> float:
    """Gap from the ground multiplet to the first state above it (0 if none)."""
    energies = spectrum.energies
    above = energies[~ground_window(energies)]
    return float(above.min() - energies.min()) if above.size else 0.0
