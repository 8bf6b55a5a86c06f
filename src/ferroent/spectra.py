"""The central-sector eigendecomposition, spin labels and the ground-window rule.

Every Hamiltonian here is isotropic exchange: it commutes with total S^2,
so each eigenstate is a member |S, M> of a spin multiplet, and each
multiplet has exactly one member in the central sector n_up = N // 2
(S^z = 0 for even N, -1/2 for odd N).  ``full_spectrum`` therefore builds
and diagonalizes that one block; ``full_spectra`` does it for a batch of
graphs of one N at once, with one ``eigh`` call per S for all of them,
and ``full_spectrum`` is its batch of one.  Sector n_up holds the central levels
with S >= |n_up - N/2|, at the same energies; a field B adds B * S^z.

For even N the central block is centrosymmetric, H == H[::-1, ::-1]: the
global spin flip maps the sector onto itself with its mask order
reversed.  With A and C its upper-left and upper-right quarters it splits
into the flip-parity blocks A + C[:, ::-1] and A - C[:, ::-1], whose
eigenvectors x give the central ones [x; +x[::-1]] / sqrt(2) and
[x; -x[::-1]] / sqrt(2).  Flip parity fixes S mod 2 at S^z = 0.  The
blocks are filled from ``hilbert.sector_hops``; the dense H is never formed.

H is solved in ``hilbert.central_spin_basis``, orthonormal columns built
from Clebsch-Gordan coefficients and grouped by S: it is projected onto
each group (within its parity block for even N) and diagonalized there,
one ``eigh`` per S over the batch's stack, so every eigenvector is pure-S by construction and
takes its group's S as its label.  The label is checked on the returned
columns: <S^2> = |S^+ v|^2 + M(M + 1) must be within SPIN_LABEL_TOL of
S(S+1).

The ground multiplet is identified from a flat array of energies by one
rule, ``ground_window``; the thermal engine, the gap report and the
verification suites all use it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Sequence

import numpy as np

from .graphs import SpinGraph
from .hilbert import SectorBasis, central_spin_basis, sector_basis, sector_hops

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
    max |<S^2> - S(S+1)| over the columns.  A batch of G graphs
    (``full_spectra``) has a graph axis in every array: eigenvalues,
    spins and sector columns are (G, ...), the eigenvectors (dim, G, dim),
    and the residuals (G,); ``member`` picks one graph's spectrum.
    """

    basis: SectorBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    spins: np.ndarray
    spin_residual: float | np.ndarray
    sector_columns: tuple[np.ndarray, ...]
    b_field: float = 0.0

    def member(self, k: int) -> "CentralSpectrum":
        """The spectrum of graph k of a batch."""
        return replace(
            self,
            eigenvalues=self.eigenvalues[k],
            eigenvectors=self.eigenvectors[:, k],
            spins=self.spins[k],
            spin_residual=float(self.spin_residual[k]),
            sector_columns=tuple(columns[k] for columns in self.sector_columns),
        )

    def sector_eigenvalues(self, n_up: int) -> np.ndarray:
        """Ascending eigenvalues of sector n_up, the field's B * S^z included."""
        sz = n_up - 0.5 * self.basis.n_spins
        levels = np.take_along_axis(self.eigenvalues, self.sector_columns[n_up], -1)
        return levels + self.b_field * sz

    @property
    def energies(self) -> np.ndarray:
        """All 2^N eigenvalues, sector by sector (n_up = 0..N)."""
        return np.concatenate(
            [self.sector_eigenvalues(n_up) for n_up in range(len(self.sector_columns))], axis=-1
        )


def eig_sym(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix, or of a stack (G, k, k) of them.

    Eigenvalues ascend along the last axis.  Validates symmetry and
    finiteness, then defers to LAPACK's symmetric solver, one matrix at a
    time; non-convergence surfaces as a LinAlgError from the backend.
    """
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    if matrix.shape[-1] > 1 and np.max(np.abs(matrix - matrix.swapaxes(-1, -2))) > _SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric to within 1e-14")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return eigenvalues, eigenvectors


def _stacked_blocks(graphs: Sequence[SpinGraph], basis: SectorBasis) -> np.ndarray:
    """Every graph's central blocks, filled from all ``sector_hops`` at once, as (P, G, k, k).

    Odd N: the central block, P = 1, k = dim.  Even N: the parity blocks
    + and -, P = 2, k = dim / 2, from the hops out of the first k rows, with
    a column c >= k folded onto dim - 1 - c and the block's sign.  An entry
    gets at most one term of A and one of C: this is A +- C[:, ::-1] bit for bit.
    """
    dim = len(basis)
    signs = (1.0,) if basis.n_spins % 2 else (1.0, -1.0)
    size = dim // len(signs)
    hops = [sector_hops(graph, basis) for graph in graphs]
    member = np.repeat(np.arange(len(graphs)), [len(hop[1]) for hop in hops])  # each hop's graph
    row, column, value = (np.concatenate(part) for part in list(zip(*hops))[1:])
    kept = row < size
    member, row, column, value = member[kept], row[kept], column[kept], value[kept]
    folded = column >= size
    column[folded] = dim - 1 - column[folded]
    blocks = np.zeros((len(signs), len(graphs), size, size))
    blocks[:, :, range(size), range(size)] += np.stack([hop[0][:size] for hop in hops])
    for block, sign in zip(blocks, signs):
        block[member[~folded], row[~folded], column[~folded]] += value[~folded]
        block[member[folded], row[folded], column[folded]] += sign * value[folded]
    return blocks


def _symmetric(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.swapaxes(-1, -2))


def _central_eigenpairs(
    graphs: Sequence[SpinGraph], basis: SectorBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each graph's central eigenvalues (G, dim), ascending, eigenvectors and spins.

    The eigenvectors are (dim, G, dim), the spins (G, dim).

    H is projected onto each spin-S block of ``central_spin_basis`` (for
    even N, the flip-parity block of that S), and the projections of all
    graphs are diagonalized by one ``eig_sym`` call per S; the
    eigenvectors are carried back, and a column's S is its block's.
    Every step acts on each graph's matrices alone, as for one graph.
    """
    n, half = basis.n_spins, len(basis) // 2
    blocks = _stacked_blocks(graphs, basis)
    spin_blocks = central_spin_basis(n)
    # the block of each S: for even N its flip parity (-1)^(N/2 - S), 0 for + and 1 for -
    parities = [0 if n % 2 else int(n // 2 - spin) % 2 for spin, _ in spin_blocks]
    solved = [
        eig_sym(_symmetric(columns.T @ (blocks[parity] @ columns)))
        for parity, (_, columns) in zip(parities, spin_blocks)
    ]
    del blocks  # free the parity blocks before the eigenvectors are assembled
    eigenvalues = np.concatenate([values for values, _ in solved], axis=1)
    spins = np.repeat([spin for spin, _ in spin_blocks], [values.shape[1] for values, _ in solved])
    order = np.argsort(eigenvalues, axis=1, kind="stable")
    destination = np.argsort(order, axis=1) + len(basis) * np.arange(len(graphs))[:, None]
    # the batch's eigenvectors side by side: column k of graph j is column j * dim + k
    eigenvectors = np.empty((len(basis), len(graphs), len(basis)))
    side_by_side = eigenvectors.reshape(len(basis), -1)
    start = 0
    for parity, (_, columns), (values, turn) in zip(parities, spin_blocks, solved):
        targets = destination[:, start : start + values.shape[1]]
        start += values.shape[1]
        vectors = (columns @ turn).transpose(1, 0, 2)  # (rows, G, k)
        if n % 2:
            side_by_side[:, targets] = vectors
            continue
        vectors *= np.sqrt(0.5)
        side_by_side[:half, targets] = vectors
        if parity:
            np.negative(vectors, out=vectors)
        side_by_side[half:, targets] = vectors[::-1]
    return np.sort(eigenvalues, axis=1, kind="stable"), eigenvectors, spins[order]


def _spin_residual(basis: SectorBasis, vectors: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """max |<S^2> - S(S+1)| over each graph's columns, with <S^2> = |S^+ v|^2 + M(M + 1).

    ``vectors`` is (dim, G, dim) and ``spins`` (G, dim); returns (G,).
    S^+ v is one gather-sum into the sector above: each of its masks
    collects the central masks with one of its up spins lowered.
    """
    n, m = basis.n_spins, basis.sz
    vectors = vectors.reshape(len(basis), -1)
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
    squares = squares.reshape(spins.shape)
    return np.max(np.abs(squares + m * (m + 1.0) - spins * (spins + 1.0)), axis=1)


def full_spectra(graphs: Sequence[SpinGraph], b_field: float = 0.0) -> CentralSpectrum:
    """The spectra of a batch of graphs of one spin count N <= N_SPINS_CAP, solved together.

    Every array of the result has a leading graph axis (see
    ``CentralSpectrum``); ``full_spectrum`` is the batch of one.  The
    central blocks are diagonalized at zero field, one spin-S block at a
    time for all graphs at once.  Raises ValueError for a non-finite field
    or mixed spin counts, and SpinLabelError if a column's <S^2> is off
    its label by more than SPIN_LABEL_TOL or a sector would not get
    C(N, n_up) levels.
    """
    n = graphs[0].n_spins
    if any(graph.n_spins != n for graph in graphs):
        raise ValueError("a batch of spectra needs graphs of one spin count")
    if n > N_SPINS_CAP:
        raise ValueError(f"n_spins={n} exceeds the solver cap of {N_SPINS_CAP}")
    if not np.isfinite(b_field):
        raise ValueError(f"the field must be finite, got {b_field}")
    basis = sector_basis(n, n // 2)
    eigenvalues, eigenvectors, spins = _central_eigenpairs(graphs, basis)
    residuals = _spin_residual(basis, eigenvectors, spins)
    if residuals.max() > SPIN_LABEL_TOL:
        raise SpinLabelError(
            f"<S^2> of a central eigenvector is {residuals.max():.3g} away from its S(S+1) "
            f"(tolerance {SPIN_LABEL_TOL:g})"
        )
    sector_columns = []
    for n_up in range(n + 1):
        # each graph's spins are a permutation of the same labels, so of the same count
        columns = np.nonzero(2.0 * spins >= abs(2 * n_up - n))[1]
        if len(columns) != len(graphs) * comb(n, n_up):
            raise SpinLabelError(
                f"the spin labels give sector n_up={n_up} {len(columns) // len(graphs)} levels, "
                f"expected C({n}, {n_up}) = {comb(n, n_up)}"
            )
        sector_columns.append(columns.reshape(len(graphs), -1))
    return CentralSpectrum(
        basis=basis,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        spins=spins,
        spin_residual=residuals,
        sector_columns=tuple(sector_columns),
        b_field=b_field,
    )


def full_spectrum(graph: SpinGraph, b_field: float = 0.0) -> CentralSpectrum:
    """The spectrum of every S^z sector of one graph from one solve of its central sector.

    A batch of one (``full_spectra``), with the graph axis dropped.
    """
    return full_spectra([graph], b_field).member(0)


def ground_window(energies: np.ndarray) -> np.ndarray:
    """Mask of the flat energies that belong to the ground multiplet, along the last axis.

    The window is E_min + DEGENERACY_TOL * max(1, spectral range): the
    multiplet is exactly degenerate in exact arithmetic and the tolerance
    only absorbs floating-point spread.  A stack (G, 2^N) gets one window
    per graph.
    """
    e_min = np.minimum.reduce(energies, axis=-1, keepdims=True)
    span = np.maximum.reduce(energies, axis=-1, keepdims=True) - e_min
    return energies <= e_min + DEGENERACY_TOL * np.maximum(span, 1.0)


def energy_gap(spectrum: CentralSpectrum) -> float:
    """Gap from the ground multiplet to the first state above it (0 if none)."""
    energies = spectrum.energies
    above = energies[~ground_window(energies)]
    return float(above.min() - energies.min()) if above.size else 0.0
