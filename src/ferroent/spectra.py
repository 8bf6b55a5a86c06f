"""Sector eigendecomposition and the ground-window rule.

``full_spectrum`` diagonalizes the sectors n_up <= N // 2 and takes the
others from the global spin flip, which maps sector k onto sector N - k.

The ground multiplet is identified from a flat array of energies by one
rule, ``ground_window``; the thermal engine, the gap report and the
verification suites all use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import SpinGraph
from .hilbert import SectorBasis, build_sector_hamiltonian, sector_basis

N_SPINS_CAP = 14
DEGENERACY_TOL = 1e-9

_SYMMETRY_TOL = 1e-14


@dataclass(frozen=True)
class SectorSpectrum:
    """Eigendecomposition of one S^z block: ascending eigenvalues, orthonormal columns."""

    basis: SectorBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_up(self) -> int:
        return self.basis.n_up


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


def full_spectrum(graph: SpinGraph, b_field: float = 0.0) -> list[SectorSpectrum]:
    """Spectra of every S^z sector, n_up = 0..N; 2^N eigenvalues, N <= N_SPINS_CAP.

    Only the sectors n_up <= N // 2 are diagonalized, at zero field.  The
    global spin flip gives the rest: sector N - k has sector k's
    eigenvalues, in the same order, and eigenvectors ``V_k[::-1]`` (a view
    of sector k's array), because its Hamiltonian block is sector k's with
    rows and columns reversed (see ``hilbert``).  A field B commutes with
    every block and only adds B * S^z to each sector's eigenvalues.
    """
    n = graph.n_spins
    if n > N_SPINS_CAP:
        raise ValueError(f"n_spins={n} exceeds the solver cap of {N_SPINS_CAP}")
    # Largest block first, so no smaller sector's eigenvectors are held
    # while its eigh (and LAPACK workspace) sets the peak memory.
    lower = []
    for n_up in reversed(range(n // 2 + 1)):
        eigenvalues, eigenvectors = eig_sym(build_sector_hamiltonian(graph, n_up))
        lower.insert(0, (sector_basis(n, n_up), eigenvalues, eigenvectors))
    mirrored = [
        (basis.flipped(), eigenvalues, eigenvectors[::-1])
        for basis, eigenvalues, eigenvectors in reversed(lower[: (n + 1) // 2])
    ]
    return [
        SectorSpectrum(
            basis=basis, eigenvalues=eigenvalues + b_field * basis.sz, eigenvectors=eigenvectors
        )
        for basis, eigenvalues, eigenvectors in lower + mirrored
    ]


def ground_window(energies: np.ndarray) -> np.ndarray:
    """Mask of the flat energies that belong to the ground multiplet.

    The window is E_min + DEGENERACY_TOL * max(1, spectral range): the
    multiplet is exactly degenerate in exact arithmetic and the tolerance
    only absorbs floating-point spread.
    """
    e_min = float(energies.min())
    return energies <= e_min + DEGENERACY_TOL * max(1.0, float(energies.max()) - e_min)


def energy_gap(spectra: list[SectorSpectrum]) -> float:
    """Gap from the ground multiplet to the first state above it (0 if none)."""
    energies = np.concatenate([spectrum.eigenvalues for spectrum in spectra])
    above = energies[~ground_window(energies)]
    return float(above.min() - energies.min()) if above.size else 0.0
