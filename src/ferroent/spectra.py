"""Sector eigendecomposition and the ground-window rule.

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
    """Diagonalize every S^z sector; 2^N eigenvalues in total, N <= N_SPINS_CAP."""
    n = graph.n_spins
    if n > N_SPINS_CAP:
        raise ValueError(f"n_spins={n} exceeds the solver cap of {N_SPINS_CAP}")
    spectra = []
    for n_up in range(n + 1):
        basis = sector_basis(n, n_up)
        matrix = build_sector_hamiltonian(graph, n_up, b_field)
        eigenvalues, eigenvectors = eig_sym(matrix)
        spectra.append(
            SectorSpectrum(basis=basis, eigenvalues=eigenvalues, eigenvectors=eigenvectors)
        )
    return spectra


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
