"""Spin-z sector bases and sector-blocked Hamiltonian assembly.

Basis states are N-bit integers; bit i set means spin i points up.  The
isotropic exchange Hamiltonian commutes with total S^z, so it is block
diagonal over the sectors of fixed up-spin count n_up.  Within a sector,
states are ordered by ascending integer value; this ordering is part of
the on-disk contract for exported eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .graphs import SpinGraph


@dataclass(frozen=True)
class SectorBasis:
    """All N-bit masks with exactly n_up bits set, ascending."""

    n_spins: int
    n_up: int
    states: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.states)

    def index(self) -> dict[int, int]:
        """Mask -> position lookup for this sector's ordering."""
        return {mask: k for k, mask in enumerate(self.states)}

    @property
    def sz(self) -> float:
        """Total z-spin eigenvalue of the sector, n_up - N/2."""
        return self.n_up - 0.5 * self.n_spins


def sector_dimension(n_spins: int, n_up: int) -> int:
    return comb(n_spins, n_up)


def sector_basis(n_spins: int, n_up: int) -> SectorBasis:
    """Enumerate the n_up sector in ascending mask order."""
    if not (0 <= n_up <= n_spins):
        raise ValueError(f"n_up must be in [0, {n_spins}], got {n_up}")
    states = sorted(
        sum(1 << bit for bit in chosen) for chosen in combinations(range(n_spins), n_up)
    )
    return SectorBasis(n_spins=n_spins, n_up=n_up, states=tuple(states))


def build_sector_hamiltonian(
    graph: SpinGraph, n_up: int, b_field: float = 0.0
) -> np.ndarray:
    """Dense symmetric matrix of the exchange + field Hamiltonian on one sector.

    Per edge (i, j, J): a basis state with spins i, j parallel takes +J/4 on
    the diagonal; antiparallel takes -J/4 on the diagonal plus J/2 on the
    off-diagonal linking it to the state with i, j swapped.  The field adds
    B * (n_up - N/2) to every diagonal entry.  The result is exactly
    symmetric by construction.
    """
    basis = sector_basis(graph.n_spins, n_up)
    index = basis.index()
    dim = len(basis)
    matrix = np.zeros((dim, dim))
    field_shift = b_field * basis.sz
    for k, mask in enumerate(basis.states):
        diagonal = field_shift
        for i, j, coupling in graph.edges:
            if ((mask >> i) ^ (mask >> j)) & 1:
                diagonal -= 0.25 * coupling
                swapped = mask ^ ((1 << i) | (1 << j))
                matrix[k, index[swapped]] += 0.5 * coupling
            else:
                diagonal += 0.25 * coupling
        matrix[k, k] += diagonal
    return matrix


def dicke_vector(n_spins: int, n_up: int) -> np.ndarray:
    """Uniform superposition over the n_up sector (a completely symmetric state)."""
    if not (0 <= n_up <= n_spins):
        raise ValueError(f"n_up must be in [0, {n_spins}], got {n_up}")
    dim = sector_dimension(n_spins, n_up)
    return np.full(dim, 1.0 / sqrt(dim))
