"""Spin-z sector bases and sector-blocked Hamiltonian assembly.

Basis states are N-bit integers; bit i set means spin i points up.  The
isotropic exchange Hamiltonian commutes with total S^z, so it is block
diagonal over the sectors of fixed up-spin count n_up.  Within a sector,
states are ordered by ascending integer value; this ordering is part of
the on-disk contract for exported eigenvectors.  Each sector is one
ascending numpy mask array, and everything built on it (Hamiltonian
blocks, pair entries) is derived with bit operations on that array.

The global spin flip maps sector n_up onto sector N - n_up: the flipped
sector's masks are the complements of this sector's masks in reverse
order.  The exchange terms only ask whether two spins are parallel, which
the flip keeps, so at zero field ``build_sector_hamiltonian(graph, N - k)``
is exactly ``build_sector_hamiltonian(graph, k)[::-1, ::-1]``, bit for
bit.  For even N the central sector k = N/2 is its own mirror: its block
is centrosymmetric, which ``spectra`` uses to split it by flip parity.
Only that central sector is ever diagonalized (see ``spectra``); the
other blocks are built for tests and for ``spectrum --dump-sector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .graphs import SpinGraph


@dataclass(frozen=True)
class SectorBasis:
    """All N-bit masks with exactly n_up bits set, as an ascending int64 array.

    The position of a mask is ``np.searchsorted(masks, mask)``.
    """

    n_spins: int
    n_up: int
    masks: np.ndarray

    def __len__(self) -> int:
        return len(self.masks)

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
    states = np.arange(1 << n_spins, dtype=np.int64)
    ones = np.zeros_like(states)
    for bit in range(n_spins):
        ones += (states >> bit) & 1
    return SectorBasis(n_spins=n_spins, n_up=n_up, masks=states[ones == n_up])


def build_sector_hamiltonian(
    graph: SpinGraph, n_up: int, b_field: float = 0.0, basis: SectorBasis | None = None
) -> np.ndarray:
    """Dense symmetric matrix of the exchange + field Hamiltonian on one sector.

    Per edge (i, j, J): a basis state with spins i, j parallel takes +J/4 on
    the diagonal; antiparallel takes -J/4 on the diagonal plus J/2 on the
    off-diagonal linking it to the state with i, j swapped.  The field adds
    B * (n_up - N/2) to every diagonal entry.  The result is exactly
    symmetric by construction.  ``basis`` passes the sector's basis when
    the caller has already enumerated it.
    """
    if basis is None:
        basis = sector_basis(graph.n_spins, n_up)
    masks = basis.masks
    dim = len(basis)
    sites = np.array([(i, j) for i, j, _ in graph.edges], dtype=np.int64).reshape(-1, 2)
    couplings = np.array([coupling for _, _, coupling in graph.edges], dtype=float)
    # antiparallel[e, k]: the spins of edge e differ in basis state k
    antiparallel = (((masks >> sites[:, :1]) ^ (masks >> sites[:, 1:])) & 1).astype(bool)
    quarter = 0.25 * couplings[:, None]
    diagonal = np.full(dim, b_field * basis.sz)
    for term in np.where(antiparallel, -quarter, quarter):
        diagonal += term  # edge by edge: a sum over axis 0 may add in another order
    edge, row = np.nonzero(antiparallel)
    flips = (1 << sites[:, 0]) | (1 << sites[:, 1])
    column = np.searchsorted(masks, masks[row] ^ flips[edge])
    matrix = np.zeros((dim, dim))
    matrix[row, column] += 0.5 * couplings[edge]
    matrix[np.diag_indices(dim)] += diagonal
    return matrix


def dicke_vector(n_spins: int, n_up: int) -> np.ndarray:
    """Uniform superposition over the n_up sector (a completely symmetric state)."""
    if not (0 <= n_up <= n_spins):
        raise ValueError(f"n_up must be in [0, {n_spins}], got {n_up}")
    dim = sector_dimension(n_spins, n_up)
    return np.full(dim, 1.0 / sqrt(dim))
