"""Spin-z sector bases and sector-blocked Hamiltonian assembly.

Basis states are N-bit integers; bit i set means spin i points up.  The
isotropic exchange Hamiltonian commutes with total S^z, so it is block
diagonal over the sectors of fixed up-spin count n_up.  Within a sector,
states are ordered by ascending integer value; this ordering is part of
the on-disk contract for exported eigenvectors.  Each sector is one
ascending numpy mask array, and everything built on it is derived with
bit operations on that array.  Its Hamiltonian is assembled in one place,
``sector_hops``, as a hop list; ``spectra`` fills its solve blocks from
it, and ``spectrum --dump-sector`` writes it out as a dense matrix.

The global spin flip maps sector n_up onto sector N - n_up: the flipped
sector's masks are the complements of this sector's masks in reverse
order.  The exchange terms only ask whether two spins are parallel, which
the flip keeps, so at zero field the dense block of sector N - k is
exactly that of sector k with its rows and columns reversed, bit for
bit.  For even N the central sector k = N/2 is its own mirror: its block
is centrosymmetric, which ``spectra`` uses to split it by flip parity.
Only that central sector is ever diagonalized (see ``spectra``).

``central_spin_basis`` gives the central sector an orthonormal basis of
total-spin eigenvectors grouped by S, built from Clebsch-Gordan
coefficients one spin at a time with no diagonalization, so ``spectra``
can solve one block per S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

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


@lru_cache(maxsize=None)
def sector_basis(n_spins: int, n_up: int) -> SectorBasis:
    """Enumerate the n_up sector in ascending mask order.

    Cached per (N, n_up), like ``central_spin_basis``; the masks are read-only.
    """
    if not (0 <= n_up <= n_spins):
        raise ValueError(f"n_up must be in [0, {n_spins}], got {n_up}")
    states = np.arange(1 << n_spins, dtype=np.int64)
    ones = np.zeros_like(states)
    for bit in range(n_spins):
        ones += (states >> bit) & 1
    masks = states[ones == n_up]
    masks.flags.writeable = False
    return SectorBasis(n_spins=n_spins, n_up=n_up, masks=masks)


def sector_hops(graph: SpinGraph, basis: SectorBasis) -> tuple[np.ndarray, ...]:
    """The zero-field Hamiltonian of one sector: ``(diagonal, row, column, value)``.

    Per edge (i, j, J), a state with spins i, j parallel takes +J/4 on the
    diagonal; antiparallel, -J/4 plus the hop H[row, column] = J/2 to the
    state with i, j swapped.  Each (row, column) appears once.
    """
    masks = basis.masks
    sites = np.array([(i, j) for i, j, _ in graph.edges], dtype=np.int64).reshape(-1, 2)
    couplings = np.array([coupling for _, _, coupling in graph.edges], dtype=float)
    # antiparallel[e, k]: the spins of edge e differ in basis state k
    antiparallel = (((masks >> sites[:, :1]) ^ (masks >> sites[:, 1:])) & 1).astype(bool)
    quarter = 0.25 * couplings[:, None]
    diagonal = np.zeros(len(basis))
    for term in np.where(antiparallel, -quarter, quarter):
        diagonal += term  # edge by edge: a sum over axis 0 may add in another order
    edge, row = np.nonzero(antiparallel)
    flips = (1 << sites[:, 0]) | (1 << sites[:, 1])
    column = np.searchsorted(masks, masks[row] ^ flips[edge])
    return diagonal, row, column, 0.5 * couplings[edge]


def _coupled_sector(n_spins: int, n_up: int) -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
    """Orthonormal spin-adapted basis of one sector, its columns grouped by S ascending.

    Returns the square matrix over the sector's ascending masks and the
    column span (first, last) of each group, keyed by 2S.  The spins are
    coupled one at a time (sequential coupling, the Yamanouchi basis):
    the masks of sector (k + 1, n) are those of (k, n), spin k down,
    followed by those of (k, n - 1) + 2^k, spin k up, so a column of spin
    S is two Clebsch-Gordan-scaled columns of spin S' = S -+ 1/2, one per
    part.  A group's columns keep one coupling-path order in every sector.
    """
    # sectors[n]: (matrix, groups) of sector (k, n), for the n that reach n_up
    sectors = {0: (np.ones((1, 1)), {0: (0, 1)})}
    for k in range(n_spins):
        grown = {}
        for n in range(max(0, n_up - (n_spins - k - 1)), min(k + 1, n_up) + 1):
            down, up = sectors.get(n), sectors.get(n - 1)
            rows_down = 0 if down is None else len(down[0])
            rows = rows_down + (0 if up is None else len(up[0]))
            matrix = np.zeros((rows, rows))
            groups, column = {}, 0
            twice_m = 2 * n - k - 1
            for twice_s in range(abs(twice_m), k + 2, 2):
                start = column
                for parent, sign in ((twice_s - 1, 1), (twice_s + 1, -1)):
                    # <S', M - m/2; 1/2, m/2 | S, M> for S' = S - sign/2, spin k down (m = -1)
                    # or up (m = 1); negative only for S' = S + 1/2 and spin k up
                    width = 0
                    for child, m, offset in ((down, -1, 0), (up, 1, rows_down)):
                        if child is None or parent not in child[1]:
                            continue
                        first, last = child[1][parent]
                        width = last - first
                        scale = sqrt((parent + sign * m * twice_m + 1) / (2.0 * parent + 2.0))
                        part = child[0][:, first:last]
                        matrix[offset : offset + len(part), column : column + width] = (
                            -scale if sign < 0 < m else scale
                        ) * part
                    column += width
                groups[twice_s] = (start, column)
            grown[n] = (matrix, groups)
        sectors = grown
    return sectors[n_up]


@lru_cache(maxsize=None)
def central_spin_basis(n_spins: int) -> tuple[tuple[float, np.ndarray], ...]:
    """(S, columns) for each total spin S of the central sector n_up = N // 2, S ascending.

    Each S has C(N, N/2 - S) - C(N, N/2 - S - 1) orthonormal columns of
    spin S.  For odd N they are vectors over the central sector's masks.
    For even N a spin-S vector has flip parity p = (-1)^(N/2 - S): it is
    [y; p y[::-1]] / sqrt(2), and only y, over the first half of the
    masks, is kept.  Those masks, spin N - 1 down, are sector (N - 1, N/2),
    and both Clebsch-Gordan factors onto M = 0 are 1/sqrt(2), so the y of
    spin S are that sector's two adjacent groups of spin S -+ 1/2.  The
    result is cached per N; its arrays are read-only views of one matrix.
    """
    if n_spins % 2:
        matrix, spans = _coupled_sector(n_spins, n_spins // 2)
    else:
        matrix, groups = _coupled_sector(n_spins - 1, n_spins // 2)
        spans = {}
        for twice_s in range(0, n_spins + 1, 2):
            members = [groups[t] for t in (twice_s - 1, twice_s + 1) if t in groups]
            spans[twice_s] = (members[0][0], members[-1][1])
    matrix.flags.writeable = False
    return tuple((0.5 * twice_s, matrix[:, first:last]) for twice_s, (first, last) in spans.items())

