"""Pair correlations of central-sector eigenstates.

Pair basis convention, fixed everywhere in this package: for an ordered
pair (a, b) the four product states are indexed

    0: both up    1: a up, b down    2: a down, b up    3: both down

so entry (0, 0) is the probability of both spins up and (3, 3) of both
spins down.  States drawn from a fixed-S^z sector give the sparse "X"
pattern: diagonal plus a single coherence between indices 1 and 2, so a
pair state is fully described by five entries (alpha, beta, gamma,
delta, epsilon) = (rho_00, rho_11, rho_12, rho_22, rho_33).

An eigenstate |S, M> of an isotropic Hamiltonian fixes those entries for
every member of its multiplet from a few numbers of one member (see
``sweep.GraphThermalEngine``): the pair correlations c = <S_a . S_b> and
zz = <S^z_a S^z_b>.  ``pair_correlations`` computes both for every pair
a < b and every eigenvector it is given, from bit operations on the
sector's mask array and two matrix products; its index tables are built
once per sector and cached, so the thermal engine hands it the central
eigenvectors one chunk of spin groups at a time, as the solve streams
them (see ``spectra.central_stream``).  The general Wootters route that
cross-checks the engine's X-state concurrence lives with the tests, as an
oracle, and so does the per-eigenstate X form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .hilbert import SectorBasis, sector_basis

_STATES_PER_BLOCK = 64
_LOWERED_ELEMENTS = 1 << 17  # entries of the lowered states S_a^- v gathered at once


@lru_cache(maxsize=None)
def _pair_tables(n_spins: int, n_up: int) -> tuple[np.ndarray, np.ndarray]:
    """The z signs and raise rows of sector (N, n_up), cached and read-only.

    ``signs`` (pairs, rows) is S^z_a S^z_b of each basis state for every
    pair a < b: +1/4 with spins a and b parallel, -1/4 otherwise.
    ``raised[q, a]`` is the row of mask q + site a for q in the sector
    below, or the zero row len(masks) if site a is already up in q.
    """
    masks = sector_basis(n_spins, n_up).masks
    first, second = np.triu_indices(n_spins, 1)
    bits = 1 << np.arange(n_spins)
    up = (masks[:, None] & bits) != 0
    signs = np.where(up[:, first] == up[:, second], 0.25, -0.25).T.copy()
    below = sector_basis(n_spins, n_up - 1).masks if n_up else masks[:0]
    free = (below[:, None] & bits) == 0
    raised = np.where(free, np.searchsorted(masks, below[:, None] | bits), len(masks))
    for table in (signs, raised):
        table.flags.writeable = False
    return signs, raised


def pair_correlations(
    basis: SectorBasis, eigenvectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """c = <S_a . S_b> and zz = <S^z_a S^z_b> per pair a < b and eigenvector column.

    Returns two arrays of shape (n_pairs, n_states) for real eigenvectors,
    one row per pair a < b in ascending (a, b) order.  zz is one matrix
    product of the pairs' z signs with the squared eigenvectors.  The flip
    part c - zz = <S^x_a S^x_b + S^y_a S^y_b> is the coherence
    <S_a^- v, S_b^- v>: the lowered states S_a^- v of all sites, in the
    sector below, are the columns of one matrix per eigenvector, whose
    Gram matrix holds every pair.  Eigenvectors go in blocks of
    _STATES_PER_BLOCK columns.  The index tables are built once per sector
    (``_pair_tables``), so a caller may hand in the columns of one sector
    in several calls.
    """
    n = basis.n_spins
    first, second = np.triu_indices(n, 1)
    c, zz = np.empty((2, len(first), eigenvectors.shape[1]))
    if not len(first):
        return c, zz
    signs, raised = _pair_tables(n, basis.n_up)
    padded = np.zeros((min(_STATES_PER_BLOCK, eigenvectors.shape[1]), len(basis) + 1))
    # the Gram matrices are per state, so their gather may go in smaller steps
    step = max(1, min(_STATES_PER_BLOCK, _LOWERED_ELEMENTS // max(1, raised.size)))
    for start in range(0, eigenvectors.shape[1], _STATES_PER_BLOCK):
        block = eigenvectors[:, start : start + _STATES_PER_BLOCK]
        zz[:, start : start + block.shape[1]] = signs @ (block * block)
        padded[: block.shape[1], :-1] = block.T
        for low in range(0, block.shape[1], step):
            high = min(low + step, block.shape[1])
            lowered = np.take(padded[low:high], raised, axis=1)  # (states, rows below, sites)
            hops = lowered.transpose(0, 2, 1) @ lowered
            c[:, start + low : start + high] = hops[:, first, second].T
    c += zz
    return c, zz
