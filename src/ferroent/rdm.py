"""Two-spin reduced-density-matrix entries of sector eigenstates.

Pair basis convention, fixed everywhere in this package: for an ordered
pair (a, b) the four product states are indexed

    0: both up    1: a up, b down    2: a down, b up    3: both down

so entry (0, 0) is the probability of both spins up and (3, 3) of both
spins down.  States drawn from a fixed-S^z sector give the sparse "X"
pattern: diagonal plus a single coherence between indices 1 and 2, so a
pair state is fully described by five entries (alpha, beta, gamma,
delta, epsilon) = (rho_00, rho_11, rho_12, rho_22, rho_33).
``eigenstate_pair_entries`` computes those entries for every eigenvector
of a sector and every pair a < b at once, from bit operations on the
sector's mask array and two matrix products.  The thermal engine turns
them into X-state concurrences (see ``sweep``); the general Wootters
route that cross-checks that formula lives with the tests, as an oracle.
"""

from __future__ import annotations

import numpy as np

from .hilbert import SectorBasis, sector_basis

_STATES_PER_BLOCK = 64


def eigenstate_pair_entries(basis: SectorBasis, eigenvectors: np.ndarray) -> np.ndarray:
    """X-form entries (alpha, beta, gamma, delta, epsilon) per pair and eigenvector column.

    Returns an array of shape (n_pairs, n_states, 5) for real eigenvectors,
    one row per pair a < b in ascending (a, b) order; beta is the weight of
    "a up, b down".  Each population is a sum of squared amplitudes over
    the basis states of its category: one matrix product of the category
    indicators with the squared eigenvectors, so an exact zero stays
    exact.  The coherence is gamma = <S_a^- v, S_b^- v>: the lowered
    states S_a^- v of all sites, in the sector below, are the columns of
    one matrix per eigenvector, whose Gram matrix holds every pair.
    Eigenvectors go in blocks of _STATES_PER_BLOCK columns.
    """
    n = basis.n_spins
    first, second = np.triu_indices(n, 1)
    entries = np.empty((len(first), eigenvectors.shape[1], 5))
    if not len(first):
        return entries
    masks = basis.masks
    bits = 1 << np.arange(n)
    up = (masks[:, None] & bits) != 0
    up_a, up_b = up[:, first], up[:, second]
    categories = [up_a & up_b, up_a & ~up_b, ~up_a & up_b, ~up_a & ~up_b]
    indicators = np.concatenate(categories, axis=1).T.astype(float)  # (4 pairs, rows)
    # raised[q, a]: row of mask q + site a for q in the sector below, or
    # the zero row len(masks) if site a is already up in q
    below = sector_basis(n, basis.n_up - 1).masks if basis.n_up else masks[:0]
    free = (below[:, None] & bits) == 0
    raised = np.where(free, np.searchsorted(masks, below[:, None] | bits), len(masks))
    padded = np.zeros((min(_STATES_PER_BLOCK, eigenvectors.shape[1]), len(masks) + 1))
    for start in range(0, eigenvectors.shape[1], _STATES_PER_BLOCK):
        block = eigenvectors[:, start : start + _STATES_PER_BLOCK]
        stop = start + block.shape[1]
        populations = (indicators @ (block * block)).reshape(4, len(first), -1)
        padded[: block.shape[1], :-1] = block.T
        lowered = np.take(padded[: block.shape[1]], raised, axis=1)  # (states, rows below, sites)
        hops = lowered.transpose(0, 2, 1) @ lowered
        entries[:, start:stop, [0, 1, 3, 4]] = populations.transpose(1, 2, 0)
        entries[:, start:stop, 2] = hops[:, first, second].T
    return entries
