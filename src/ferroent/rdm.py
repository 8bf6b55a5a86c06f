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
it is given and every pair a < b at once, from bit operations on the
sector's mask array and two matrix products; its index tables are built
once per sector and cached, so the thermal engine hands it the central
eigenvectors one chunk of spin groups at a time, as the solve streams
them (see ``spectra.central_stream``), and keeps only the pair
correlations it rebuilds every sector's entries from.  The engine turns
those into X-state concurrences (see ``sweep``); the general
Wootters route that cross-checks that formula lives with the tests, as
an oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .hilbert import SectorBasis, sector_basis

_STATES_PER_BLOCK = 64
_LOWERED_ELEMENTS = 1 << 17  # entries of the lowered states S_a^- v gathered at once


@lru_cache(maxsize=None)
def _pair_tables(n_spins: int, n_up: int) -> tuple[np.ndarray, np.ndarray]:
    """The categories and raise rows of sector (N, n_up), cached and read-only.

    ``categories`` (4 x pairs, rows) marks, for every pair a < b, the basis
    states with both up, a up only, b up only and both down; it is kept as
    booleans, an eighth of the float indicators that each call casts it to.
    ``raised[q, a]`` is the row of mask q + site a for q in the sector
    below, or the zero row len(masks) if site a is already up in q.
    """
    masks = sector_basis(n_spins, n_up).masks
    first, second = np.triu_indices(n_spins, 1)
    bits = 1 << np.arange(n_spins)
    up = (masks[:, None] & bits) != 0
    up_a, up_b = up[:, first], up[:, second]
    categories = np.concatenate(
        [up_a & up_b, up_a & ~up_b, ~up_a & up_b, ~up_a & ~up_b], axis=1
    ).T.copy()
    below = sector_basis(n_spins, n_up - 1).masks if n_up else masks[:0]
    free = (below[:, None] & bits) == 0
    raised = np.where(free, np.searchsorted(masks, below[:, None] | bits), len(masks))
    for table in (categories, raised):
        table.flags.writeable = False
    return categories, raised


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
    Eigenvectors go in blocks of _STATES_PER_BLOCK columns.  The index
    tables are built once per sector (``_pair_tables``), so a caller may
    hand in the columns of one sector in several calls.
    """
    n = basis.n_spins
    first, second = np.triu_indices(n, 1)
    entries = np.empty((len(first), eigenvectors.shape[1], 5))
    if not len(first):
        return entries
    categories, raised = _pair_tables(n, basis.n_up)
    indicators = categories.astype(float)
    padded = np.zeros((min(_STATES_PER_BLOCK, eigenvectors.shape[1]), len(basis) + 1))
    # the Gram matrices are per state, so their gather may go in smaller steps
    step = max(1, min(_STATES_PER_BLOCK, _LOWERED_ELEMENTS // max(1, raised.size)))
    for start in range(0, eigenvectors.shape[1], _STATES_PER_BLOCK):
        block = eigenvectors[:, start : start + _STATES_PER_BLOCK]
        stop = start + block.shape[1]
        populations = (indicators @ (block * block)).reshape(4, len(first), -1)
        entries[:, start:stop, [0, 1, 3, 4]] = populations.transpose(1, 2, 0)
        padded[: block.shape[1], :-1] = block.T
        for low in range(0, block.shape[1], step):
            high = min(low + step, block.shape[1])
            lowered = np.take(padded[low:high], raised, axis=1)  # (states, rows below, sites)
            hops = lowered.transpose(0, 2, 1) @ lowered
            entries[:, start + low : start + high, 2] = hops[:, first, second].T
    return entries
