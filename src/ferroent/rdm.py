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
a < b and every central eigenvector it is given, from bit operations on
the sector's mask array and two matrix products.  For even N it takes
each eigenvector as the solve hands it over, its first half and its flip
parity, and works in that half, sector (N - 1, N/2), alone.  Its index
tables are built once per N and cached, so the thermal engine hands it
the central eigenvectors one chunk of spin groups at a time, as the solve
streams them (see ``spectra.central_stream``).  The general Wootters
route that cross-checks the engine's X-state concurrence lives with the
tests, as an oracle, and so does the per-eigenstate X form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .hilbert import sector_basis

_STATES_PER_BLOCK = 64
_LOWERED_ELEMENTS = 1 << 17  # entries of the lowered states S_a^- v gathered at once


@lru_cache(maxsize=None)
def _pair_tables(n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """The z signs and gather rows of the vectors ``pair_correlations`` takes, cached and read-only.

    Their rows are the masks of sector (N, N // 2) for odd N, and for even
    N of sector (N - 1, N/2): the first half of the central sector, where
    spin N - 1 is down.  ``signs`` (pairs, rows) is S^z_a S^z_b of each
    row's state for every pair a < b of the N spins: +1/4 with spins a and
    b parallel, -1/4 otherwise.  ``raised[q, a]``, for q in the sector
    one up spin below, is the row of mask q + site a, or the zero row
    one past the last if site a is already up in q; for even N the last column,
    site N - 1, is instead the row of q's complement in N - 1 bits.
    """
    half = n_spins % 2 == 0
    width, n_up = n_spins - half, n_spins // 2
    masks = sector_basis(width, n_up).masks
    first, second = np.triu_indices(n_spins, 1)
    bits = 1 << np.arange(n_spins)
    up = (masks[:, None] & bits) != 0
    signs = np.where(up[:, first] == up[:, second], 0.25, -0.25).T.copy()
    below = sector_basis(width, n_up - 1).masks
    free = (below[:, None] & bits) == 0
    raised = np.where(free, np.searchsorted(masks, below[:, None] | bits), len(masks))
    if half:
        raised[:, -1] = np.searchsorted(masks, ((1 << (n_spins - 1)) - 1) ^ below)
    for table in (signs, raised):
        table.flags.writeable = False
    return signs, raised


def pair_correlations(
    n_spins: int, vectors: np.ndarray, flips: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """c = <S_a . S_b> and zz = <S^z_a S^z_b> per pair a < b and central eigenvector.

    The eigenvectors come as ``spectra.central_stream`` hands them over.
    Odd N: ``vectors`` are the eigenvectors v of sector (N, N // 2) and
    ``flips`` is None.  Even N: ``vectors`` are the first halves x of the
    eigenvectors v = [x; p x[::-1]] / sqrt(2), and ``flips`` their flip
    parities p = +-1; they live in sector (N - 1, N/2), the states with
    spin N - 1 down.  Returns two arrays of shape (n_pairs, columns), one
    row per pair a < b in ascending (a, b) order.

    zz is one matrix product of the pairs' z signs with the squared
    columns (the flip keeps S^z_a S^z_b, so x's half carries v's sum).  The
    flip part c - zz = <S^x_a S^x_b + S^y_a S^y_b> is the coherence
    <S_a^- v, S_b^- v>: the lowered states of all sites, in the sector one
    up spin below, are the columns of one matrix per eigenvector, whose
    Gram matrix holds every pair.  For even N, write v = u + p F u with
    u = [x; 0] / sqrt(2) and F the flip, which commutes with the pair's
    flip term; for a, b < N - 1 that term keeps spin N - 1, so c - zz is
    the Gram entry of x's lowered states, and for (a, N - 1) it couples u
    to F u only, so c - zz is p/2 times that of S_a^- x with
    z[q] = x[(2^(N-1) - 1) ^ q], which stands in the Gram matrix as site
    N - 1's column.  Columns go in blocks of _STATES_PER_BLOCK.  The index
    tables are built once per N (``_pair_tables``), so a caller may hand
    in the columns in several calls.
    """
    n = n_spins
    first, second = np.triu_indices(n, 1)
    c, zz = np.empty((2, len(first), vectors.shape[1]))
    if not len(first):
        return c, zz
    signs, raised = _pair_tables(n)
    padded = np.zeros((min(_STATES_PER_BLOCK, vectors.shape[1]), len(vectors) + 1))
    # the Gram matrices are per state, so their gather may go in smaller steps
    step = max(1, min(_STATES_PER_BLOCK, _LOWERED_ELEMENTS // max(1, raised.size)))
    for start in range(0, vectors.shape[1], _STATES_PER_BLOCK):
        block = vectors[:, start : start + _STATES_PER_BLOCK]
        zz[:, start : start + block.shape[1]] = signs @ (block * block)
        padded[: block.shape[1], :-1] = block.T
        for low in range(0, block.shape[1], step):
            high = min(low + step, block.shape[1])
            lowered = np.take(padded[low:high], raised, axis=1)  # (states, rows below, sites)
            hops = lowered.transpose(0, 2, 1) @ lowered
            c[:, start + low : start + high] = hops[:, first, second].T
    if n % 2 == 0:
        c[second == n - 1] *= 0.5 * flips
    c += zz
    return c, zz
