"""Two-spin reduced density matrices of sector eigenstates, Wootters concurrence.

Pair basis convention, fixed everywhere in this package: for an ordered
pair (a, b) the four product states are indexed

    0: both up    1: a up, b down    2: a down, b up    3: both down

so entry (0, 0) is the probability of both spins up and (3, 3) of both
spins down.  States drawn from a fixed-S^z sector give the sparse "X"
pattern: diagonal plus a single coherence between indices 1 and 2, so a
pair state is fully described by five entries.
``eigenstate_pair_entries`` computes those entries for every eigenvector
of a sector and every requested pair at once, from bit operations on the
sector's mask array.

Concurrence is reported in two flavors: the clamped value in [0, 1]
(the entanglement monotone) and the raw, unclamped combination, which
distinguishes an exact zero from a small positive value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from .hilbert import SectorBasis

HERMITICITY_TOL = 1e-12
SPARSITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10

# (sigma_y x sigma_y) is real: the double-spin-flip conjugation matrix.
_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)

# S^x tensor S^x in the pair basis (each factor is sigma_x / 2).
_SXSX = 0.25 * np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class XStateRDM:
    """Two-qubit state with the fixed-S^z sparsity: diagonal plus one coherence.

    alpha, beta, delta, epsilon sit on the diagonal in pair-basis order;
    gamma is the (1, 2) coherence.
    """

    alpha: float
    beta: float
    gamma: complex
    delta: float
    epsilon: float

    def __post_init__(self) -> None:
        populations = (self.alpha, self.beta, self.delta, self.epsilon)
        if any(p < -POSITIVITY_TOL for p in populations):
            raise ValueError(f"negative population in {populations}")
        total = self.alpha + self.beta + self.delta + self.epsilon
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"populations sum to {total}, expected 1")
        bound = sqrt(max(self.beta * self.delta, 0.0))
        if abs(self.gamma) > bound + POSITIVITY_TOL:
            raise ValueError(
                f"|gamma|={abs(self.gamma)} exceeds sqrt(beta*delta)={bound}"
            )

    def matrix(self) -> np.ndarray:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = self.alpha
        rho[1, 1] = self.beta
        rho[1, 2] = self.gamma
        rho[2, 1] = np.conj(self.gamma)
        rho[2, 2] = self.delta
        rho[3, 3] = self.epsilon
        return rho


def validate_rdm(rho: np.ndarray) -> None:
    """Check the density-matrix contract: Hermitian, unit trace, positive."""
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian to within 1e-12")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError(f"trace is {np.trace(rho)}, expected 1")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)) < -POSITIVITY_TOL:
        raise ValueError("matrix has an eigenvalue below -1e-10")


def x_state_from_matrix(rho: np.ndarray) -> XStateRDM:
    """Extract X-form entries, requiring the structural zeros to hold to SPARSITY_TOL."""
    structural_zeros = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    for a, b in structural_zeros:
        if abs(rho[a, b]) > SPARSITY_TOL or abs(rho[b, a]) > SPARSITY_TOL:
            raise ValueError(f"entry ({a}, {b}) = {rho[a, b]} breaks the X pattern")
    return XStateRDM(
        alpha=rho[0, 0].real,
        beta=rho[1, 1].real,
        gamma=complex(rho[1, 2]),
        delta=rho[2, 2].real,
        epsilon=rho[3, 3].real,
    )


def _positions(selected: np.ndarray) -> np.ndarray:
    """Ascending column positions of each row's set entries; all rows have as many."""
    return np.nonzero(selected)[1].reshape(len(selected), np.count_nonzero(selected[0]))


def eigenstate_pair_entries(
    basis: SectorBasis, eigenvectors: np.ndarray, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """X-form entries (alpha, beta, gamma, delta, epsilon) per pair and eigenvector column.

    Returns an array of shape (n_pairs, n_states, 5); real input vectors
    give the real coherence gamma.  A pair (a, b) may come in either
    order: beta is always the weight of "a up, b down".  The category of
    every basis state for every pair comes from bit operations on the
    sector's mask array; each population is a sum of squared amplitudes
    over its rows, and the coherence pairs each (a up, b down) row with
    its swapped partner, found by ``np.searchsorted``.  Each category is
    gathered for many pairs at once, as (pairs, rows, states), and summed
    over its rows in ascending row order; the pairs go in chunks so that
    this temporary never outgrows the sector's eigenvector block.
    """
    n = basis.n_spins
    for a, b in pairs:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"invalid pair {(a, b)} for {n} spins")
    masks = basis.masks
    sites = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    bit_a = (masks >> sites[:, :1]) & 1
    bit_b = (masks >> sites[:, 1:]) & 1
    up_down = _positions(bit_a > bit_b)
    flips = (1 << sites[:, :1]) | (1 << sites[:, 1:])
    partner = np.searchsorted(masks, masks[up_down] ^ flips)
    entries = np.empty((len(sites), eigenvectors.shape[1], 5), dtype=eigenvectors.dtype)

    def gather(column: int, rows: np.ndarray, partner_rows: np.ndarray | None = None) -> None:
        step = max(1, len(masks) // max(1, rows.shape[1]))
        for first in range(0, len(sites), step):
            chunk = slice(first, first + step)
            terms = eigenvectors[rows[chunk]]
            terms *= terms if partner_rows is None else eigenvectors[partner_rows[chunk]]
            entries[chunk, :, column] = terms.sum(axis=1)

    gather(0, _positions(bit_a & bit_b))
    gather(1, up_down)
    gather(2, up_down, partner)
    gather(3, partner)
    gather(4, _positions((bit_a | bit_b) == 0))
    return entries


def concurrence_x_raw(state: XStateRDM) -> float:
    """Unclamped X-state combination 2(|gamma| - sqrt(alpha * epsilon))."""
    return 2.0 * (abs(state.gamma) - sqrt(max(state.alpha * state.epsilon, 0.0)))


def concurrence_x(state: XStateRDM) -> float:
    """X-state concurrence 2 max(0, |gamma| - sqrt(alpha * epsilon)), in [0, 1]."""
    return min(max(0.0, concurrence_x_raw(state)), 1.0)


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    eigenvalues, eigenvectors = np.linalg.eigh(rho)
    rooted = np.sqrt(np.clip(eigenvalues, 0.0, None))
    return (eigenvectors * rooted) @ eigenvectors.conj().T


def concurrence_wootters_raw(rho: np.ndarray) -> float:
    """General two-qubit concurrence before clamping.

    The eigenvalues of rho * rho_tilde are taken from the Hermitian
    equivalent sqrt(rho) * rho_tilde * sqrt(rho), which shares its
    spectrum and keeps the roots real; tiny negative eigenvalues from
    rounding are clipped.
    """
    validate_rdm(rho)
    flipped = _FLIP @ rho.conj() @ _FLIP
    root = _psd_sqrt(rho)
    product = root @ flipped @ root
    mu = np.linalg.eigvalsh((product + product.conj().T) / 2.0)
    if np.min(mu) < -POSITIVITY_TOL:
        raise ValueError(f"spin-flip product has eigenvalue {np.min(mu)} below -1e-10")
    lam = np.sqrt(np.clip(mu, 0.0, None))[::-1]
    return float(lam[0] - lam[1] - lam[2] - lam[3])


def concurrence_wootters(rho: np.ndarray) -> float:
    """General two-qubit concurrence, clamped to [0, 1]."""
    return min(max(0.0, concurrence_wootters_raw(rho)), 1.0)


def sxsx_correlator(rho: np.ndarray) -> float:
    """Expectation of S^x tensor S^x; equals Re(gamma)/2 for X states."""
    return float(np.trace(rho @ _SXSX).real)
