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
sector's mask array and two matrix products.

Concurrence is reported in two flavors: the clamped value in [0, 1]
(the entanglement monotone) and the raw, unclamped combination, which
distinguishes an exact zero from a small positive value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from .hilbert import SectorBasis, sector_basis

HERMITICITY_TOL = 1e-12
SPARSITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10

_STATES_PER_BLOCK = 64

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


def eigenstate_pair_entries(
    basis: SectorBasis, eigenvectors: np.ndarray, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """X-form entries (alpha, beta, gamma, delta, epsilon) per pair and eigenvector column.

    Returns an array of shape (n_pairs, n_states, 5) for real eigenvectors.
    A pair (a, b) may come in either order: beta is always the weight of
    "a up, b down".  Each population is a sum of squared amplitudes over
    the basis states of its category: one matrix product of the category
    indicators with the squared eigenvectors, so an exact zero stays
    exact.  The coherence is gamma = <S_a^- v, S_b^- v>: the lowered
    states S_a^- v of all sites, in the sector below, are the columns of
    one matrix per eigenvector, whose Gram matrix holds every pair.  Both
    are computed for every pair a < b, whichever pairs are asked for, so
    an entry does not depend on the other pairs requested.  Eigenvectors
    go in blocks of _STATES_PER_BLOCK columns.
    """
    n = basis.n_spins
    for a, b in pairs:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"invalid pair {(a, b)} for {n} spins")
    sites = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    entries = np.empty((len(sites), eigenvectors.shape[1], 5))
    if not len(sites):
        return entries
    masks = basis.masks
    bits = 1 << np.arange(n)
    up = (masks[:, None] & bits) != 0
    first, second = np.triu_indices(n, 1)
    up_a, up_b = up[:, first], up[:, second]
    categories = [up_a & up_b, up_a & ~up_b, ~up_a & up_b, ~up_a & ~up_b]
    indicators = np.concatenate(categories, axis=1).T.astype(float)  # (4 pairs, rows)
    # raised[q, a]: row of mask q + site a for q in the sector below, or
    # the zero row len(masks) if site a is already up in q
    below = sector_basis(n, basis.n_up - 1).masks if basis.n_up else masks[:0]
    free = (below[:, None] & bits) == 0
    raised = np.where(free, np.searchsorted(masks, below[:, None] | bits), len(masks))
    low, high = sites.min(axis=1), sites.max(axis=1)
    index = low * n - low * (low + 1) // 2 + high - low - 1  # position in the a < b order
    swapped = (sites[:, 0] > sites[:, 1])[:, None]
    padded = np.zeros((min(_STATES_PER_BLOCK, eigenvectors.shape[1]), len(masks) + 1))
    for start in range(0, eigenvectors.shape[1], _STATES_PER_BLOCK):
        block = eigenvectors[:, start : start + _STATES_PER_BLOCK]
        stop = start + block.shape[1]
        both_up, up_down, down_up, both_down = (
            (indicators @ (block * block)).reshape(4, len(first), -1)[:, index]
        )
        padded[: block.shape[1], :-1] = block.T
        lowered = np.take(padded[: block.shape[1]], raised, axis=1)  # (states, rows below, sites)
        hops = lowered.transpose(0, 2, 1) @ lowered
        entries[:, start:stop, 0] = both_up
        entries[:, start:stop, 1] = np.where(swapped, down_up, up_down)
        entries[:, start:stop, 2] = hops[:, low, high].T
        entries[:, start:stop, 3] = np.where(swapped, up_down, down_up)
        entries[:, start:stop, 4] = both_down
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
