"""Pair trace tables, two-spin reduced density matrices, Wootters concurrence.

Pair basis convention, fixed everywhere in this package: for an ordered
pair (a, b) the four product states are indexed

    0: both up    1: a up, b down    2: a down, b up    3: both down

so entry (0, 0) is the probability of both spins up and (3, 3) of both
spins down.  States drawn from a fixed-S^z sector give the sparse "X"
pattern: diagonal plus a single coherence between indices 1 and 2, so a
pair state is fully described by five entries.  ``pair_trace_tables``
and ``eigenstate_pair_entries`` compute those entries for every
eigenvector of a sector at once.

Concurrence is reported in two flavors: the clamped value in [0, 1]
(the entanglement monotone) and the raw, unclamped combination, which
distinguishes an exact zero from a small positive value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .hilbert import SectorBasis

HERMITICITY_TOL = 1e-12
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


def x_state_from_matrix(rho: np.ndarray, sparsity_tol: float = 1e-12) -> XStateRDM:
    """Extract X-form entries, requiring the structural zeros to hold."""
    structural_zeros = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    for a, b in structural_zeros:
        if abs(rho[a, b]) > sparsity_tol or abs(rho[b, a]) > sparsity_tol:
            raise ValueError(f"entry ({a}, {b}) = {rho[a, b]} breaks the X pattern")
    return XStateRDM(
        alpha=rho[0, 0].real,
        beta=rho[1, 1].real,
        gamma=complex(rho[1, 2]),
        delta=rho[2, 2].real,
        epsilon=rho[3, 3].real,
    )


@dataclass(frozen=True)
class PairTraceTables:
    """Precomputed index arrays mapping one sector basis onto pair categories.

    For eigenvector matrices this turns per-state partial traces into a
    handful of vectorized reductions; the coherence pairs each (a up,
    b down) position with the swapped position sharing its environment.
    """

    up_up: np.ndarray
    up_down: np.ndarray
    down_up_partner: np.ndarray
    down_down: np.ndarray


def pair_trace_tables(basis: SectorBasis, pair: tuple[int, int]) -> PairTraceTables:
    a, b = pair
    n = basis.n_spins
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"invalid pair {pair} for {n} spins")
    index = basis.index()
    up_up, up_down, partner, down_down = [], [], [], []
    for k, mask in enumerate(basis.states):
        bit_a = (mask >> a) & 1
        bit_b = (mask >> b) & 1
        if bit_a and bit_b:
            up_up.append(k)
        elif not bit_a and not bit_b:
            down_down.append(k)
        elif bit_a:
            up_down.append(k)
            partner.append(index[mask ^ ((1 << a) | (1 << b))])
    return PairTraceTables(
        up_up=np.array(up_up, dtype=np.intp),
        up_down=np.array(up_down, dtype=np.intp),
        down_up_partner=np.array(partner, dtype=np.intp),
        down_down=np.array(down_down, dtype=np.intp),
    )


def eigenstate_pair_entries(
    eigenvectors: np.ndarray, tables: PairTraceTables
) -> np.ndarray:
    """X-form entries (alpha, beta, gamma, delta, epsilon) per eigenvector column.

    Returns an array of shape (n_states, 5); real input vectors give the
    real coherence gamma.
    """
    squared = eigenvectors**2
    alpha = squared[tables.up_up, :].sum(axis=0)
    beta = squared[tables.up_down, :].sum(axis=0)
    delta = squared[tables.down_up_partner, :].sum(axis=0)
    epsilon = squared[tables.down_down, :].sum(axis=0)
    gamma = (
        eigenvectors[tables.up_down, :] * eigenvectors[tables.down_up_partner, :]
    ).sum(axis=0)
    return np.stack([alpha, beta, gamma, delta, epsilon], axis=1)


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
