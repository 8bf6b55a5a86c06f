"""Independent exact-diagonalization reference for the benchmark's output checks.

Works from a plain edge list with numpy bit operations, and reduces the
thermal state to a pair by forming each sector's density matrix and
tracing out the environment.  It shares no code with the package: the
package's two routes (per-eigenstate partial traces and per-eigenstate
entry tables) are not used here.
"""

from __future__ import annotations

import numpy as np

DEGENERACY_TOL = 1e-9


def _sector_states(n: int, n_up: int) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros_like(masks)
    for bit in range(n):
        counts += (masks >> bit) & 1
    return masks[counts == n_up]


def _sector_hamiltonian(n: int, edges, states: np.ndarray, b_field: float) -> np.ndarray:
    dim = len(states)
    ham = np.zeros((dim, dim))
    diagonal = np.full(dim, b_field * (bin(int(states[0])).count("1") - 0.5 * n))
    rows = np.arange(dim)
    for i, j, coupling in edges:
        antiparallel = ((states >> i) ^ (states >> j)) & 1 == 1
        diagonal += np.where(antiparallel, -0.25 * coupling, 0.25 * coupling)
        flipped = states[antiparallel] ^ ((1 << i) | (1 << j))
        ham[rows[antiparallel], np.searchsorted(states, flipped)] += 0.5 * coupling
    ham[rows, rows] += diagonal
    return ham


class ReferenceSystem:
    """All S^z sectors of one graph at one field, diagonalized with numpy."""

    def __init__(self, n: int, edges, b_field: float = 0.0):
        self.sectors = []
        for n_up in range(n + 1):
            states = _sector_states(n, n_up)
            energies, vectors = np.linalg.eigh(_sector_hamiltonian(n, edges, states, b_field))
            self.sectors.append((states, energies, vectors))
        self.energies = np.concatenate([energies for _, energies, _ in self.sectors])

    def sector_eigenvalues(self, n_up: int) -> np.ndarray:
        return self.sectors[n_up][1]

    def window(self) -> float:
        """Top of the ground window: E_min + 1e-9 max(1, spectral range), as documented."""
        e_min, e_max = float(self.energies.min()), float(self.energies.max())
        return e_min + DEGENERACY_TOL * max(1.0, e_max - e_min)

    def ground(self) -> tuple[int, float]:
        """(ground degeneracy, gap from E_min to the first level above the window)."""
        window = self.window()
        above = self.energies[self.energies > window]
        return int((self.energies <= window).sum()), float(above.min() - self.energies.min())

    def _weights(self, temperature: float) -> list[np.ndarray]:
        e_min = float(self.energies.min())
        if temperature == 0.0:
            window = self.window()
            factors = [(energies <= window).astype(float) for _, energies, _ in self.sectors]
        else:
            factors = [np.exp(-(energies - e_min) / temperature)
                       for _, energies, _ in self.sectors]
        total = sum(float(f.sum()) for f in factors)
        return [f / total for f in factors]

    def pair_entries(self, temperature: float, pairs) -> dict[tuple[int, int], np.ndarray]:
        """Thermal X-form entries (alpha, beta, gamma, delta, epsilon) per pair."""
        entries = {pair: np.zeros(5) for pair in pairs}
        for (states, _, vectors), weights in zip(self.sectors, self._weights(temperature)):
            rho = (vectors * weights) @ vectors.T
            populations = np.diag(rho)
            for a, b in pairs:
                bit_a = (states >> a) & 1 == 1
                bit_b = (states >> b) & 1 == 1
                up_down = np.flatnonzero(bit_a & ~bit_b)
                partner = np.searchsorted(states, states[up_down] ^ ((1 << a) | (1 << b)))
                entries[(a, b)] += (
                    populations[bit_a & bit_b].sum(),
                    populations[up_down].sum(),
                    rho[up_down, partner].sum(),
                    populations[~bit_a & bit_b].sum(),
                    populations[~bit_a & ~bit_b].sum(),
                )
        return entries


def raw_concurrence(entries: np.ndarray) -> float:
    """Unclamped X-state combination 2(|gamma| - sqrt(alpha * epsilon))."""
    alpha, _, gamma, _, epsilon = entries
    return 2.0 * (abs(gamma) - float(np.sqrt(max(alpha * epsilon, 0.0))))


def rdm_matrix(entries: np.ndarray) -> np.ndarray:
    """The 4x4 pair matrix in the package's basis order (up-up, up-down, down-up, down-down)."""
    alpha, beta, gamma, delta, epsilon = entries
    rho = np.diag([alpha, beta, delta, epsilon]).astype(complex)
    rho[1, 2] = rho[2, 1] = gamma
    return rho
