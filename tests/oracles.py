"""Independent brute-force reference implementations used only by tests.

The Hamiltonian and full-space trace oracles work on the full 2^N space
with dense Kronecker products or explicit permutation matrices,
deliberately avoiding the package's sector-blocked bitwise code paths.
The per-sector dense ED solves every S^z sector on its own, from the
dense view of its hop list (``build_sector_hamiltonian``), with no use of
SU(2) or the spin flip: it is the reference for the package's
central-sector solve and its Wigner-Eckart rebuild of the other sectors.
The per-eigenstate partial trace, the per-eigenstate X form and the
Gibbs mixture below are the reference for the package's thermal engine:
they take each eigenstate's pair entries from its amplitudes and weigh
them one by one, with no use of its multiplet.
The general two-qubit concurrence (Wootters, PRL 80, 2245 (1998)), from
the spectrum of rho times its spin-flipped conjugate, is the reference
for the package's X-state formula 2(|gamma| - sqrt(alpha epsilon)); the
``XStateRDM`` record and the density-matrix validators go with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, exp, sqrt

import numpy as np

from ferroent.graphs import SpinGraph
from ferroent.hilbert import SectorBasis, sector_basis, sector_hops
from ferroent.spectra import CentralSpectrum, central_stream

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

# Single-site operators in the (down, up) ordering, so that the full-space
# basis index equals the bitmask (bit i set = spin i up).
_SZ = 0.5 * np.array([[-1.0, 0.0], [0.0, 1.0]])
_SP = np.array([[0.0, 0.0], [1.0, 0.0]])  # raising: down -> up
_SM = _SP.T
_ID = np.eye(2)


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.eye(1)
    for k in range(n - 1, -1, -1):
        out = np.kron(out, op if k == site else _ID)
    return out


def kron_hamiltonian(graph: SpinGraph, b_field: float = 0.0) -> np.ndarray:
    """Full 2^N Hamiltonian from explicit operator products."""
    n = graph.n_spins
    dim = 2**n
    ham = np.zeros((dim, dim))
    for i, j, coupling in graph.edges:
        sz_i = _site_operator(_SZ, i, n)
        sz_j = _site_operator(_SZ, j, n)
        sp_i = _site_operator(_SP, i, n)
        sp_j = _site_operator(_SP, j, n)
        sm_i = _site_operator(_SM, i, n)
        sm_j = _site_operator(_SM, j, n)
        ham += coupling * (sz_i @ sz_j + 0.5 * (sp_i @ sm_j + sm_i @ sp_j))
    if b_field != 0.0:
        for site in range(n):
            ham += b_field * _site_operator(_SZ, site, n)
    return ham


def permutation_hamiltonian(graph: SpinGraph, b_field: float = 0.0) -> np.ndarray:
    """Full Hamiltonian via the swap identity: each exchange term equals
    half the two-site permutation minus a quarter of the identity."""
    n = graph.n_spins
    dim = 2**n
    ham = np.zeros((dim, dim))
    for i, j, coupling in graph.edges:
        perm = np.zeros((dim, dim))
        for mask in range(dim):
            bit_i = (mask >> i) & 1
            bit_j = (mask >> j) & 1
            if bit_i == bit_j:
                perm[mask, mask] = 1.0
            else:
                perm[mask ^ (1 << i) ^ (1 << j), mask] = 1.0
        ham += coupling * 0.5 * (perm - 0.5 * np.eye(dim))
    if b_field != 0.0:
        for mask in range(dim):
            ham[mask, mask] += b_field * (int(mask).bit_count() - 0.5 * n)
    return ham


def build_sector_hamiltonian(graph: SpinGraph, n_up: int, b_field: float = 0.0) -> np.ndarray:
    """Dense symmetric matrix of the exchange + field Hamiltonian on one sector.

    The sector's ``hilbert.sector_hops`` written out, plus B * (n_up - N/2)
    on the diagonal; a non-finite B raises ValueError.  Exactly symmetric.
    """
    if not np.isfinite(b_field):
        raise ValueError(f"the field must be finite, got {b_field}")
    basis = sector_basis(graph.n_spins, n_up)
    diagonal, row, column, value = sector_hops(graph, basis)
    matrix = np.diag(diagonal + b_field * basis.sz)
    matrix[row, column] += value
    return matrix


@dataclass(frozen=True)
class SectorSpectrum:
    """Eigendecomposition of one S^z block: ascending eigenvalues, orthonormal columns."""

    basis: SectorBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_up(self) -> int:
        return self.basis.n_up


def sector_spectra(graph: SpinGraph, b_field: float = 0.0) -> list[SectorSpectrum]:
    """Every sector n_up = 0..N diagonalized on its own, field included."""
    spectra = []
    for n_up in range(graph.n_spins + 1):
        values, vectors = np.linalg.eigh(build_sector_hamiltonian(graph, n_up, b_field))
        spectra.append(SectorSpectrum(sector_basis(graph.n_spins, n_up), values, vectors))
    return spectra


def central_eigenvectors(graph: SpinGraph) -> tuple[CentralSpectrum, np.ndarray]:
    """``full_spectrum(graph)`` with its central eigenvectors as one matrix.

    The package never holds them at once; this collects the chunks of
    ``spectra.central_stream`` into the (dim, dim) matrix whose column k
    is solve-order column k of the spectrum's level table.
    """
    n = graph.n_spins
    dim = comb(n, n // 2)
    matrix = np.full((dim, dim), np.nan)

    def collect(positions: np.ndarray, vectors: np.ndarray) -> None:
        matrix[:, positions] = vectors

    batch = central_stream([graph], collect)
    return replace(batch, energies=batch.energies[0]), matrix


def sector_levels(spectrum: CentralSpectrum, b_field: float = 0.0) -> list[np.ndarray]:
    """Each sector's levels of a one-graph spectrum at field B: the energies of the
    member columns of its row of the level table plus B * S^z, in solve order."""
    n = len(spectrum.slots) - 1
    return [spectrum.energies[members] + b_field * (n_up - 0.5 * n)
            for n_up, members in enumerate(spectrum.slots)]


def member_weights(slots: np.ndarray) -> np.ndarray:
    """One weight table per member of a level table, (2^N, N + 1, columns).

    Table x holds weight 1 at the x-th member in row-major order (sector by
    sector, in solve order within one) and 0 elsewhere, so the thermal
    engine's entries of this stack are every level's own.
    """
    sectors, columns = np.nonzero(slots)
    tables = np.zeros((len(sectors),) + slots.shape)
    tables[np.arange(len(sectors)), sectors, columns] = 1.0
    return tables


def member_entries(engine) -> np.ndarray:
    """(pairs, [G,] 2^N, 5): every level's own entries, the engine's contraction of
    the ``member_weights`` tables (for a batch, of each graph's)."""
    states = member_weights(engine.spectrum.slots)
    entries = engine._contract(np.broadcast_to(states, (len(engine.graphs),) + states.shape))
    return entries if engine.spectrum.energies.ndim > 1 else entries[:, 0]


def eigenstate_pair_entries(basis: SectorBasis, eigenvectors: np.ndarray, pairs) -> np.ndarray:
    """(pairs, columns, 5) X-form entries of each ordered pair (a, b) and eigenvector column.

    Each population sums the squared amplitudes of the basis states with
    the pair's spins in its configuration (beta: a up, b down), and the
    coherence gamma sums v[m] v[m'] over the masks m with a up, b down
    and m' the same mask with both spins flipped.
    """
    bits = 1 << np.arange(basis.n_spins)
    masks = basis.masks
    entries = np.empty((len(pairs), eigenvectors.shape[1], 5))
    for k, (a, b) in enumerate(pairs):
        up_a, up_b = (masks & bits[a]) != 0, (masks & bits[b]) != 0
        for slot, kept in zip((0, 1, 3, 4), (up_a & up_b, up_a & ~up_b, ~up_a & up_b,
                                             ~up_a & ~up_b)):
            entries[k, :, slot] = np.square(eigenvectors[kept]).sum(axis=0)
        source = up_a & ~up_b
        partner = np.searchsorted(masks, masks[source] ^ (bits[a] | bits[b]))
        entries[k, :, 2] = (eigenvectors[source] * eigenvectors[partner]).sum(axis=0)
    return entries


def sector_thermal_entries(
    graph: SpinGraph, pairs, temperatures, b_field: float
) -> np.ndarray:
    """(temperatures, pairs, 5) thermal X-form entries from the per-sector ED.

    T = 0 is the uniform mixture over the states within an absolute 1e-8
    of the lowest energy, as in ``gibbs_terms``.
    """
    spectra = sector_spectra(graph, b_field)
    energies = np.concatenate([spectrum.eigenvalues for spectrum in spectra]) - min(
        float(spectrum.eigenvalues.min()) for spectrum in spectra
    )
    stack = np.concatenate(
        [
            eigenstate_pair_entries(spectrum.basis, spectrum.eigenvectors, pairs)
            for spectrum in spectra
        ],
        axis=1,
    )
    rows = []
    for temperature in temperatures:
        if temperature == 0.0:
            factors = (energies <= 1e-8).astype(float)
        else:
            factors = np.exp(-energies / temperature)
        rows.append(np.einsum("k,pkc->pc", factors / factors.sum(), stack))
    return np.array(rows)


def embed_sector_vector(vector: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Lift a sector vector onto the full 2^N space."""
    full = np.zeros(2**basis.n_spins, dtype=complex)
    for amplitude, mask in zip(vector, basis.masks):
        full[mask] = amplitude
    return full


def sector_block(full_matrix: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Restrict a full-space operator to one sector's rows and columns."""
    idx = np.array(basis.masks, dtype=np.intp)
    return full_matrix[np.ix_(idx, idx)]


def naive_pair_rdm(full_vector: np.ndarray, n: int, pair: tuple[int, int]) -> np.ndarray:
    """Partial trace of a full-space pure state down to two sites.

    Same basis convention as the package: index 0 = both up, 3 = both
    down, first slot = first element of the pair.
    """
    a, b = pair
    psi = full_vector.reshape((2,) * n)  # axis k corresponds to site n-1-k
    env_axes = [n - 1 - s for s in range(n) if s not in (a, b)]
    traced = np.tensordot(psi, psi.conj(), axes=(env_axes, env_axes))
    # Remaining axes in ascending axis order; map each back to its site.
    kept_sites = [n - 1 - ax for ax in sorted(n - 1 - s for s in (a, b))]
    rho = np.zeros((4, 4), dtype=complex)
    for bit_a in (0, 1):
        for bit_b in (0, 1):
            for bit_a2 in (0, 1):
                for bit_b2 in (0, 1):
                    bits = {a: bit_a, b: bit_b}
                    bits2 = {a: bit_a2, b: bit_b2}
                    row = (1 - bit_a) * 2 + (1 - bit_b)
                    col = (1 - bit_a2) * 2 + (1 - bit_b2)
                    rho[row, col] = traced[
                        bits[kept_sites[0]],
                        bits[kept_sites[1]],
                        bits2[kept_sites[0]],
                        bits2[kept_sites[1]],
                    ]
    return rho


def _pair_category(mask: int, a: int, b: int) -> int:
    bit_a = (mask >> a) & 1
    bit_b = (mask >> b) & 1
    return (1 - bit_a) * 2 + (1 - bit_b)


def pair_rdm_pure(
    vector: np.ndarray, basis: SectorBasis, pair: tuple[int, int]
) -> np.ndarray:
    """Trace a sector state down to the (a, b) pair.

    Amplitudes are grouped by environment configuration (the mask with
    bits a, b cleared); each group contributes the outer product of its
    4-component pair amplitude vector.
    """
    a, b = pair
    n = basis.n_spins
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"invalid pair {pair} for {n} spins")
    if vector.shape != (len(basis),):
        raise ValueError(
            f"vector has shape {vector.shape}, sector dimension is {len(basis)}"
        )
    norm = np.linalg.norm(vector)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state vector norm is {norm}, expected 1")
    pair_bits = (1 << a) | (1 << b)
    groups: dict[int, np.ndarray] = {}
    for amplitude, mask in zip(vector, basis.masks):
        if amplitude == 0.0:
            continue
        env = mask & ~pair_bits
        slot = groups.get(env)
        if slot is None:
            slot = np.zeros(4, dtype=complex)
            groups[env] = slot
        slot[_pair_category(mask, a, b)] += amplitude
    rho = np.zeros((4, 4), dtype=complex)
    for slot in groups.values():
        rho += np.outer(slot, slot.conj())
    return rho


def pair_rdm_mixed(
    terms, spectra: list[SectorSpectrum], pair: tuple[int, int]
) -> np.ndarray:
    """Weighted sum of pure-state pair RDMs over (n_up, index, weight) terms."""
    by_sector = {spectrum.n_up: spectrum for spectrum in spectra}
    rho = np.zeros((4, 4), dtype=complex)
    for n_up, k, weight in terms:
        if weight == 0.0:
            continue
        spectrum = by_sector[n_up]
        rho += weight * pair_rdm_pure(spectrum.eigenvectors[:, k], spectrum.basis, pair)
    return rho


def gibbs_terms(
    spectra: list[SectorSpectrum], temperature: float
) -> list[tuple[int, int, float]]:
    """(n_up, index, weight) Boltzmann terms over every eigenstate, sector order.

    T = 0 gives the uniform mixture over the states within an absolute
    1e-8 of the lowest energy, a window chosen independently of the
    package's relative one.
    """
    states = [
        (float(energy), spectrum.n_up, k)
        for spectrum in spectra
        for k, energy in enumerate(spectrum.eigenvalues)
    ]
    e_min = min(energy for energy, _, _ in states)
    if temperature == 0.0:
        factors = [float(energy - e_min <= 1e-8) for energy, _, _ in states]
    else:
        factors = [exp(-(energy - e_min) / temperature) for energy, _, _ in states]
    total = sum(factors)
    return [(n_up, k, f / total) for f, (_, n_up, k) in zip(factors, states)]


def dicke_vector(n_spins: int, n_up: int) -> np.ndarray:
    """Uniform superposition over the n_up sector (a completely symmetric state)."""
    if not (0 <= n_up <= n_spins):
        raise ValueError(f"n_up must be in [0, {n_spins}], got {n_up}")
    dim = comb(n_spins, n_up)
    return np.full(dim, 1.0 / sqrt(dim))


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
