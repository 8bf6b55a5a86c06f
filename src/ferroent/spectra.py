"""The central-sector eigendecomposition, spin labels and the ground-window rule.

Every Hamiltonian here is isotropic exchange: it commutes with total S^2,
so each eigenstate is a member |S, M> of a spin multiplet, and each
multiplet has exactly one member in the central sector n_up = N // 2
(S^z = 0 for even N, -1/2 for odd N).  ``central_stream`` therefore
builds and diagonalizes that one block, for a batch of graphs of one N
at once, with one ``eigh`` call per S for all of them; ``full_spectrum``
is its batch of one.  Central column k is a multiplet with a member in
sector n_up, at its energy, when its spin S_k >= |n_up - N/2|; so the
levels form one table, sector rows n_up = 0..N by central columns k, and
one mask, ``slots[n_up, k]``, marks its 2^N members (``CentralSpectrum``).
From the central columns the thermal engine rebuilds every sector, the
central one too, by one Wigner-Eckart rule.  A field B only adds B * S^z
to each row (``Levels``).

For even N the central block is centrosymmetric, H == H[::-1, ::-1]: the
global spin flip maps the sector onto itself with its mask order
reversed.  With A and C its upper-left and upper-right quarters it splits
into the flip-parity blocks A + C[:, ::-1] and A - C[:, ::-1], whose
eigenvectors x give the central ones [x; +x[::-1]] / sqrt(2) and
[x; -x[::-1]] / sqrt(2).  Flip parity fixes S mod 2 at S^z = 0.  The
blocks are filled from ``hilbert.sector_hops``; the dense H is never formed.

H is solved in ``hilbert.central_spin_basis``, orthonormal columns built
from Clebsch-Gordan coefficients and grouped by S: it is projected onto
each group (within its parity block for even N) and diagonalized there,
one ``eigh`` per S over the batch's stack, so every eigenvector is pure-S
by construction and takes its group's S as its label.

The eigenvectors are never held all at once.  Given a consumer,
``central_stream`` carries them back in chunks of whole S groups, at
most _CHUNK_ELEMENTS entries each (one chunk up to N = 11, two at
N = 12, six at N = 14, about one per S at N = 13), and hands each chunk
to the consumer before it carries back the next: the thermal engine
reduces each chunk to pair correlations, and checks the labels from
them.  For even N a chunk holds only the first halves x, with their flip
parities: [x; p x[::-1]] / sqrt(2) is never written out.
``full_spectrum`` passes none and forms no eigenvector: ``eigh``'s
rotation stays inside one S group, so its labels are right exactly when
``central_spin_basis(N)`` is, which depends on N alone.  So a
``CentralSpectrum`` holds per-column energies, spin labels and the slot
mask, and no eigenvectors.

The level table at a field is one ``Levels`` object, and nothing else
reads the table: it holds the ground window, the one rule that identifies
the ground multiplet, and gives the ground energy, degeneracy, least ground
spin, gap and its ratio to the window, the thermal weights the engine
contracts and the sorted sectors ``spectrum`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Callable, Iterator, Sequence

import numpy as np

from .graphs import SpinGraph
from .hilbert import SectorBasis, central_spin_basis, sector_basis, sector_hops

N_SPINS_CAP = 14
DEGENERACY_TOL = 1e-9
SPIN_LABEL_TOL = 1e-6

_SYMMETRY_TOL = 1e-14
_CHUNK_ELEMENTS = 1 << 18  # eigenvector entries carried back at once, unless one S group has more


class SpinLabelError(RuntimeError):
    """The central eigenvectors do not resolve into whole spin multiplets."""


@dataclass(frozen=True)
class CentralSpectrum:
    """Every level of a batch of graphs, from one solve of their central S^z block at zero field.

    The levels form a table of sector rows n_up = 0..N by central columns
    k in solve order (S group by S group, the column numbering
    ``central_stream``'s consumer gets).  ``slots`` (N + 1, C(N, N/2))
    marks its members, the slots with 2 S_k >= |2 n_up - N|, C(N, n_up)
    in row n_up; member (n_up, k) has S^z = n_up - N/2, spin ``spin[k]``
    and in graph j the zero-field energy ``energies[j, k]`` of its column.
    ``slots`` and ``spin`` depend on N alone; ``energies`` has the batch
    axis in front, which ``full_spectrum`` drops.  No eigenvectors are kept.
    """

    energies: np.ndarray
    spin: np.ndarray
    slots: np.ndarray


@dataclass(frozen=True)
class Levels:
    """The level table of a ``CentralSpectrum`` at one field B, with its ground window.

    Built once per field by ``Levels.at``.  ``shifted`` (..., N + 1, columns)
    holds E_k + B * (n_up - N/2) in a member slot and +inf in an empty one;
    ``lowest`` is its minimum, kept as two axes of length 1, and ``window``
    masks the ground multiplet's levels, up to E_min + ``width``, which is
    DEGENERACY_TOL * max(1, spectral range): the multiplet is exactly
    degenerate in exact arithmetic, and the tolerance only absorbs rounding.
    A batch (G, N + 1, columns) gets one window and one value of each figure
    per graph; the gap, its ratio and the ground spin are reduced when asked.
    """

    spectrum: CentralSpectrum
    shifted: np.ndarray
    lowest: np.ndarray
    width: np.ndarray
    window: np.ndarray

    @classmethod
    def at(cls, spectrum: CentralSpectrum, b_field: float) -> Levels:
        """The levels of ``spectrum`` at field B; ValueError for a non-finite B, or for
        one whose levels' spread (or minimum) overflows: every level would fall in the window.
        """
        if not np.isfinite(b_field):
            raise ValueError(f"the field must be finite, got {b_field}")
        slots = spectrum.slots
        sz = np.arange(len(slots)) - 0.5 * (len(slots) - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = np.where(slots, spectrum.energies[..., None, :] + b_field * sz[:, None],
                               np.inf)
            lowest = np.min(shifted, axis=(-2, -1), keepdims=True)
            top = np.max(shifted, axis=(-2, -1), keepdims=True, where=slots, initial=-np.inf)
            width = DEGENERACY_TOL * np.maximum(top - lowest, 1.0)
            if not np.isfinite(width).all():
                raise ValueError(f"the levels at field {b_field:g} overflow")
        return cls(spectrum, shifted, lowest, width, shifted <= lowest + width)

    @property
    def ground_energy(self) -> np.ndarray:
        return self.lowest[..., 0, 0]

    @property
    def degeneracy(self) -> np.ndarray:
        """The count of levels in the ground window."""
        return self.window.sum(axis=(-2, -1))

    @property
    def ground_spin(self) -> np.ndarray:
        """The least S in the ground window: N/2 only if it holds the aligned multiplet alone."""
        return np.where(self.window, self.spectrum.spin, np.inf).min(axis=(-2, -1))

    @property
    def gap(self) -> np.ndarray:
        """The first level above the ground window less E0; 0 if none."""
        above = np.min(self.shifted, axis=(-2, -1), initial=np.inf, where=~self.window)
        gap = above - self.ground_energy
        return np.where(np.isfinite(gap), gap, 0.0)

    @property
    def gap_ratio(self) -> list[float | None]:
        """``gap`` over the window's ``width``, a list over a batch's graphs; None if no level
        lies above the window.  A small ratio means a level sits close enough to the window
        that a little more spread would have absorbed it.
        """
        return [ratio if ratio else None for ratio in (self.gap / self.width[..., 0, 0]).tolist()]

    def weights(self, temperatures: Sequence[float]) -> np.ndarray:
        """Thermal weights at each temperature, (..., temperatures, N + 1, columns).

        0 in an empty slot.  T = 0 is the uniform mixture over the ground
        window, not a limit of Boltzmann factors.  Levels are shifted by
        their minimum before exponentiation so weights stay finite at low
        temperature; each table is bitwise its temperature's alone.
        ValueError for a negative or NaN temperature.
        """
        shifted, slots = self.shifted, self.spectrum.slots
        t = np.array(temperatures, dtype=float)
        for temperature in t[~(t >= 0.0)]:  # also rejects NaN
            raise ValueError(f"temperature must be >= 0, got {temperature}")
        rows = np.empty(shifted.shape[:-2] + (len(t),) + shifted.shape[-2:])
        hot = t > 0.0
        if hot.any():
            # members only; a subnormal T overflows the exponent to -inf, a weight of 0
            factors = np.zeros(shifted.shape[:-2] + (np.count_nonzero(hot),) + shifted.shape[-2:])
            with np.errstate(over="ignore"):
                np.divide(-(shifted - self.lowest)[..., None, :, :], t[hot, None, None],
                          out=factors, where=slots)
            np.exp(factors, out=factors, where=slots)
            # the members' sum, one contiguous row-major row per temperature
            factors /= np.ascontiguousarray(factors[..., slots]).sum(axis=-1)[..., None, None]
            rows[..., hot, :, :] = factors
        if not hot.all():
            uniform = self.window / self.degeneracy[..., None, None]
            rows[..., ~hot, :, :] = uniform[..., None, :, :]
        return rows

    def sectors(self) -> list[np.ndarray]:
        """Each sector's levels of a one-graph table, ascending: the members of row n_up."""
        return [np.sort(row[members], kind="stable")
                for row, members in zip(self.shifted, self.spectrum.slots)]


def eig_sym(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix, or of a stack (G, k, k) of them.

    Eigenvalues ascend along the last axis.  Validates symmetry and
    finiteness, then defers to LAPACK's symmetric solver, one matrix at a
    time; non-convergence surfaces as a LinAlgError from the backend.
    """
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    if matrix.shape[-1] > 1 and np.max(np.abs(matrix - matrix.swapaxes(-1, -2))) > _SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric to within 1e-14")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return eigenvalues, eigenvectors


def _stacked_blocks(graphs: Sequence[SpinGraph], basis: SectorBasis) -> Iterator[np.ndarray]:
    """Every graph's central blocks, filled from all ``sector_hops`` at once, as (G, k, k) each.

    Odd N: the central block, k = dim.  Even N: the parity blocks + and
    -, k = dim / 2, from the hops out of the first k rows, with a column
    c >= k folded onto dim - 1 - c and the block's sign.  An entry gets at
    most one term of A and one of C: this is A +- C[:, ::-1] bit for bit.
    A block is built when the next is asked for, and the generator keeps no
    reference to it, so a caller that drops each block before asking for
    the next holds one at a time.
    """
    dim = len(basis)
    signs = (1.0,) if basis.n_spins % 2 else (1.0, -1.0)
    size = dim // len(signs)
    hops = [sector_hops(graph, basis) for graph in graphs]
    member = np.repeat(np.arange(len(graphs)), [len(hop[1]) for hop in hops])  # each hop's graph
    row, column, value = (np.concatenate(part) for part in list(zip(*hops))[1:])
    kept = row < size
    member, row, column, value = member[kept], row[kept], column[kept], value[kept]
    folded = column >= size
    column[folded] = dim - 1 - column[folded]
    diagonal = np.stack([hop[0][:size] for hop in hops])
    del hops
    for sign in signs:
        block = np.zeros((len(graphs), size, size))
        block[:, range(size), range(size)] += diagonal
        block[member[~folded], row[~folded], column[~folded]] += value[~folded]
        block[member[folded], row[folded], column[folded]] += sign * value[folded]
        yield block
        del block


def _carry_back(
    n: int, count: int, groups: list,
    consume: Callable[[np.ndarray, np.ndarray, np.ndarray | None], None],
) -> None:
    """Carry a batch's eigenvectors back to the central sector and hand them over, chunk by chunk.

    ``groups`` holds (parity, columns, rotation) per S group in solve
    order, a rotation (G, k, k) for the batch's G = ``count`` graphs; each
    is popped, so its rotation is dropped once carried back.  Each chunk
    is passed as ``consume(positions, vectors, flips)``: ``vectors``
    (rows, G * k) holds columns @ rotation, graph by graph, and
    ``positions`` (G * k) the columns' numbers in the batch's solve-order
    columns side by side (column k of graph j is j * dim + k), ascending
    and contiguous per graph.  Odd N: ``vectors`` are the central
    eigenvectors, dim rows, and ``flips`` is None.  Even N: ``vectors``
    are the first halves x of the eigenvectors [x; p x[::-1]] / sqrt(2),
    dim / 2 rows, and ``flips`` (G * k) holds each column's flip parity
    p = +-1.0.  The chunks are whole S groups, at most _CHUNK_ELEMENTS
    entries of ``vectors`` each unless one group is larger.  No chunk is
    kept: the eigenvector matrix is never formed.
    """
    dim = comb(n, n // 2)
    rows = dim if n % 2 else dim // 2
    start = 0
    while groups:
        # whole S groups while the chunk stays within the budget, and one at least
        chunk = [groups.pop(0)]
        width = chunk[0][2].shape[-1]
        while groups and rows * count * (width + groups[0][2].shape[-1]) <= _CHUNK_ELEMENTS:
            width += groups[0][2].shape[-1]
            chunk.append(groups.pop(0))
        vectors = np.empty((rows, count, width))
        flips = np.empty((count, width))
        offset = 0
        for parity, columns, turn in chunk:
            # the product goes straight into the chunk: (rows, G, k) seen as (G, rows, k)
            target = vectors[:, :, offset : offset + turn.shape[-1]]
            np.matmul(columns, turn, out=target.transpose(1, 0, 2))
            flips[:, offset : offset + turn.shape[-1]] = -1.0 if parity else 1.0
            offset += turn.shape[-1]
        del chunk
        positions = start + np.arange(width) + dim * np.arange(count)[:, None]
        consume(positions.reshape(-1), vectors.reshape(rows, count * width),
                None if n % 2 else flips.reshape(-1))
        del vectors
        start += width


def central_stream(
    graphs: Sequence[SpinGraph],
    consume: Callable[[np.ndarray, np.ndarray, np.ndarray | None], None] | None = None,
) -> CentralSpectrum:
    """Solve a batch's central blocks and hand their eigenvectors to ``consume``, chunk by chunk.

    H is projected onto each spin-S block of ``central_spin_basis`` (for
    even N, the flip-parity block of that S), and the projections of all
    graphs are diagonalized by one ``eig_sym`` call per S, in S order; a
    column's S is its block's.  Each parity block is built just before its
    S groups are projected and dropped before the other is built.  Every
    step acts on each graph's matrices alone, as for one graph.  With a
    ``consume``, the eigenvectors are then carried back and handed over
    as ``consume(positions, vectors, flips)`` (``_carry_back``): for even
    N the first halves and flip parities, for odd N the whole vectors and
    None; without one, no eigenvector is formed.

    Returns the batch's ``CentralSpectrum``.  Raises ValueError for mixed
    spin counts or N > N_SPINS_CAP, and SpinLabelError if a sector would
    not get C(N, n_up) levels.
    """
    n = graphs[0].n_spins
    if any(graph.n_spins != n for graph in graphs):
        raise ValueError("a batch of spectra needs graphs of one spin count")
    if n > N_SPINS_CAP:
        raise ValueError(f"n_spins={n} exceeds the solver cap of {N_SPINS_CAP}")
    spin_blocks = central_spin_basis(n)
    # the block of each S: for even N its flip parity (-1)^(N/2 - S), 0 for + and 1 for -
    parities = [0 if n % 2 else int(n // 2 - spin) % 2 for spin, _ in spin_blocks]
    projected = [None] * len(spin_blocks)
    for parity, block in enumerate(_stacked_blocks(graphs, sector_basis(n, n // 2))):
        for group, (_, columns) in enumerate(spin_blocks):
            if parities[group] == parity:
                product = columns.T @ (block @ columns)
                projected[group] = 0.5 * (product + product.swapaxes(-1, -2))
        del block, product
    solved = [eig_sym(projected.pop(0)) for _ in spin_blocks]  # each dropped once solved
    eigenvalues = np.concatenate([values for values, _ in solved], axis=1)  # (G, dim)
    spins = np.repeat([spin for spin, _ in spin_blocks], [values.shape[1] for values, _ in solved])
    if consume is not None:
        # (parity, columns, rotation) per S; each rotation is dropped once carried back
        groups = [(parity, columns, solved.pop(0)[1])
                  for parity, (_, columns) in zip(parities, spin_blocks)]
        _carry_back(n, len(graphs), groups, consume)
    # the level table: a (sector, column) slot holds a member when S >= |M|
    slots = 2.0 * spins >= np.abs(2 * np.arange(n + 1) - n)[:, None]
    for n_up, row in enumerate(slots):
        if np.count_nonzero(row) != comb(n, n_up):
            raise SpinLabelError(
                f"the spin labels give sector n_up={n_up} {np.count_nonzero(row)} "
                f"levels, expected C({n}, {n_up}) = {comb(n, n_up)}"
            )
    return CentralSpectrum(energies=eigenvalues, spin=spins, slots=slots)


def full_spectrum(graph: SpinGraph) -> CentralSpectrum:
    """Every zero-field level of one graph, from one solve of its central S^z sector.

    ``central_stream`` for a batch of one, with no consumer, so no
    eigenvector is formed, and with the batch axis dropped.  Raises
    ValueError for N > N_SPINS_CAP, and SpinLabelError if a sector would
    not get C(N, n_up) levels.
    """
    batch = central_stream([graph])
    return replace(batch, energies=batch.energies[0])
