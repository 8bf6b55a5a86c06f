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
to each row (``field_shifted``).

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
most _CHUNK_ELEMENTS entries each (one chunk up to N = 11, four at
N = 12, about one per S at N = 13 and 14), and hands each chunk to the
consumer before it carries back the next: the thermal engine reduces
each chunk to pair correlations, and checks the labels from them.
``full_spectrum`` passes none and forms no eigenvector: ``eigh``'s
rotation stays inside one S group, so its labels are right exactly when
``central_spin_basis(N)`` is, which depends on N alone.  So a
``CentralSpectrum`` holds per-column energies, spin labels and the slot
mask, and no eigenvectors.

The ground multiplet is identified on the level table by one rule, the
ground window that ``field_shifted`` returns with the levels at a field;
the thermal engine, the gap (``ground_gap``) and the verification suites
all use it.
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


def field_shifted(
    energies: np.ndarray, slots: np.ndarray, b_field: float
) -> tuple[np.ndarray, ...]:
    """The level table at field B (a field adds B * S^z), its minimum and its ground window.

    ``energies`` (..., columns) are zero-field column energies, ``slots``
    (N + 1, columns) the table's members; row n_up has S^z = n_up - N/2.
    The levels are E_k + B * S^z in a member slot and +inf in an empty one.
    The minimum (kept as two axes of length 1) and the maximum of the
    members are taken once per table: they refuse an overflow and bound the ground
    window, the mask of the levels in the ground multiplet, up to
    E_min + DEGENERACY_TOL * max(1, spectral range).  The multiplet is
    exactly degenerate in exact arithmetic and the tolerance only absorbs
    floating-point spread; a stack (G, columns) gets one window per graph.
    ValueError for a non-finite B, or for one whose levels' spread (or
    minimum) overflows: every level would fall in the ground window.
    """
    if not np.isfinite(b_field):
        raise ValueError(f"the field must be finite, got {b_field}")
    sz = np.arange(len(slots)) - 0.5 * (len(slots) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = np.where(slots, energies[..., None, :] + b_field * sz[:, None], np.inf)
        lowest = np.min(shifted, axis=(-2, -1), keepdims=True)
        width = _window_width(shifted, lowest, slots)
        if not np.isfinite(width).all():
            raise ValueError(f"the levels at field {b_field:g} overflow")
    return shifted, lowest, shifted <= lowest + width


def _window_width(shifted: np.ndarray, lowest: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The ground window's width DEGENERACY_TOL * max(1, spectral range) per level table.

    The range runs from ``lowest`` to the largest of the ``members`` of
    ``shifted``; the width keeps the two axes of length 1 of ``lowest``.
    """
    top = np.max(shifted, axis=(-2, -1), keepdims=True, where=members, initial=-np.inf)
    return DEGENERACY_TOL * np.maximum(top - lowest, 1.0)


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
    n: int, count: int, groups: list, consume: Callable[[np.ndarray, np.ndarray], None]
) -> None:
    """Carry a batch's eigenvectors back to the central sector and hand them over, chunk by chunk.

    ``groups`` holds (parity, columns, rotation) per S group in solve
    order, a rotation (G, k, k) for the batch's G = ``count`` graphs; each
    is popped, so its rotation is dropped once carried back.  The chunks
    are whole S groups, at most _CHUNK_ELEMENTS entries each unless one
    group is larger, and each is passed as ``consume(positions,
    vectors)``, with ``vectors`` (dim, G * k), graph by graph, and
    ``positions`` (G * k) the columns' numbers in the batch's solve-order
    columns side by side (column k of graph j is j * dim + k), ascending
    and contiguous per graph.  No chunk is kept: the eigenvector matrix
    is never formed.
    """
    dim = comb(n, n // 2)
    start = 0
    while groups:
        # whole S groups while the chunk stays within the budget, and one at least
        chunk = [groups.pop(0)]
        width = chunk[0][2].shape[-1]
        while groups and dim * count * (width + groups[0][2].shape[-1]) <= _CHUNK_ELEMENTS:
            width += groups[0][2].shape[-1]
            chunk.append(groups.pop(0))
        vectors = np.empty((dim, count, width))
        offset = 0
        for parity, columns, turn in chunk:
            target = vectors[:, :, offset : offset + turn.shape[-1]]
            offset += turn.shape[-1]
            # the product goes straight into the chunk: (rows, G, k) seen as (G, rows, k)
            upper = target[: len(columns)]
            np.matmul(columns, turn, out=upper.transpose(1, 0, 2))
            if n % 2:
                continue
            upper *= np.sqrt(0.5)
            np.multiply(upper[::-1], -1.0 if parity else 1.0, out=target[dim // 2 :])
        del chunk
        positions = start + np.arange(width) + dim * np.arange(count)[:, None]
        consume(positions.reshape(-1), vectors.reshape(dim, count * width))
        del vectors
        start += width


def central_stream(
    graphs: Sequence[SpinGraph], consume: Callable[[np.ndarray, np.ndarray], None] | None = None
) -> CentralSpectrum:
    """Solve a batch's central blocks and hand their eigenvectors to ``consume``, chunk by chunk.

    H is projected onto each spin-S block of ``central_spin_basis`` (for
    even N, the flip-parity block of that S), and the projections of all
    graphs are diagonalized by one ``eig_sym`` call per S, in S order; a
    column's S is its block's.  Each parity block is built just before its
    S groups are projected and dropped before the other is built.  Every
    step acts on each graph's matrices alone, as for one graph.  With a
    ``consume``, the eigenvectors are then carried back (``_carry_back``);
    without one, no eigenvector is formed.

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


def ground_gap(levels: tuple[np.ndarray, ...]) -> np.ndarray:
    """First level above the ground window less E0, per level table; 0 if none.

    ``levels`` is the ``field_shifted`` tuple of the levels at one field.
    """
    shifted, lowest, window = levels
    gap = np.min(shifted, axis=(-2, -1), initial=np.inf, where=~window) - lowest[..., 0, 0]
    return np.where(np.isfinite(gap), gap, 0.0)


def window_gap_ratio(levels: tuple[np.ndarray, ...]) -> list[float | None]:
    """``ground_gap`` over the ground window's width, per graph of a stack (G, N + 1, columns).

    ``levels`` is the ``field_shifted`` tuple of the stack at one field.
    The width is the ground window's DEGENERACY_TOL * max(1, spectral
    range).  A small ratio means a level sits close enough to the window
    that a little more spread would have absorbed it; None if no level
    lies above the window (a level above it is at least one width up).
    """
    shifted, lowest, _ = levels
    width = _window_width(shifted, lowest, shifted < np.inf)[..., 0, 0]
    return [ratio if ratio else None for ratio in (ground_gap(levels) / width).tolist()]
