"""The spin basis and the thermal engine at N = 13 and 14, outside tier-1.

Solving every S^z sector on its own at N = 14 takes half a minute, so
pytest does not collect this file (its name does not match ``test_*``);
run it directly from the repository root:

    PYTHONPATH=src python tests/oracle_check_large.py

At N = 13 and 14 it checks every S group C_S of ``central_spin_basis``
with ||(S^2 - S(S+1)) C_S||_F, S^2 applied by gathers, never as a dense
matrix.  The central labels are right exactly when this basis is, and
tier-1 checks it against the dense S^2 up to N = 12, so together they
cover every N up to ``spectra.N_SPINS_CAP``.  For ring 13 and ring 14
with g2 = -0.5 it then compares the pair entries of
``GraphThermalEngine`` for the pairs (0, 1), (0, 3), (5, 2) and (0, N/2)
at (T, B) in {0, 1} x {0, 0.4} with ``oracles.sector_thermal_entries``.
It prints the worst residual and the worst absolute difference per N
and exits 1 if one exceeds 1e-12.
"""

import sys
import time

import numpy as np

from ferroent.graphs import ChainParams, ring_chain
from ferroent.hilbert import central_spin_basis, sector_basis
from ferroent.spectra import N_SPINS_CAP, Levels
from ferroent.sweep import GraphThermalEngine
from oracles import sector_thermal_entries

TOLERANCE = 1e-12
TEMPERATURES = (0.0, 1.0)
FIELDS = (0.0, 0.4)


def neighbour_rows(basis, other, flipped_up: bool) -> np.ndarray:
    """Per mask of ``basis``, the rows in ``other`` of the masks with one of its
    up spins lowered (``flipped_up``) or one of its down spins raised."""
    bits = 1 << np.arange(basis.n_spins)
    masks = basis.masks[:, None]
    flipped = ((masks & bits) != 0) == flipped_up
    return np.searchsorted(other.masks, (masks ^ bits)[flipped]).reshape(len(masks), -1)


def gather(vectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    total = vectors[rows[:, 0]]
    for row in rows.T[1:]:
        total += vectors[row]
    return total


def spin_basis_residual(n: int) -> float:
    """Worst ||(S^2 - S(S+1)) C_S||_F over the S groups of ``central_spin_basis(n)``.

    S^2 v = S^- S^+ v + M(M + 1) v: S^+ v is a gather-sum into the sector
    above, and S^- a gather-sum back.
    """
    central, above = sector_basis(n, n // 2), sector_basis(n, n // 2 + 1)
    raise_rows = neighbour_rows(above, central, flipped_up=True)
    lower_rows = neighbour_rows(central, above, flipped_up=False)
    m, step = central.sz, 256  # step: columns through the gathers at once
    worst = 0.0
    for spin, block in central_spin_basis(n):
        if n % 2 == 0:  # [y; p y[::-1]] / sqrt(2), p = (-1)^(N/2 - S)
            block = np.vstack([block, (-1.0) ** (n // 2 - spin) * block[::-1]]) * np.sqrt(0.5)
        square_sum = 0.0
        for start in range(0, block.shape[1], step):
            vectors = np.ascontiguousarray(block[:, start : start + step])
            residual = gather(gather(vectors, raise_rows), lower_rows)
            residual += (m * (m + 1.0) - spin * (spin + 1.0)) * vectors
            square_sum += float(np.sum(residual * residual))
        worst = max(worst, square_sum**0.5)
    return worst


def worst_difference(n: int) -> float:
    graph = ring_chain(ChainParams(n_spins=n, g1=-1.0, g2=-0.5))
    engine = GraphThermalEngine(graph, [(0, 1), (0, 3), (5, 2), (0, n // 2)])
    worst = 0.0
    for b_field in FIELDS:
        expected = sector_thermal_entries(graph, engine.pairs, TEMPERATURES, b_field)
        levels = Levels.at(engine.spectrum, b_field)
        entries = engine.pair_entries(levels, TEMPERATURES)  # (pairs, T, 5)
        for k, rows in enumerate(expected):
            worst = max(worst, float(np.max(np.abs(entries[:, k] - rows))))
    return worst


def main() -> int:
    failed = False
    for n in range(13, N_SPINS_CAP + 1):
        start = time.perf_counter()
        residual = spin_basis_residual(n)
        failed |= not residual <= TOLERANCE
        print(f"spin basis N = {n}: worst ||(S^2 - S(S+1)) C_S||_F {residual:.3g} "
              f"(tolerance {TOLERANCE:g}), {time.perf_counter() - start:.1f} s")
        start = time.perf_counter()
        worst = worst_difference(n)
        failed |= not worst <= TOLERANCE
        print(f"ring {n}, g2 = -0.5: worst entry difference {worst:.3g} "
              f"(tolerance {TOLERANCE:g}), {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
