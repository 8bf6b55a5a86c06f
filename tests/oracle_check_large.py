"""The thermal engine against the per-sector oracle at N = 13 and 14, outside tier-1.

Solving every S^z sector on its own at N = 14 takes half a minute, so
pytest does not collect this file (its name does not match ``test_*``);
run it directly from the repository root:

    PYTHONPATH=src python tests/oracle_check_large.py

For ring 13 and ring 14 with g2 = -0.5 it compares the pair entries of
``GraphThermalEngine`` for the pairs (0, 1), (0, 3), (5, 2) and (0, N/2)
at (T, B) in {0, 1} x {0, 0.4} with ``oracles.sector_thermal_entries``,
prints the worst absolute difference per graph and exits 1 if one
exceeds 1e-12.
"""

import sys
import time

import numpy as np

from ferroent.graphs import ChainParams, ring_chain
from ferroent.sweep import GraphThermalEngine
from oracles import sector_thermal_entries

TOLERANCE = 1e-12
TEMPERATURES = (0.0, 1.0)
FIELDS = (0.0, 0.4)


def worst_difference(n: int) -> float:
    graph = ring_chain(ChainParams(n_spins=n, g1=-1.0, g2=-0.5))
    engine = GraphThermalEngine(graph, [(0, 1), (0, 3), (5, 2), (0, n // 2)])
    worst = 0.0
    for b_field in FIELDS:
        expected = sector_thermal_entries(graph, engine.pairs, TEMPERATURES, b_field)
        for temperature, rows in zip(TEMPERATURES, expected):
            entries = engine.pair_entries(engine.weights(temperature, b_field))
            worst = max(worst, float(np.max(np.abs(entries - rows))))
    return worst


def main() -> int:
    failed = False
    for n in (13, 14):
        start = time.perf_counter()
        worst = worst_difference(n)
        failed |= not worst <= TOLERANCE
        print(f"ring {n}, g2 = -0.5: worst entry difference {worst:.3g} "
              f"(tolerance {TOLERANCE:g}), {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
