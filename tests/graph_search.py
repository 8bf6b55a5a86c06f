"""A search over random connected ferromagnets for pair entanglement, outside tier-1.

pytest does not collect this file (its name does not match ``test_*``);
``tests/test_graph_search.py`` runs the same strategy and predicate on a
few examples in tier-1.  Run the long search from the repository root:

    PYTHONPATH=src python tests/graph_search.py

The strategy draws a spanning tree plus extra edges on N <= MAX_SPINS
spins, every coupling J = -|J| with |J| log-uniform over [10^-2, 10]
(a 10^3 spread: no bond is weak enough to hide a level in the ground
window).  The predicate computes the raw concurrence 2(|gamma| -
sqrt(alpha epsilon)) of every pair at T = 0, B = 0 and at each of
TEMPERATURES times each B/T of FIELD_RATIOS (at most 250, where no
Boltzmann factor underflows); a graph passes when none exceeds
RAW_CONCURRENCE_THRESHOLD.  The examples are derandomized, so every run
draws the same graphs; a failure shrinks to a small graph, printed as
``make_graph(n, edges)`` arguments.  The script exits 1 on a failure.
"""

import sys
import time

from hypothesis import given, settings, strategies as st

from ferroent.graphs import make_graph
from ferroent.spectra import Levels
from ferroent.sweep import RAW_CONCURRENCE_THRESHOLD, GraphThermalEngine, _raw_concurrence

MAX_SPINS = 10
TEMPERATURES = (0.05, 0.5, 5.0)
FIELD_RATIOS = (0.0, 0.3, 3.0, 30.0, 250.0)  # B / T
EXAMPLES = 1000

_COUPLINGS = st.floats(-2.0, 1.0).map(lambda exponent: -(10.0**exponent))


@st.composite
def ferromagnets(draw) -> tuple[int, list[tuple[int, int, float]]]:
    """(n, edges) of a connected ferromagnet: a spanning tree plus extra edges."""
    n = draw(st.integers(2, MAX_SPINS))
    couplings = {(draw(st.integers(0, k - 1)), k): draw(_COUPLINGS) for k in range(1, n)}
    free = [(a, b) for b in range(n) for a in range(b) if (a, b) not in couplings]
    if free:
        for pair in draw(st.lists(st.sampled_from(free), unique=True)):
            couplings[pair] = draw(_COUPLINGS)
    return n, [(a, b, j) for (a, b), j in sorted(couplings.items())]


def max_raw_concurrence(n: int, edges: list[tuple[int, int, float]]) -> float:
    """The largest raw concurrence over every pair of the graph and every point."""
    engine = GraphThermalEngine(make_graph(n, edges))
    points = {0.0: [0.0]}  # field -> its temperatures
    for t in TEMPERATURES:
        for ratio in FIELD_RATIOS:
            points.setdefault(ratio * t, []).append(t)
    return max(
        float(_raw_concurrence(engine.pair_entries(Levels.at(engine.spectrum, b), t)).max())
        for b, t in points.items()
    )


def search(examples: int):
    """The property over ``examples`` derandomized graphs, as a callable test."""

    @settings(max_examples=examples, derandomize=True, database=None, deadline=None)
    @given(ferromagnets())
    def no_pair_entanglement(graph):
        assert max_raw_concurrence(*graph) <= RAW_CONCURRENCE_THRESHOLD

    return no_pair_entanglement


def main() -> int:
    start = time.perf_counter()
    try:
        search(EXAMPLES)()
    except AssertionError as error:
        print(f"graph search: FAIL after {time.perf_counter() - start:.1f} s: {error}")
        return 1
    print(f"graph search: {EXAMPLES} graphs of N <= {MAX_SPINS}, no raw concurrence above "
          f"{RAW_CONCURRENCE_THRESHOLD:g}, {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
