"""Weighted spin-graph construction: chains, grids, cubes, random geometries.

A spin graph is a set of N spin-1/2 sites with isotropic exchange couplings
J_ij on its edges.  Couplings are dimensionless energies; J <= 0 is
ferromagnetic.  Graphs are immutable after construction.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class SpinGraph:
    """N spins with one exchange coupling per unordered site pair.

    Edges are stored as (i, j, J) with 0 <= i < j < n_spins, sorted and
    deduplicated.  Use :func:`make_graph` to build one from a raw coupling
    list (parallel couplings are summed there).
    """

    n_spins: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if self.n_spins < 1:
            raise ValueError(f"n_spins must be positive, got {self.n_spins}")
        seen = set()
        for i, j, coupling in self.edges:
            if not (0 <= i < j < self.n_spins):
                raise ValueError(f"edge ({i}, {j}) violates 0 <= i < j < {self.n_spins}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            if not math.isfinite(coupling):
                raise ValueError(f"edge ({i}, {j}) has non-finite coupling")
            seen.add((i, j))

    @property
    def is_ferromagnetic(self) -> bool:
        """True iff every coupling is <= 0."""
        return all(coupling <= 0.0 for _, _, coupling in self.edges)

    @property
    def coupling_sum(self) -> float:
        """Sum of all edge couplings (the all-aligned ground energy is 1/4 of it)."""
        return sum(coupling for _, _, coupling in self.edges)

    def pairs(self) -> list[tuple[int, int]]:
        """All unordered site pairs (i, j), i < j, coupled or not."""
        return [(i, j) for i in range(self.n_spins) for j in range(i + 1, self.n_spins)]

    def to_dict(self) -> dict:
        return {"n": self.n_spins, "edges": [[i, j, coupling] for i, j, coupling in self.edges]}

    @classmethod
    def from_dict(cls, data: dict) -> "SpinGraph":
        """The graph of {"n": N, "edges": [[i, j, J], ...]}; ValueError if it is not one."""
        try:
            return make_graph(
                int(data["n"]), [(int(i), int(j), float(c)) for i, j, c in data["edges"]]
            )
        except (KeyError, TypeError) as err:
            raise ValueError(
                f'expected {{"n": N, "edges": [[i, j, J], ...]}}: {type(err).__name__}: {err}'
            ) from err

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def make_graph(n_spins: int, couplings: list[tuple[int, int, float]]) -> SpinGraph:
    """Build a SpinGraph, summing parallel couplings onto one edge per pair.

    Site order within a pair is normalized; self-pairs are rejected.
    """
    merged: dict[tuple[int, int], float] = {}
    for a, b, coupling in couplings:
        if a == b:
            raise ValueError(f"self-coupling on site {a}")
        i, j = (a, b) if a < b else (b, a)
        merged[(i, j)] = merged.get((i, j), 0.0) + coupling
    edges = tuple(sorted((i, j, c) for (i, j), c in merged.items()))
    return SpinGraph(n_spins=n_spins, edges=edges)


@dataclass(frozen=True)
class ChainParams:
    """Couplings of a spin chain with up to third-neighbor exchange.

    g1, g2, g3 couple each spin to its first, second and third neighbor.
    A magnetic field is not part of a graph; commands take it separately.
    """

    n_spins: int
    g1: float
    g2: float = 0.0
    g3: float = 0.0
    periodic: bool = True

    def __post_init__(self) -> None:
        if self.n_spins < 2:
            raise ValueError(f"n_spins must be >= 2, got {self.n_spins}")


def ring_chain(params: ChainParams) -> SpinGraph:
    """Periodic chain: term-by-term expansion of the three neighbor sums.

    Each sum contributes one term per site i, coupling i to (i + k) mod N.
    Terms that land on the same unordered pair accumulate by summation
    (for example every distance-2 pair is visited twice when N = 4).
    Terms that wrap onto their own site (k a multiple of N) are a constant
    energy shift, not an exchange, and are omitted from the edge set.
    """
    if not params.periodic:
        raise ValueError("ring_chain requires periodic=True")
    n = params.n_spins
    couplings = []
    for k, g in ((1, params.g1), (2, params.g2), (3, params.g3)):
        if g == 0.0:
            continue
        for i in range(n):
            j = (i + k) % n
            if j == i:
                continue
            couplings.append((i, j, g))
    return make_graph(n, couplings)


def open_chain(params: ChainParams) -> SpinGraph:
    """Open chain: the neighbor sums truncate at the boundary (no wraparound)."""
    if params.periodic:
        raise ValueError("open_chain requires periodic=False")
    n = params.n_spins
    couplings = []
    for k, g in ((1, params.g1), (2, params.g2), (3, params.g3)):
        if g == 0.0:
            continue
        for i in range(n - k):
            couplings.append((i, i + k, g))
    return make_graph(n, couplings)


def grid_graph(rows: int, cols: int, periodic: bool, coupling: float) -> SpinGraph:
    """Nearest-neighbor square lattice, optionally wrapped into a torus.

    Wrap edges that coincide with an open edge (2-wide dimensions)
    accumulate; wrap edges of 1-wide dimensions are self-pairs and dropped.
    Sites are indexed row-major.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least 2 sites")
    couplings = []
    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            if periodic:
                right = r * cols + (c + 1) % cols
                down = ((r + 1) % rows) * cols + c
                if right != site:
                    couplings.append((site, right, coupling))
                if down != site:
                    couplings.append((site, down, coupling))
            else:
                if c + 1 < cols:
                    couplings.append((site, site + 1, coupling))
                if r + 1 < rows:
                    couplings.append((site, site + cols, coupling))
    return make_graph(rows * cols, couplings)


def cube_graph(coupling: float) -> SpinGraph:
    """Eight spins on the vertices of a cube, one coupling per cube edge."""
    couplings = []
    for v in range(8):
        for bit in range(3):
            w = v ^ (1 << bit)
            if v < w:
                couplings.append((v, w, coupling))
    return make_graph(8, couplings)


def star_graph(n_spins: int, coupling: float) -> SpinGraph:
    """Site 0 coupled to every other site; leaves mutually uncoupled."""
    if n_spins < 2:
        raise ValueError(f"n_spins must be >= 2, got {n_spins}")
    return make_graph(n_spins, [(0, leaf, coupling) for leaf in range(1, n_spins)])


_RANDOM_GRAPH_RETRIES = 1000


def random_graph(
    n_spins: int,
    edge_probability: float,
    j_range: tuple[float, float],
    seed: int,
) -> SpinGraph:
    """Seeded random graph: each pair kept with the given probability.

    Couplings are drawn uniformly from j_range (lo <= hi <= 0, so results
    stay ferromagnetic).  Sampling repeats, advancing the same seeded
    stream, until the nonzero-coupling graph is connected; after
    1000 failed draws a RuntimeError is raised.  Identical arguments
    always produce the identical graph.
    """
    if n_spins < 2:
        raise ValueError(f"n_spins must be >= 2, got {n_spins}")
    lo, hi = j_range
    if not (lo <= hi <= 0.0):
        raise ValueError(f"j_range must satisfy lo <= hi <= 0, got {j_range}")
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError(f"edge_probability must be in [0, 1], got {edge_probability}")
    rng = random.Random(seed)
    for _ in range(_RANDOM_GRAPH_RETRIES):
        couplings = []
        for i in range(n_spins):
            for j in range(i + 1, n_spins):
                if rng.random() < edge_probability:
                    couplings.append((i, j, rng.uniform(lo, hi)))
        graph = make_graph(n_spins, couplings)
        if is_connected(graph):
            return graph
    raise RuntimeError(
        f"no connected graph on {n_spins} sites with p={edge_probability} "
        f"after {_RANDOM_GRAPH_RETRIES} draws"
    )


def is_connected(graph: SpinGraph) -> bool:
    """True iff the edges with nonzero coupling connect all sites."""
    n = graph.n_spins
    if n == 1:
        return True
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j, coupling in graph.edges:
        if coupling != 0.0:
            adjacency[i].append(j)
            adjacency[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def load_graph(path: str) -> SpinGraph:
    """Read a graph from a JSON file {"n": N, "edges": [[i, j, J], ...]}.

    A file that is not such a graph raises ValueError naming the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return SpinGraph.from_dict(json.load(handle))
        except ValueError as err:
            raise ValueError(f"malformed graph file {path!r}: {err}") from err


def save_graph(graph: SpinGraph, path: str) -> None:
    """Write a graph as JSON {"n": N, "edges": [[i, j, J], ...]}."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph.to_dict(), handle)
        handle.write("\n")
