"""The thermal engine, parameter-grid sweeps and verification reports.

A sweep covers the Cartesian grid of geometry x chain length x couplings
x temperature x field exactly once, computing the raw (unclamped) pair
concurrence of the thermal state at every point.  Results stream to a
JSON-lines file, one record per line, in ascending grid-index order, so
identical configs produce byte-identical files and an interrupted sweep
can resume after its last complete record.  The work goes in batches:
consecutive graph instances of one geometry and one chain length (a
chain kind's g2 x g3 block), which share the pair list and the T and B
grids, up to _BATCH_ENTRIES engine coefficients and at least one graph.
A batch is one task: one thermal engine, built from one stacked solve of
its graphs' central S^z sectors (every other sector follows from the
spin multiplets, see ``GraphThermalEngine``), and per field value one
``spectra.Levels`` and one engine call for all temperatures and graphs;
the records are then written graph by graph.  Each point's entries are its own alone, so batch
bounds, which depend on the config alone, and the worker count and a
resume point do not change the output.

``verify`` runs the verification suites on graphs cut by
``verify_batches`` into batches of one spin count under the same budget,
one engine per batch; each result is that of its graph's batch of one up
to the last bits (at most 1e-15) of the pair correlations, which a batch
forms together (``rdm.pair_correlations``).

Records go out as text, filled into per-graph formats (``_record_format``,
``_summary_format``) with no record dict in between.  Each line is the
``json.dumps`` text of the record

    {"index", "geometry", "n_spins", "g1", "g2", "g3", "t", "b",
     "ground_energy", "ground_degeneracy", "max_concurrence",
     "pairs": [[i, j, raw concurrence], ...]}

with the encoder's default separators and ASCII escapes, and each CSV
summary row is ``summary_row`` of that record.  This layout is the
on-disk contract; a test round-trips every line through the encoder.  A
non-finite raw concurrence raises ValueError and is never written.

Config files are JSON with the following keys (all grids nonempty):

    {
      "geometries": [
        {"kind": "ring"},
        {"kind": "open"},
        {"kind": "grid", "rows": 3, "cols": 3, "periodic": false,
         "coupling": -1.0},
        {"kind": "cube", "coupling": -1.0},
        {"kind": "star", "n_spins": 6, "coupling": -1.0},
        {"kind": "random", "edge_probability": 0.5,
         "j_range": [-2.0, -0.5], "seed": 7},
        {"kind": "file", "path": "graph.json"}
      ],
      "n_values": [4, 5, 6],          # consumed by ring/open/random kinds
      "g1": -1.0,                     # chain kinds only
      "g2_values": [0.0], "g3_values": [0.0],
      "t_grid": [0.0, 1.0] | {"points": 6, "max": "n"},
      "b_grid": [0.0]     | {"points": 6, "max": 4.0},
      "pairs": "all" | [[0, 1], [1, 2]]
    }

The {"points": k, "max": "n"} form expands to k evenly spaced values from
0 to the instance's spin count; it takes no other key, and k must be a
whole number.  Every grid value (a list entry, the points or a numeric
max) must be finite, since NaN or Infinity has no JSON text, no
temperature may be negative, and n_values must be integers: the config
is refused when it loads.  Grid/cube/star/file geometries fix their own
size and ignore n_values, g1, g2 and g3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import comb
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .analytic import UNIVERSAL_ENTRIES
from .graphs import (
    ChainParams,
    SpinGraph,
    cube_graph,
    grid_graph,
    is_connected,
    load_graph,
    open_chain,
    random_graph,
    ring_chain,
    star_graph,
)
from .hilbert import sector_basis
from .rdm import pair_correlations
from .spectra import (
    N_SPINS_CAP,
    SPIN_LABEL_TOL,
    Levels,
    SpinLabelError,
    central_stream,
)

RAW_CONCURRENCE_THRESHOLD = 1e-12
UNIVERSAL_RDM_TOL = 1e-10
WINDOW_GAP_RATIO_MIN = 100.0  # least (next level - E0) / ground-window width

_BATCH_ENTRIES = 1 << 17  # engine coefficients (graphs x pairs x C(N, N/2) x 6) of one sweep batch

_GRID_ELEMENTS = 1 << 17  # one step's weight tables + moments: graphs x (N + 15) x C(N, N/2) x T
_ENTRY_ORDER = np.array([0, 2, 4, 3, 1])  # alpha, beta, gamma, delta, epsilon of the products

_CHAIN_KINDS = ("ring", "open")
_SIZED_KINDS = ("ring", "open", "random")


@dataclass(frozen=True)
class GeometrySpec:
    """One geometry family of a sweep; see the module docstring for kinds."""

    kind: str
    rows: int = 0
    cols: int = 0
    periodic: bool = False
    coupling: float = -1.0
    n_spins: int = 0
    edge_probability: float = 0.5
    j_range: tuple[float, float] = (-1.0, -1.0)
    seed: int = 0
    path: str = ""

    def __post_init__(self) -> None:
        valid = _CHAIN_KINDS + ("grid", "cube", "star", "random", "file")
        if self.kind not in valid:
            raise ValueError(f"unknown geometry kind {self.kind!r}; expected one of {valid}")

    def label(self) -> str:
        if self.kind == "grid":
            suffix = "p" if self.periodic else ""
            return f"grid{self.rows}x{self.cols}{suffix}"
        if self.kind == "star":
            return f"star{self.n_spins}"
        if self.kind == "random":
            return f"random-s{self.seed}"
        if self.kind == "file":
            return f"file:{self.path}"
        return self.kind

    @classmethod
    def from_dict(cls, data: dict) -> "GeometrySpec":
        kwargs = dict(data)
        if "j_range" in kwargs:
            kwargs["j_range"] = tuple(float(x) for x in kwargs["j_range"])
        return cls(**kwargs)


def build_geometry(
    spec: GeometrySpec, n_spins: int, g1: float, g2: float, g3: float
) -> SpinGraph:
    """Instantiate one grid point's graph from its geometry family."""
    if spec.kind == "ring":
        return ring_chain(ChainParams(n_spins=n_spins, g1=g1, g2=g2, g3=g3, periodic=True))
    if spec.kind == "open":
        return open_chain(ChainParams(n_spins=n_spins, g1=g1, g2=g2, g3=g3, periodic=False))
    if spec.kind == "grid":
        return grid_graph(spec.rows, spec.cols, spec.periodic, spec.coupling)
    if spec.kind == "cube":
        return cube_graph(spec.coupling)
    if spec.kind == "star":
        return star_graph(spec.n_spins, spec.coupling)
    if spec.kind == "random":
        return random_graph(n_spins, spec.edge_probability, spec.j_range, spec.seed)
    if spec.kind == "file":
        return load_graph(spec.path)
    raise ValueError(f"unknown geometry kind {spec.kind!r}")


@dataclass(frozen=True)
class SweepConfig:
    geometries: tuple[GeometrySpec, ...]
    n_values: tuple[int, ...] = (4,)
    g1: float = -1.0
    g2_values: tuple[float, ...] = (0.0,)
    g3_values: tuple[float, ...] = (0.0,)
    t_grid: tuple[float, ...] | dict = (0.0,)
    b_grid: tuple[float, ...] | dict = (0.0,)
    pairs: str | tuple[tuple[int, int], ...] = "all"

    def __post_init__(self) -> None:
        if not self.geometries:
            raise ValueError("config needs at least one geometry")
        for name in ("n_values", "g2_values", "g3_values"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty")
        if not all(isinstance(n, int) for n in self.n_values):
            raise ValueError(f"n_values must be integers, got {list(self.n_values)}")
        for name in ("t_grid", "b_grid"):
            grid = getattr(self, name)
            values = grid
            if isinstance(grid, dict):
                if set(grid) - {"points", "max"}:
                    raise ValueError(f"{name} takes the keys points and max, got {sorted(grid)}")
                values = (grid.get("points", 0), grid.get("max", "n"))
            # NaN or Infinity would reach the records, which must stay RFC 8259 JSON
            if not all(value == "n" or np.isfinite(float(value)) for value in values):
                raise ValueError(f"{name} values must be finite, got {list(values)}")
            if isinstance(grid, dict):
                if values[0] != int(values[0]):
                    raise ValueError(f"{name} points must be a whole number, got {values[0]}")
                if int(grid.get("points", 0)) < 1:
                    raise ValueError(f"{name} needs at least one point")
            elif len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            if name == "t_grid" and any(value != "n" and float(value) < 0.0 for value in values):
                raise ValueError(f"t_grid temperatures must be >= 0, got {list(values)}")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["geometries"] = tuple(
            GeometrySpec.from_dict(g) for g in data["geometries"]
        )
        for name in ("n_values", "g2_values", "g3_values"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        for name in ("t_grid", "b_grid"):
            if name in kwargs and not isinstance(kwargs[name], dict):
                kwargs[name] = tuple(float(x) for x in kwargs[name])
        if "pairs" in kwargs and kwargs["pairs"] != "all":
            kwargs["pairs"] = tuple((int(i), int(j)) for i, j in kwargs["pairs"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "SweepConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _resolve_grid(grid: tuple[float, ...] | dict, n_spins: int) -> tuple[float, ...]:
    if isinstance(grid, dict):
        points = int(grid["points"])
        maximum = grid.get("max", "n")
        top = float(n_spins) if maximum == "n" else float(maximum)
        if points == 1:
            return (0.0,)
        return tuple(top * k / (points - 1) for k in range(points))
    return tuple(grid)


@dataclass(frozen=True)
class _Batch:
    """Consecutive graph instances of one geometry and one spin count, computed together.

    They share the pair list and the T and B grids; ``couplings`` holds
    each graph's (g1, g2, g3) record coordinates.
    """

    index: int
    record_base: int
    geometry_label: str
    graphs: tuple[SpinGraph, ...]
    couplings: tuple[tuple[float, float, float], ...]
    t_values: tuple[float, ...]
    b_values: tuple[float, ...]
    pairs: tuple[tuple[int, int], ...]

    @property
    def n_records(self) -> int:
        return len(self.graphs) * len(self.t_values) * len(self.b_values)


def _check_pairs(pairs: Sequence[tuple[int, int]], n_spins: int) -> None:
    """Raise ValueError unless ``pairs`` is nonempty and each is two distinct sites of N."""
    if not pairs:
        raise ValueError(f"no spin pairs to evaluate on the {n_spins}-spin graph; "
                         "pair entanglement needs at least 2 spins and one pair")
    for a, b in pairs:
        if a == b or not (0 <= a < n_spins and 0 <= b < n_spins):
            raise ValueError(f"invalid pair {(a, b)} for {n_spins} spins")


class GraphThermalEngine:
    """The one route from graph spectra to thermal weights and pair entries.

    Every command that needs weights or pair RDMs builds one engine, for
    one graph or for a batch of graphs of one spin count, and for the pairs
    it reports (all pairs of the graph by default).  The central S^z
    sectors are diagonalized once at zero field, a batch's together
    (``spectra.central_stream``); a field B only shifts each level by
    B * S^z and leaves eigenvectors untouched, so thermal weights at any
    (T, B) reuse the same spectrum.  Temperature is in coupling units
    (Boltzmann constant 1).

    ``spectrum`` is the solve's ``spectra.CentralSpectrum`` as it is: per
    central column in solve order, energies and spin S, with the mask of
    the level table's members, sector rows n_up = 0..N (M = n_up - N/2) by
    columns; ``spectra.Levels.at(engine.spectrum, B)`` is its table at a
    field, whose weights (N + 1, C(N, N/2)) the engine contracts.
    ``spin_residual`` is max |<S^2> - S(S+1)| over the central columns,
    <S^2> = sum_a <S . S_a> (below), and above SPIN_LABEL_TOL raises
    SpinLabelError.  An engine built from a sequence of G graphs has a graph
    axis in front of the spectrum's energies (G, C(N, N/2)) and of
    ``spin_residual`` (G,), and every result gains a graph axis after the
    pair axis.  The spin labels and the mask depend on N alone and are
    shared, and every quantity is still computed from its own graph alone.

    ``spectra.central_stream`` hands over the central eigenvectors, a
    batch's side by side, one chunk of S groups at a time: each chunk is
    reduced to the pair correlations c = <S_a . S_b> and
    zz = <S^z_a S^z_b> (``rdm.pair_correlations``), of the engine's pairs
    and, summed into <S . S_a> per site, of all pairs, written to its
    solve-order columns, and dropped, so no eigenvector matrix outlives
    its chunk.  Every member |S, M> of a multiplet, the central one too,
    gets its entries from the correlations of its central column, the
    column of its slot, by one rule, the Wigner-Eckart
    theorem, with g_a = <S . S_a> / S(S+1) and
    <S . S_a> = 3/4 + sum_{c != a} c_ac:

        z_a(M) = M g_a                 (0 for S = 0)
        zz(M) = c/3 + (3M^2 - S(S+1)) (zz(M0) - c/3) / (3 M0^2 - S(S+1))
        gamma = c - zz,  alpha, epsilon = 1/4 +- M (g_a + g_b) / 2 + zz,
        beta, delta = 1/4 +- M (g_a - g_b) / 2 - zz.

    The rank-2 part r of zz, the fraction above, is 0 where its
    denominator is (S = 0 at even N, S = 1/2 at odd N).  So each entry of
    a member is a quadratic p0 + p1 M + p2 M^2 in M, and the engine keeps,
    per pair and central column, six numbers only: with zz0 = c/3 - S(S+1) r,

        alpha:  1/4 + zz0, (g_a + g_b)/2, 3r     (epsilon: M -> -M)
        gamma:  c - zz0, 0, -3r
        beta:   gamma's + (1/4 - c, (g_a - g_b)/2, 0)     (delta: M -> -M).

    ``pair_entries``, the one thermal call, takes the weight tables of a
    field's levels and per column of each the moments sum w,
    sum M w and sum M^2 w over the sectors where an entry can be nonzero
    (alpha over n_up >= 2, epsilon over n_up <= N - 2, beta, gamma and
    delta over 1 <= n_up <= N - 1, so every kinematic zero stays exact: no
    pair is both up below 2 up spins), and contracts them with the
    coefficients.  The mirrored moments of epsilon and delta (M -> -M) come
    from the same table, with the sector axis of the moment rows reversed.
    """

    def __init__(
        self,
        graphs: SpinGraph | Sequence[SpinGraph],
        pairs: Iterable[tuple[int, int]] | None = None,
    ):
        single = isinstance(graphs, SpinGraph)
        self.graphs = (graphs,) if single else tuple(graphs)
        self.pairs = tuple(self.graph.pairs() if pairs is None else pairs)
        n = self.graph.n_spins
        _check_pairs(self.pairs, n)
        basis = sector_basis(n, n // 2)
        count, dim = len(self.graphs), len(basis)
        all_pairs = self.graph.pairs()
        position = {pair: k for k, pair in enumerate(all_pairs)}
        rows = [position[min(a, b), max(a, b)] for a, b in self.pairs]
        # per central column (column k of graph j at j * dim + k): c and zz of
        # the engine's pairs, and <S . S_a> per site
        c, zz = np.empty((2, len(self.pairs), count * dim))
        along = np.empty((n, count * dim))

        def reduce(positions: np.ndarray, vectors: np.ndarray) -> None:
            """Reduce one chunk of central eigenvectors to its columns of the arrays above."""
            c_all, zz_all = pair_correlations(basis, vectors)  # every pair a < b
            chunk_along = np.full((n, len(positions)), 0.75)
            for k, (a, b) in enumerate(all_pairs):
                chunk_along[a] += c_all[k]
                chunk_along[b] += c_all[k]
            along[:, positions] = chunk_along
            c[:, positions], zz[:, positions] = c_all[rows], zz_all[rows]

        spectrum = central_stream(self.graphs, reduce)
        c, zz, along = (array.reshape(len(array), count, dim) for array in (c, zz, along))
        casimir = spectrum.spin * (spectrum.spin + 1.0)
        # <S^2> = sum_a <S . S_a>, summed site by site: the same bits for any batch
        residual = np.max(np.abs(along.sum(axis=0) - casimir), axis=-1)
        if residual.max() > SPIN_LABEL_TOL:
            raise SpinLabelError(
                f"<S^2> of a central eigenvector is {residual.max():.3g} away from its S(S+1) "
                f"(tolerance {SPIN_LABEL_TOL:g})"
            )
        g = np.divide(along, casimir, out=np.zeros_like(along), where=casimir > 0.0)
        del along
        m0 = n // 2 - 0.5 * n
        denominator = 3.0 * m0 * m0 - casimir
        rank2 = np.divide(
            zz - c / 3.0, denominator, out=np.zeros_like(zz), where=denominator != 0.0
        )
        del zz
        zz0 = c / 3.0 - casimir * rank2  # a member's zz is zz0 + 3 M^2 rank2
        first, second = np.array(self.pairs).T
        # per pair and graph one row, the six blocks side by side: alpha's p0, p1 and
        # p2, gamma's p0, and beta's p0 and p1 less gamma's
        coefficients = np.empty((len(self.pairs), count, 6, dim))
        coefficients[:, :, 0] = 0.25 + zz0
        coefficients[:, :, 1] = 0.5 * (g[first] + g[second])
        coefficients[:, :, 2] = 3.0 * rank2
        coefficients[:, :, 3] = c - zz0
        coefficients[:, :, 4] = 0.25 - c
        coefficients[:, :, 5] = 0.5 * (g[first] - g[second])
        self._coefficients = coefficients.reshape(len(self.pairs), count, 1, 1, 1, 6 * dim)
        # the moment rows: 1, M, M^2 over n_up >= 2 (alpha's blocks), and over
        # 1 <= n_up <= N - 1 -M^2, 1, 1, M (beta's blocks, gamma's the first two);
        # then the same rows of the mirrored sector n_up -> N - n_up (M -> -M)
        sector = np.arange(n + 1)
        m = sector - 0.5 * n
        top, middle = 1.0 * (sector >= 2), 1.0 * ((sector >= 1) & (sector < n))
        rows = np.array([top, top * m, top * m * m, -middle * m * m, middle, middle, middle * m])
        self._moment_rows = np.concatenate([rows, rows[:, ::-1]])
        self.spectrum, self.spin_residual = spectrum, residual
        if single:
            self.spectrum = replace(spectrum, energies=spectrum.energies[0])
            self.spin_residual = float(residual[0])

    @property
    def graph(self) -> SpinGraph:
        """The engine's graph; the first of a batch."""
        return self.graphs[0]

    def pair_entries(self, levels: Levels, temperatures: Sequence[float]) -> np.ndarray:
        """(alpha, beta, gamma, delta, epsilon) per engine pair at each temperature of one field.

        ``levels`` are ``spectra.Levels.at`` of the engine's ``spectrum`` at
        the field; the result is (n_pairs, temperatures, 5), and a batch's
        (n_pairs, G, temperatures, 5).  The weight tables
        (``Levels.weights``) are built in steps of at most _GRID_ELEMENTS
        numbers in the tables and their moments, which bounds the
        temporaries; each point's entries are its own alone, whatever step
        it shares.
        """
        count, (sectors, dim) = len(self.graphs), self.spectrum.slots.shape
        temperatures = list(temperatures)
        entries = np.empty((len(self.pairs), count, len(temperatures), 5))
        step = max(1, _GRID_ELEMENTS // (count * (sectors + 14) * dim))
        for start in range(0, len(temperatures), step):
            weights = levels.weights(temperatures[start : start + step])
            entries[:, :, start : start + step] = self._contract(
                weights.reshape(count, -1, sectors, dim))
        return entries if self.spectrum.energies.ndim > 1 else entries[:, 0]

    def _contract(self, points: np.ndarray) -> np.ndarray:
        """(n_pairs, G, p, 5) entries of a batch's (G, p, N + 1, C(N, N/2)) weight tables.

        The moments of a point, as they are (alpha, beta, gamma) and
        mirrored (epsilon, delta), stack on an axis of two, so each pair's
        product has the same shape for every pair and an engine of one
        pair gives the same bits.  The points sit on a batch axis of the
        products, so each entry is one dot product of the point's own
        moments with the pair's coefficients, the same bits for any p.
        """
        count, p, _, dim = points.shape
        # (G, p, as is | mirrored, 7 dim, 1): each point's moments, one product of its own
        moments = (self._moment_rows @ points).reshape(count, p, 2, 7 * dim, 1)
        coefficients = self._coefficients
        # the products' order: alpha, epsilon | beta, delta | gamma
        entries = np.empty((len(self.pairs), count, p, 5, 1, 1))
        np.matmul(coefficients[..., : 3 * dim], moments[..., : 3 * dim, :],
                  out=entries[:, :, :, :2])
        np.matmul(coefficients[..., 2 * dim :], moments[..., 3 * dim :, :],
                  out=entries[:, :, :, 2:4])
        np.matmul(coefficients[..., 2 * dim : 4 * dim], moments[:, :, :1, 3 * dim : 5 * dim],
                  out=entries[:, :, :, 4:])
        return entries.reshape(len(self.pairs), count, p, 5)[..., _ENTRY_ORDER]


def _raw_concurrence(entries: np.ndarray) -> np.ndarray:
    """2(|gamma| - sqrt(alpha epsilon)) of (..., 5) X-state entries."""
    alpha, gamma, epsilon = entries[..., 0], entries[..., 2], entries[..., 4]
    return 2.0 * (np.abs(gamma) - np.sqrt(np.maximum(alpha * epsilon, 0.0)))


# one graph's records: (index of the first, JSON lines, CSV summary rows, max raw concurrences)
_GraphText = tuple[int, list[str], list[str], list[float]]

SUMMARY_HEADER = "index,geometry,n_spins,g1,g2,g3,t,b,max_concurrence\n"


def _record_format(
    geometry: str, n_spins: int, g1: float, g2: float, g3: float,
    pairs: Sequence[tuple[int, int]],
) -> str:
    """The JSON line of one graph's records, with the text of ``json.dumps(record)``.

    The record index, the point ``"t": t, "b": b``, the ground energy and
    degeneracy, the max raw concurrence and each pair's raw concurrence go
    in; the floats must be finite Python floats, whose ``%r`` is their JSON
    text (a numpy float's is not).
    """
    fixed = json.dumps({"geometry": geometry, "n_spins": n_spins, "g1": g1, "g2": g2, "g3": g3})
    pair_slots = json.dumps([[i, j, None] for i, j in pairs]).replace("null", "%r")
    return (
        '{"index": %d, ' + fixed[1:-1].replace("%", "%%") + ', %s, "ground_energy": %r, '
        '"ground_degeneracy": %d, "max_concurrence": %r, "pairs": ' + pair_slots + "}\n"
    )


def _summary_format(geometry: str, n_spins: int, g1: float, g2: float, g3: float) -> str:
    """The CSV summary row of one graph's records.

    The record index, the ``_summary_point`` of (t, b) and the max raw
    concurrence go in.
    """
    if any(char in geometry for char in ',"\r\n'):  # quoted as csv.writer quotes it
        geometry = '"' + geometry.replace('"', '""') + '"'
    fixed = "%s,%d,%.17g,%.17g,%.17g" % (geometry, n_spins, g1, g2, g3)
    return "%d," + fixed.replace("%", "%%") + ",%s,%.17g\n"


def _summary_point(t: float, b: float) -> str:
    return "%.17g,%.17g" % (t, b)


def summary_row(record: dict) -> str:
    """The CSV summary line of one JSON-lines record."""
    row = _summary_format(
        record["geometry"], record["n_spins"], record["g1"], record["g2"], record["g3"]
    )
    return row % (record["index"], _summary_point(record["t"], record["b"]),
                  record["max_concurrence"])


def _batch_records(batch: _Batch) -> Iterator[_GraphText]:
    """The records of a batch as text, one ``_GraphText`` per graph.

    One engine, and one ``pair_entries`` call per field for all
    temperatures and graphs: points run T-major, B-minor.  Each field's
    ``Levels`` are built once, and give the ground energies and
    degeneracies of all graphs and their entries.
    A non-finite raw concurrence raises ValueError before any record of
    the batch exists.  Each record is then one line of ``_record_format``
    and one row of ``_summary_format``, filled with Python numbers; the
    maxima are each record's max raw concurrence, for the run statistics.
    """
    engine = GraphThermalEngine(batch.graphs, batch.pairs)
    count, n_b = len(batch.graphs), len(batch.b_values)
    points = [(t, b) for t in batch.t_values for b in batch.b_values]
    ground = []  # per field: the graphs' ground energies and degeneracies
    raw = np.empty((count, len(batch.t_values), n_b, len(batch.pairs)))
    for k, b in enumerate(batch.b_values):
        levels = Levels.at(engine.spectrum, b)
        ground.append((levels.ground_energy.tolist(), levels.degeneracy.tolist()))
        entries = engine.pair_entries(levels, batch.t_values)
        raw[:, :, k] = _raw_concurrence(entries).transpose(1, 2, 0)
    raw = raw.reshape(count, len(points), len(batch.pairs))
    if not np.isfinite(raw).all():
        raise ValueError(
            f"non-finite raw concurrence in the {batch.geometry_label} sweep batch "
            f"from record {batch.record_base}"
        )
    json_points = [json.dumps({"t": t, "b": b})[1:-1] for t, b in points]
    csv_points = [_summary_point(t, b) for t, b in points]
    for k, (graph, couplings) in enumerate(zip(batch.graphs, batch.couplings)):
        base = batch.record_base + k * len(points)
        line = _record_format(batch.geometry_label, graph.n_spins, *couplings, batch.pairs)
        row = _summary_format(batch.geometry_label, graph.n_spins, *couplings)
        fields = [(energies[k], degeneracies[k]) for energies, degeneracies in ground]
        maxima = raw[k].max(axis=1).tolist()
        lines, rows = [], []
        for offset, (column, maximum) in enumerate(zip(raw[k].tolist(), maxima)):
            energy, degeneracy = fields[offset % n_b]
            lines.append(line % (base + offset, json_points[offset], energy, degeneracy,
                                 maximum, *column))
            rows.append(row % (base + offset, csv_points[offset], maximum))
        yield base, lines, rows, maxima


def _compute_batch(batch: _Batch) -> tuple[int, list[_GraphText]]:
    """The text records of a batch, for a worker process."""
    return batch.index, list(_batch_records(batch))


def _batch_size(n_spins: int, n_pairs: int) -> int:
    """Graphs of N spins per engine: at most _BATCH_ENTRIES coefficients, and one graph at least."""
    return max(1, _BATCH_ENTRIES // (6 * max(1, n_pairs) * comb(n_spins, n_spins // 2)))


def _expand_batches(config: SweepConfig) -> list[_Batch]:
    # Geometries that do not consume an axis collapse it to a single point:
    # only chain kinds see the coupling grids, only sized kinds see n_values.
    # A batch holds at most _BATCH_ENTRIES engine coefficients (six per pair
    # and central column of each graph), and one graph at least; its bounds
    # depend on the config alone.
    batches: list[_Batch] = []
    record_base = 0
    for spec in config.geometries:
        sizes = config.n_values if spec.kind in _SIZED_KINDS else (0,)
        chain = spec.kind in _CHAIN_KINDS
        g1 = config.g1 if chain else 0.0
        g2_axis = config.g2_values if chain else (0.0,)
        g3_axis = config.g3_values if chain else (0.0,)
        for n in sizes:
            couplings = [(g1, g2, g3) for g2 in g2_axis for g3 in g3_axis]
            graphs = [build_geometry(spec, n, config.g1, g2, g3) for _, g2, g3 in couplings]
            n_spins = graphs[0].n_spins
            t_values = _resolve_grid(config.t_grid, n_spins)
            b_values = _resolve_grid(config.b_grid, n_spins)
            pairs = tuple(graphs[0].pairs()) if config.pairs == "all" else tuple(config.pairs)
            # before any batch runs, so no record is written
            if n_spins > N_SPINS_CAP:
                raise ValueError(f"n_spins={n_spins} exceeds the solver cap of {N_SPINS_CAP}")
            _check_pairs(pairs, n_spins)
            size = _batch_size(n_spins, len(pairs))
            for first in range(0, len(graphs), size):
                batch = _Batch(
                    index=len(batches),
                    record_base=record_base,
                    geometry_label=spec.label(),
                    graphs=tuple(graphs[first : first + size]),
                    couplings=tuple(couplings[first : first + size]),
                    t_values=t_values,
                    b_values=b_values,
                    pairs=pairs,
                )
                batches.append(batch)
                record_base += batch.n_records
    return batches


@dataclass
class SweepResult:
    records_written: int
    max_concurrence: float
    violations: int
    threshold: float

    def count(self, maxima: Sequence[float]) -> None:
        """Take records' max raw concurrences into the maximum and the violations."""
        self.max_concurrence = max([self.max_concurrence, *maxima])
        self.violations += sum(maximum > self.threshold for maximum in maxima)


def resume_point(path: str, config: SweepConfig) -> tuple[list[str], list[float]]:
    """The summary rows and max raw concurrences of the records already in a partial output.

    A record is complete when its line ends in a newline and parses as
    JSON; whatever follows the last complete record (a line torn by an
    interrupted write) is truncated away, so appended records start on a
    fresh line.  Record k must sit on line k + 1 with the grid point of
    record k of ``config``, as the same JSON text, or ValueError is raised
    before anything is truncated.  A missing file holds no records.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    except FileNotFoundError:
        return [], []
    keys = ("geometry", "n_spins", "g1", "g2", "g3", "t", "b")
    points = enumerate(  # (index, (the keys' values)) of each record of the config
        (batch.geometry_label, graph.n_spins, *couplings, t, b)
        for batch in _expand_batches(config)
        for graph, couplings in zip(batch.graphs, batch.couplings)
        for t in batch.t_values
        for b in batch.b_values
    )
    rows, maxima, size = [], [], 0
    for number, line in enumerate(lines[:-1]):  # lines[-1] has no newline: torn or empty
        try:
            record = json.loads(line)
        except ValueError:
            continue
        expected = json.dumps(next(points, None))  # as JSON text, so -1 and -1.0 differ
        if number != len(rows) or not isinstance(record, dict) or expected != json.dumps(
            (record.get("index"), tuple(map(record.get, keys)))
        ):
            raise ValueError(f"cannot resume {path!r}: line {len(rows) + 1} "
                             f"is not record {len(rows)} of this config's sweep")
        rows.append(summary_row(record))
        maxima.append(record["max_concurrence"])
        size += len(line) + 1
    with open(path, "r+b") as handle:
        handle.truncate(size)
    return rows, maxima


def run_sweep(
    config: SweepConfig,
    output: IO[str] | None = None,
    summary: IO[str] | None = None,
    workers: int = 1,
    threshold: float = RAW_CONCURRENCE_THRESHOLD,
    skip_records: int = 0,
) -> SweepResult:
    """Execute the full grid, streaming JSON-lines records in index order.

    Batches (see ``_expand_batches``) run on a process pool of at most
    ``workers`` processes and one per batch left to compute (a fork pool
    starts them all at the first submit), so a pool runs only when both
    exceed 1; each batch returns its records as text, and completed batches
    are buffered and flushed strictly in index order, so output files are
    reproducible byte for byte.  ``skip_records`` resumes an interrupted
    sweep: pass the count of complete records in a partial output file
    and open it for append; batches wholly on disk are not recomputed,
    and a batch the resume point cuts is computed whole, as in the
    uninterrupted sweep, and its lines before that point are dropped.
    The summary gets its header only when nothing is skipped; a resumed
    summary continues the rows of the skipped records.  The returned
    statistics cover only the records written by this call and come from
    each record's max raw concurrence; ``SweepResult.count`` adds those of
    the skipped records (see ``resume_point``).  A "violation" is a record whose
    max raw concurrence exceeds the threshold.  A batch with a non-finite
    raw concurrence raises ValueError before any of its records is
    written.
    """
    batches = [
        batch
        for batch in _expand_batches(config)
        if batch.record_base + batch.n_records > skip_records
    ]
    if summary is not None and skip_records == 0:
        summary.write(SUMMARY_HEADER)
    state = SweepResult(
        records_written=0, max_concurrence=-np.inf, violations=0, threshold=threshold
    )
    if not batches:
        return state

    def emit(graphs: Iterable[_GraphText]) -> None:
        for base, lines, rows, maxima in graphs:
            if base < skip_records:  # records already on disk: cut at the resume point
                cut = skip_records - base
                lines, rows, maxima = lines[cut:], rows[cut:], maxima[cut:]
                if not lines:
                    continue
            state.count(maxima)
            if output is not None:
                output.write("".join(lines))
            if summary is not None:
                summary.write("".join(rows))
            state.records_written += len(lines)

    workers = min(workers, len(batches))
    if workers <= 1:
        for batch in batches:
            emit(_batch_records(batch))
        return state

    # imported here: the pool brings in multiprocessing, which no other path needs
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    pending: dict[int, list[_GraphText]] = {}
    next_to_write = batches[0].index
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_compute_batch, batch) for batch in batches}
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                batch_index, graphs = future.result()
                pending[batch_index] = graphs
            while next_to_write in pending:
                emit(pending.pop(next_to_write))
                next_to_write += 1
    return state


def builtin_graph_set() -> list[tuple[str, SpinGraph]]:
    """The stock verification graphs: rings, open chains, grids, cube, star,
    and three seeded random graphs with inhomogeneous negative couplings."""
    graphs: list[tuple[str, SpinGraph]] = []
    for n in range(3, 9):
        graphs.append((f"ring{n}", ring_chain(ChainParams(n_spins=n, g1=-1.0))))
    for n in range(2, 9):
        graphs.append(
            (f"chain{n}", open_chain(ChainParams(n_spins=n, g1=-1.0, periodic=False)))
        )
    graphs.append(("grid3x3", grid_graph(3, 3, False, -1.0)))
    graphs.append(("grid3x3p", grid_graph(3, 3, True, -1.0)))
    graphs.append(("cube", cube_graph(-1.0)))
    graphs.append(("star6", star_graph(6, -1.0)))
    graphs.append(("random6", random_graph(6, 0.6, (-2.0, -0.5), seed=11)))
    graphs.append(("random7", random_graph(7, 0.5, (-1.5, -0.1), seed=42)))
    graphs.append(("random8", random_graph(8, 0.4, (-3.0, -0.2), seed=7)))
    return graphs


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification check on one graph."""

    graph_id: str
    check: str
    n_spins: int
    ferromagnetic: bool
    connected: bool
    preconditions_ok: bool
    ground_energy: float
    expected_ground_energy: float
    energy_ok: bool
    ground_degeneracy: int
    expected_degeneracy: int | None
    degeneracy_ok: bool | None
    ground_spin: float
    spin_residual: float
    window_gap_ratio: float | None
    max_rdm_deviation: float | None = None
    max_raw_concurrence: float | None = None
    passed: bool = False


def verify_batches(graphs: Sequence[SpinGraph]) -> list[list[int]]:
    """The positions of ``graphs``, one list per verification engine: graphs of one
    spin count in input order, cut under the sweep's budget for all pairs
    (``_batch_size``), so the built-in set makes one per N and N >= 10 batches of one.
    """
    groups: dict[int, list[int]] = {}
    for position, graph in enumerate(graphs):
        groups.setdefault(graph.n_spins, []).append(position)
    batches = []
    for n, positions in groups.items():
        size = _batch_size(n, n * (n - 1) // 2)
        batches += [positions[first : first + size] for first in range(0, len(positions), size)]
    return batches


def verify(
    graphs: Sequence[tuple[str, SpinGraph]], suite: str = "all", b_field: float = 0.0
) -> tuple[list[VerifyReport], list[dict]]:
    """Run a verification suite ("universal", "degeneracy", "sweep-zero") or "all" of them.

    ``graphs`` are (graph id, graph) pairs.  The universal suite checks
    that the zero-field ground mixture's RDMs of every pair match the
    universal separable form, entry-wise within UNIVERSAL_RDM_TOL, with
    raw pair concurrence at most RAW_CONCURRENCE_THRESHOLD; it requires a
    connected ferromagnetic graph, and a violation is flagged in the
    report (never silently ignored) and fails it.  The degeneracy suite
    checks ground degeneracy N+1 and ground spin N/2 (connected graphs
    only) and ground energy equal to a quarter of the coupling sum, with
    the next level at least WINDOW_GAP_RATIO_MIN window widths above E0.
    A disconnected graph gets expected_degeneracy None: the N+1 count and
    the single S = N/2 multiplet assume connectivity, while the energy
    identity holds for any ferromagnetic edge set.  A level nearer the
    ground window than the ratio allows fails the check for any graph,
    since the degeneracy count could have absorbed it.  The sweep-zero
    suite scans T = N k / 20, k = 0..20, at ``b_field``
    (``zero_temperature_scan``).

    The graphs run in ``verify_batches`` batches, one engine each, dropped
    before the next is built.  One zero-field ``Levels`` per batch gives
    both suites' ground fields (energy, degeneracy, the least spin in the
    ground window, gap ratio) and the universal suite's T = 0 entries.
    Returns the reports, universal then degeneracy, each in input order,
    and one scan dict per graph in input order.
    """
    suites = ("universal", "degeneracy", "sweep-zero") if suite == "all" else (suite,)
    if not set(suites) <= {"universal", "degeneracy", "sweep-zero"}:
        raise ValueError(f"unknown verify suite {suite!r}")
    universal, degeneracy, scans = ([None] * len(graphs) for _ in range(3))
    for batch in verify_batches([graph for _, graph in graphs]):
        engine = GraphThermalEngine([graphs[k][1] for k in batch])
        if "universal" in suites or "degeneracy" in suites:
            levels = Levels.at(engine.spectrum, 0.0)
            deviations = raws = [None] * len(batch)
            if "universal" in suites:
                entries = engine.pair_entries(levels, (0.0,))[..., 0, :]  # (pairs, G, 5)
                target = np.array(UNIVERSAL_ENTRIES, dtype=float)
                deviations = np.max(np.abs(entries - target), axis=(0, 2)).tolist()
                raws = np.max(_raw_concurrence(entries), axis=0).tolist()
                del entries
            columns = zip(batch, levels.ground_energy.tolist(), levels.degeneracy.tolist(),
                          levels.ground_spin.tolist(), engine.spin_residual.tolist(),
                          levels.gap_ratio, deviations, raws)
            for k, e_min, count, spin, residual, ratio, max_deviation, max_raw in columns:
                graph_id, graph = graphs[k]
                connected, ferromagnetic = is_connected(graph), graph.is_ferromagnetic
                n = graph.n_spins
                expected_energy = 0.25 * graph.coupling_sum
                energy_ok = abs(e_min - expected_energy) <= 1e-10 * max(1.0, abs(expected_energy))
                expected_degeneracy = n + 1 if connected else None
                degeneracy_ok = count == expected_degeneracy if connected else None
                shared = dict(graph_id=graph_id, n_spins=n, ferromagnetic=ferromagnetic,
                              connected=connected, ground_energy=e_min,
                              expected_ground_energy=expected_energy, energy_ok=energy_ok,
                              ground_degeneracy=count, expected_degeneracy=expected_degeneracy,
                              degeneracy_ok=degeneracy_ok, ground_spin=spin,
                              spin_residual=residual, window_gap_ratio=ratio)
                if "universal" in suites:
                    preconditions_ok = ferromagnetic and connected
                    passed = (preconditions_ok and energy_ok and bool(degeneracy_ok)
                              and max_deviation <= UNIVERSAL_RDM_TOL
                              and max_raw <= RAW_CONCURRENCE_THRESHOLD)
                    universal[k] = VerifyReport(
                        check="universal", preconditions_ok=preconditions_ok,
                        max_rdm_deviation=max_deviation, max_raw_concurrence=max_raw,
                        passed=passed, **shared)
                if "degeneracy" in suites:
                    spin_ok = not connected or spin == 0.5 * n
                    passed = (ferromagnetic and energy_ok and degeneracy_ok is not False and spin_ok
                              and (ratio is None or ratio >= WINDOW_GAP_RATIO_MIN))
                    degeneracy[k] = VerifyReport(check="degeneracy", preconditions_ok=ferromagnetic,
                                                 passed=passed, **shared)
            del levels  # the scan builds its own table at b_field
        if "sweep-zero" in suites:
            t_grid = [engine.graph.n_spins * j / 20.0 for j in range(21)]
            reached = zero_temperature_scan(engine, t_grid, b_field)
            for k, t in zip(batch, reached):
                scans[k] = {"graph_id": graphs[k][0], "max_clean_t": t, "grid_top": t_grid[-1],
                            "passed": t == t_grid[-1]}
        del engine  # hold one diagonalized batch at a time
    reports = [report for report in universal + degeneracy if report is not None]
    return reports, [scan for scan in scans if scan is not None]


def zero_temperature_scan(
    engine: GraphThermalEngine, t_grid: Iterable[float], b_field: float = 0.0
) -> list[float | None]:
    """Scan temperatures upward from zero; per graph of a batch engine, the
    largest prefix value whose max pair concurrence stays at or below
    RAW_CONCURRENCE_THRESHOLD.

    None for a graph whose first grid point already violates.  The grid
    must start at 0 and ascend.
    """
    t_values = list(t_grid)
    if not t_values or t_values[0] != 0.0:
        raise ValueError("temperature grid must start at 0")
    if any(t_values[k] > t_values[k + 1] for k in range(len(t_values) - 1)):
        raise ValueError("temperature grid must be ascending")
    levels = Levels.at(engine.spectrum, b_field)
    raw = _raw_concurrence(engine.pair_entries(levels, t_values))  # (pairs, G, T)
    clean = np.logical_and.accumulate(raw.max(axis=0) <= RAW_CONCURRENCE_THRESHOLD, axis=-1)
    return [t_values[count - 1] if count else None for count in clean.sum(axis=-1).tolist()]
