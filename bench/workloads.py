"""The benchmark's workloads: seeded inputs, the commands each iteration runs, output checks.

Each workload writes its inputs into a work directory from the seed alone,
lists the ``ferroent`` command lines one iteration runs, counts the
(state point, pair) reductions those commands must produce, and checks
the files and text they wrote.  Checks compare against values the
benchmark derives itself: the grid it expanded, coupling sums of graphs
it built, and the independent ``reference`` module.
"""

from __future__ import annotations

import csv
import json
import random
from math import comb
from pathlib import Path

from reference import ReferenceSystem, raw_concurrence, rdm_matrix

RAW_THRESHOLD = 1e-12
RDM_TOL = 1e-10
ENERGY_TOL = 1e-10
VERIFY_T_POINTS = 21  # the CLI's sweep-zero suite scans T = N k / 20, k = 0..20


class Checks:
    """Counts output checks attempted and failed; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def _n_pairs(n: int) -> int:
    return n * (n - 1) // 2


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _accumulate(couplings) -> list[tuple[int, int, float]]:
    merged: dict[tuple[int, int], float] = {}
    for a, b, coupling in couplings:
        key = (min(a, b), max(a, b))
        merged[key] = merged.get(key, 0.0) + coupling
    return [(i, j, c) for (i, j), c in sorted(merged.items())]


def chain_edges(n: int, g1: float, g2: float, g3: float, periodic: bool):
    terms = []
    for k, g in ((1, g1), (2, g2), (3, g3)):
        if g == 0.0:
            continue
        for i in range(n if periodic else n - k):
            j = (i + k) % n
            if j != i:
                terms.append((i, j, g))
    return _accumulate(terms)


def torus_edges(rows: int, cols: int, coupling: float):
    terms = []
    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            terms.append((site, r * cols + (c + 1) % cols, coupling))
            terms.append((site, ((r + 1) % rows) * cols + c, coupling))
    return _accumulate(terms)


def cube_edges(coupling: float):
    return [(v, w, coupling) for v in range(8) for w in (v ^ 1, v ^ 2, v ^ 4) if v < w]


def check_verify_report(
    checks: Checks, payload: dict, stdout: str, graphs: list[tuple[str, int, float]]
) -> None:
    """Check ``verify --suite all --json`` output against (id, N, coupling sum) per graph."""
    checks(payload.get("passed") is True, "verify: payload not passed")
    checks(stdout.rstrip().endswith("verify: all checks passed"), "verify: summary line")
    reports = payload.get("reports", [])
    scans = payload.get("scans", [])
    expected_ids = [gid for gid, _, _ in graphs]
    checks([r["graph_id"] for r in reports] == expected_ids * 2, "verify: report order")
    checks([s["graph_id"] for s in scans] == expected_ids, "verify: scan order")
    for (graph_id, n, coupling_sum), report in zip(graphs * 2, reports):
        where = f"verify {report['check']} {graph_id}"
        checks(report["passed"] is True, f"{where}: not passed")
        checks(_close(report["ground_energy"], 0.25 * coupling_sum, ENERGY_TOL), f"{where}: energy")
        checks(report["ground_degeneracy"] == n + 1, f"{where}: degeneracy")
        if report["check"] == "universal":
            checks(report["max_rdm_deviation"] <= RDM_TOL, f"{where}: rdm deviation")
            checks(report["max_raw_concurrence"] <= RAW_THRESHOLD, f"{where}: raw concurrence")
    for scan, (graph_id, n, _) in zip(scans, graphs):
        checks(scan["passed"] is True and scan["max_clean_t"] == float(n), f"sweep-zero {graph_id}")


class SweepGrid:
    """The README sweep config without its file geometry; the seed drives the random geometry."""

    name = "sweep-grid"
    N_VALUES = (4, 5, 6, 7, 8)
    COUPLINGS = (-4.0, -3.0, -2.0, -1.0, 0.0)
    POINTS = 6
    RANDOM = {"edge_probability": 0.5, "j_range": (-2.0, -0.5)}
    SAMPLED_RECORDS = 48

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config = workdir / "sweep.json"
        self.jsonl = workdir / "out.jsonl"
        self.summary = workdir / "out.csv"
        self.config.write_text(json.dumps({
            "geometries": [
                {"kind": "ring"},
                {"kind": "open"},
                {"kind": "grid", "rows": 3, "cols": 3, "periodic": True},
                {"kind": "cube"},
                {"kind": "random", "edge_probability": self.RANDOM["edge_probability"],
                 "j_range": list(self.RANDOM["j_range"]), "seed": seed},
            ],
            "n_values": list(self.N_VALUES),
            "g1": -1.0,
            "g2_values": list(self.COUPLINGS),
            "g3_values": list(self.COUPLINGS),
            "t_grid": {"points": self.POINTS, "max": "n"},
            "b_grid": {"points": self.POINTS, "max": "n"},
            "pairs": "all",
        }))
        self.commands = [["sweep", "--config", str(self.config), "-o", str(self.jsonl),
                          "--summary", str(self.summary), "--assert-zero"]]
        self.outputs = [self.jsonl, self.summary]
        self.sweep_outputs = self.outputs
        self.reductions = sum(
            self.POINTS * self.POINTS * _n_pairs(n) for _, n, _, _, _, _ in self._graphs()
        )

    def _graphs(self):
        """(label, n, g1, g2, g3, edges) per graph instance, in the sweep's grid order."""
        from ferroent.graphs import random_graph

        for periodic, label in ((True, "ring"), (False, "open")):
            for n in self.N_VALUES:
                for g2 in self.COUPLINGS:
                    for g3 in self.COUPLINGS:
                        yield label, n, -1.0, g2, g3, chain_edges(n, -1.0, g2, g3, periodic)
        yield "grid3x3p", 9, 0.0, 0.0, 0.0, torus_edges(3, 3, -1.0)
        yield "cube", 8, 0.0, 0.0, 0.0, cube_edges(-1.0)
        for n in self.N_VALUES:
            graph = random_graph(n, self.RANDOM["edge_probability"], self.RANDOM["j_range"],
                                 self.seed)
            yield f"random-s{self.seed}", n, 0.0, 0.0, 0.0, list(graph.edges)

    def expected_records(self):
        """(coordinates, edges) per record, in index order."""
        for label, n, g1, g2, g3, edges in self._graphs():
            axis = [float(n) * k / (self.POINTS - 1) for k in range(self.POINTS)]
            for t in axis:
                for b in axis:
                    yield (label, n, g1, g2, g3, t, b), edges

    def check(self, checks: Checks, stdout: str) -> None:
        lines = self.jsonl.read_text().splitlines()
        expected = list(self.expected_records())
        checks(len(lines) == len(expected),
               f"sweep: {len(lines)} records, expected {len(expected)}")
        checks(stdout.startswith(f"sweep: {len(expected)} records"), "sweep: summary line")
        with self.summary.open(newline="") as handle:
            rows = list(csv.reader(handle))
        checks(len(rows) == len(expected) + 1, "sweep: summary row count")
        sample = set(random.Random(self.seed).sample(range(len(expected)), self.SAMPLED_RECORDS))
        for index, (line, row, ((label, n, g1, g2, g3, t, b), edges)) in enumerate(
            zip(lines, rows[1:], expected)
        ):
            record = json.loads(line)
            coordinates = (record["index"], record["geometry"], record["n_spins"],
                           record["g1"], record["g2"], record["g3"], record["t"], record["b"])
            checks(coordinates == (index, label, n, g1, g2, g3, t, b),
                   f"record {index}: coordinates")
            raws = [raw for _, _, raw in record["pairs"]]
            checks([(i, j) for i, j, _ in record["pairs"]] == _pairs(n), f"record {index}: pairs")
            checks(max(raws) <= RAW_THRESHOLD and record["max_concurrence"] == max(raws),
                   f"record {index}: raw concurrence")
            coupling_sum = sum(c for _, _, c in edges)
            checks(_close(record["ground_energy"], 0.25 * coupling_sum - 0.5 * b * n, ENERGY_TOL)
                   and record["ground_degeneracy"] == (n + 1 if b == 0.0 else 1),
                   f"record {index}: ground energy/degeneracy")
            summary = [n, g1, g2, g3, t, b, record["max_concurrence"]]
            checks(int(row[0]) == index and row[1] == label
                   and [float(x) for x in row[2:]] == summary, f"summary row {index}")
            if index in sample:
                reference = ReferenceSystem(n, edges, b).pair_entries(t, _pairs(n))
                checks(all(abs(raw - raw_concurrence(reference[(i, j)])) <= RDM_TOL
                           for i, j, raw in record["pairs"]),
                       f"record {index}: raw concurrence against reference")


class EdLarge:
    """One seeded random connected ferromagnetic graph, N = 12, 15-20 edges, J in [-2, -0.2]."""

    name = "ed-large"
    N = 12
    PAIR = (0, 6)
    TEMPERATURE = 1.0
    B_FIELD = 0.5

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        order = list(range(self.N))
        rng.shuffle(order)
        couplings: dict[tuple[int, int], float] = {}
        for k in range(1, self.N):  # a random spanning tree keeps the graph connected
            a, b = order[k], order[rng.randrange(k)]
            couplings[(min(a, b), max(a, b))] = rng.uniform(-2.0, -0.2)
        target = 15 + rng.randrange(6)
        while len(couplings) < target:
            a, b = sorted(rng.sample(range(self.N), 2))
            couplings.setdefault((a, b), rng.uniform(-2.0, -0.2))
        self.edges = [(i, j, c) for (i, j), c in sorted(couplings.items())]
        self.graph = workdir / "graph.json"
        self.graph.write_text(json.dumps({"n": self.N, "edges": [list(e) for e in self.edges]}))
        self.spectrum = workdir / "spectrum.csv"
        self.rdm = workdir / "rdm.csv"
        self.report = workdir / "verify.json"
        graph = ["--graph", str(self.graph)]
        self.commands = [
            ["spectrum", *graph, "-o", str(self.spectrum)],
            ["rdm", *graph, "--pair", *map(str, self.PAIR), "-T", str(self.TEMPERATURE),
             "--b-field", str(self.B_FIELD), "-o", str(self.rdm)],
            ["verify", *graph, "--suite", "all", "--json", str(self.report)],
        ]
        self.outputs = [self.spectrum, self.rdm, self.report]
        self.sweep_outputs = []
        pairs = _n_pairs(self.N)
        self.reductions = 1 + pairs + VERIFY_T_POINTS * pairs

    def check(self, checks: Checks, stdout: str) -> None:
        coupling_sum = sum(c for _, _, c in self.edges)
        at_zero = ReferenceSystem(self.N, self.edges)
        lines = self.spectrum.read_text().splitlines()
        degeneracy, gap = at_zero.ground()
        checks(_close(float(lines[0].split("=")[1]), 0.25 * coupling_sum, ENERGY_TOL),
               "spectrum: ground energy")
        checks(_close(float(lines[1].split("=")[1]), gap, ENERGY_TOL), "spectrum: gap")
        rows = [row.split(",") for row in lines[3:]]
        checks(len(rows) == 2**self.N, f"spectrum: {len(rows)} eigenvalues")
        for n_up in range(self.N + 1):
            values = sorted(float(v) for s, _, v in rows if int(s) == n_up)
            expected = at_zero.sector_eigenvalues(n_up)
            checks(len(values) == comb(self.N, n_up)
                   and max(abs(v - e) for v, e in zip(values, expected)) <= ENERGY_TOL,
                   f"spectrum: sector {n_up}")
        in_window = sum(1 for _, _, v in rows if float(v) <= at_zero.window())
        checks(in_window == degeneracy == self.N + 1, "spectrum: ground degeneracy")

        reference = ReferenceSystem(self.N, self.edges, self.B_FIELD)
        entries = reference.pair_entries(self.TEMPERATURE, [self.PAIR])[self.PAIR]
        expected_rho = rdm_matrix(entries)
        rho = {}
        for row in self.rdm.read_text().splitlines()[3:]:
            a, b, real, imag = row.split(",")
            rho[(int(a), int(b))] = complex(float(real), float(imag))
        checks(len(rho) == 16, "rdm: 16 entries")
        for (a, b), value in rho.items():
            checks(abs(value - expected_rho[a, b]) <= RDM_TOL, f"rdm: entry ({a}, {b})")
        x_entries = [rho[0, 0].real, rho[1, 1].real, rho[1, 2], rho[2, 2].real, rho[3, 3].real]
        checks(raw_concurrence(x_entries) <= RAW_THRESHOLD, "rdm: raw concurrence")
        check_verify_report(checks, json.loads(self.report.read_text()), stdout,
                            [(str(self.graph), self.N, coupling_sum)])


class VerifyBuiltin:
    """``verify --suite all`` on the built-in graph set; the input does not depend on the seed."""

    name = "verify-builtin"

    def __init__(self, seed: int, workdir: Path):
        from ferroent.sweep import builtin_graph_set

        self.graphs = [(gid, g.n_spins, g.coupling_sum) for gid, g in builtin_graph_set()]
        self.report = workdir / "verify.json"
        self.commands = [["verify", "--suite", "all", "--json", str(self.report)]]
        self.outputs = [self.report]
        self.sweep_outputs = []
        self.reductions = sum((1 + VERIFY_T_POINTS) * _n_pairs(n) for _, n, _ in self.graphs)

    def check(self, checks: Checks, stdout: str) -> None:
        check_verify_report(checks, json.loads(self.report.read_text()), stdout, self.graphs)


WORKLOADS = {w.name: w for w in (SweepGrid, EdLarge, VerifyBuiltin)}
