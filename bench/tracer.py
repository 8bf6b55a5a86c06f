"""Spans around the package's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function, in every loaded
``ferroent`` module that refers to it, with a wrapper that records a span
(name, start, end, parent); ``uninstall`` puts the originals back, so
untraced iterations run the package unmodified.  Spans stay in memory
until ``write``.  A target that no longer exists is listed in ``absent``
and its metrics read 0.

A span's self time is its duration minus the durations of its direct
child spans; spans nest strictly because the workload is single-threaded.
Layer times below are sums of self time, so nested calls within one
layer are not counted twice and the layers add up to the traced time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute path).  Span names are <layer>.<function>.
TARGETS = {
    "graphs.ring_chain": ("ferroent.graphs", "ring_chain"),
    "graphs.open_chain": ("ferroent.graphs", "open_chain"),
    "graphs.grid_graph": ("ferroent.graphs", "grid_graph"),
    "graphs.cube_graph": ("ferroent.graphs", "cube_graph"),
    "graphs.star_graph": ("ferroent.graphs", "star_graph"),
    "graphs.random_graph": ("ferroent.graphs", "random_graph"),
    "graphs.load_graph": ("ferroent.graphs", "load_graph"),
    "graphs.make_graph": ("ferroent.graphs", "make_graph"),
    "graphs.is_connected": ("ferroent.graphs", "is_connected"),
    "hilbert.sector_basis": ("ferroent.hilbert", "sector_basis"),
    "hilbert.build_sector_hamiltonian": ("ferroent.hilbert", "build_sector_hamiltonian"),
    "spectra.full_spectrum": ("ferroent.spectra", "full_spectrum"),
    "spectra.eig_sym": ("ferroent.spectra", "eig_sym"),
    "spectra.gibbs_weights": ("ferroent.spectra", "gibbs_weights"),
    "spectra.ground_subspace": ("ferroent.spectra", "ground_subspace"),
    "rdm.pair_trace_tables": ("ferroent.rdm", "pair_trace_tables"),
    "rdm.eigenstate_pair_entries": ("ferroent.rdm", "eigenstate_pair_entries"),
    "rdm.pair_rdm_mixed": ("ferroent.rdm", "pair_rdm_mixed"),
    "rdm.pair_rdm_pure": ("ferroent.rdm", "pair_rdm_pure"),
    "sweep.engine_init": ("ferroent.sweep", "GraphThermalEngine.__init__"),
    "sweep.engine_weights": ("ferroent.sweep", "GraphThermalEngine.weights"),
    "sweep.raw_concurrence": ("ferroent.sweep", "GraphThermalEngine.raw_concurrence"),
    "sweep.pair_entries": ("ferroent.sweep", "GraphThermalEngine.pair_entries"),
    "sweep.run_sweep": ("ferroent.sweep", "run_sweep"),
    "sweep.verify_universal": ("ferroent.sweep", "verify_universal"),
    "sweep.verify_degeneracy": ("ferroent.sweep", "verify_degeneracy"),
    "sweep.zero_temperature_scan": ("ferroent.sweep", "zero_temperature_scan"),
    "cli.main": ("ferroent.cli", "main"),
}


def _eigh_dim(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    return int(matrix.shape[0])


def _spectrum_key(args, kwargs):
    graph = args[0] if args else kwargs["graph"]
    b_field = args[1] if len(args) > 1 else kwargs.get("b_field", 0.0)
    return (graph.n_spins, graph.edges, float(b_field))


# Span name -> function of the call's arguments whose value the span keeps.
PROBES = {"spectra.eig_sym": _eigh_dim, "spectra.full_spectrum": _spectrum_key}


class Tracer:
    """Records spans for the TARGETS while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, function):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        probe = PROBES.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            info = probe(args, kwargs) if probe else None
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, info)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "ferroent"]
        self.absent = []
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules.get(module_name)
            *class_path, attribute = path.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attribute, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            holders = [owner] if class_path else [
                m for m in modules if any(v is original for v in vars(m).values())
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original, wrapper))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def reset(self) -> None:
        self.spans.clear()

    def write(self, path: str) -> None:
        """Write the spans as {"names": [...], "spans": [[name, parent, start_ns, end_ns], ...]}.

        A span whose parent is -1 is a root (one CLI command, a request);
        every other span belongs to the request of its root ancestor.
        """
        names = sorted({span[0] for span in self.spans})
        ids = {name: k for k, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": names,
                    "spans": [[ids[name], parent, start, end]
                              for name, start, end, parent, _ in self.spans],
                },
                handle,
                separators=(",", ":"),
            )


def span_totals(spans) -> tuple[Counter, dict[str, float]]:
    """Call counts and self time in seconds per span name."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    counts: Counter = Counter()
    self_ns: dict[str, int] = defaultdict(int)
    for k, (name, start, end, _, _) in enumerate(spans):
        counts[name] += 1
        self_ns[name] += end - start - child_ns[k]
    return counts, {name: ns * 1e-9 for name, ns in self_ns.items()}


def layer_metrics(spans, sweep_bytes: int, cli_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced iteration."""
    counts, self_s = span_totals(spans)

    def busy(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def calls(*names: str) -> int:
        return sum(counts[name] for name in names)

    dims = [info for name, _, _, _, info in spans if name == "spectra.eig_sym"]
    spectrum_keys = {info for name, _, _, _, info in spans if name == "spectra.full_spectrum"}
    contract = ("sweep.raw_concurrence", "sweep.pair_entries")
    outer_contract = sum(
        1 for name, _, _, parent, _ in spans
        if name in contract and (parent < 0 or spans[parent][0] not in contract)
    )
    diag_calls = calls("spectra.full_spectrum")
    return {
        "graphs.build_s": busy(*[n for n in TARGETS if n.startswith("graphs.")]),
        "hilbert.basis_s": busy("hilbert.sector_basis"),
        "hilbert.basis_calls": calls("hilbert.sector_basis"),
        "hilbert.build_s": busy("hilbert.build_sector_hamiltonian"),
        "hilbert.build_calls": calls("hilbert.build_sector_hamiltonian"),
        "spectra.diag_calls": diag_calls,
        "spectra.diag_per_graph": len(spectrum_keys) / diag_calls if diag_calls else 0.0,
        "spectra.eigh_s": busy("spectra.eig_sym"),
        "spectra.eigh_calls": len(dims),
        "spectra.eigh_flops_computed": sum(d**3 for d in dims),
        "spectra.eigh_max_dim": max(dims, default=0),
        "spectra.weights_s": busy("spectra.gibbs_weights", "spectra.ground_subspace"),
        "rdm.tables_s": busy("rdm.pair_trace_tables"),
        "rdm.tables_calls": calls("rdm.pair_trace_tables"),
        "rdm.entries_s": busy("rdm.eigenstate_pair_entries"),
        "rdm.entries_calls": calls("rdm.eigenstate_pair_entries"),
        "rdm.mixed_s": busy("rdm.pair_rdm_mixed", "rdm.pair_rdm_pure"),
        "rdm.pure_calls": calls("rdm.pair_rdm_pure"),
        "sweep.engine_s": busy("sweep.engine_init"),
        "sweep.engines": calls("sweep.engine_init"),
        "sweep.weights_s": busy("sweep.engine_weights"),
        "sweep.weights_calls": calls("sweep.engine_weights"),
        "sweep.contract_s": busy(*contract),
        "sweep.contract_calls": outer_contract,
        "sweep.run_self_s": busy("sweep.run_sweep"),
        "sweep.bytes_out": sweep_bytes,
        "sweep.verify_self_s": busy(
            "sweep.verify_universal", "sweep.verify_degeneracy", "sweep.zero_temperature_scan"
        ),
        "cli.self_s": busy("cli.main"),
        "cli.bytes_out": cli_bytes,
        "trace.spans": len(spans),
    }


def call_counts(spans) -> dict[str, int]:
    """Calls per span name, for the exact-repeat check between traced iterations."""
    return dict(sorted(span_totals(spans)[0].items()))
