"""Command-line interface: spectra, RDMs, closed-form tables, sweeps, verification.

All numeric output is printed with full round-trip precision so diffs
between runs are meaningful.  Exit codes: 0 success, 1 failed check,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from . import analytic
from .graphs import SpinGraph, load_graph
from .hilbert import sector_basis, sector_hops
from .spectra import Levels, full_spectrum
from .sweep import (
    RAW_CONCURRENCE_THRESHOLD,
    SUMMARY_HEADER,
    WINDOW_GAP_RATIO_MIN,
    GeometrySpec,
    GraphThermalEngine,
    SweepConfig,
    _expand_batches,
    build_geometry,
    builtin_graph_set,
    resume_point,
    run_sweep,
    verify,
)

_FMT = "%.17g"


def finite(text: str) -> float:
    """An argparse type: NaN, infinities and non-numbers ("invalid finite value") exit 2."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def temperature(text: str) -> float:
    """An argparse type: negative or NaN exits 2, as the engine refuses it; inf passes."""
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="FILE", help="graph JSON file")
    source.add_argument("--ring", type=int, metavar="N", help="periodic chain of N spins")
    source.add_argument("--chain", type=int, metavar="N", help="open chain of N spins")
    source.add_argument("--grid", type=int, nargs=2, metavar=("ROWS", "COLS"),
                        help="square-lattice grid")
    source.add_argument("--cube", action="store_true", help="8 spins on a cube")
    source.add_argument("--star", type=int, metavar="N",
                        help="hub coupled to N-1 leaves")
    source.add_argument("--random", type=int, nargs=2, metavar=("N", "SEED"),
                        help="seeded random graph of N spins")
    parser.add_argument("--g1", type=float, default=-1.0,
                        help="nearest-neighbor coupling for chains (default -1)")
    parser.add_argument("--g2", type=float, default=0.0,
                        help="second-neighbor coupling for chains (default 0)")
    parser.add_argument("--g3", type=float, default=0.0,
                        help="third-neighbor coupling for chains (default 0)")
    parser.add_argument("--coupling", type=float, default=-1.0,
                        help="edge coupling for grid/cube/star (default -1)")
    parser.add_argument("--edge-probability", type=float, default=0.5,
                        help="pair probability for --random (default 0.5)")
    parser.add_argument("--j-range", type=float, nargs=2, default=(-1.0, -1.0),
                        metavar=("LO", "HI"),
                        help="uniform coupling range for --random (default -1 -1)")
    parser.add_argument("--periodic", action="store_true",
                        help="wrap the grid into a torus")


def _load_graph_file(path: str) -> SpinGraph:
    """Load a graph JSON file; an unreadable file is an input error (exit 2).

    A malformed one raises ValueError, which ``main`` also turns into exit 2.
    """
    try:
        return load_graph(path)
    except OSError as err:
        raise SystemExit(f"ferroent: cannot read graph file: {err}") from err


def _graph_from_args(args: argparse.Namespace) -> SpinGraph:
    """The graph of the one source flag given, built as a sweep builds its geometry kind."""
    if args.graph is not None:
        return _load_graph_file(args.graph)
    given = {"ring": args.ring, "open": args.chain, "grid": args.grid,
             "cube": args.cube or None, "star": args.star, "random": args.random}
    kind = next(kind for kind, value in given.items() if value is not None)
    rows, cols = args.grid or (0, 0)
    n, seed = args.random or (args.chain if args.ring is None else args.ring, 0)
    spec = GeometrySpec(kind, rows=rows, cols=cols, periodic=args.periodic, coupling=args.coupling,
                        n_spins=args.star or 0, edge_probability=args.edge_probability,
                        j_range=tuple(args.j_range), seed=seed)
    return build_geometry(spec, n, args.g1, args.g2, args.g3)


@contextmanager
def _output(path: str | None):
    """The file to write a command's output to; no path or "-" is stdout, left open."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _cmd_graph(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    with _output(args.output) as out:
        out.write(graph.to_json() + "\n")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    n = graph.n_spins
    if args.dump_sector is not None:
        # debugging aid: the dense sector matrix from its hop list, refused before the
        # output is opened if the field overflows it, as the levels refuse it
        diagonal, row, column, value = sector_hops(graph, sector_basis(n, args.dump_sector))
        matrix = np.diag(diagonal + args.b_field * (args.dump_sector - 0.5 * n))
        matrix[row, column] += value
        if not np.isfinite(matrix).all():
            raise ValueError(f"the levels at field {args.b_field:g} overflow")
        with _output(args.output) as out:
            out.write("# sector n_up=%d, dimension %d, row-major\n"
                      % (args.dump_sector, matrix.shape[0]))
            for row in matrix:
                out.write(",".join(_FMT % value for value in row) + "\n")
        return 0
    levels = Levels.at(full_spectrum(graph), args.b_field)
    with _output(args.output) as out:
        out.write("# ground_energy=" + _FMT % levels.ground_energy + "\n")
        out.write("# gap=" + _FMT % levels.gap + "\n")
        out.write("n_up,index,eigenvalue\n")
        for n_up, values in enumerate(levels.sectors()):
            for k, value in enumerate(values):
                out.write("%d,%d,%s\n" % (n_up, k, _FMT % value))
    return 0


def _cmd_rdm(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    i, j = args.pair
    engine = GraphThermalEngine(graph, pairs=[(i, j)])
    levels = Levels.at(engine.spectrum, args.b_field)
    [[(alpha, beta, gamma, delta, epsilon)]] = engine.pair_entries(levels, (args.temperature,))
    rho = np.diag([alpha, beta, delta, epsilon])
    rho[1, 2] = rho[2, 1] = gamma
    with _output(args.output) as out:
        out.write("# pair basis order: both-up, first-up, second-up, both-down\n")
        out.write("# pair=(%d,%d) temperature=%s b_field=%s\n"
                  % (i, j, _FMT % args.temperature, _FMT % args.b_field))
        out.write("row,col,real,imag\n")
        for a in range(4):
            for b in range(4):
                out.write("%d,%d,%s,0\n" % (a, b, _FMT % rho[a, b]))
    return 0


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _cmd_analytic(args: argparse.Namespace) -> int:
    if args.n < 2:  # checked before the output is opened, so no file is created
        raise ValueError(f"n_total must be >= 2, got {args.n}")
    with _output(args.output) as out:
        if args.zone:
            spec = analytic.zone(args.n)
            out.write("n_total,zone_lower,zone_upper,members,zone_mixture_concurrence\n")
            out.write("%d,%s,%s,%s,%s\n" % (
                spec.n_total,
                _FMT % spec.lower,
                _FMT % spec.upper,
                " ".join(str(m) for m in spec.members),
                _FMT % analytic.zone_mixture_concurrence(args.n),
            ))
            return 0
        out.write("n_up,alpha,beta,gamma,delta,epsilon,"
                  "concurrence_symmetric,concurrence_pairwise_mixed\n")
        for n in range(args.n + 1):
            entries = analytic.symmetric_rdm_entries(args.n, n)
            out.write("%d,%s,%s,%s,%s,%s,%s,%s\n" % (
                n,
                _fraction_str(entries.alpha),
                _fraction_str(entries.beta),
                _fraction_str(entries.gamma),
                _fraction_str(entries.delta),
                _fraction_str(entries.epsilon),
                _FMT % analytic.concurrence_symmetric(args.n, n),
                _FMT % analytic.concurrence_pairwise_mixed(args.n, n),
            ))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    # computed before the output is opened, so a bad input creates no file
    if args.which == 1:
        data = analytic.figure1_data(args.n)
    else:
        data = analytic.figure2_data(args.n_min, args.n_max)
    with _output(args.output) as out:
        if args.which == 1:
            out.write("n_up,concurrence_symmetric,concurrence_pairwise_mixed\n")
            for n, c_sym, c_mix in data:
                out.write("%d,%s,%s\n" % (n, _FMT % c_sym, _FMT % c_mix))
        else:
            out.write("n_total,zone_mixture_concurrence\n")
            for n, value in data:
                out.write("%d,%s\n" % (n, _FMT % value))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        config = SweepConfig.from_file(args.config)
    except OSError as err:
        raise SystemExit(f"ferroent: cannot read config: {err}") from err
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as err:
        raise SystemExit(f"ferroent: bad config {args.config!r}: {err}") from err
    # refuses a pair or spin count out of range before any file is opened
    _expand_batches(config)
    rows, maxima = resume_point(args.output, config) if args.resume and args.output else ([], [])
    skip = len(rows)
    output = open(args.output, "a" if skip else "w", encoding="utf-8") if args.output else None
    summary = open(args.summary, "w", encoding="utf-8") if args.summary else None
    try:
        if summary is not None and skip:
            # rebuilt from the kept records, so it matches the output whatever it held
            summary.write(SUMMARY_HEADER + "".join(rows))
        result = run_sweep(
            config,
            output=output,
            summary=summary,
            workers=args.workers,
            threshold=args.threshold,
            skip_records=skip,
        )
    finally:
        if output is not None:
            output.close()
        if summary is not None:
            summary.close()
    result.count(maxima)  # the statistics cover the kept records too
    print(
        "sweep: %d records, max raw concurrence %s, %d above threshold %s"
        % (result.records_written + skip, _FMT % result.max_concurrence,
           result.violations, _FMT % result.threshold)
    )
    if args.assert_zero and result.violations > 0:
        print("sweep: FAIL (entanglement above threshold)", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.graph_files:
        graphs = [(path, _load_graph_file(path)) for path in args.graph_files]
    else:
        graphs = builtin_graph_set()

    reports, scans = verify(graphs, args.suite, args.b_field)
    all_ok = all(report.passed for report in reports) and all(
        scan["passed"] for scan in scans
    )

    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        extra = ""
        if report.max_rdm_deviation is not None:
            extra = ", rdm dev %.3e" % report.max_rdm_deviation
        print(
            "[%s] %s %s: E0=%s (expected %s), degeneracy %d (expected %s), ground S %g%s"
            % (status, report.check, report.graph_id,
               _FMT % report.ground_energy, _FMT % report.expected_ground_energy,
               report.ground_degeneracy, report.expected_degeneracy, report.ground_spin, extra)
        )
        if not report.preconditions_ok:
            print("       precondition failure: ferromagnetic=%s connected=%s"
                  % (report.ferromagnetic, report.connected))
        ratio = report.window_gap_ratio
        if report.check == "degeneracy" and ratio is not None and ratio < WINDOW_GAP_RATIO_MIN:
            print("       window gap failure: the next level is %.3g window widths above E0, "
                  "below %g" % (ratio, WINDOW_GAP_RATIO_MIN))
    for scan in scans:
        status = "PASS" if scan["passed"] else "FAIL"
        print("[%s] sweep-zero %s: clean up to T=%s of %s"
              % (status, scan["graph_id"],
                 scan["max_clean_t"], scan["grid_top"]))

    if args.json_output:
        payload = {
            "suite": args.suite,
            "reports": [vars(report) for report in reports],  # flat: no copy needed
            "scans": scans,
            "passed": bool(all_ok),
        }
        with open(args.json_output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")

    print("verify: %s" % ("all checks passed" if all_ok else "FAILURES detected"))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ferroent",
        description="Exact diagonalization and pair entanglement of spin graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="build a graph and export it as JSON")
    _add_graph_arguments(p_graph)
    p_graph.add_argument("--output", "-o", help="JSON file (default stdout)")
    p_graph.set_defaults(func=_cmd_graph)

    p_spectrum = sub.add_parser("spectrum", help="all eigenvalues, sector by sector")
    _add_graph_arguments(p_spectrum)
    p_spectrum.add_argument("--b-field", type=finite, default=0.0)
    p_spectrum.add_argument("--dump-sector", type=int, metavar="N_UP",
                            help="emit the dense sector matrix as CSV instead")
    p_spectrum.add_argument("--output", "-o", help="CSV file (default stdout)")
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_rdm = sub.add_parser("rdm", help="two-spin thermal reduced density matrix")
    _add_graph_arguments(p_rdm)
    p_rdm.add_argument("--pair", type=int, nargs=2, required=True, metavar=("I", "J"))
    p_rdm.add_argument("--temperature", "-T", type=temperature, default=0.0)
    p_rdm.add_argument("--b-field", type=finite, default=0.0)
    p_rdm.add_argument("--output", "-o", help="CSV file (default stdout)")
    p_rdm.set_defaults(func=_cmd_rdm)

    p_analytic = sub.add_parser(
        "analytic", help="closed-form symmetric-state entries and concurrences"
    )
    p_analytic.add_argument("--n", type=int, required=True, help="total spin count")
    p_analytic.add_argument("--zone", action="store_true",
                            help="emit the cancellation zone instead of the table")
    p_analytic.add_argument("--output", "-o", help="CSV file (default stdout)")
    p_analytic.set_defaults(func=_cmd_analytic)

    p_figures = sub.add_parser("figures", help="figure data files")
    p_figures.add_argument("which", type=int, choices=(1, 2),
                           help="1: per-state curves; 2: zone mixture vs N")
    p_figures.add_argument("--n", type=int, default=100,
                           help="spin count for figure 1 (default 100)")
    p_figures.add_argument("--n-min", type=int, default=2)
    p_figures.add_argument("--n-max", type=int, default=400)
    p_figures.add_argument("--output", "-o", help="CSV file (default stdout)")
    p_figures.set_defaults(func=_cmd_figures)

    p_sweep = sub.add_parser("sweep", help="temperature/field/coupling grid sweep")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON")
    p_sweep.add_argument("--output", "-o", help="JSON-lines results file")
    p_sweep.add_argument("--summary", help="CSV summary file")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes, at most one per batch left to "
                              "compute (default 1)")
    # a NaN threshold would count no violation and turn --assert-zero off
    p_sweep.add_argument("--threshold", type=finite, default=RAW_CONCURRENCE_THRESHOLD,
                         help="raw concurrence threshold (default 1e-12)")
    p_sweep.add_argument("--assert-zero", action="store_true",
                         help="exit 1 if any grid point exceeds the threshold")
    p_sweep.add_argument("--resume", action="store_true",
                         help="append to an existing output file, skipping done records")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=("universal", "degeneracy", "sweep-zero", "all"),
                          default="all")
    p_verify.add_argument("--graph", dest="graph_files", action="append", metavar="FILE",
                          help="verify this graph JSON instead of the built-in set "
                               "(repeatable)")
    p_verify.add_argument("--b-field", type=finite, default=0.0,
                          help="field for the sweep-zero suite (default 0)")
    p_verify.add_argument("--json", dest="json_output", metavar="FILE",
                          help="also write a machine-readable report")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as err:
        if isinstance(err.code, str):
            print(err.code, file=sys.stderr)
            return 2
        raise
    except BrokenPipeError:
        # A closed downstream pipe (``| head``) ends the output, not the command.
        return 0
    except (ValueError, RuntimeError, OSError) as err:
        print(f"ferroent: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
