"""One workload in one fresh process: set up, run timed iterations, check outputs.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only``
the process imports the package, writes the workload's inputs and exits,
so the parent can time set-up on its own.  Otherwise it runs whole
iterations of the workload for about ``--seconds``, and past it until
there are two, each iteration calling ``ferroent.cli.main`` once per
command, and writes a JSON result to ``--result``.  With ``--trace 1`` it
alternates untraced and traced iterations, so the tracing overhead is
measured in the same process, and the two it needs are traced ones, so
that their call counts can be compared.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def _import_cli():
    """The package under test, imported from this checkout's source and nowhere else."""
    sys.path.insert(0, str(SOURCE))
    import ferroent.cli

    if not Path(ferroent.cli.__file__).resolve().is_relative_to(SOURCE.resolve()):
        raise SystemExit(f"worker: ferroent imported from {ferroent.cli.__file__}, not {SOURCE}")
    return ferroent.cli


def blas_info() -> dict:
    """BLAS name and version from numpy.show_config, and OpenBLAS's live thread count."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "numpy": numpy.__version__}


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_iteration(cli, workload) -> dict:
    """Run the workload's commands once; only the commands are inside the timed region."""
    for path in workload.outputs:
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        codes = [cli.main(list(argv)) for argv in workload.commands]
        seconds = time.perf_counter() - start
    text = stdout.getvalue()
    return {
        "seconds": seconds,
        "codes": codes,
        "stdout": text,
        "stderr": stderr.getvalue(),
        "sha256": _sha256(workload.outputs),
        "jsonl_sha256": _sha256(workload.sweep_outputs[:1]) if workload.sweep_outputs else None,
        "sweep_bytes": sum(p.stat().st_size for p in workload.sweep_outputs),
        "cli_bytes": len(text.encode()) + sum(p.stat().st_size for p in workload.outputs),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = _import_cli()
    from tracer import Tracer, call_counts, layer_metrics
    from workloads import WORKLOADS, Checks

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        return 0

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    over = False  # would the next iteration end after --seconds?
    while True:
        trace_this = args.trace == 1 and untraced and (len(traced) < len(untraced) or over)
        if trace_this:
            tracer.reset()
            tracer.install()
            try:
                iteration = run_iteration(cli, workload)
            finally:
                tracer.uninstall()
            iteration["layers"] = layer_metrics(
                tracer.spans, iteration["sweep_bytes"], iteration["cli_bytes"]
            )
            iteration["counts"] = call_counts(tracer.spans)
            if not traced:
                tracer.write(str(workdir / "trace.json"))
            traced.append(iteration)
        else:
            iteration = run_iteration(cli, workload)
            untraced.append(iteration)
            if len(untraced) == 1:
                # The peak of a process that ran each command once, as a CLI user's
                # does: later iterations add allocator growth of their own.
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        over = time.perf_counter() - start + iteration["seconds"] > args.seconds
        if over and len(traced if args.trace else untraced) >= 2:
            break

    # The last iteration's files are still on disk; every other iteration must match them.
    checks = Checks()
    for done in untraced + traced:
        checks(done["codes"] == [0] * len(workload.commands),
               f"exit codes {done['codes']}")
    checks(len({it["sha256"] for it in untraced + traced}) == 1,
           "outputs differ between iterations")
    workload.check(checks, iteration["stdout"])

    # The slowest iteration, not the median: on a shared host the steady state is
    # the contended one, and the noise is bursts of extra speed (bench/README.md).
    wall = max(it["seconds"] for it in untraced)
    result = {
        "wall_samples_s": [it["seconds"] for it in untraced],
        "wall_s": wall,
        "reductions": workload.reductions,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "jsonl_sha256": untraced[0]["jsonl_sha256"],
        "outputs_sha256": untraced[0]["sha256"],
        "blas": blas_info(),
        "python": platform.python_version(),
        "stderr": untraced[0]["stderr"][-2000:],
    }
    if traced:
        checks(all(it["counts"] == traced[0]["counts"] for it in traced[1:]),
               "traced call counts differ between iterations")
        layers = {
            name: statistics.median(it["layers"][name] for it in traced)
            for name in traced[0]["layers"]
        }
        traced_wall = max(it["seconds"] for it in traced)
        layers["trace.overhead_frac"] = traced_wall / wall - 1.0
        result.update(
            layers=layers,
            counts=traced[0]["counts"],
            traced_samples_s=[it["seconds"] for it in traced],
            absent=tracer.absent,
            trace_file=str(workdir / "trace.json"),
        )
    result.update(correct=checks.failed == 0, attempted=checks.attempted,
                  failed=checks.failed, failures=checks.failures)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
