"""Benchmark of the ferroent pipeline: graph -> S^z sectors -> eigh -> pair RDM -> sweep.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in fresh processes that import ``ferroent`` from this
checkout's ``src/``.  Set-up (interpreter start, package import, input
generation) is timed ``SETUP_RUNS`` times in processes of its own; the
measurement then runs in one more process, one workload process at a
time, with BLAS limited to ``BLAS_THREADS`` (1) thread.  Every output is
checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full result, with provenance, is also written under ``.bench_work/``.
See ``bench/README.md`` for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 7
DEADLINE_S = 170.0  # one workload's processes must all end within 180 s
BLAS_THREADS = 1  # thread budget: 1 workload process x 1 BLAS thread <= nproc


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def worker_env() -> dict:
    env = dict(os.environ)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = str(BLAS_THREADS)
    return env


def run_worker(argv: list[str], env: dict, deadline: float) -> float:
    """Run one worker process to completion; return its wall time from spawn to exit."""
    start = time.perf_counter()
    process = subprocess.Popen([sys.executable, str(WORKER), *argv], env=env, cwd=ROOT,
                               stdout=subprocess.DEVNULL)
    # A blocking wait returns as soon as the child exits; wait(timeout=...) polls
    # every 50 ms, which would round set-up times up to that grid.
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), process.kill)
    watchdog.start()
    try:
        code = process.wait()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - start
    if code < 0:
        raise SystemExit("bench: worker exceeded the time limit")
    if code != 0:
        raise SystemExit(f"bench: worker exited with code {code}")
    return seconds


def run_workload(name: str, args, deadline: float) -> dict:
    work = ROOT / ".bench_work"
    workdir = work / f"{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    result_path = work / f"result-{name}-s{args.seed}-t{args.trace}.json"
    env = worker_env()
    common = ["--workload", name, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        setup = [run_worker([*common, "--setup-only"], env, deadline) for _ in range(SETUP_RUNS)]
        run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", str(result_path)], env, deadline)
        result = json.loads(result_path.read_text())
        if args.trace:
            trace_path = work / f"trace-{name}-s{args.seed}.json"
            shutil.move(result.pop("trace_file"), trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        workload=name,
        seed=args.seed,
        seconds=args.seconds,
        setup_samples_s=setup,
        setup_s=statistics.median(setup),
        pair_points_per_s=result["reductions"] / result["wall_s"],
        failed_frac=result["failed"] / result["attempted"],
        provenance={
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "processes": 1,
            "blas_threads_requested": BLAS_THREADS,
            "python": result.pop("python"),
            "numpy": result["blas"]["numpy"],
            "blas": result.pop("blas"),
            "git_commit": git_commit(),
            "src_sha256": source_sha256(),
            "seed": args.seed,
            "jsonl_sha256": result["jsonl_sha256"],
            "trace_overhead_frac": result.get("layers", {}).get("trace.overhead_frac"),
        },
    )
    result_path.write_text(json.dumps(result, indent=1))
    return result


def metric_units() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and the per-layer metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


END_TO_END_UNITS, LAYER_UNITS = metric_units()


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": result["layers"][name], "unit": unit}
                for name, unit in LAYER_UNITS.items()}
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def report(result: dict, trace: int) -> None:
    name = result["workload"]
    passed = result["attempted"] - result["failed"]
    traced = f" + {len(result['traced_samples_s'])} traced" if trace else ""
    print(f"== {name} (seed {result['seed']}): {len(result['wall_samples_s'])}{traced} timed "
          f"iterations, checks {passed}/{result['attempted']} passed")
    for metric, entry in metrics_of(result, 0).items():
        print(f"  {metric:<22} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'failed_frac':<22} {result['failed_frac']:>14.6g} ratio")
    if trace:
        for metric, entry in metrics_of(result, 1).items():
            print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
        if result["absent"]:
            print(f"  absent (reported as 0): {', '.join(result['absent'])}")
        print(f"  call counts: {json.dumps(result['counts'])}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print("  provenance: " + json.dumps(result["provenance"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per workload run; whole iterations, at least two")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ferroent" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'ferroent'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(run_workload(name, args, time.monotonic() + DEADLINE_S))
        report(results[-1], args.trace)

    if args.workload == "all":
        metrics = {f"{r['workload']}.{name}": value
                   for r in results for name, value in metrics_of(r, args.trace).items()}
    else:
        metrics = metrics_of(results[0], args.trace)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
