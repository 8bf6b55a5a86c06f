"""The process peak RSS of ``rdm`` and ``verify`` at ring 14, outside tier-1.

The peak is a property of a whole process, so pytest does not collect
this file (its name does not match ``test_*``); run it directly from the
repository root:

    PYTHONPATH=src python tests/ring14_peak_rss.py

It writes a ring-14 graph file and runs each command of CHECKS in a
process of its own (this file again, with the limit and the command as
arguments), because ``resource.getrusage`` reports a process high-water
mark.  Each child runs its command through ``cli.main`` with its output
captured, reads the mark (kilobytes on Linux), prints it and exits 1
above its limit or if the command fails.  The central solve streams its
eigenvectors one spin block at a time, and hands over only their first
halves (1716 rows), so with one BLAS thread ``rdm`` peaks at
123.2-123.4 MB (141 MB with both halves carried back, 219 MB when the
sorted 3432 x 3432 eigenvector matrix was formed) and ``verify``, whose
engine holds all 91 pairs, at 124.8-125.6 MB (146 MB with both halves,
182 MB while the engine kept an entry stack of all pairs and states);
with two BLAS threads 123.4-123.7 and 123.6-124.5 MB.  The limits are
about 10% above them, and below the peaks with both halves.  Run it
with OPENBLAS_NUM_THREADS set to 1 or 2, the counts they were measured at.
"""

import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import time

from ferroent import cli

# (command, limit in MB); "{graph}" stands for the ring-14 graph file
CHECKS = (
    (["rdm", "--ring", "14", "--pair", "0", "3", "-T", "1"], 136.0),
    (["verify", "--graph", "{graph}", "--suite", "all"], 138.0),
)


def measure(command: list[str], limit_mb: float) -> int:
    """Run one command in this process and check its peak RSS against ``limit_mb``."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(command)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{' '.join(command)}: exit {code}, peak RSS {peak_mb:.1f} MB "
          f"(limit {limit_mb:g} MB), {time.perf_counter() - start:.1f} s")
    return 1 if code != 0 or peak_mb > limit_mb else 0


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "ring14.json")
        if cli.main(["graph", "--ring", "14", "-o", graph]) != 0:
            return 1
        for command, limit_mb in CHECKS:
            argv = [arg.format(graph=graph) for arg in command]
            child = subprocess.run([sys.executable, __file__, str(limit_mb), *argv], check=False)
            failed |= child.returncode != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(measure(sys.argv[2:], float(sys.argv[1])) if len(sys.argv) > 1 else main())
