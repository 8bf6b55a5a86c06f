"""The process peak RSS of ``rdm --ring 14 --pair 0 3 -T 1``, outside tier-1.

The peak is a property of a whole process, so pytest does not collect
this file (its name does not match ``test_*``); run it directly from the
repository root, as its own process:

    PYTHONPATH=src python tests/ring14_peak_rss.py

It runs the command through ``cli.main`` with its output captured, reads
the process high-water mark from ``resource.getrusage`` (kilobytes on
Linux), prints it and exits 1 above LIMIT_MB or if the command fails.
The central solve streams its eigenvectors one spin block at a time, so
the peak sits near 155 MB with one BLAS thread; it was 219 MB when the
sorted 3432 x 3432 eigenvector matrix was formed.
"""

import contextlib
import io
import resource
import sys
import time

from ferroent import cli

LIMIT_MB = 170.0
COMMAND = ["rdm", "--ring", "14", "--pair", "0", "3", "-T", "1"]


def main() -> int:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(COMMAND)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{' '.join(COMMAND)}: exit {code}, peak RSS {peak_mb:.1f} MB "
          f"(limit {LIMIT_MB:g} MB), {time.perf_counter() - start:.1f} s")
    return 1 if code != 0 or peak_mb > LIMIT_MB else 0


if __name__ == "__main__":
    sys.exit(main())
