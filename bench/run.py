"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Pins BLAS and OpenMP to one thread, reads the host speed probe, then
replaces this process with the workload process (``harness.py``).  The
replacement happens before the new interpreter starts, so the pinning holds
from its first import, and the clock reading handed over makes ``setup_s``
include interpreter start.
"""

import os
import sys
import time

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main() -> None:
    os.environ.update(PINNED_ENV)  # before numpy loads its BLAS for the probe
    from hostspeed import SETUP_REPEATS, probe

    harness = os.path.join(os.path.dirname(os.path.abspath(__file__)), "harness.py")
    env = dict(os.environ)
    probe()  # the first readings of a fresh process run cold
    probe0 = probe(SETUP_REPEATS)
    argv = [sys.executable, harness, *sys.argv[1:], "--probe0", repr(probe0), "--t0", repr(time.monotonic())]
    os.execve(sys.executable, argv, env)


if __name__ == "__main__":
    main()
