"""Host speed probe: a fixed numpy kernel timed between ops.

The shared host this benchmark was built on changes speed by up to 2.4x in
levels that last seconds, with CPU time equal to wall time (no steal time
is reported), so the slowdown cannot be subtracted from a process clock.
The kernel below does the kind of work coherence_kit does (small complex
Hermitian eigendecompositions, Kronecker products, products with adjoints,
einsum partial traces, called from a Python loop) and never calls the
library, so a change of the library cannot change its time.  Dividing an
op's wall time by the kernel time measured on both sides of it cancels most
of the host level: five ops from the three workloads, each repeated on one
fixed input for 90 s, had an IQR/median of 0.19-0.39 in wall time and of
0.08-0.10 in normalised time.

A normalised time is the op's time on a host on which one probe reads
``REF_S``: ``t * REF_S / probe``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Near the probe's reading on the build host at its fast level.
REF_S = 0.65e-3
REPEATS = 3
# The set-up is timed once per run, so its two probes take more readings.
SETUP_REPEATS = 15
_ITERS = 12

_rng = np.random.default_rng(20151207)
_H4 = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_H4 = _H4 + _H4.conj().T
_H9 = _rng.normal(size=(9, 9)) + 1j * _rng.normal(size=(9, 9))
_H9 = _H9 + _H9.conj().T
_K2 = _rng.normal(size=(2, 2)) + 1j * _rng.normal(size=(2, 2))


def _kernel() -> float:
    acc = 0.0
    for _ in range(_ITERS):
        acc += float(np.linalg.eigh(_H4)[0][0])
        acc += float(np.linalg.eigh(_H9)[0][0])
        big = np.kron(_K2, _H4)
        acc += float(np.real(np.trace(big @ big.conj().T)))
        acc += float(np.real(np.einsum("ijkj->ik", _H4.reshape(2, 2, 2, 2))[0, 0]))
    return acc


def probe(repeats: int = REPEATS) -> float:
    """Seconds one kernel takes now: the median of ``repeats`` timings."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalise(seconds: float, before: float, after: float) -> float:
    """Seconds spent between two probes, expressed at the reference speed."""
    return seconds * REF_S / (0.5 * (before + after))
