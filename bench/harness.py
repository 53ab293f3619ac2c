"""Workload process: set up, warm up, time blocks of ops, print one JSON line.

Started by ``run.py``; ``--t0`` is the monotonic clock reading taken just
before this interpreter was started, so ``setup_s`` runs from there to the
first measured op, and ``--probe0`` is the host speed probe ``run.py`` read
just before ``--t0``.  Set-up and op times are normalised to the reference
host speed of ``hostspeed.py`` by the probes read on both sides of them;
the traced run's span times are wall times.

``--trace 0`` times whole blocks until ``--seconds`` would be exceeded and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of blocks
(set by ``--seconds`` and the workload's nominal block time, so two traced
runs with the same arguments do the same work) first untraced, then again
traced, and prints the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
from checks import Checker, Wrong

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

IMPORT_PROBES = 3
# A host speed probe follows the first op that ends this many seconds of op
# time after the last probe, and the last op of every block.
PROBE_EVERY = 0.1
# ops_per_s takes each op kind's mean time without its fastest and slowest
# tenth: a few slow outliers (a collection pause, a probe read in a speed
# change) do not move it, and it scatters less from run to run than the
# median of the ten or so memory trials a recovery-optimizers run holds.
TRIM = 0.1
# The traced pass runs about seconds / TRACE_SHARE of nominal block time
# (twice: untraced, then traced); it keeps every span in memory.
TRACE_SHARE = 6
IMPORT_PROBE = "import time; t = time.perf_counter(); import coherence_kit.cli; print(time.perf_counter() - t)"


def import_program():
    """coherence_kit from this checkout's src/, or exit 2 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import coherence_kit
        import coherence_kit.cli  # noqa: F401  (the CLI module is not imported by the package)
    except ImportError as err:
        print(f"cannot import coherence_kit from {SRC}: {err}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(coherence_kit.__file__).startswith(SRC + os.sep):
        print(f"coherence_kit resolved outside {SRC}: {coherence_kit.__file__}", file=sys.stderr)
        sys.exit(2)
    return coherence_kit


class Tally:
    """Op times by kind, each block's median op time, and op outcomes, of
    one pass.

    Times are normalised (``hostspeed.normalise``); ``probe`` is the last
    host speed reading, the left bracket of the next ops.
    """

    def __init__(self, probe: float):
        self.probe = probe
        self.makeup: list[str] = []  # op names of one block, in order
        self.op_times: dict[str, list[float]] = {}
        self.block_p50s: list[float] = []
        self.setup: dict = {}
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []


def run_block(ops, tally: Tally, tracer=None) -> None:
    times = []
    segment = []  # wall times of the ops since the last probe
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = tally.attempted
        error = None
        start = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.call(f"op.{op.name}", op.run)
        except Exception as err:  # the op crashed: judged below like a failed check
            error = f"{type(err).__name__}: {err}"
        segment.append(time.perf_counter() - start)
        if error is None:
            try:
                op.check(Checker(), out)
            except Wrong as err:
                error = str(err)
        tally.attempted += 1
        if error is not None:
            if op.fault:
                tally.failed += 1
            else:
                tally.wrong.append(f"{op.name}: {error}")
        if sum(segment) >= PROBE_EVERY or i == len(ops) - 1:
            before, tally.probe = tally.probe, hostspeed.probe()
            times.extend(hostspeed.normalise(t, before, tally.probe) for t in segment)
            segment = []
    if tracer is not None:
        tracer.op = None
    tally.makeup = [op.name for op in ops]
    for op, t in zip(ops, times):
        tally.op_times.setdefault(op.name, []).append(t)
    tally.busy += sum(times)
    tally.block_p50s.append(statistics.median(times))


def trimmed_mean(values: list[float], cut: float = TRIM) -> float:
    """Mean of the values left after dropping the lowest and highest ``cut``."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k : len(ordered) - k])


def typical_rate(tally: Tally) -> float:
    """Ops per second of a block in which every op takes its kind's typical
    time over the run (``trimmed_mean``)."""
    return len(tally.makeup) / sum(trimmed_mean(tally.op_times[name]) for name in tally.makeup)


def import_seconds(env) -> float:
    """Median time to import coherence_kit.cli in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=dict(env, PYTHONPATH=SRC),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seconds: float, t0: float, probe0: float) -> tuple[Tally, float]:
    for op in workload.warmup():
        op.run()
    setup_wall = time.monotonic() - t0
    tally = Tally(hostspeed.probe(hostspeed.SETUP_REPEATS))
    setup_s = hostspeed.normalise(setup_wall, probe0, tally.probe)
    tally.setup = {"wall_s": setup_wall, "probe0_s": probe0, "probe1_s": tally.probe}
    start = time.perf_counter()
    walls: list[float] = []
    block = 0
    while True:
        began = time.perf_counter()
        run_block(workload.block(block), tally)
        walls.append(time.perf_counter() - began)
        block += 1
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return tally, setup_s


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """Typical block throughput and median op time, at the reference speed."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(typical_rate(tally), "ops/s"),
        "op_p50_ms": metric(1000.0 * statistics.median(tally.block_p50s), "ms"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }


def traced(workload, seconds: float, trace_path: str) -> tuple[Tally, dict]:
    from tracing import Tracer  # untraced runs do not pay for importing it

    blocks = max(1, round(seconds / (TRACE_SHARE * workload.block_seconds)))
    for op in workload.warmup():
        op.run()
    plain = Tally(hostspeed.probe())
    for b in range(blocks):
        run_block(workload.block(b), plain)
    tracer = Tracer()
    tracer.install()
    try:
        seen = Tally(hostspeed.probe())
        for b in range(blocks):
            run_block(workload.block(b), seen, tracer)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    if (seen.attempted, seen.failed) != (plain.attempted, plain.failed):
        seen.wrong.append(
            f"traced pass attempted/failed {seen.attempted}/{seen.failed}, "
            f"untraced {plain.attempted}/{plain.failed}"
        )
    seen.wrong.extend(plain.wrong)
    layers = {name: metric(v, unit) for name, (v, unit) in tracer.layer_metrics().items()}
    layers["cli.import_s"] = metric(import_seconds(os.environ), "s")
    layers["trace.ops_per_s"] = metric(seen.attempted / seen.busy, "ops/s")
    layers["trace.untraced_ops_per_s"] = metric(plain.attempted / plain.busy, "ops/s")
    layers["trace.overhead"] = metric(seen.busy / plain.busy, "ratio")
    return seen, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--probe0", type=float, default=None)
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    probe0 = hostspeed.probe(hostspeed.SETUP_REPEATS) if args.probe0 is None else args.probe0
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    ck = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ck, args.seed, workdir)
        if args.trace:
            tally, metrics = traced(workload, args.seconds, os.path.join(OUT, f"trace-{tag}.jsonl"))
        else:
            tally, setup_s = measure(workload, args.seconds, t0, probe0)
            metrics = end_to_end(tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in tally.wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = {"block_op_p50_ms": [1000.0 * t for t in tally.block_p50s], "op_times_s": tally.op_times, "setup": tally.setup}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, detail=detail), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
