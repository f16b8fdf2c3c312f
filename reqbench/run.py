"""Request-path benchmark: one closed-loop client, wall-clock time.

Usage, from the repository root::

    python3 reqbench/run.py --workload library_hot --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` cycles untraced, span-traced and obs-counted chunks of
requests: the traced chunks give the per-layer breakdown, and the
untraced and span-traced throughputs give ``trace.overhead``.  A table
with units and sample counts is printed first; the last line of
standard output is one JSON object.  The exit
code is non-zero when any reply disagrees with the reference model or a
durability audit fails.  See ``reqbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Requests run between clock checks (and between untraced and traced
#: chunks with ``--trace 1``).  Replies are checked between chunks,
#: outside the timed region.
CHUNK = 200
#: Independent set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: The timed chunks are cut into this many slices of about equal busy
#: time; each end-to-end timing is the median of its per-slice values,
#: so a stall of a few seconds on a shared machine moves one slice only.
SLICES = 5
#: A slice's p99 needs this many samples (ten beyond the percentile);
#: with fewer, p99 is taken over fewer, larger slices.
P99_SAMPLES = 1000
#: End-to-end metrics in the JSON result, each with a regression bound in
#: BENCHMARK.json.  The p99s are printed in the table only: on a shared
#: machine their run-to-run spread (fsync tails, GC pauses at the p99
#: edge) is wider than the largest bound the benchmark may set.
BOUNDED = ("throughput_rps", "read_p50_us", "write_p50_us", "setup_s",
           "peak_rss_mb")


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-quantile of ``values`` and the sample count."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered)


class Chunk:
    """Latencies of one timed chunk, in send order."""

    def __init__(self, busy_s: float) -> None:
        self.busy_s = busy_s
        self.read_s: list[float] = []
        self.write_s: list[float] = []


class Tally:
    """Outcomes and latencies of the requests of one phase."""

    def __init__(self) -> None:
        self.chunks: list[Chunk] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(c.busy_s for c in self.chunks)

    @property
    def read_s(self) -> list[float]:
        return [x for c in self.chunks for x in c.read_s]

    @property
    def write_s(self) -> list[float]:
        return [x for c in self.chunks for x in c.write_s]

    @property
    def completed(self) -> int:
        return sum(len(c.read_s) + len(c.write_s) for c in self.chunks)


def run_chunk(system: Any, ops: list, tally: Tally, recorder: Any = None,
              first_id: int = 0) -> None:
    """Send ``ops`` one after another; replies are checked afterwards."""
    execute = system.execute
    replies: list[Any] = []
    latencies: list[float] = []
    clock = time.perf_counter
    started = clock()
    if recorder is None:
        for op in ops:
            t0 = clock()
            reply = execute(op)
            latencies.append(clock() - t0)
            replies.append(reply)
    else:
        for i, op in enumerate(ops):
            recorder.request_id = first_id + i
            t0 = clock()
            index = recorder.begin("request")
            try:
                reply = execute(op)
            finally:
                recorder.end(index)
            latencies.append(clock() - t0)
            replies.append(reply)
        recorder.request_id = None
    chunk = Chunk(clock() - started)
    tally.chunks.append(chunk)
    for op, reply, latency in zip(ops, replies, latencies):
        tally.attempted += 1
        (chunk.read_s if op.is_read else chunk.write_s).append(latency)
        if not system.check(op, reply):
            tally.failed += 1
            tally.wrong.append(f"{op.op} {op.params!r}: {reply!r}"[:300])


def slices(chunks: list[Chunk], count: int) -> list[list[Chunk]]:
    """Consecutive chunks cut into ``count`` groups of about equal busy
    time (fewer when there are fewer chunks)."""
    total = sum(c.busy_s for c in chunks)
    groups: list[list[Chunk]] = [[] for _ in range(count)]
    elapsed = 0.0
    for chunk in chunks:
        groups[min(count - 1, int(elapsed / total * count))].append(chunk)
        elapsed += chunk.busy_s
    return [g for g in groups if g]


def sliced_percentile(chunks: list[Chunk], kind: str, q: float
                      ) -> tuple[float, int]:
    """Median over slices of the ``q``-quantile of ``kind`` latencies,
    and the total sample count."""
    n = sum(len(getattr(c, kind)) for c in chunks)
    count = SLICES if q <= 0.5 else max(1, min(SLICES, n // P99_SAMPLES))
    values = [
        percentile([x for c in group for x in getattr(c, kind)], q)[0]
        for group in slices(chunks, count)
        if any(getattr(c, kind) for c in group)
    ]
    return statistics.median(values), n


def build(workload: Any, inputs: Any, seed: int, workdir: Path,
          hook: Any) -> tuple[Any, float]:
    """One set-up: construct, pre-seed, log in, warm caches."""
    started = time.perf_counter()
    system = workload.system(inputs, seed, workdir, hook)
    warm = system.gen.warmup() if hasattr(system.gen, "warmup") else []
    warm += [system.gen.next() for _ in range(workload.warmup_ops)]
    tally = Tally()
    run_chunk(system, warm, tally)
    elapsed = time.perf_counter() - started
    if tally.failed:
        raise RuntimeError(f"warm-up replies disagree: {tally.wrong[:3]}")
    return system, elapsed


def end_to_end(tally: Tally, setup_times: list[float]) -> tuple[dict, list]:
    """Metrics (JSON form) and table rows (name, value, unit, samples)."""
    rates = [
        sum(len(c.read_s) + len(c.write_s) for c in group)
        / sum(c.busy_s for c in group)
        for group in slices(tally.chunks, SLICES)
    ]
    rows = [("throughput_rps", statistics.median(rates), "1/s",
             tally.completed)]
    for kind in ("read_s", "write_s"):
        for q in (0.5, 0.99):
            value, n = sliced_percentile(tally.chunks, kind, q)
            rows.append((f"{kind[:-2]}_p{round(q * 100)}_us", value * 1e6,
                         "us", n))
    rows.append(("setup_s", statistics.median(setup_times), "s",
                 len(setup_times)))
    rows.append(("peak_rss_mb",
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "MB", 1))
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _n in rows if name in BOUNDED}
    rows.append(("error_ratio", tally.failed / tally.attempted, "ratio",
                 tally.attempted))
    return metrics, rows


def measure(workload: Any, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[dict, list, Tally, list[str]]:
    from spans import FsyncHook, Patches, SpanRecorder
    import layers

    inputs = workload.make_inputs(seed)
    hook = FsyncHook()
    setup_times = []
    system = None
    for k in range(SETUPS):
        if system is not None:
            system.close()
            system = None
            shutil.rmtree(workdir / f"setup{k - 1}", ignore_errors=True)
        # Garbage of an earlier set-up must not be collected on the clock.
        gc.collect()
        system, elapsed = build(workload, inputs, seed, workdir / f"setup{k}",
                                hook)
        setup_times.append(elapsed)
    gc.collect()
    # Commit the metadata set-up left pending (removed set-ups) so the
    # first timed fsync does not pay for it.
    fd = os.open(workdir, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

    # With --trace 1 the chunks cycle: untraced, span-traced, and
    # obs-counted (repro.obs on, for rdb.rows_scanned).  Only the first
    # two are timed against --seconds and compared for trace.overhead.
    plain, traced, counted = Tally(), Tally(), Tally()
    recorder = SpanRecorder()
    patches = Patches(recorder, hook)
    probe = layers.Probe(system)
    phase = 0
    while plain.busy_s + traced.busy_s < seconds:
        ops = [system.gen.next() for _ in range(CHUNK)]
        kind = phase % 3 if trace else 0
        if kind == 1:
            probe.start()
            patches.install()
            try:
                run_chunk(system, ops, traced, recorder, traced.attempted)
            finally:
                patches.remove()
                probe.stop(ops)
        elif kind == 2:
            probe.obs_on()
            try:
                run_chunk(system, ops, counted)
            finally:
                probe.obs_off()
        else:
            run_chunk(system, ops, plain)
        phase += 1

    wrong = plain.wrong + traced.wrong + counted.wrong
    problems = [f"wrong reply: {w}" for w in wrong[:5]]
    if workload.durable:
        problems += system.audit()
    else:
        system.close()

    if not trace:
        metrics, rows = end_to_end(plain, setup_times)
        return metrics, rows, plain, problems
    metrics, rows, sample_problems = layers.per_layer(
        recorder.spans, probe, plain, traced)
    problems += sample_problems
    total = Tally()
    total.attempted = plain.attempted + traced.attempted + counted.attempted
    total.failed = plain.failed + traced.failed + counted.failed
    return metrics, rows, total, problems


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reqbench-", dir=scratch))
    try:
        metrics, rows, tally, problems = measure(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"({mode}, closed loop, 1 client)")
    print(f"{'metric':34} {'value':>14} {'unit':>8} {'samples':>9}")
    for name, value, unit, n in rows:
        print(f"{name:34} {value:14.4f} {unit:>8} {n:>9}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
