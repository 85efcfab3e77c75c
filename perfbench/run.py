"""The repository benchmark: four workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_attack --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload shard_attack --seed 1 --seconds 20 --trace 1

Each invocation runs one workload in one process, single-threaded
(``workers=1``, no reader threads), through the package's public entry
points only: :func:`repro.scenarios.run_scenario` and
``QueryService.ingest`` / ``QueryService.query``.  The seed makes the
inputs; the same seed gives the same inputs and the same outputs.

Workloads (chosen so each stresses a different layer):

``paper_attack``
    Ten single-site scenarios: the paper's attacks (``prefix_flood``,
    ``bisection_probe``, ``reservoir_eviction``, ``heavy_hitter_spoof``,
    ``quantile_shift``, the two campaigns) and three single-site defenses.
    Adversary planning and judging dominate; no sharding, no window.
``window_attack``
    ``sliding_window_burst`` and ``difference_estimator_defense`` at two
    trials each (five would make a pass about 8 s, too long for a run to
    hold enough passes): the sliding-window sampler kernel dominates; no
    sharding.
``shard_attack``
    Six sharded scenarios (hotspots, faults, reshards, a stale
    coordinator): coordinator merged reads dominate; no sliding window.
``serve_mixed``
    A closed loop from one thread over a ``QueryService`` on a 4-site
    hash-routed reservoir deployment (capacity 512, universe 4096,
    ``staleness_rounds=2048``): ingest a 1024-round chunk, then 4 queries
    rotating quantile / heavy hitters / discrepancy, every 8th one
    ``fresh=True``.  Writes beside reads: the sharded ``extend`` kernel and
    snapshot publishing, merging only at publish time and on fresh reads.

A *pass* is a fixed amount of work: every scenario of the workload once,
or 2^20 rounds (4096 queries) of ``serve_mixed``.  After a small warm-up
pass the benchmark runs passes, with one set-up probe after each, for as
long as one more pass still fits in ``--seconds``.

Every pass makes the same timed calls in the same order, so each call's
time is taken as its median over the run's passes.  Times are scaled to a
nominal host speed: shared hosts slow a CPU down by up to 2x, in bursts
from a fraction of a second to minutes, so while a pass runs a 10 ms timer
interrupts it to time a fixed reference kernel, the pass's clock leaves
those interruptions out, and each call's time is scaled by the kernel's
speed during it, to a power fitted per workload (``Speedometer``).  Before
each pass the process is pinned to whichever allowed CPU currently runs a
short loop fastest.

End-to-end metrics (``--trace 0``; every workload prints all of them):

``setup_s`` (s)
    Median, over the run's set-up probes (at least 5), of the time from
    starting a fresh process to its first timed call: imports, registry
    lookup, input and deployment construction.  Each probe is scaled by
    the reference kernel timed just before and after it.
``rounds_per_s`` (rounds/s)
    Scenario workloads: adversarial game rounds (cells × trials × stream
    length) per second spent in ``run_scenario``.  ``serve_mixed``:
    rounds ingested per second spent in ``ingest``.
``op_p50_ms`` / ``op_p99_ms`` (ms)
    Latency of each timed public call: one ``run_scenario`` call on the
    scenario workloads, one ``query`` call on ``serve_mixed``.  The
    median and the nearest-rank 99th percentile over a pass's calls.  A
    scenario pass makes 2 to 10 calls, so there ``op_p99_ms`` is the
    slowest scenario's latency; a ``serve_mixed`` pass makes 4096, so 40
    lie beyond its 99th percentile.
``peak_rss_mb`` (MB)
    Maximum resident set size of the workload process.

Correctness: every scenario result is digested
(``ScenarioResult.to_dict(include_timing=False)``) and must equal the first
pass's digest and, on the seed recorded in ``reference.json``, the stored
digest.  ``serve_mixed`` checks each discrepancy answer lies in [0, 1], that
no query raises, that the ingested rounds equal the input length, and
digests the final sample the same way.  A mismatch is a failed operation:
the last line reports ``attempted``, ``failed`` and ``correct``.

``--trace 1`` reports per-layer metrics instead (see ``spans.py``): it
alternates untraced and traced passes, wrapping each layer's public
boundary from this directory only while a traced pass runs, and writes the
spans to ``perfbench/out/``.  ``_s`` metrics are self time per pass
(median over traced passes); counts are per pass and must repeat exactly;
``trace.overhead_ratio`` is traced over untraced pass wall time.

``repro.bench`` (the ``bench`` CLI verb) and ``benchmarks/bench_perf_*.py``
time single kernels once each; this benchmark times whole user-facing runs
with repeats and checks their outputs.  It leaves those files as they are.

``--scale tiny`` shrinks every pass (one trial per scenario, 64 serve
chunks) for the harness's own tests: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import numpy as np

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
MIN_SETUP_PROBES = 5
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
PROBE_TIMEOUT = 120
#: What the reference kernel is taken to last on the nominal host (a quiet
#: 2-vCPU x86 VM); every reported time is scaled to it (see ``Speedometer``).
REFERENCE_KERNEL_S = 0.0003
SPEEDOMETER_PERIOD_S = 0.01
#: ``workloads.SENSITIVITY`` for set-up probes (fitted the same way).
SETUP_SENSITIVITY = 0.75
_KERNEL_DATA = np.arange(256, dtype=np.float64)
_KERNEL_PAIRS = [(i, (i * 7919) % 1009 / 1009) for i in range(64)]


def reference_kernel() -> float:
    """Fixed work in the workloads' mix: dict updates, scalar reads of a
    numpy array, small numpy calls, and generator scans and a sort over a
    list of tuples.  It never changes: it is the yardstick for the host's
    current speed.
    """
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(500):
        key = (i * 7919) & 255
        counts[key] = counts.get(key, 0) + 1
        total += float(_KERNEL_DATA[key])
        if i % 64 == 0:
            total += float(np.cumsum(_KERNEL_DATA).max()) + float(np.sort(_KERNEL_DATA)[key])
    for pivot in _KERNEL_PAIRS[:20]:
        total += sum(1 for pair in _KERNEL_PAIRS if pair[1] < pivot[1])
    total += sorted(_KERNEL_PAIRS, key=lambda pair: pair[1])[0][1]
    return total + len(counts)


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed_scale(kernel_s: float, sensitivity: float) -> float:
    """Factor taking the time of a call with ``sensitivity``, measured while
    the reference kernel took ``kernel_s``, to its time on the nominal host."""
    return (REFERENCE_KERNEL_S / kernel_s) ** sensitivity


class Speedometer(wl.Meter):
    """Samples the host's speed during a pass and scales its times to it.

    Shared hosts slow a CPU down by up to 2x, in bursts from a fraction of
    a second to minutes.  While a pass runs, a wall-clock timer interrupts
    it every ``SPEEDOMETER_PERIOD_S`` to time the reference kernel; the
    pass's clock leaves that time out.  A call's time, scaled by
    ``speed_scale`` of the median kernel time over the samples taken in its
    segment (and the one just before and after) and of the workload's
    sensitivity, reads as its time on the nominal host.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.kernel: list[float] = []
        self.marks: list[int] = []
        self._previous: Any = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        self.marks.append(len(self.kernel))
        return len(self.marks) - 1

    def _sample(self, *_: Any) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.kernel.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> Speedometer:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEEDOMETER_PERIOD_S, SPEEDOMETER_PERIOD_S)
        return self

    def __exit__(self, *_: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def segment_kernel(self, segment: int) -> float:
        window = self.kernel[max(0, self.marks[segment] - 1) : self.marks[segment + 1] + 1]
        return statistics.median(window)

    def normalise(self, record: wl.PassRecord,
                  sensitivity: tuple[float, float]) -> wl.PassRecord:
        """``record`` with its work and latency calls scaled to the nominal
        host by their respective sensitivities."""
        kernel = [self.segment_kernel(segment) for segment in range(len(self.marks) - 1)]
        work = [(rounds, seconds * speed_scale(kernel[segment], sensitivity[0]))
                for (rounds, seconds), segment in zip(record.work, record.work_segments)]
        latencies = [seconds * speed_scale(kernel[segment], sensitivity[1])
                     for seconds, segment in zip(record.latencies, record.latency_segments)]
        return wl.PassRecord(work, latencies, record.digests, record.wall,
                             record.work_segments, record.latency_segments)


def probe_setup(name: str, seed: int, scale: str) -> float:
    """Time from spawning a fresh process to its ``ready`` line, scaled by
    the reference kernel timed just before and after it."""
    command = [sys.executable, str(HERE / "workloads.py"), name, str(seed), scale]
    kernel_before = min(time_kernel() for _ in range(5))
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
        assert probe.stdout is not None
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.communicate(timeout=PROBE_TIMEOUT)
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {probe.returncode})")
    kernel_after = min(time_kernel() for _ in range(5))
    return elapsed * speed_scale((kernel_before + kernel_after) / 2, SETUP_SENSITIVITY)


def load_reference(seed: int, scale: str, path: Path = REFERENCE) -> dict[str, str]:
    """Stored digests when ``seed`` is the recorded one, else nothing."""
    recorded = json.loads(path.read_text())
    if seed != recorded["seed"]:
        return {}
    return dict(recorded["digests"][scale])


class Checker:
    """Compares each pass's digests with the reference and the first pass."""

    def __init__(self, ops: wl.OpLog, expected: dict[str, str]) -> None:
        self.ops = ops
        self.expected = expected

    def check(self, record: wl.PassRecord) -> wl.PassRecord:
        for key, value in record.digests.items():
            want = self.expected.setdefault(key, value)
            self.ops.record(value == want, f"{key}: digest {value[:12]} != {want[:12]}")
        return record


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    return time.perf_counter() - start


def pin_fastest_cpu(cpus: set[int]) -> None:
    """Pin the process to whichever allowed CPU runs a short loop fastest.

    Shared hosts slow single CPUs down for seconds at a time (a busy
    hyperthread sibling); moving a pass off such a CPU keeps that noise out
    of the figures.
    """
    if len(cpus) < 2 or not hasattr(os, "sched_setaffinity"):
        return
    speed = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.__getitem__)})


def run_pass(workload: Any, ops: wl.OpLog, meter: wl.Meter | None = None) -> wl.PassRecord:
    gc.collect()
    pin_fastest_cpu(CPUS)
    return workload.run_pass(ops, meter)


def warm_up(name: str, seed: int) -> None:
    """One tiny pass so lazy imports and first-use caches are filled."""
    with Speedometer() as meter:
        run_pass(wl.build(name, seed, "tiny"), wl.OpLog(), meter)


def laps(seconds: float) -> Iterator[None]:
    """Yield once per lap, at least once, while one more lap as long as
    the last still ends within ``seconds`` of the start."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def per_call(rows: list[list[float]]) -> list[float]:
    """Each timed call's median time over the run's passes (NaN where it
    raised on every pass); row ``i`` holds pass ``i``'s calls in order."""
    out = []
    for column in zip(*rows):
        done = [t for t in column if not math.isnan(t)]
        out.append(wl.median(done) if done else math.nan)
    return out


def summarise(passes: list[wl.PassRecord]) -> dict[str, float]:
    """Throughput and latency percentiles from each call's median time."""
    rounds = [r for r, _ in passes[0].work]
    work = [(r, s) for r, s in zip(rounds, per_call([[s for _, s in p.work] for p in passes]))
            if not math.isnan(s)]
    latencies = [t for t in per_call([p.latencies for p in passes]) if not math.isnan(t)]
    if not work or not latencies:
        raise RuntimeError("every timed call raised")
    return {
        "rounds_per_s": sum(r for r, _ in work) / sum(s for _, s in work),
        "op_p50_ms": wl.median(latencies) * 1e3,
        "op_p99_ms": wl.nearest_rank(latencies, 0.99) * 1e3,
    }


def end_to_end(name: str, seed: int, seconds: float, scale: str,
               ops: wl.OpLog, checker: Checker) -> dict[str, float]:
    workload = wl.build(name, seed, scale)
    warm_up(name, seed)
    passes: list[wl.PassRecord] = []
    setups: list[float] = []
    for _ in laps(seconds):
        with Speedometer() as meter:
            raw = checker.check(run_pass(workload, ops, meter))
        passes.append(meter.normalise(raw, wl.SENSITIVITY[name]))
        print(f"# pass: raw {raw.rounds_per_s:.4g} rounds/s, normalised "
              f"{passes[-1].rounds_per_s:.4g}, {len(meter.kernel)} kernel samples, median "
              f"{wl.median(meter.kernel) * 1e3:.3f} ms")
        # Set-up probes are spread over the run, between passes, so a
        # passing slowdown of the machine touches few of them.
        setups.append(probe_setup(name, seed, scale))
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(probe_setup(name, seed, scale))
    print("# set-up s by probe:", " ".join(f"{s:.3f}" for s in setups))
    return {
        "setup_s": wl.median(setups),
        **summarise(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(name: str, seed: int, seconds: float, scale: str,
              ops: wl.OpLog, checker: Checker) -> dict[str, float]:
    workload = wl.build(name, seed, scale)
    warm_up(name, seed)
    untraced: list[float] = []
    traced: list[float] = []
    recorders: list[spans.SpanRecorder] = []
    for _ in laps(seconds):
        untraced.append(checker.check(run_pass(workload, ops)).wall)
        recorder = spans.SpanRecorder()
        with spans.Tracer(recorder):
            traced.append(checker.check(run_pass(workload, ops)).wall)
        recorders.append(recorder)
    figures = [spans.layer_metrics(recorder) for recorder in recorders]
    for later in figures[1:]:
        for counter in spans.COUNTERS:
            ops.record(
                later[counter] == figures[0][counter],
                f"counter {counter} changed between traced passes",
            )
    metrics: dict[str, float] = {
        key: figures[0][key] if key in spans.COUNTERS else wl.median([f[key] for f in figures])
        for key in figures[0]
    }
    metrics["trace.overhead_ratio"] = wl.median(traced) / wl.median(untraced)
    path = HERE / "out" / f"spans-{name}-seed{seed}.npz"
    spans.write_spans(path, recorders)
    print(f"# spans of {len(recorders)} traced passes written to {path}")
    print("# self time per traced pass, by span name:")
    table = spans.per_name(recorders[-1])
    for span, (self_s, calls, _) in sorted(table.items(), key=lambda kv: -kv[1][0]):
        print(f"#   {span:24s} {self_s:10.4f} s  {calls:9d} calls")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=wl.SCALES, default="default")
    args = parser.parse_args(argv)
    wl.use_checkout_source()

    ops = wl.OpLog()
    checker = Checker(ops, load_reference(args.seed, args.scale))
    run = per_layer if args.trace else end_to_end
    metrics = run(args.workload, args.seed, args.seconds, args.scale, ops, checker)
    units = spans.LAYER_METRICS if args.trace else END_TO_END
    for problem in ops.problems:
        print(f"# FAILED: {problem}")
    for key, unit in units.items():
        print(f"# {args.workload} {key} = {metrics[key]:.6g} {unit}")
    print(f"# {args.workload} error_rate = {ops.failed / max(1, ops.attempted):.6g} ratio")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
