"""The four benchmark workloads, each driven through the package's public API.

Scenario workloads call :func:`repro.scenarios.run_scenario` with the seed
and ``workers=1``; ``serve_mixed`` drives one
:class:`repro.service.QueryService` through ``ingest`` and ``query`` from a
single thread.  A workload is built once (its set-up), then runs whole
*passes*: one pass is a fixed amount of work, so its outputs and the
per-layer counters of a traced pass are a pure function of the seed.

Running this file directly performs one workload's set-up and prints
``ready``; ``run.py`` times that from process start to measure ``setup_s``::

    python3 perfbench/workloads.py serve_mixed 1 default
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Single-site scenarios: the paper's own attacks plus three defenses.
PAPER_ATTACK = (
    "prefix_flood",
    "bisection_probe",
    "reservoir_eviction",
    "heavy_hitter_spoof",
    "quantile_shift",
    "spam_then_poison",
    "probe_then_strike",
    "oversample_defense",
    "sketch_switching_defense",
    "dp_aggregate_defense",
)
#: Sliding-window scenarios: the sampler kernel dominates, no sharding.
WINDOW_ATTACK = ("sliding_window_burst", "difference_estimator_defense")
#: Sharded scenarios: coordinator merged reads dominate, no sliding window.
SHARD_ATTACK = (
    "shard_hotspot",
    "sharded_prefix_flood",
    "cross_shard_skew",
    "hotspot_split_flood",
    "recovery_window_strike",
    "stale_coordinator_probe",
)
SCENARIO_WORKLOADS = {
    "paper_attack": PAPER_ATTACK,
    "window_attack": WINDOW_ATTACK,
    "shard_attack": SHARD_ATTACK,
}
#: Trials per scenario where the registered default makes a pass too long
#: for a run to hold enough passes for a steady median.
PASS_TRIALS = {"window_attack": 2}
SERVE_MIXED = "serve_mixed"
WORKLOADS = (*SCENARIO_WORKLOADS, SERVE_MIXED)
SCALES = ("default", "tiny")
#: How closely each workload's ``(work, latency)`` calls follow the host's
#: speed: a call's time scales as the harness's reference kernel time to
#: this power (``run.speed_scale``).  Fitted by regressing log call time on
#: log kernel time over minutes of passes on a 2-vCPU host whose speed swung
#: 2x: the sliding-window calls fit 0.58-0.66, the adversary and merge calls
#: 0.7-0.9, serve's numpy ingest 0.96 and its queries 0.69.
SENSITIVITY = {
    "paper_attack": (0.75, 0.75),
    "window_attack": (0.6, 0.6),
    "shard_attack": (0.75, 0.75),
    SERVE_MIXED: (0.95, 0.7),
}


class Meter:
    """The clock a pass times its calls with, and its segment marks.

    A pass calls ``mark`` at every segment boundary (before the first
    segment and after each one); it returns the index of the segment that
    starts there.  This plain meter reads wall time and ignores marks; the
    harness passes one that also tracks the host's speed.
    """

    def clock(self) -> float:
        return time.perf_counter()

    def mark(self) -> int:
        return 0


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Exits with status 1 (printing no result) when the checkout holds no
    source tree, so a copy of the benchmark alone fails instead of timing
    some other installed copy of the package.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def digest(payload: Any) -> str:
    """SHA-256 of a JSON rendering (sorted keys) of ``payload``."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile, as the service's own latency report uses."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class OpLog:
    """Operations attempted and failed over a whole invocation.

    A failed operation is one that raised or whose output failed a
    correctness check; it is recorded, never raised, so one bad answer
    cannot hide the rest of the run's figures.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


@dataclass
class PassRecord:
    """One pass's timed calls, listed in the same order on every pass.

    ``work`` holds ``(rounds, seconds)`` of each call that does the pass's
    rounds (a scenario run, an ingest); ``latencies`` holds the seconds of
    each call whose latency is reported (a scenario run, a query).  A call
    that raised is timed as NaN.  ``wall`` is the whole pass.
    ``work_segments`` and ``latency_segments`` give the segment (see
    :class:`Meter`) each of those calls ran in.
    """

    work: list[tuple[int, float]]
    latencies: list[float]
    digests: dict[str, str]
    wall: float
    work_segments: list[int]
    latency_segments: list[int]

    @property
    def rounds_per_s(self) -> float:
        done = [(rounds, seconds) for rounds, seconds in self.work if not math.isnan(seconds)]
        return sum(r for r, _ in done) / max(sum(s for _, s in done), 1e-12)


class ScenarioWorkload:
    """A fixed list of registered scenarios, run back to back per pass."""

    def __init__(self, name: str, seed: int, scale: str = "default") -> None:
        from repro.scenarios import get_scenario

        self.scenarios = SCENARIO_WORKLOADS[name]
        self.overrides: dict[str, Any] = {"seed": seed, "workers": 1}
        if scale == "tiny":
            self.overrides["trials"] = 1
        elif name in PASS_TRIALS:
            self.overrides["trials"] = PASS_TRIALS[name]
        # Registry lookup and config resolution are part of set-up.  A
        # scenario's rounds are cells (one per sampler) x trials x length.
        self.rounds = []
        for scenario in self.scenarios:
            config = get_scenario(scenario).base_config.replace(**self.overrides)
            self.rounds.append(len(config.samplers) * config.trials * config.stream_length)

    def run_pass(self, ops: OpLog, meter: Meter | None = None) -> PassRecord:
        """Each scenario call is a segment of its own."""
        from repro.scenarios import run_scenario

        latencies: list[float] = []
        segments: list[int] = []
        digests: dict[str, str] = {}
        meter = meter or Meter()
        clock = meter.clock
        started = clock()
        for scenario in self.scenarios:
            segments.append(meter.mark())
            before = clock()
            try:
                result = run_scenario(scenario, **self.overrides)
            except Exception:
                latencies.append(math.nan)
                ops.record(False, f"{scenario} raised:\n{traceback.format_exc()}")
                continue
            latencies.append(clock() - before)
            digests[scenario] = digest(result.to_dict(include_timing=False))
        meter.mark()
        return PassRecord(
            list(zip(self.rounds, latencies)), latencies, digests, clock() - started,
            segments, segments,
        )


def _reservoir_site(rng: Any) -> Any:
    from repro.samplers import ReservoirSampler

    return ReservoirSampler(ServeWorkload.CAPACITY, seed=rng)


class ServeWorkload:
    """Closed loop from one thread over a 4-site hash-routed deployment.

    Each step ingests one chunk, then issues ``QUERIES_PER_CHUNK`` queries
    rotating quantile / heavy-hitters / discrepancy; every
    ``FRESH_EVERY``-th query is ``fresh=True`` (the query-timing adversary,
    which forces a coordinator merge).  The input is drawn from the seed
    before any timing starts.
    """

    SITES = 4
    CAPACITY = 512
    UNIVERSE = 4096
    STALENESS = 2048
    CHUNK = 1024
    QUERIES_PER_CHUNK = 4
    FRESH_EVERY = 8
    SEGMENT_CHUNKS = 64
    CHUNKS = {"default": 1024, "tiny": 64}

    def __init__(self, seed: int, scale: str = "default") -> None:
        import numpy as np

        self.seed = seed
        rng = np.random.default_rng(seed)
        size = self.CHUNKS[scale] * self.CHUNK
        self.stream = rng.integers(1, self.UNIVERSE + 1, size=size, dtype=np.int64)
        # Deployment construction is part of set-up; later passes rebuild.
        self._built: Any = self.build_service()

    def build_service(self) -> Any:
        from repro.distributed import ShardedSampler
        from repro.service import QueryService

        deployment = ShardedSampler(
            self.SITES, _reservoir_site, strategy="hash", seed=self.seed
        )
        return QueryService(
            deployment, staleness_rounds=self.STALENESS, universe_size=self.UNIVERSE
        )

    def run_pass(self, ops: OpLog, meter: Meter | None = None) -> PassRecord:
        """Every ``SEGMENT_CHUNKS`` chunks, with their queries, are a segment."""
        service = self._built or self.build_service()
        self._built = None
        kinds = service.KINDS
        meter = meter or Meter()
        clock = meter.clock
        started = clock()
        work: list[tuple[int, float]] = []
        latencies: list[float] = []
        work_segments: list[int] = []
        latency_segments: list[int] = []
        issued = 0
        segment = 0
        for index, start in enumerate(range(0, len(self.stream), self.CHUNK)):
            if index % self.SEGMENT_CHUNKS == 0:
                segment = meter.mark()
            chunk = self.stream[start : start + self.CHUNK].tolist()
            before = clock()
            service.ingest(chunk)
            work.append((len(chunk), clock() - before))
            work_segments.append(segment)
            for _ in range(self.QUERIES_PER_CHUNK):
                kind = kinds[issued % len(kinds)]
                issued += 1
                fresh = issued % self.FRESH_EVERY == 0
                latency_segments.append(segment)
                before = clock()
                try:
                    answer = service.query(kind, fresh=fresh)
                except Exception:
                    latencies.append(math.nan)
                    ops.record(False, f"{kind} query raised:\n{traceback.format_exc()}")
                    continue
                latencies.append(clock() - before)
                if kind == "discrepancy":
                    ops.record(0.0 <= answer <= 1.0, f"discrepancy {answer} outside [0, 1]")
                else:
                    ops.record(True)
        ingested = service.sampler.rounds_processed
        ops.record(
            ingested == len(self.stream),
            f"ingested {ingested} rounds of a {len(self.stream)}-round input",
        )
        meter.mark()
        final = digest([int(x) for x in service.sampler.sample])
        return PassRecord(
            work, latencies, {SERVE_MIXED: final}, clock() - started,
            work_segments, latency_segments,
        )


def build(name: str, seed: int, scale: str = "default") -> ScenarioWorkload | ServeWorkload:
    if name == SERVE_MIXED:
        return ServeWorkload(seed, scale)
    return ScenarioWorkload(name, seed, scale)


if __name__ == "__main__":
    use_checkout_source()
    build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", flush=True)
