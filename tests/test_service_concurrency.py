"""Concurrency tests for the always-on query service.

Run under the CI ``service-stress`` matrix: ``REPRO_SERVICE_CLIENTS`` scales
the reader pool (1/4/16 threads) without touching the test code, and
``PYTHONFAULTHANDLER=1`` plus pytest-timeout turn a deadlock into a stack
dump instead of a hung job.

The two load-bearing properties:

* **snapshot consistency** — for an exact-merge family (Bernoulli, sliding
  window; deterministic merges that consume no randomness under hash
  routing), every snapshot a reader acquires at round ``r`` under concurrent
  ingest equals the offline merged view of an identically-seeded twin
  deployment fed exactly the first ``r`` rounds;
* **no torn reads** — the published (snapshot, counts) pair is swapped
  atomically, so a reader never observes a sample from one round paired
  with counts from another, and with a keep-everything sampler every
  acquired sample is exactly the ingested prefix.

A third pins the query kernels' shared sample index: readers racing on
fresh and published snapshots always get the reference kernels' answers.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro.distributed import ShardedSampler
from repro.samplers import BernoulliSampler, ReservoirSampler, SlidingWindowSampler
from repro.service import QueryService, ServiceReport, heavy_hitters, prefix_discrepancy, quantile

from query_reference import (
    identical,
    outcome,
    reference_heavy_hitters,
    reference_prefix_discrepancy,
    reference_quantile,
)

CLIENTS = int(os.environ.get("REPRO_SERVICE_CLIENTS", "4"))
JOIN_TIMEOUT = 30.0
UNIVERSE = 256


def _stream(n: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(1, UNIVERSE + 1, size=n)]


def _join_all(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
        assert not thread.is_alive(), f"thread {thread.name} failed to stop"


EXACT_MERGE_DEPLOYMENTS = {
    "bernoulli": lambda: ShardedSampler(
        4,
        lambda rng: BernoulliSampler(0.2, seed=rng),
        strategy="hash",
        seed=7,
    ),
    "sliding_window": lambda: ShardedSampler(
        4,
        lambda rng: SlidingWindowSampler(16, 2_048, seed=rng),
        strategy="hash",
        seed=7,
    ),
}


class TestSnapshotConsistency:
    @pytest.mark.parametrize("family", sorted(EXACT_MERGE_DEPLOYMENTS))
    def test_snapshots_under_concurrent_ingest_match_offline_replay(self, family):
        """Every snapshot acquired mid-ingest equals the offline merged view
        of the first ``round_index`` rounds — concurrency changes *when* a
        view is taken, never *what* it contains."""
        n, chunk = 12_000, 500
        data = _stream(n)
        service = QueryService(EXACT_MERGE_DEPLOYMENTS[family]())
        observed: list = []
        lock = threading.Lock()
        stop = threading.Event()

        def reader(index: int) -> None:
            while not stop.is_set():
                snapshot, _ = service.acquire(fresh=index % 2 == 0)
                with lock:
                    observed.append(snapshot)

        threads = [
            threading.Thread(target=reader, args=(index,), daemon=True,
                             name=f"consistency-reader-{index}")
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        try:
            for start in range(0, n, chunk):
                service.ingest(data[start : start + chunk])
        finally:
            stop.set()
        _join_all(threads)

        by_round = {snapshot.round_index: snapshot for snapshot in observed}
        assert by_round, "readers acquired no snapshots"
        # The writer lock serialises reads against ingest, so every snapshot
        # sits on a chunk boundary.
        assert all(round_index % chunk == 0 for round_index in by_round)
        for round_index, snapshot in sorted(by_round.items()):
            twin = EXACT_MERGE_DEPLOYMENTS[family]()
            twin.extend(data[:round_index], updates=False)
            assert tuple(twin.sample) == snapshot.sample, (
                f"{family} snapshot at round {round_index} diverges from the "
                "offline replay"
            )

    def test_versions_and_rounds_are_monotone_per_reader(self):
        n, chunk = 8_000, 400
        data = _stream(n, seed=3)
        service = QueryService(EXACT_MERGE_DEPLOYMENTS["bernoulli"]())
        stop = threading.Event()
        failures: list[str] = []

        def reader(index: int) -> None:
            last_round = -1
            while not stop.is_set():
                snapshot, _ = service.acquire()
                if snapshot.round_index < last_round:
                    failures.append(
                        f"reader {index} saw rounds go backwards: "
                        f"{last_round} -> {snapshot.round_index}"
                    )
                    return
                last_round = snapshot.round_index

        threads = [
            threading.Thread(target=reader, args=(index,), daemon=True,
                             name=f"monotone-reader-{index}")
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        try:
            for start in range(0, n, chunk):
                service.ingest(data[start : start + chunk])
        finally:
            stop.set()
        _join_all(threads)
        assert failures == []


class TestNoTornReads:
    def test_keep_everything_sampler_always_serves_an_exact_prefix(self):
        """With Bernoulli p=1.0 the sample *is* the stream prefix: any torn
        read — a sample from one round with counts from another, or a
        half-updated view — is directly visible as a prefix mismatch."""
        n, chunk = 20_000, 250
        data = [(index % UNIVERSE) + 1 for index in range(n)]
        service = QueryService(
            BernoulliSampler(1.0, seed=1), universe_size=UNIVERSE
        )
        stop = threading.Event()
        failures: list[str] = []
        checked = [0]
        lock = threading.Lock()

        def reader(index: int) -> None:
            while not stop.is_set():
                snapshot, counts = service.acquire(fresh=index % 2 == 0)
                rounds = snapshot.round_index
                if snapshot.size != rounds:
                    failures.append(
                        f"sample size {snapshot.size} != round {rounds}"
                    )
                    return
                if snapshot.sample != tuple(data[:rounds]):
                    failures.append(f"sample at round {rounds} is not the prefix")
                    return
                if int(counts.sum()) != rounds:
                    failures.append(
                        f"counts sum {int(counts.sum())} != round {rounds}: "
                        "snapshot and counts are torn"
                    )
                    return
                with lock:
                    checked[0] += 1

        threads = [
            threading.Thread(target=reader, args=(index,), daemon=True,
                             name=f"torn-reader-{index}")
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        try:
            for start in range(0, n, chunk):
                service.ingest(data[start : start + chunk])
        finally:
            stop.set()
        _join_all(threads)
        assert failures == []
        assert checked[0] > 0, "readers never completed a checked acquire"


class TestConcurrentQueryAnswers:
    def test_readers_always_get_the_reference_answers(self):
        """The kernels share one memoised sample index across threads; every
        answer a reader computes must equal the reference kernels' answer
        on the same acquired pair."""
        n, chunk = 20_480, 1_024
        data = _stream(n, seed=11)
        service = QueryService(
            ShardedSampler(
                4, lambda rng: ReservoirSampler(64, seed=rng),
                strategy="hash", seed=5,
            ),
            staleness_rounds=2_048,
            universe_size=UNIVERSE,
        )
        stop = threading.Event()
        mismatches: list[str] = []
        checked = [0]
        lock = threading.Lock()

        def reader(index: int) -> None:
            while not stop.is_set():
                snapshot, counts = service.acquire(fresh=index % 2 == 0)
                sample = snapshot.sample
                for kernel, reference, args in (
                    (quantile, reference_quantile, (sample, 0.5)),
                    (heavy_hitters, reference_heavy_hitters, (sample, 8)),
                    (prefix_discrepancy, reference_prefix_discrepancy, (sample, counts)),
                ):
                    got = outcome(kernel, *args)
                    expected = outcome(reference, *args)
                    if not identical(got, expected):
                        with lock:
                            mismatches.append(
                                f"{kernel.__name__} at round {snapshot.round_index}: "
                                f"{got!r} != {expected!r}"
                            )
                with lock:
                    checked[0] += 1

        threads = [
            threading.Thread(target=reader, args=(index,), daemon=True,
                             name=f"answer-reader-{index}")
            for index in range(CLIENTS)
        ]
        # A short switch interval preempts readers inside the kernels, so
        # they race on the memoised index rather than taking turns.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            try:
                for start in range(0, n, chunk):
                    service.ingest(data[start : start + chunk])
            finally:
                stop.set()
            _join_all(threads)
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []
        assert checked[0] > 0, "readers never completed a checked query"


class TestServeHarness:
    def test_serve_reports_latencies_and_bounded_staleness(self):
        n = 10_000
        data = _stream(n, seed=5)
        bound = 2_000
        service = QueryService(
            ShardedSampler(
                4, lambda rng: ReservoirSampler(64, seed=rng),
                strategy="hash", seed=2,
            ),
            staleness_rounds=bound,
            universe_size=UNIVERSE,
        )
        report = service.serve(
            data, chunk_size=500, clients=CLIENTS, adversarial_clients=1
        )
        assert isinstance(report, ServiceReport)
        assert report.rounds == n
        assert report.queries > 0
        assert report.query_p50 is not None
        assert report.query_p99 >= report.query_p50
        assert report.max_staleness_served <= bound
        assert report.final_sample_size > 0
        assert sum(report.per_kind.values()) == report.queries
        payload = report.to_dict()
        assert payload["rounds"] == n
        assert payload["queries"] == report.queries

    def test_adversarial_fresh_reads_observe_zero_staleness_rounds(self):
        """A fresh read always reflects every ingested round at the moment
        the lock is held — the adversary pays latency for freshness."""
        n = 6_000
        data = _stream(n, seed=9)
        service = QueryService(BernoulliSampler(1.0, seed=4))
        stop = threading.Event()
        failures: list[str] = []

        def adversary() -> None:
            while not stop.is_set():
                snapshot, _ = service.acquire(fresh=True)
                live = service.sampler.rounds_processed
                # rounds_processed can only have advanced since the acquire.
                if snapshot.round_index > live:
                    failures.append(
                        f"fresh snapshot at round {snapshot.round_index} is "
                        f"ahead of the live sampler at {live}"
                    )
                    return

        threads = [
            threading.Thread(target=adversary, daemon=True,
                             name=f"fresh-adversary-{index}")
            for index in range(max(1, CLIENTS // 2))
        ]
        for thread in threads:
            thread.start()
        try:
            for start in range(0, n, 300):
                service.ingest(data[start : start + 300])
        finally:
            stop.set()
        _join_all(threads)
        assert failures == []
