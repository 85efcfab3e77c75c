"""The always-on query service: ingestion never pauses, readers never block it.

Threading model (single-writer / reader-pool):

* **one writer** owns the sampler.  :meth:`QueryService.ingest` appends a
  chunk under the writer lock, maintains the true-count vector the
  discrepancy query needs, and — when the published snapshot has fallen
  more than ``staleness_rounds`` behind — refreshes and *publishes* a new
  immutable :class:`~repro.service.snapshots.Snapshot` (plus a counts copy)
  with a single attribute assignment;
* **N readers** answer quantile / heavy-hitter / discrepancy queries.  A
  reader whose freshness contract is met by the published snapshot touches
  no lock at all: it reads one attribute (atomic under the GIL), getting an
  immutable tuple that no writer action can mutate — there is no mid-merge
  state to tear.  Only a reader that *needs* a fresher view (the bound was
  exceeded, ``fresh=True``, or the deployment is exposure-tracked and every
  read must reach the sites) takes the lock and refreshes through the
  snapshot store, paying the merge the [CTW16] ledger accounts for.

The threaded service is wall-clock scheduled and therefore **not**
bit-reproducible; the deterministic facade the scenario engine uses is
:class:`~repro.service.served.ServedSampler`.  This module is the thing the
``repro-experiments serve`` CLI and the mixed read/write benchmarks drive.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..exceptions import ConfigurationError, EmptySampleError
from ..samplers.base import StreamSampler
from .queries import heavy_hitters, prefix_discrepancy, quantile
from .snapshots import Snapshot, SnapshotStore

__all__ = ["QueryService", "ServiceReport", "percentile"]

#: Reader cadence (seconds slept between queries).  Benign clients back off
#: enough that the writer keeps the GIL most of the time; the adversarial
#: client hammers much harder *and* forces a fresh snapshot every read,
#: maximising both observed staleness churn and lock pressure.
_BENIGN_SLEEP = 2e-3
_ADVERSARY_SLEEP = 2e-4

_JOIN_TIMEOUT = 30.0


def percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a latency sample (``q`` in (0, 1])."""
    if not latencies:
        raise EmptySampleError("percentile of an empty latency sample is undefined")
    if not 0.0 < q <= 1.0:
        raise ConfigurationError(f"percentile q must lie in (0, 1], got {q}")
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class ServiceReport:
    """Outcome of one :meth:`QueryService.serve` run."""

    rounds: int
    ingest_seconds: float
    clients: int
    adversarial_clients: int
    queries: int
    query_p50: float | None
    query_p99: float | None
    staleness_rounds: int
    max_staleness_served: int
    snapshot_refreshes: int
    final_sample_size: int
    per_kind: dict[str, int] = field(default_factory=dict)

    @property
    def ingest_throughput(self) -> float:
        return self.rounds / self.ingest_seconds if self.ingest_seconds > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "rounds": self.rounds,
            "ingest_seconds": round(self.ingest_seconds, 6),
            "ingest_throughput": round(self.ingest_throughput, 1),
            "clients": self.clients,
            "adversarial_clients": self.adversarial_clients,
            "queries": self.queries,
            "query_p50": None if self.query_p50 is None else round(self.query_p50, 6),
            "query_p99": None if self.query_p99 is None else round(self.query_p99, 6),
            "staleness_rounds": self.staleness_rounds,
            "max_staleness_served": self.max_staleness_served,
            "snapshot_refreshes": self.snapshot_refreshes,
            "final_sample_size": self.final_sample_size,
            "per_kind": dict(self.per_kind),
        }
        return payload

    def summary(self) -> str:
        p50 = "-" if self.query_p50 is None else f"{self.query_p50 * 1e3:.3f}ms"
        p99 = "-" if self.query_p99 is None else f"{self.query_p99 * 1e3:.3f}ms"
        return (
            f"served {self.queries} queries over {self.rounds} rounds "
            f"({self.ingest_throughput:,.0f} elem/s ingest, "
            f"{self.clients} clients, p50 {p50}, p99 {p99}, "
            f"max staleness {self.max_staleness_served} rounds)"
        )


class QueryService:
    """Concurrent read facade over one live sampler (or sharded deployment).

    ``universe_size`` enables the discrepancy query (the writer then
    maintains the true prefix counts); without it readers rotate between
    quantile and heavy-hitter queries only.
    """

    #: Query kinds a reader cycles through (discrepancy requires a universe).
    KINDS = ("quantile", "heavy_hitters", "discrepancy")

    def __init__(
        self,
        sampler: StreamSampler,
        staleness_rounds: int = 0,
        universe_size: int | None = None,
    ) -> None:
        if universe_size is not None and universe_size < 2:
            raise ConfigurationError(
                f"universe size must be >= 2, got {universe_size}"
            )
        self._lock = threading.Lock()
        self._store = SnapshotStore(sampler, staleness_rounds)  # guarded-by: _lock
        self._universe = universe_size
        self._counts = np.zeros(  # guarded-by: _lock
            1 if universe_size is None else universe_size + 1, dtype=np.int64
        )
        # One attribute, swapped atomically: (snapshot, counts-at-snapshot).
        self._published: tuple[Snapshot, np.ndarray] | None = None  # guarded-by: _lock
        # Best-effort max staleness observed on the lock-free read path (a
        # racing update may be lost; the metric only ever under-reports).
        self._max_published_staleness = 0

    @property
    def sampler(self) -> StreamSampler:
        return self._store.sampler

    @property
    def staleness_rounds(self) -> int:
        return self._store.staleness_rounds

    # ------------------------------------------------------------------
    # Writer path
    # ------------------------------------------------------------------
    def ingest(self, chunk: Sequence[Any]) -> None:
        """Append a chunk; republish the snapshot when the bound requires it.

        With a universe, the chunk must be one-dimensional with an integer
        inferred dtype and values in ``[1, universe_size]``; any other chunk
        is rejected before any state changes.  Inferring the dtype, rather
        than converting to ``int64``, refuses floats, strings, all-bool
        chunks and integers beyond ``int64`` instead of truncating, parsing
        or coercing them.
        """
        values: NDArray[np.int64] | None = None
        if self._universe is not None:
            inferred = np.asarray(chunk)
            if inferred.ndim != 1 or (inferred.size and inferred.dtype.kind not in "iu"):
                raise ConfigurationError(
                    f"chunk values must be integers in [1, {self._universe}], got "
                    f"a chunk of {inferred.dtype} with shape {inferred.shape}"
                )
            if inferred.size and (inferred.min() < 1 or inferred.max() > self._universe):
                raise ConfigurationError(
                    f"chunk values must lie in [1, {self._universe}], got "
                    f"[{inferred.min()}, {inferred.max()}]"
                )
            values = inferred.astype(np.int64, copy=False)
        with self._lock:
            self._store.sampler.extend(chunk, updates=False)
            if values is not None:
                self._counts += np.bincount(values, minlength=self._counts.shape[0])
            published = self._published
            behind = (
                published is None
                or self._store.sampler.rounds_processed - published[0].round_index
                > self._store.staleness_rounds
            )
            if behind and not self._store.must_bypass():
                self._publish_locked()

    def _publish_locked(self) -> Snapshot:
        snapshot = self._store.refresh()
        self._published = (snapshot, self._counts.copy())
        return snapshot

    # ------------------------------------------------------------------
    # Reader path
    # ------------------------------------------------------------------
    def acquire(self, fresh: bool = False) -> tuple[Snapshot, np.ndarray]:
        """Get a consistent (snapshot, counts) pair to answer a query from.

        Lock-free when the published pair satisfies the staleness bound;
        takes the writer lock to refresh otherwise.
        """
        published = self._published
        if (
            not fresh
            and published is not None
            and not self._store.must_bypass()
        ):
            observed = (
                self._store.sampler.rounds_processed - published[0].round_index
            )
            if observed <= self._store.staleness_rounds:
                if observed > self._max_published_staleness:
                    self._max_published_staleness = observed
                return published
        with self._lock:
            snapshot = self._store.read(fresh=fresh)
            self._published = (snapshot, self._counts.copy())
            return self._published

    def query(self, kind: str, q: float = 0.5, k: int = 8, fresh: bool = False) -> Any:
        """Answer one query against a consistent snapshot."""
        snapshot, counts = self.acquire(fresh=fresh)
        if kind == "quantile":
            return quantile(snapshot.sample, q)
        if kind == "heavy_hitters":
            return heavy_hitters(snapshot.sample, k)
        if kind == "discrepancy":
            if self._universe is None:
                raise ConfigurationError(
                    "discrepancy queries need the service built with a universe_size"
                )
            return prefix_discrepancy(snapshot.sample, counts)
        raise ConfigurationError(
            f"unknown query kind {kind!r}; expected one of {self.KINDS}"
        )

    # ------------------------------------------------------------------
    # Mixed read/write harness
    # ------------------------------------------------------------------
    def serve(
        self,
        stream: Iterable[Any],
        chunk_size: int = 1024,
        clients: int = 4,
        adversarial_clients: int = 1,
    ) -> ServiceReport:
        """Ingest ``stream`` while a reader pool queries concurrently.

        The writer runs on the calling thread; ``clients`` benign readers
        rotate through the query kinds at a gentle cadence, and
        ``adversarial_clients`` readers play the query-timing adversary:
        they force a fresh snapshot on every read (worst-case lock and merge
        pressure) as fast as the scheduler lets them.  Returns the latency
        and staleness accounting as a :class:`ServiceReport`.
        """
        if chunk_size < 1:
            raise ConfigurationError(f"chunk size must be >= 1, got {chunk_size}")
        if clients < 0 or adversarial_clients < 0:
            raise ConfigurationError("client counts must be >= 0")
        data = list(stream)
        stop = threading.Event()
        latencies: list[list[float]] = []
        kind_counts: list[dict[str, int]] = []
        threads: list[threading.Thread] = []
        kinds = self.KINDS if self._universe is not None else self.KINDS[:2]
        for index in range(clients + adversarial_clients):
            adversarial = index >= clients
            bucket: list[float] = []
            counts: dict[str, int] = {}
            latencies.append(bucket)
            kind_counts.append(counts)
            thread = threading.Thread(
                target=self._client_loop,
                args=(stop, kinds, index, adversarial, bucket, counts),
                name=f"service-client-{index}",
                daemon=True,
            )
            threads.append(thread)
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        try:
            for offset in range(0, len(data), chunk_size):
                self.ingest(data[offset : offset + chunk_size])
            ingest_seconds = time.perf_counter() - start
        finally:
            stop.set()
        for thread in threads:
            thread.join(timeout=_JOIN_TIMEOUT)
            if thread.is_alive():  # pragma: no cover - deadlock guard
                raise RuntimeError(f"service client {thread.name} failed to stop")
        all_latencies = [value for bucket in latencies for value in bucket]
        per_kind: dict[str, int] = {}
        for counts in kind_counts:
            for kind, count in counts.items():
                per_kind[kind] = per_kind.get(kind, 0) + count
        stats = self._store.stats()
        return ServiceReport(
            rounds=self._store.sampler.rounds_processed,
            ingest_seconds=ingest_seconds,
            clients=clients,
            adversarial_clients=adversarial_clients,
            queries=len(all_latencies),
            query_p50=percentile(all_latencies, 0.50) if all_latencies else None,
            query_p99=percentile(all_latencies, 0.99) if all_latencies else None,
            staleness_rounds=self._store.staleness_rounds,
            max_staleness_served=max(
                stats["max_staleness_served"], self._max_published_staleness
            ),
            snapshot_refreshes=stats["refreshes"],
            final_sample_size=len(self._store.sampler.sample),
            per_kind=per_kind,
        )

    def _client_loop(
        self,
        stop: threading.Event,
        kinds: Sequence[str],
        index: int,
        adversarial: bool,
        latencies: list[float],
        kind_counts: dict[str, int],
    ) -> None:
        cadence = _ADVERSARY_SLEEP if adversarial else _BENIGN_SLEEP
        issued = 0
        while not stop.is_set():
            kind = kinds[(index + issued) % len(kinds)]
            started = time.perf_counter()
            try:
                self.query(kind, fresh=adversarial)
            except EmptySampleError:
                # Nothing ingested yet (or the sample is transiently empty);
                # an unanswerable query is not a latency data point.
                time.sleep(cadence)
                continue
            latencies.append(time.perf_counter() - started)
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
            issued += 1
            time.sleep(cadence)
