"""Deterministic single-threaded service wrapper for the scenario engine.

:class:`ServedSampler` is the service layer as the *game* sees it: every
read of :attr:`sample` goes through a :class:`SnapshotStore`, so the
adversary (and the checkpoint bookkeeping) observes the bounded-stale
served view rather than the live state — which is exactly the new attack
surface the query-timing scenarios probe.  A background client population
is simulated deterministically: every ``query_period`` rounds, each of
``clients`` clients performs one read.  For exposure-tracked deployments
(sketch switching) those reads hit the sites' ``observe_exposure``
hooks, so a query flood genuinely drains the defense's switching budget.

Determinism contract (what keeps the registry-wide invariants green):

* the background read schedule is a pure function of the round index
  (reads fire after round ``r`` whenever ``r % query_period == 0``), never
  of the attack budget or the chunk size;
* :meth:`extend` segments batches at those tick rounds, so the chunked
  path performs byte-identical reads (and thus byte-identical merge-RNG
  consumption and exposure notifications) to the per-element path;
* snapshot refreshes are decided only by round arithmetic inside the
  store, so a fixed (seed, query schedule) pair replays bit-identically.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from ..exceptions import ConfigurationError
from ..samplers.base import SampleUpdate, StreamSampler, UpdateBatch
from ..schema import read_int
from .snapshots import SnapshotStore

__all__ = ["ServedSampler"]


class ServedSampler(StreamSampler):
    """Wrap a sampler so reads are served from a bounded-stale snapshot store.

    ``staleness_rounds`` bounds how far the served view may lag ingestion;
    ``clients``/``query_period`` describe the deterministic background read
    load (``clients=0`` disables it).  The wrapper is picklable as long as
    the inner sampler is, and delegates all state accounting to it.
    """

    def __init__(
        self,
        inner: StreamSampler,
        staleness_rounds: int = 0,
        clients: int = 0,
        query_period: int = 32,
    ) -> None:
        super().__init__()
        clients = read_int(clients, "ServedSampler", "clients")
        query_period = read_int(query_period, "ServedSampler", "query_period")
        if clients < 0:
            raise ConfigurationError(f"clients must be >= 0, got {clients}")
        if query_period < 1:
            raise ConfigurationError(f"query_period must be >= 1, got {query_period}")
        self._inner = inner
        self._clients = clients
        self._query_period = query_period
        self._store = SnapshotStore(inner, staleness_rounds)
        self._ticks = 0
        self.name = f"served-{inner.name}"

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def process(self, element: Any) -> SampleUpdate:
        update = self._inner.process(element)
        self._round = self._inner.rounds_processed
        self._maybe_tick()
        return update

    def _process(self, element: Any) -> SampleUpdate:  # pragma: no cover
        raise NotImplementedError("ServedSampler overrides process() directly")

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        if updates:
            # The columnar record needs per-element updates anyway, so the
            # per-element path (which ticks at exactly the right rounds) is
            # the natural implementation.
            return UpdateBatch.from_updates(
                self.process(element) for element in elements
            )
        items = list(elements)
        start = 0
        while start < len(items):
            # Segment the batch at the next background-query tick so the
            # chunked path reads (and consumes merge randomness / fires
            # exposure hooks) at byte-identical rounds to per-element.
            done = self._inner.rounds_processed
            next_tick = (done // self._query_period + 1) * self._query_period
            take = min(len(items) - start, next_tick - done)
            self._inner.extend(items[start : start + take], updates=False)
            start += take
            self._round = self._inner.rounds_processed
            self._maybe_tick()
        return None

    def _maybe_tick(self) -> None:
        if self._clients == 0:
            return
        if self._inner.rounds_processed % self._query_period != 0:
            return
        self._ticks += 1
        for _ in range(self._clients):
            self._store.read()

    # ------------------------------------------------------------------
    # Served state
    # ------------------------------------------------------------------
    @property
    def sample(self) -> tuple[Any, ...]:
        """The *served* sample: the store's bounded-stale snapshot view."""
        return self._store.read().sample

    @property
    def rounds_processed(self) -> int:
        return self._inner.rounds_processed

    @property
    def inner(self) -> StreamSampler:
        """The live sampler behind the service facade."""
        return self._inner

    @property
    def store(self) -> SnapshotStore:
        """The snapshot store (exposed for tests and reports)."""
        return self._store

    @property
    def version(self) -> int:
        """The inner deployment's change counter (rounds for plain samplers)."""
        return int(getattr(self._inner, "version", self._inner.rounds_processed))

    def service_report(self) -> dict[str, int]:
        """Background-load accounting: ticks plus the store's read stats."""
        report = dict(self._store.stats())
        report["ticks"] = self._ticks
        report["clients"] = self._clients
        report["query_period"] = self._query_period
        return report

    # ------------------------------------------------------------------
    # Delegated accounting
    # ------------------------------------------------------------------
    def memory_footprint(self) -> int:
        held = self._store.held
        return self._inner.memory_footprint() + (held.size if held is not None else 0)

    def degradation_report(self) -> dict[str, Any]:
        report = self._inner.degradation_report()
        report["service"] = self.service_report()
        return report

    def reset(self) -> None:
        self._inner.reset()
        self._store.reset()
        self._ticks = 0
        self._round = 0
