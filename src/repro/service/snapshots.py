"""Versioned snapshots of a live sampler, with a bounded-staleness knob.

The always-on query service (ROADMAP item 1) must answer reads while
ingestion never pauses.  The expensive part of a read over a
:class:`~repro.distributed.sharded.ShardedSampler` is the coordinator merge;
PR 8 already memoises the merged view behind the deployment's version
counter, so a *fresh* read of an unchanged deployment is free.  What the
memoised view cannot do is serve a read while the deployment advances —
every shard advance invalidates it.  The :class:`SnapshotStore` adds the
missing degree of freedom: a ``staleness_rounds`` bound under which an
already-taken :class:`Snapshot` keeps being served even though ingestion
moved on, trading freshness for zero merge work (and zero [CTW16] messages)
on the read path.

Two behaviours from the fault layer are deliberately preserved by bypassing
the store's own cache:

* **exposure hooks** — samplers (or sharded sites) with an
  ``observe_exposure`` hook (sketch switching) must see every read;
  the store never caches for them, so each :meth:`SnapshotStore.read`
  delegates to ``sampler.sample`` and the hooks fire exactly as they would
  on a direct read;
* **stale windows** — during a :class:`~repro.distributed.faults.FaultPlan`
  staleness window the deployment itself serves its memoised pre-window
  view; the store delegates there too, so the fault plan (not the service
  knob) decides what a read observes.

The store is deliberately not thread-safe: the single-threaded
:class:`~repro.service.served.ServedSampler` uses it directly, and the
threaded :class:`~repro.service.live.QueryService` guards it with the
writer lock and publishes immutable snapshots for lock-free reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..exceptions import ConfigurationError
from ..samplers.base import StreamSampler
from ..schema import read_int

__all__ = ["Snapshot", "SnapshotStore"]


@dataclass(frozen=True)
class Snapshot:
    """One immutable published view of a live sampler.

    ``version`` is the underlying deployment's change counter when the
    snapshot was taken (for a :class:`ShardedSampler` the per-advance
    ``version`` property; plain samplers fall back to ``rounds_processed``).
    ``round_index`` is the number of stream rounds the snapshot reflects —
    the quantity the snapshot-consistency property is stated in: for an
    exact-merge family, ``sample`` equals the offline merged view of the
    first ``round_index`` rounds.
    """

    version: int
    round_index: int
    sample: tuple[Any, ...]

    @property
    def size(self) -> int:
        return len(self.sample)


def _exposure_tracked(sampler: StreamSampler) -> bool:
    """True when reads of ``sampler`` have side effects that must not be
    absorbed by a cache (the ``observe_exposure`` hook of sketch switching,
    directly or on any sharded site)."""
    if getattr(sampler, "observe_exposure", None) is not None:
        return True
    return any(
        getattr(site, "observe_exposure", None) is not None
        for site in getattr(sampler, "sites", ())
    )


class SnapshotStore:
    """Bounded-staleness snapshot cache over one live sampler.

    ``staleness_rounds`` is the service-level freshness contract: a read may
    be served from the held snapshot as long as the sampler has advanced at
    most that many rounds past it.  ``0`` (the default) means every read
    reflects all rounds ingested so far — the store then only de-duplicates
    the tuple copy, never the underlying merge (which the deployment's own
    version-memoised view already de-duplicates).
    """

    def __init__(self, sampler: StreamSampler, staleness_rounds: int = 0) -> None:
        staleness_rounds = read_int(staleness_rounds, "SnapshotStore", "staleness_rounds")
        if staleness_rounds < 0:
            raise ConfigurationError(
                f"staleness_rounds must be >= 0, got {staleness_rounds}"
            )
        self.sampler = sampler
        self.staleness_rounds = staleness_rounds
        # Whether reads have side effects is fixed for the sampler's
        # lifetime (reshards keep a deployment's site family), so it is
        # decided once; the stale-window check depends on the round.
        self._exposure_tracked = _exposure_tracked(sampler)
        self._snapshot: Snapshot | None = None
        self._refreshes = 0
        self._reads = 0
        self._max_staleness_served = 0

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read(self, fresh: bool = False) -> Snapshot:
        """Serve a snapshot, refreshing only when the staleness bound (or an
        exposure/stale-window bypass, or ``fresh=True``) requires it."""
        self._reads += 1
        held = self._snapshot
        if (
            fresh
            or held is None
            or self.must_bypass()
            or self.sampler.rounds_processed - held.round_index > self.staleness_rounds
        ):
            held = self.refresh()
        self._max_staleness_served = max(
            self._max_staleness_served,
            self.sampler.rounds_processed - held.round_index,
        )
        return held

    def refresh(self) -> Snapshot:
        """Unconditionally re-snapshot the sampler's current served view."""
        sampler = self.sampler
        snapshot = Snapshot(
            version=int(getattr(sampler, "version", sampler.rounds_processed)),
            round_index=sampler.rounds_processed,
            sample=tuple(sampler.sample),
        )
        self._snapshot = snapshot
        self._refreshes += 1
        return snapshot

    def must_bypass(self) -> bool:
        """True when reads must reach the sampler regardless of the bound
        (exposure-tracked deployments and active fault-plan stale windows)."""
        if self._exposure_tracked:
            return True
        plan = getattr(self.sampler, "fault_plan", None)
        return plan is not None and plan.is_stale(self.sampler.rounds_processed)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def held(self) -> Snapshot | None:
        """The currently held snapshot (``None`` before the first read)."""
        return self._snapshot

    def invalidate(self) -> None:
        """Drop the held snapshot (next read refreshes unconditionally)."""
        self._snapshot = None

    def stats(self) -> dict[str, int]:
        """Read/refresh accounting for reports and tests."""
        return {
            "reads": self._reads,
            "refreshes": self._refreshes,
            "max_staleness_served": self._max_staleness_served,
        }

    def reset(self) -> None:
        """Forget the snapshot and the accounting (sampler is untouched)."""
        self._snapshot = None
        self._refreshes = 0
        self._reads = 0
        self._max_staleness_served = 0
