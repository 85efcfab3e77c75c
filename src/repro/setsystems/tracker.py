"""Incremental discrepancy tracking for checkpoint-heavy game loops.

The continuous adaptive game (Figure 2 of the paper) judges the maintained
sample against *many* prefixes of the stream.  Recomputing
:meth:`SetSystem.max_discrepancy` from scratch at every checkpoint re-sorts
the entire stream prefix, which costs ``O(checkpoints * n log n)`` over a
game — the dominant cost of the continuous experiments at scale.

A :class:`DiscrepancyTracker` removes that cost for the systems over an
integer universe ``{1, ..., N}`` (prefixes, intervals, singletons): it
maintains the stream's per-value counts online, so each inserted stream
element costs ``O(1)``, and a checkpoint query is one vectorised pass over
the count arrays (``O(N + k)`` for a size-``k`` sample) instead of a sort of
the whole prefix.  The pass hands the density difference at every universe
value to the system's own
:meth:`~repro.setsystems.base.IntegerUniverseSystem.worst_range`, the
reduction the prefix and interval batch sweeps also call.  The reported
error is **bit-identical** to the batch :meth:`SetSystem.max_discrepancy`
recomputation: both paths divide exact integer counts by the exact stream /
sample lengths, in the same order.

Trackers are obtained through :meth:`SetSystem.make_tracker`, which returns
``None`` for systems without an incremental algorithm; callers (notably
:func:`repro.adversary.run_continuous_game`) fall back to the batch path in
that case.  A tracker that encounters an element it cannot index (outside the
universe, non-integral, or astronomically large) raises
:class:`~repro.exceptions.TrackerUnsupportedError`; the game runner catches
it and falls back to the batch path mid-stream, so correctness never depends
on the tracker.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from ..exceptions import (
    ConfigurationError,
    EmptySampleError,
    TrackerUnsupportedError,
)
from .base import DiscrepancyResult, IntegerUniverseSystem

__all__ = ["DiscrepancyTracker"]


class DiscrepancyTracker:
    """Online view of one stream's discrepancy for one integer-universe system.

    The protocol is deliberately small:

    * :meth:`add` ingests the next stream element (``O(1)``), and
      :meth:`add_batch` a batch of them;
    * :meth:`checkpoint` answers "what is the worst-range discrepancy between
      the stream so far and this sample snapshot?" without touching the raw
      stream again;
    * :meth:`reset` forgets everything so the tracker can replay a new game.

    The stream side is a dense ``int64`` count array indexed by value.
    Universes too large for a dense array (e.g. the ``2^Θ(n)``-sized
    universes of the Figure-3 attack) are declined by
    :meth:`supports_universe`, and the owning system then returns no
    tracker.

    The *sample* side is passed fresh at every checkpoint rather than being
    tracked through per-round updates: samples are small (``k ≪ n``) and
    samplers are free to mutate their state in ways no update log captures
    (sketch compactions, window evictions), so snapshot-based queries are the
    only contract that is safe for every :class:`~repro.samplers.base.StreamSampler`.
    """

    #: Largest universe for which a dense count array is considered cheap
    #: (two arrays of 2^24 int64 ≈ 256 MiB is already generous).
    MAX_DENSE_UNIVERSE = 1 << 24

    #: Universes at most this large always get a dense tracker: the count
    #: arrays are a few hundred KiB and a checkpoint cumsum is microseconds.
    ALWAYS_DENSE_UNIVERSE = 1 << 16

    def __init__(self, system: IntegerUniverseSystem) -> None:
        if system.universe_size > self.MAX_DENSE_UNIVERSE:
            raise ConfigurationError(
                f"universe size {system.universe_size} exceeds the dense-tracker limit "
                f"{self.MAX_DENSE_UNIVERSE}; use the batch discrepancy path"
            )
        self.system = system
        self.universe_size = system.universe_size
        self._values = range(1, self.universe_size + 1)
        self._counts = np.zeros(self.universe_size, dtype=np.int64)
        self._n = 0

    @classmethod
    def supports_universe(cls, universe_size: int, stream_length: int | None = None) -> bool:
        """True when a dense tracker is a sensible choice for this workload.

        A dense checkpoint costs ``O(N)``; the batch path costs
        ``O(n log n)`` per checkpoint.  For huge universes with short streams
        the batch path wins, so when the stream length is known the dense
        tracker is only chosen while ``N`` stays within a small multiple of
        ``n`` (small universes are always accepted — the arrays are tiny).
        """
        if not 1 <= universe_size <= cls.MAX_DENSE_UNIVERSE:
            return False
        if universe_size <= cls.ALWAYS_DENSE_UNIVERSE or stream_length is None:
            return True
        return universe_size <= 16 * stream_length

    # ------------------------------------------------------------------
    # Stream side
    # ------------------------------------------------------------------
    def _index(self, element: Any) -> int:
        """Map a universe element to its 0-based count index, or raise."""
        try:
            value = int(element)
        except (TypeError, ValueError, OverflowError) as exc:
            raise TrackerUnsupportedError(
                f"tracker for {self.system.name!r} cannot index {element!r}"
            ) from exc
        if value != element or not 1 <= value <= self.universe_size:
            raise TrackerUnsupportedError(
                f"element {element!r} is outside the integer universe "
                f"[1, {self.universe_size}]"
            )
        return value - 1

    def _indices(self, elements: Sequence[Any]) -> np.ndarray:
        """:meth:`_index` of every element of a non-empty sequence, as an array.

        A sequence of exact ``int`` takes one numpy conversion and one
        bounds check.  Anything else (bools, floats, numpy scalars, ints
        beyond ``int64``) and any out-of-universe value goes through
        :meth:`_index` element by element, so both paths accept, reject and
        report exactly what :meth:`_index` does.
        """
        if set(map(type, elements)) <= {int}:
            try:
                indices = np.array(elements, dtype=np.int64) - 1
            except OverflowError:
                pass
            else:
                # Negative indices wrap to values of at least 2^63 here.
                if int(indices.view(np.uint64).max()) < self.universe_size:
                    return indices
        return np.fromiter(
            (self._index(element) for element in elements),
            dtype=np.int64,
            count=len(elements),
        )

    def add(self, element: Any) -> None:
        """Ingest the next stream element.

        Raises
        ------
        TrackerUnsupportedError
            If the element cannot be indexed by this tracker.  The tracker's
            state is unchanged in that case, so callers can fall back to a
            batch recomputation from their own copy of the stream.
        """
        index = self._index(element)
        self._counts[index] += 1
        self._n += 1

    def add_batch(self, elements: Iterable[Any]) -> None:
        """Ingest a batch of stream elements; a rejected batch changes nothing."""
        if not isinstance(elements, Sequence):
            elements = list(elements)
        if not elements:
            return
        np.add.at(self._counts, self._indices(elements), 1)
        self._n += len(elements)

    def reset(self) -> None:
        """Forget all stream state so the tracker can serve a new game."""
        self._counts[:] = 0
        self._n = 0

    @property
    def stream_length(self) -> int:
        """Number of stream elements ingested so far."""
        return self._n

    # ------------------------------------------------------------------
    # Sample side
    # ------------------------------------------------------------------
    def _sample_counts(self, sample: Sequence[Any]) -> np.ndarray:
        """Dense per-value counts of a sample snapshot (validated)."""
        if len(sample) == 0:
            raise EmptySampleError("an empty sample is never an epsilon-approximation")
        return np.bincount(self._indices(sample), minlength=self.universe_size)

    def checkpoint(self, sample: Sequence[Any]) -> DiscrepancyResult:
        """Return the worst-range discrepancy of ``sample`` vs the stream so far.

        Agrees exactly (bit-for-bit on the error) with the system's
        :meth:`~repro.setsystems.base.SetSystem.max_discrepancy` applied to
        the same stream prefix and sample.
        """
        if self._n == 0:
            raise EmptySampleError("no stream elements have been ingested yet")
        stream_counts, sample_counts = self._counts, self._sample_counts(sample)
        if self.system.cumulative:
            stream_counts, sample_counts = np.cumsum(stream_counts), np.cumsum(sample_counts)
        difference = stream_counts / self._n - sample_counts / len(sample)
        return self.system.worst_range(self._values, difference)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(system={self.system.name!r}, n={self.stream_length})"
