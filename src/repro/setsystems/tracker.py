"""Incremental discrepancy tracking for checkpoint-heavy game loops.

The continuous adaptive game (Figure 2 of the paper) judges the maintained
sample against *many* prefixes of the stream.  Recomputing
:meth:`SetSystem.max_discrepancy` from scratch at every checkpoint re-sorts
the entire stream prefix, which costs ``O(checkpoints * n log n)`` over a
game — the dominant cost of the continuous experiments at scale.

A :class:`DiscrepancyTracker` removes that cost for the structured systems
over an integer universe ``{1, ..., N}`` (prefixes, intervals, singletons):
it maintains the stream's per-value counts online, so each inserted stream
element costs ``O(1)``, and a checkpoint query is a single vectorised
``cumsum`` over the count arrays (``O(N + k)`` for a size-``k`` sample)
instead of a sort of the whole prefix.  The arithmetic is arranged so that
the reported error is **bit-identical** to the batch
:meth:`SetSystem.max_discrepancy` recomputation: both paths divide exact
integer counts by the exact stream / sample lengths, in the same order.

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

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from ..exceptions import (
    ConfigurationError,
    EmptySampleError,
    TrackerUnsupportedError,
)
from .base import DiscrepancyResult

__all__ = [
    "DiscrepancyTracker",
    "DenseCountTracker",
    "PrefixDiscrepancyTracker",
    "IntervalDiscrepancyTracker",
    "SingletonDiscrepancyTracker",
]


class DiscrepancyTracker(ABC):
    """Online view of one stream's discrepancy structure for one set system.

    The protocol is deliberately small:

    * :meth:`add` ingests the next stream element (amortised ``O(1)``);
    * :meth:`checkpoint` answers "what is the worst-range discrepancy between
      the stream so far and this sample snapshot?" without touching the raw
      stream again;
    * :meth:`reset` forgets everything so the tracker can replay a new game.

    The *sample* side is passed fresh at every checkpoint rather than being
    tracked through per-round updates: samples are small (``k ≪ n``) and
    samplers are free to mutate their state in ways no update log captures
    (sketch compactions, window evictions), so snapshot-based queries are the
    only contract that is safe for every :class:`~repro.samplers.base.StreamSampler`.
    """

    #: Name of the set system this tracker serves (for diagnostics).
    system_name: str = "set-system"

    @abstractmethod
    def add(self, element: Any) -> None:
        """Ingest the next stream element.

        Raises
        ------
        TrackerUnsupportedError
            If the element cannot be indexed by this tracker.  The tracker's
            state is unchanged in that case, so callers can fall back to a
            batch recomputation from their own copy of the stream.
        """

    def add_batch(self, elements: Iterable[Any]) -> None:
        """Ingest a batch of stream elements (subclasses may vectorise)."""
        for element in elements:
            self.add(element)

    @abstractmethod
    def checkpoint(self, sample: Sequence[Any]) -> DiscrepancyResult:
        """Return the worst-range discrepancy of ``sample`` vs the stream so far.

        Must agree exactly (bit-for-bit on the error) with the owning
        system's :meth:`~repro.setsystems.base.SetSystem.max_discrepancy`
        applied to the same stream prefix and sample.
        """

    @abstractmethod
    def reset(self) -> None:
        """Forget all stream state so the tracker can serve a new game."""

    @property
    @abstractmethod
    def stream_length(self) -> int:
        """Number of stream elements ingested so far."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(system={self.system_name!r}, n={self.stream_length})"


class DenseCountTracker(DiscrepancyTracker):
    """Shared machinery for trackers over the integer universe ``{1, ..., N}``.

    Maintains a dense ``int64`` count array indexed by value.  Insertion is a
    single array increment; subclasses turn the counts into their system's
    discrepancy with one vectorised pass.  Universes too large for a dense
    array (e.g. the ``2^Θ(n)``-sized universes of the Figure-3 attack) are
    rejected at construction time by :meth:`supports_universe`, and the
    owning system then simply returns no tracker.
    """

    #: Largest universe for which a dense count array is considered cheap
    #: (two arrays of 2^24 int64 ≈ 256 MiB is already generous).
    MAX_DENSE_UNIVERSE = 1 << 24

    #: Universes at most this large always get a dense tracker: the count
    #: arrays are a few hundred KiB and a checkpoint cumsum is microseconds.
    ALWAYS_DENSE_UNIVERSE = 1 << 16

    def __init__(self, universe_size: int) -> None:
        if universe_size < 1:
            raise ConfigurationError(f"universe size must be >= 1, got {universe_size}")
        if universe_size > self.MAX_DENSE_UNIVERSE:
            raise ConfigurationError(
                f"universe size {universe_size} exceeds the dense-tracker limit "
                f"{self.MAX_DENSE_UNIVERSE}; use the batch discrepancy path"
            )
        self.universe_size = int(universe_size)
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
                f"tracker for {self.system_name!r} cannot index {element!r}"
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
        index = self._index(element)
        self._counts[index] += 1
        self._n += 1

    def add_batch(self, elements: Iterable[Any]) -> None:
        if not isinstance(elements, Sequence):
            elements = list(elements)
        if not elements:
            return
        np.add.at(self._counts, self._indices(elements), 1)
        self._n += len(elements)

    def reset(self) -> None:
        self._counts[:] = 0
        self._n = 0

    @property
    def stream_length(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Sample side
    # ------------------------------------------------------------------
    def _sample_counts(self, sample: Sequence[Any]) -> np.ndarray:
        """Dense per-value counts of a sample snapshot (validated)."""
        if len(sample) == 0:
            raise EmptySampleError("an empty sample is never an epsilon-approximation")
        return np.bincount(self._indices(sample), minlength=self.universe_size)

    def _cumulative_difference(self, sample: Sequence[Any]) -> np.ndarray:
        """``F_stream(v) - F_sample(v)`` for every universe value ``v``.

        Cumulative counts are exact ``int64``; each is divided by the exact
        length before subtracting, which is the same sequence of IEEE
        operations the batch :func:`_cumulative_difference` performs at its
        breakpoints — hence bit-identical errors.
        """
        if self._n == 0:
            raise EmptySampleError("no stream elements have been ingested yet")
        sample_counts = self._sample_counts(sample)
        stream_cdf = np.cumsum(self._counts) / self._n
        sample_cdf = np.cumsum(sample_counts) / len(sample)
        return stream_cdf - sample_cdf


class PrefixDiscrepancyTracker(DenseCountTracker):
    """Incremental worst-prefix discrepancy over ``{[1, b] : b in [N]}``."""

    system_name = "prefixes"

    def checkpoint(self, sample: Sequence[Any]) -> DiscrepancyResult:
        from .intervals import Prefix  # local import to avoid a cycle

        difference = self._cumulative_difference(sample)
        index = int(np.argmax(np.abs(difference)))
        return DiscrepancyResult(
            error=float(abs(difference[index])),
            witness=Prefix(index + 1),
            exact=True,
            ranges_examined=self.universe_size,
        )


class IntervalDiscrepancyTracker(DenseCountTracker):
    """Incremental worst-interval discrepancy over ``{[a, b] : a <= b in [N]}``."""

    system_name = "intervals"

    def checkpoint(self, sample: Sequence[Any]) -> DiscrepancyResult:
        from .intervals import Interval, Prefix  # local import to avoid a cycle

        difference = self._cumulative_difference(sample)
        # The density difference of the interval (a, b] is D(b) - D(a), with
        # D = 0 before the first universe value; same convention as the
        # batch path in intervals.IntervalSystem.max_discrepancy.
        padded = np.concatenate([[0.0], difference])
        max_index = int(np.argmax(padded))
        min_index = int(np.argmin(padded))
        error = float(padded[max_index] - padded[min_index])
        if error == 0.0:
            return DiscrepancyResult(
                error=0.0,
                witness=Prefix(1),
                exact=True,
                ranges_examined=self.universe_size + 1,
            )
        low_index, high_index = sorted((min_index, max_index))
        if low_index == 0:
            witness: Any = Prefix(high_index)
        else:
            witness = Interval(low_index + 1, high_index)
        return DiscrepancyResult(
            error=error,
            witness=witness,
            exact=True,
            ranges_examined=self.universe_size + 1,
        )


class SingletonDiscrepancyTracker(DenseCountTracker):
    """Incremental worst-singleton discrepancy over ``{{a} : a in [N]}``."""

    system_name = "singletons"

    def checkpoint(self, sample: Sequence[Any]) -> DiscrepancyResult:
        from .singletons import Singleton  # local import to avoid a cycle

        if self._n == 0:
            raise EmptySampleError("no stream elements have been ingested yet")
        sample_counts = self._sample_counts(sample)
        difference = self._counts / self._n - sample_counts / len(sample)
        index = int(np.argmax(np.abs(difference)))
        return DiscrepancyResult(
            error=float(abs(difference[index])),
            witness=Singleton(index + 1),
            exact=True,
            ranges_examined=self.universe_size,
        )
