"""Streaming-sampler interfaces.

The adversarial game of the paper (Section 2) interacts with a sampler
through three operations: feed it the next element, observe its internal
state, and finally read out the sample.  :class:`StreamSampler` is that
contract.  Every concrete sampler also reports what happened on each step
(:class:`SampleUpdate`) so that game runners, martingale trackers and the
attacks themselves can react to acceptances and evictions without peeking at
private attributes.

Batch ingestion goes through :meth:`StreamSampler.extend`, which returns a
columnar :class:`UpdateBatch` instead of a ``list[SampleUpdate]``: the
per-round outcome of a whole segment lives in structure-of-arrays form
(NumPy arrays for round indices and acceptance flags, a sparse map for the
rare evictions), and per-element :class:`SampleUpdate` views are materialised
lazily only where a caller actually indexes or iterates the batch.  On
million-element streams this is what keeps the vectorised sampler kernels
from drowning in per-element record allocations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any, NamedTuple, Protocol, overload, runtime_checkable

import numpy as np
from numpy.typing import NDArray

from ..exceptions import ConfigurationError


class SampleUpdate(NamedTuple):
    """Outcome of feeding one element to a sampler.

    An immutable named tuple: a sampler builds one per ``process`` call, so
    it must be cheap to make (the hot paths pass the fields positionally).
    Being a tuple, it iterates over its four fields and equals a plain
    tuple of the same values; copy one with a changed field through
    ``update._replace(round_index=...)``.

    Attributes
    ----------
    round_index:
        1-based index of the element within the stream.
    element:
        The element that was submitted.
    accepted:
        ``True`` if the element entered the sample.
    evicted:
        The element that was removed to make room (reservoir-style samplers),
        or ``None`` when nothing was evicted.
    """

    round_index: int
    element: Any
    accepted: bool
    evicted: Any = None


class UpdateBatch(Sequence[SampleUpdate]):
    """Columnar (structure-of-arrays) record of one ingested segment.

    The batch stores one NumPy array per column instead of one
    :class:`SampleUpdate` per element:

    * ``round_indices`` — ``int64`` array of 1-based stream positions,
    * ``elements`` — the submitted elements (list or NumPy array, shared
      with the caller, never copied),
    * ``accepted`` — boolean array of acceptance flags,
    * ``evictions`` — sparse ``{offset: evicted element}`` map (evictions are
      rare — ``O(k log n)`` of an ``n``-element segment for reservoir-style
      samplers — so a dense object column would be mostly ``None``).

    The batch is also a :class:`~collections.abc.Sequence` of
    :class:`SampleUpdate`: indexing, iteration and equality materialise
    per-element views on demand, so existing per-element consumers (attack
    adversaries, tests, logs) keep working unchanged against batch producers.
    """

    __slots__ = ("round_indices", "elements", "accepted", "evictions")

    def __init__(
        self,
        round_indices: NDArray[np.int64],
        elements: Sequence[Any],
        accepted: NDArray[np.bool_],
        evictions: Mapping[int, Any] | None = None,
    ) -> None:
        self.round_indices = np.asarray(round_indices, dtype=np.int64)
        self.elements = elements
        self.accepted = np.asarray(accepted, dtype=bool)
        self.evictions: dict[int, Any] = dict(evictions) if evictions else {}
        if not (len(self.round_indices) == len(self.elements) == len(self.accepted)):
            raise ValueError(
                "UpdateBatch columns disagree on length: "
                f"{len(self.round_indices)} rounds, {len(self.elements)} elements, "
                f"{len(self.accepted)} flags"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "UpdateBatch":
        return cls(np.empty(0, dtype=np.int64), [], np.empty(0, dtype=bool))

    @classmethod
    def from_updates(cls, updates: Iterable[SampleUpdate]) -> "UpdateBatch":
        """Build a columnar batch from per-element records."""
        updates = list(updates)
        round_indices = np.fromiter(
            (u.round_index for u in updates), dtype=np.int64, count=len(updates)
        )
        accepted = np.fromiter(
            (u.accepted for u in updates), dtype=bool, count=len(updates)
        )
        evictions = {
            offset: u.evicted for offset, u in enumerate(updates) if u.evicted is not None
        }
        return cls(round_indices, [u.element for u in updates], accepted, evictions)

    @classmethod
    def concat(cls, batches: Sequence["UpdateBatch"]) -> "UpdateBatch":
        """Concatenate segment batches into one batch (columns stacked)."""
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        elements: list[Any] = []
        evictions: dict[int, Any] = {}
        for batch in batches:
            base = len(elements)
            elements.extend(batch.elements)
            for offset, evicted in batch.evictions.items():
                evictions[base + offset] = evicted
        return cls(
            np.concatenate([batch.round_indices for batch in batches]),
            elements,
            np.concatenate([batch.accepted for batch in batches]),
            evictions,
        )

    # ------------------------------------------------------------------
    # Columnar queries (the fast paths)
    # ------------------------------------------------------------------
    @property
    def accepted_count(self) -> int:
        """Number of rounds whose element entered the sample."""
        return int(np.count_nonzero(self.accepted))

    @property
    def eviction_count(self) -> int:
        return len(self.evictions)

    def accepted_elements(self) -> list[Any]:
        """The elements that entered the sample, in stream order."""
        return [self.elements[int(i)] for i in np.flatnonzero(self.accepted)]

    # ------------------------------------------------------------------
    # Lazy per-element view (backwards compatibility)
    # ------------------------------------------------------------------
    def _view(self, offset: int) -> SampleUpdate:
        return SampleUpdate(
            int(self.round_indices[offset]),
            self.elements[offset],
            bool(self.accepted[offset]),
            self.evictions.get(offset),
        )

    def __len__(self) -> int:
        return len(self.accepted)

    @overload
    def __getitem__(self, index: int) -> SampleUpdate: ...

    @overload
    def __getitem__(self, index: slice) -> "UpdateBatch": ...

    def __getitem__(self, index: int | slice) -> SampleUpdate | UpdateBatch:
        if isinstance(index, slice):
            offsets = range(*index.indices(len(self)))
            evictions = {
                new: self.evictions[old]
                for new, old in enumerate(offsets)
                if old in self.evictions
            }
            return UpdateBatch(
                self.round_indices[index],
                list(self.elements[index]),
                self.accepted[index],
                evictions,
            )
        offset = int(index)
        if offset < 0:
            offset += len(self)
        if not 0 <= offset < len(self):
            raise IndexError(f"update {index} out of range for batch of {len(self)}")
        return self._view(offset)

    def __iter__(self) -> Iterator[SampleUpdate]:
        for offset in range(len(self)):
            yield self._view(offset)

    def to_list(self) -> list[SampleUpdate]:
        """Materialise every per-element record (for callers that must mutate)."""
        return list(self)

    def __eq__(self, other: Any) -> bool:
        """Element-wise equality against any sequence of :class:`SampleUpdate`."""
        if isinstance(other, UpdateBatch):
            return (
                len(self) == len(other)
                and np.array_equal(self.round_indices, other.round_indices)
                and np.array_equal(self.accepted, other.accepted)
                and self.evictions == other.evictions
                and all(a == b for a, b in zip(self.elements, other.elements))
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(
                view == record for view, record in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UpdateBatch(n={len(self)}, accepted={self.accepted_count}, "
            f"evictions={self.eviction_count})"
        )


@runtime_checkable
class Mergeable(Protocol):
    """Summaries whose sharded states can be combined into one global summary.

    The distributed deployments of Section 1.2 split the stream across ``K``
    sites and answer queries from the *merged* state, so every sampler family
    that participates in a sharded deployment must say what "merge" means for
    it.  ``a.merge([b, c])`` returns a **new** summary of the same family
    describing the union (for interleaved substreams) or concatenation (for
    consecutive substreams) of everything ``a``, ``b`` and ``c`` summarised;
    the inputs' samples and counters are never mutated.  Implementations and
    their guarantees:

    * :meth:`~repro.samplers.bernoulli.BernoulliSampler.merge` — element-wise
      union; **exact** (each element was kept i.i.d. with probability ``p``
      regardless of which site saw it) and deterministic.
    * :meth:`~repro.samplers.reservoir.ReservoirSampler.merge` — the
      [CTW16]-style coordinator rule: a multivariate-hypergeometric draw
      decides how many slots each part contributes, making the merge an
      exactly uniform ``k``-subset of the union.  Randomised (pass ``rng``).
    * :meth:`~repro.samplers.sliding_window.SlidingWindowSampler.merge` —
      combines the priority-tagged candidate sets and re-runs the
      expiry/domination fixed point; exact for consecutive substreams.
    * :meth:`~repro.samplers.misra_gries.MisraGriesSummary.merge` — the
      summed-counter merge of the mergeable-summaries line of work, with the
      error budget tracked explicitly (``max_underestimate`` stays within
      ``n // (capacity + 1)``).
    * :meth:`~repro.samplers.kll.KLLSketch.merge` — level-wise compactor
      concatenation followed by standard compaction; keeps the ``O(eps n)``
      rank-error regime.  Randomised (pass ``rng``).

    Merge randomness comes from the ``rng`` argument (falling back to the
    primary part's own generator), never from the other parts, so sharded
    reads leave the non-primary sites' seeded streams untouched.

    A family may also offer ``merged_sample(others, *, rng=None) -> list``:
    the merged summary's ``sample`` alone, with no summary built, advancing
    ``rng`` exactly as ``merge`` does (the same draws and the same child
    spawns).  Sharded coordinators serve reads through it when present
    (:meth:`~repro.samplers.reservoir.ReservoirSampler.merged_sample`).
    """

    def merge(
        self, others: Sequence[Any], *, rng: np.random.Generator | None = None
    ) -> Any:
        """Return a new summary of ``self`` plus every part in ``others``."""
        ...


class StreamSampler(ABC):
    """Abstract streaming sampler whose state is fully visible to the adversary.

    The paper's adversary observes the sampler's entire internal state
    (``sigma_i``) after every round.  Accordingly the interface exposes the
    maintained sample directly via :attr:`sample`; adversaries are free to
    read it, and game runners snapshot it for continuous-robustness checks.
    """

    #: Human-readable name used in experiment tables.
    name: str = "sampler"

    def __init__(self) -> None:
        self._round = 0

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    @abstractmethod
    def _process(self, element: Any) -> SampleUpdate:
        """Handle one element; subclasses implement the actual sampling rule."""

    def process(self, element: Any) -> SampleUpdate:
        """Feed one stream element to the sampler and return what happened."""
        self._round += 1
        return self._process(element)

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        """Feed a batch of elements; returns the batch's columnar update record.

        The return value is an :class:`UpdateBatch` — a structure-of-arrays
        record that is also a lazy sequence of per-element
        :class:`SampleUpdate` views.  Pass ``updates=False`` to skip the
        record entirely (the return value is then ``None``) — on
        million-element streams even the columnar record is pure overhead
        when nobody reads it.  The maintained sample is identical either way.

        Subclasses override this with vectorised kernels; the base
        implementation simply loops over :meth:`process`.
        """
        if not updates:
            for element in elements:
                self.process(element)
            return None
        return UpdateBatch.from_updates(self.process(element) for element in elements)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def sample(self) -> Sequence[Any]:
        """The currently maintained sample ``S_i`` (a subsequence of the stream).

        Treat the result as read-only.  The five samplers that keep their
        sample in memory (Bernoulli, reservoir, sliding window, priority and
        weighted reservoir, through :class:`CachedView`) return a tuple
        that later rounds never change: reads between two changes return
        the same object, and a reference held across a change keeps the old
        sample rather than tracking the sampler.  Sketches still build a
        new sequence on every read.
        """

    @property
    def rounds_processed(self) -> int:
        """Number of stream elements processed so far."""
        return self._round

    @property
    def sample_size(self) -> int:
        """Current size of the maintained sample."""
        return len(self.sample)

    @abstractmethod
    def reset(self) -> None:
        """Forget all state so the sampler can be reused for another stream."""

    def memory_footprint(self) -> int:
        """Number of stream elements the sampler currently stores.

        This is the paper's notion of memory (the size of ``sigma``); sketches
        that store summaries rather than elements override it accordingly.
        """
        return len(self.sample)

    def snapshot(self) -> tuple[Any, ...]:
        """An immutable copy of the sample, for continuous-robustness traces."""
        return tuple(self.sample)

    def degradation_report(self) -> dict[str, Any]:
        """Family-specific error accounting after merges and site loss.

        Sharded deployments merge whatever site states survive a fault and
        report the merged view's quantified degradation through this hook
        (:meth:`repro.distributed.sharded.ShardedSampler.degradation_report`).
        The base report carries the universal fields; families with an
        explicit error budget (Misra–Gries underestimates, reservoir
        sample-size shortfall, KLL rank error) extend it so callers can
        bracket the realised error of a degraded view.
        """
        return {
            "family": self.name,
            "rounds": self.rounds_processed,
            "sample_size": self.sample_size,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(rounds={self.rounds_processed}, "
            f"sample_size={self.sample_size})"
        )


class CachedView:
    """Mixin for samplers that keep their sample in memory.

    :attr:`sample` is a tuple built by :meth:`_build_view` on the first read
    after a change and handed out again until the next one.  Reads of an
    unchanged sample therefore cost O(1) and return the same object, which
    callers may memoise on (the greedy density attack counts each sample
    once), and a view already handed out never changes.  Every path that
    can change the sample sets ``_view`` to ``None``.
    """

    _view: tuple[Any, ...] | None

    @property
    def sample(self) -> tuple[Any, ...]:
        view = self._view
        if view is None:
            view = self._view = self._build_view()
        return view

    def _build_view(self) -> tuple[Any, ...]:
        """The current sample as a new tuple."""
        raise NotImplementedError


class StoredSample(CachedView):
    """Cached views of a sample kept in the list ``_sample``.

    Size reads go to the list and never build a view.
    """

    _sample: list[Any]

    def _build_view(self) -> tuple[Any, ...]:
        return tuple(self._sample)

    @property
    def sample_size(self) -> int:
        return len(self._sample)

    def memory_footprint(self) -> int:
        return len(self._sample)


class FixedSizeSampler(StreamSampler):
    """Base class for samplers that maintain a bounded number of elements."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)

    def memory_footprint(self) -> int:
        return min(self.capacity, len(self.sample))
