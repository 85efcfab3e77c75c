"""Uniform sampling over a sliding window of the most recent elements.

Many of the systems the paper motivates (network devices, trading monitors)
care about the *recent* stream rather than the full history.  This sampler
maintains a uniform sample of the last ``window`` elements using the
priority-based technique: each element receives a uniform priority, and the
sample consists of the ``k`` smallest-priority elements among the window's
live elements.  To answer that query exactly with bounded memory the sampler
keeps, per rank, only the candidates that could still become one of the ``k``
minima before they expire — the classical "chain/priority sampling over
sliding windows" idea.  Memory is ``O(k log window)`` in expectation.

Two kernels keep that candidate set.  Batches and merges go through
:meth:`SlidingWindowSampler._fixed_point`, one newest-to-oldest scan.  One
element at a time, ``process`` keeps each candidate's *domination count* —
how many later live arrivals have a strictly smaller priority — and updates
it in place with a few array operations: a candidate leaves only by expiry
or when its count reaches ``k``.  The scan returns its survivors' counts, so
either kernel can continue from the other's state.

The adversarial experiments exercise it as an extension subject: the paper's
guarantees are stated for whole-stream sampling, and the sliding-window
variant inherits them per window via the same union-bound argument.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from itertools import chain
from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..exceptions import ConfigurationError
from ..rng import RandomState, ensure_generator, spawn_generators
from .base import CachedView, SampleUpdate, StreamSampler, UpdateBatch


class SlidingWindowSampler(CachedView, StreamSampler):
    """Uniform ``k``-sample over the last ``window`` stream elements.

    Parameters
    ----------
    capacity:
        Target sample size ``k``.
    window:
        Window length ``w``; only the most recent ``w`` elements are eligible.
    seed:
        Seed or generator for priorities.

    :attr:`sample` is a cached tuple view (:class:`~repro.samplers.base.CachedView`).
    """

    name = "sliding-window"

    #: This family's :meth:`merge` takes per-part trailing offsets (each
    #: part's window covers the most recent stretch of its substream), so
    #: coordinators must pass them; see ``ShardedSampler.merged_sampler``.
    merge_wants_offsets = True

    def __init__(self, capacity: int, window: int, seed: RandomState = None) -> None:
        super().__init__()
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if window < capacity:
            raise ConfigurationError(
                f"window ({window}) must be at least the capacity ({capacity})"
            )
        self.capacity = int(capacity)
        self.window = int(window)
        self._rng = ensure_generator(seed)
        # Candidates: (arrival_index, priority, element) in arrival order.
        # Candidate i's priority and domination count sit at index i of the
        # two buffers, which are longer than the candidate list.
        self._install([], [])

    # ------------------------------------------------------------------
    # StreamSampler interface
    # ------------------------------------------------------------------
    def _process(self, element: Any) -> SampleUpdate:
        """One arrival: expire, count, prune, append.

        The new arrival dominates every live candidate of strictly larger
        priority, so those counts grow by one and the ones reaching
        ``capacity`` are pruned.  No other count changes: a kept candidate's
        smaller-priority later arrivals are all kept (one pruned would take
        it down too), so counting over the candidates equals counting over
        the stream.  The result is the :meth:`_fixed_point` of the old
        candidates plus the arrival.  The arrival is accepted when fewer
        than ``capacity`` live priorities are at most its own: the sample is
        the stable priority sort's first ``capacity`` entries, and the
        newest arrival sorts after every equal priority.  Only an accepted
        arrival or an expiry changes the sample: a pruned candidate has
        ``capacity`` live later arrivals of strictly smaller priority, so it
        is no member, and a rejected arrival sorts after the members.
        """
        arrival = self._round
        priority = float(self._rng.random())
        candidates = self._candidates
        priorities, counts = self._priorities, self._counts
        n = len(candidates)
        # Arrival order is expiry order, so the expired candidates are a prefix.
        cutoff = arrival - self.window
        expired = 0
        while expired < n and candidates[expired][0] <= cutoff:
            expired += 1
        if expired:
            del candidates[:expired]
            n -= expired
            priorities[:n] = priorities[expired : expired + n]
            counts[:n] = counts[expired : expired + n]
        dominated = priorities[:n] > priority
        n_dominated = int(np.count_nonzero(dominated))
        accepted = n - n_dominated < self.capacity
        if accepted or expired:
            self._view = None
        if n_dominated:
            live_counts = counts[:n]
            live_counts += dominated
            for index in reversed((live_counts >= self.capacity).nonzero()[0].tolist()):
                del candidates[index]
                n -= 1
                priorities[index:n] = priorities[index + 1 : n + 1]
                counts[index:n] = counts[index + 1 : n + 1]
        if n == len(priorities):
            priorities = self._priorities = np.resize(priorities, 2 * n)
            counts = self._counts = np.resize(counts, 2 * n)
        priorities[n] = priority
        counts[n] = 0
        candidates.append((arrival, priority, element))
        return SampleUpdate(arrival, element, accepted)

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        """Vectorised batch ingestion; the resulting state is bit-identical
        to sequential processing.

        All priorities come from one ``Generator.random(n)`` draw (the same
        bit-stream consumption as ``n`` scalar draws).  The surviving
        candidate set after a batch is characterised without replaying the
        intermediate states: it is the :meth:`_fixed_point` of the old
        candidates plus the batch's live tail at the batch's final round —
        the same set per-round processing reaches incrementally, because
        dominators expire no earlier than the candidates they dominate, so
        pruning early never changes the final set.  The scan also returns
        the survivors' domination counts, so a later :meth:`process`
        continues from exact state.

        The per-element ``accepted`` flag is defined against each
        intermediate state, so ``updates=True`` takes the sequential path
        (identical draws, identical state — just slower); batch callers that
        do not consume per-round records should pass ``updates=False``.
        """
        if updates:
            return super().extend(elements, True)
        elements = list(elements)
        if not elements:
            return None
        n = len(elements)
        priorities = self._rng.random(n)
        start_round = self._round
        self._round += n
        # Only the trailing `window` batch elements can be live at the end;
        # and if any batch element expired, every pre-batch candidate did too.
        first_live = max(0, n - self.window)
        live = zip(
            reversed(range(start_round + 1 + first_live, self._round + 1)),
            reversed(priorities[first_live:].tolist()),
            reversed(elements[first_live:]),
        )
        self._install(
            *self._fixed_point(chain(live, reversed(self._candidates)), self._round - self.window)
        )
        return None

    def merge(
        self,
        others: Sequence["SlidingWindowSampler"],
        *,
        rng: RandomState | None = None,
        offsets: Sequence[int] | None = None,
    ) -> "SlidingWindowSampler":
        """Merge sharded sliding-window samplers into one window summary.

        Each part's priority-tagged candidates are shifted to global arrival
        indices (``offsets``, defaulting to consecutive substreams: part
        ``i`` starts where part ``i-1`` ended), combined, and re-run through
        :meth:`_fixed_point`.  For consecutive substreams the result is
        **bit-identical** to a single sampler that consumed the concatenated
        stream with the same priorities: local pruning only ever removes
        candidates whose dominators arrived later at the same part — later
        globally too — so the combined fixed point is unchanged (the same
        argument that makes the chunked ``extend`` kernel exact).

        For interleaved substreams (sharded routing) no offset assignment
        reconstructs global arrival order; the merged *candidate set* is then
        approximate, but the merged ``sample`` — the ``capacity`` smallest
        priorities among all live candidates — never depends on arrival
        order and remains exactly the priority rule applied to the union of
        the parts' windows.  Deterministic; the parts are not mutated.
        """
        parts = self._validate_merge_parts(others)
        if offsets is None:
            offsets = []
            start = 0
            for part in parts:
                offsets.append(start)
                start += part.rounds_processed
            total_round = start
        else:
            if len(offsets) != len(parts):
                raise ConfigurationError(
                    f"expected {len(parts)} offsets, got {len(offsets)}"
                )
            total_round = max(
                int(offset) + part.rounds_processed
                for offset, part in zip(offsets, parts)
            )
        combined = [
            (arrival + int(offset), priority, element)
            for part, offset in zip(parts, offsets)
            for arrival, priority, element in part._candidates
        ]
        combined.sort(key=lambda candidate: candidate[0])
        merged = SlidingWindowSampler(
            self.capacity,
            self.window,
            seed=rng if rng is not None else spawn_generators(self._rng, 1)[0],
        )
        merged._install(*self._fixed_point(reversed(combined), total_round - self.window))
        merged._round = total_round
        return merged

    def _validate_merge_parts(
        self, others: Sequence["SlidingWindowSampler"]
    ) -> list["SlidingWindowSampler"]:
        parts = [self, *others]
        for part in parts:
            if not isinstance(part, SlidingWindowSampler):
                raise ConfigurationError(
                    f"cannot merge a SlidingWindowSampler with {type(part).__name__}"
                )
            if part.capacity != self.capacity or part.window != self.window:
                raise ConfigurationError(
                    "cannot merge sliding windows with different geometry: "
                    f"({self.capacity}, {self.window}) vs ({part.capacity}, {part.window})"
                )
        return parts

    def _build_view(self) -> tuple[Any, ...]:
        return tuple([element for _arrival, _priority, element in self._current_sample_entries()])

    def reset(self) -> None:
        self._install([], [])
        self._round = 0

    def memory_footprint(self) -> int:
        return len(self._candidates)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _fixed_point(
        self, newest_first: Iterable[tuple[int, float, Any]], cutoff: int
    ) -> tuple[list[tuple[int, float, Any]], list[int]]:
        """Expire and prune candidates given newest arrival first.

        Returns the kept candidates in arrival order and their domination
        counts.  A candidate is kept iff it arrived after ``cutoff`` and
        fewer than ``capacity`` kept later arrivals have strictly smaller
        priorities; that number is its count.  A dominated candidate can
        never re-enter the sample: its dominators expire later.  The first
        expired candidate ends the scan, and a priority above the
        ``capacity``-th smallest kept one is rejected by a single
        comparison, so a lazy ``newest_first`` only ever materialises the
        survivors.
        """
        capacity = self.capacity
        kept: list[tuple[int, float, Any]] = []
        counts: list[int] = []
        priorities: list[float] = []  # the kept ones so far, ascending
        threshold = math.inf
        for candidate in newest_first:
            if candidate[0] <= cutoff:
                break
            priority = candidate[1]
            if priority > threshold:
                continue
            count = bisect_left(priorities, priority)
            priorities.insert(count, priority)
            kept.append(candidate)
            counts.append(count)
            if len(priorities) >= capacity:
                threshold = priorities[capacity - 1]
        kept.reverse()
        counts.reverse()
        return kept, counts

    def _install(self, candidates: list[tuple[int, float, Any]], counts: list[int]) -> None:
        """Adopt ``candidates`` (arrival order) with their domination counts."""
        self._view: tuple[Any, ...] | None = None
        n = len(candidates)
        size = max(2 * n, 16)
        self._candidates: list[tuple[int, float, Any]] = candidates
        self._priorities: NDArray[np.float64] = np.empty(size)
        self._priorities[:n] = [candidate[1] for candidate in candidates]
        self._counts: NDArray[np.int64] = np.empty(size, dtype=np.int64)
        self._counts[:n] = counts

    def _current_sample_entries(self) -> list[tuple[int, float, Any]]:
        """The ``capacity`` smallest priorities, in a stable priority sort."""
        candidates = self._candidates
        order = self._priorities[: len(candidates)].argsort(kind="stable")[: self.capacity]
        return [candidates[index] for index in order.tolist()]
