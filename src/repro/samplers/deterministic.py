"""Deterministic merge-reduce epsilon-approximation for ordered universes.

Section 1.1 of the paper compares its randomised samplers to the deterministic
streaming epsilon-approximation of Bagchi et al. [BCEG07].  For the ordered
(interval / prefix) set systems used throughout this reproduction, the
classical merge-reduce (Munro–Paterson style) construction already yields a
deterministic epsilon-approximation:

* the stream is consumed in *blocks* of ``b`` elements;
* a full block becomes a level-0 buffer (sorted);
* whenever two buffers occupy the same level they are **merged** (interleaved
  in sorted order) and **reduced** (every other element kept), producing one
  buffer at the next level;
* a level-``l`` buffer element represents ``2^l`` stream elements.

With buffer size ``b = Theta(log(1/eps) / eps)`` the union of the retained
buffers, with the appropriate weights, approximates every prefix density
within ``eps``.  Being deterministic it is automatically robust against
adaptive adversaries — but it must read every element and is noticeably more
complex than "flip a coin per element", which is exactly the trade-off the
paper discusses.  Experiment E14 measures both sides of that trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from ..exceptions import ConfigurationError, EmptySampleError
from .quantile_sketch import _float, _floats


@dataclass(frozen=True)
class WeightedPoint:
    """A summary point representing ``weight`` stream elements near ``value``."""

    value: float
    weight: float


class MergeReduceSummary:
    """Deterministic merge-reduce epsilon-approximation for 1-D ordered data.

    Parameters
    ----------
    epsilon:
        Target approximation error for prefix/interval densities.
    buffer_size:
        Optional override of the per-buffer size ``b``; by default it is set
        to ``ceil((log2(1/epsilon) + 4) / epsilon)``, which keeps the summary's
        rank error below ``epsilon * n`` for the stream lengths used in the
        experiments.
    """

    name = "merge-reduce"

    def __init__(self, epsilon: float, buffer_size: int | None = None) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must lie in (0, 1), got {epsilon}")
        self.epsilon = float(epsilon)
        if buffer_size is None:
            buffer_size = int(math.ceil((math.log2(1.0 / epsilon) + 4.0) / epsilon))
        if buffer_size < 2:
            raise ConfigurationError(f"buffer size must be >= 2, got {buffer_size}")
        # An even buffer size keeps the halving step exact.
        self.buffer_size = buffer_size + (buffer_size % 2)
        self._pending: list[float] = []
        #: Mapping level -> sorted buffer at that level (at most one per level).
        self._levels: dict[int, list[float]] = {}
        self._count = 0

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Insert one stream element; NaN is rejected with no state change."""
        self._pending.append(_float(value, self.name))
        self._count += 1
        if len(self._pending) == self.buffer_size:
            self._push_buffer(sorted(self._pending), level=0)
            self._pending = []

    def extend(self, values: Iterable[float]) -> None:
        """Insert a batch of stream elements.

        Bit-identical to per-element :meth:`update` — the pending buffer is
        filled in slices and pushed at exactly the same block boundaries —
        while skipping the per-element method dispatch and length check.  A
        batch holding a NaN is rejected whole, before any state changes.
        """
        values = _floats(values, self.name)
        cursor = 0
        while cursor < len(values):
            room = self.buffer_size - len(self._pending)
            chunk = values[cursor : cursor + room]
            self._pending.extend(chunk)
            self._count += len(chunk)
            cursor += len(chunk)
            if len(self._pending) == self.buffer_size:
                self._push_buffer(sorted(self._pending), level=0)
                self._pending = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def weighted_points(self) -> list[WeightedPoint]:
        """Return the summary as weighted points covering the whole stream."""
        if self._count == 0:
            raise EmptySampleError("cannot query an empty summary")
        points: list[WeightedPoint] = []
        for level, buffer in self._levels.items():
            weight = float(2**level)
            points.extend(WeightedPoint(value, weight) for value in buffer)
        points.extend(WeightedPoint(value, 1.0) for value in self._pending)
        points.sort(key=lambda point: point.value)
        return points

    def rank_query(self, value: float) -> float:
        """Estimate ``|{x in stream : x <= value}|`` within ``epsilon * n``."""
        points = self.weighted_points()
        return sum(point.weight for point in points if point.value <= value)

    def prefix_density(self, value: float) -> float:
        """Estimate the density of the prefix range ``(-inf, value]``."""
        return self.rank_query(value) / self._count

    def quantile_query(self, fraction: float) -> float:
        """Return an approximate ``fraction``-quantile of the stream."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must lie in [0, 1], got {fraction}")
        points = self.weighted_points()
        target = fraction * self._count
        cumulative = 0.0
        for point in points:
            cumulative += point.weight
            if cumulative >= target:
                return point.value
        return points[-1].value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of stream elements summarised."""
        return self._count

    def memory_footprint(self) -> int:
        """Number of stored values across all buffers."""
        return sum(len(buffer) for buffer in self._levels.values()) + len(self._pending)

    def reset(self) -> None:
        self._pending = []
        self._levels = {}
        self._count = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push_buffer(self, buffer: list[float], level: int) -> None:
        """Insert a sorted buffer at ``level``, merging upward while collisions exist."""
        current = buffer
        current_level = level
        while current_level in self._levels:
            other = self._levels.pop(current_level)
            current = self._merge_reduce(current, other)
            current_level += 1
        self._levels[current_level] = current

    @staticmethod
    def _merge_reduce(first: Sequence[float], second: Sequence[float]) -> list[float]:
        """Merge two sorted buffers and keep every other element (odd positions).

        Keeping the elements at odd positions (1st, 3rd, ...) of the merged
        sequence is the classical choice that keeps rank errors one-sided per
        operation and bounded overall.
        """
        merged: list[float] = []
        i = j = 0
        while i < len(first) and j < len(second):
            if first[i] <= second[j]:
                merged.append(first[i])
                i += 1
            else:
                merged.append(second[j])
                j += 1
        merged.extend(first[i:])
        merged.extend(second[j:])
        return merged[::2]
