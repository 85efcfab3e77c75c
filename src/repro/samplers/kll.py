"""KLL streaming quantile sketch [KLL16], simplified implementation.

KLL is the modern randomised quantile sketch: a hierarchy of compactors where
level ``h`` stores items each representing ``2^h`` stream elements; when a
compactor overflows it sorts its buffer and promotes every other element
(random offset) to the next level.  It answers rank queries within
``epsilon * n`` with space ``O((1/epsilon) sqrt(log(1/delta)))``.

It is included as a second baseline for experiment E14: unlike the plain
samplers it is *not* covered by the paper's robustness theorems (its
randomness is also observable through its state), so comparing its adversarial
behaviour against Bernoulli/reservoir sampling is an interesting extension.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from ..exceptions import ConfigurationError, EmptySampleError
from ..rng import RandomState, ensure_generator, spawn_generators
from .quantile_sketch import _float, _floats


class KLLSketch:
    """Simplified KLL quantile sketch with geometrically shrinking compactors.

    Parameters
    ----------
    k:
        Size parameter of the top compactor; larger means more accurate.
        The standard accuracy heuristic is ``epsilon ~ 1.7 / k``.
    seed:
        Seed or generator for the random compaction offsets.
    """

    name = "kll"

    #: Capacity decay rate between consecutive compactor levels.
    _DECAY = 2.0 / 3.0

    def __init__(self, k: int = 200, seed: RandomState = None) -> None:
        if k < 8:
            raise ConfigurationError(f"k must be >= 8, got {k}")
        self.k = int(k)
        self._rng = ensure_generator(seed)
        self._compactors: list[list[float]] = [[]]
        self._count = 0

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Insert one stream element; NaN is rejected with no state change."""
        self._compactors[0].append(_float(value, self.name))
        self._count += 1
        if self._size() > self._capacity_total():
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        """Insert a batch of stream elements with buffered compaction.

        Bit-identical to per-element :meth:`update`: the buffer fills level 0
        in bulk slices up to the current total capacity, and compaction fires
        exactly when the sketch first exceeds capacity — the same trigger
        points (and hence the same random compaction offsets) as the
        sequential loop.  What the bulk path saves is the per-element
        ``_size()`` / ``_capacity_total()`` recomputation, which dominates
        sequential ingestion.  A batch holding a NaN is rejected whole,
        before any state changes.
        """
        values = _floats(values, self.name)
        cursor = 0
        while cursor < len(values):
            # Fill to exactly one element over capacity — the same state at
            # which the sequential loop first triggers a compression — so the
            # O(levels) size/capacity bookkeeping runs once per compression
            # cycle instead of once per element.
            take = max(1, self._capacity_total() - self._size() + 1)
            chunk = values[cursor : cursor + take]
            self._compactors[0].extend(chunk)
            self._count += len(chunk)
            cursor += len(chunk)
            if self._size() > self._capacity_total():
                self._compress()

    # ------------------------------------------------------------------
    # Merging (level-wise, as in [KLL16] / the mergeable-summaries model)
    # ------------------------------------------------------------------
    def merge(
        self,
        others: Sequence["KLLSketch"],
        *,
        rng: np.random.Generator | None = None,
    ) -> "KLLSketch":
        """Merge sharded sketches by level-wise compactor concatenation.

        Items at level ``h`` represent ``2^h`` stream elements in every
        part, so concatenating the parts' level-``h`` compactors yields a
        valid (over-full) sketch of the combined stream; standard
        compaction then restores the capacity invariants.  Each compaction
        introduces the same ``O(2^h)`` rank uncertainty it does during
        streaming, so the merged sketch stays in the ``O(eps n)`` rank-error
        regime of a single sketch over the concatenated stream — the
        mergeable-summaries property of the KLL hierarchy.

        Compaction offsets for the merge come from the merged sketch's own
        generator — a fresh independent stream spawned from ``rng`` (default:
        ``self``'s generator) — so the parts are never mutated, and
        streaming further into the merged sketch cannot advance any part's
        seeded stream.
        """
        parts = [self, *others]
        for part in parts:
            if not isinstance(part, KLLSketch):
                raise ConfigurationError(
                    f"cannot merge a KLLSketch with {type(part).__name__}"
                )
            if part.k != self.k:
                raise ConfigurationError(
                    f"cannot merge sketches with different k: {self.k} vs {part.k}"
                )
        merge_rng = self._rng if rng is None else ensure_generator(rng)
        merged = KLLSketch(self.k, seed=spawn_generators(merge_rng, 1)[0])
        levels = max(len(part._compactors) for part in parts)
        merged._compactors = [
            [
                item
                for part in parts
                if level < len(part._compactors)
                for item in part._compactors[level]
            ]
            for level in range(levels)
        ]
        merged._count = sum(part._count for part in parts)
        while merged._size() > merged._capacity_total():
            merged._compress()
        return merged

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rank_query(self, value: float) -> float:
        """Estimate ``|{x in stream : x <= value}|``."""
        if self._count == 0:
            raise EmptySampleError("cannot query an empty sketch")
        rank = 0.0
        for level, compactor in enumerate(self._compactors):
            weight = 2.0**level
            rank += weight * sum(1 for item in compactor if item <= value)
        return rank

    def quantile_query(self, fraction: float) -> float:
        """Return an approximate ``fraction``-quantile of the stream."""
        if self._count == 0:
            raise EmptySampleError("cannot query an empty sketch")
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must lie in [0, 1], got {fraction}")
        weighted: list[tuple[float, float]] = []
        for level, compactor in enumerate(self._compactors):
            weight = 2.0**level
            weighted.extend((item, weight) for item in compactor)
        weighted.sort(key=lambda pair: pair[0])
        target = fraction * self._count
        cumulative = 0.0
        for value, weight in weighted:
            cumulative += weight
            if cumulative >= target:
                return value
        return weighted[-1][0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of stream elements summarised."""
        return self._count

    def memory_footprint(self) -> int:
        """Number of stored items across all compactors."""
        return self._size()

    def reset(self) -> None:
        self._compactors = [[]]
        self._count = 0

    @property
    def estimated_epsilon(self) -> float:
        """The rank-error guarantee heuristically associated with this ``k``."""
        return 1.7 / self.k

    def degradation_report(self) -> dict[str, float]:
        """Rank-error accounting for merged / degraded sketches.

        ``rank_error_budget`` is the absolute rank error associated with
        the summarised count under the sketch's epsilon heuristic; a
        survivor-subset merge covers fewer stream elements, so its (still
        valid) budget shrinks with the represented count.
        """
        return {
            "family": self.name,
            "rounds": self._count,
            "sample_size": self._size(),
            "estimated_epsilon": self.estimated_epsilon,
            "rank_error_budget": self.estimated_epsilon * self._count,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _capacity(self, level: int) -> int:
        depth = len(self._compactors) - level - 1
        return max(2, int(math.ceil(self.k * (self._DECAY**depth))))

    def _capacity_total(self) -> int:
        return sum(self._capacity(level) for level in range(len(self._compactors)))

    def _size(self) -> int:
        return sum(len(compactor) for compactor in self._compactors)

    def _compress(self) -> None:
        for level in range(len(self._compactors)):
            if len(self._compactors[level]) > self._capacity(level):
                if level + 1 == len(self._compactors):
                    self._compactors.append([])
                self._compact_level(level)
                if self._size() <= self._capacity_total():
                    break

    def _compact_level(self, level: int) -> None:
        compactor = sorted(self._compactors[level])
        offset = int(self._rng.integers(0, 2))
        promoted = compactor[offset::2]
        self._compactors[level] = []
        self._compactors[level + 1].extend(promoted)
