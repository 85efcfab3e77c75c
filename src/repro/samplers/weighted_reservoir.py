"""Weighted reservoir sampling (Efraimidis–Spirakis A-Res, [ES06]).

The related-work section of the paper mentions weighted reservoir sampling as
one of the flavours of reservoir sampling studied in the literature.  A-Res
maintains the ``k`` elements with the largest keys ``u_i^{1/w_i}`` where
``u_i`` is uniform in ``(0, 1)`` and ``w_i`` the element's weight; with unit
weights it reduces to an (order-insensitive) uniform reservoir.  The library
ships it both as an extension users expect from a sampling toolkit and as an
extra subject for the adversarial experiments (an adversary that controls the
weights has another lever to pull).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RandomState, ensure_generator
from .base import CachedView, FixedSizeSampler, SampleUpdate, UpdateBatch


class WeightedReservoirSampler(CachedView, FixedSizeSampler):
    """A-Res weighted reservoir sampler.

    Parameters
    ----------
    capacity:
        Reservoir size ``k``.
    weight:
        Callable mapping an element to its positive weight.  Defaults to unit
        weights, in which case the sample is a uniform ``k``-subset of the
        stream (in distribution).
    seed:
        Seed or generator for the key draws.

    :attr:`sample` is a cached tuple view (:class:`~repro.samplers.base.CachedView`).
    """

    name = "weighted-reservoir"

    def __init__(
        self,
        capacity: int,
        weight: Callable[[Any], float] | None = None,
        seed: RandomState = None,
    ) -> None:
        super().__init__(capacity)
        self._unit_weight = weight is None
        self.weight = weight if weight is not None else (lambda _element: 1.0)
        self._rng = ensure_generator(seed)
        # Min-heap of (key, tiebreak, element); the reservoir holds the k
        # largest keys seen so far.
        self._heap: list[tuple[float, int, Any]] = []
        self._view: tuple[Any, ...] | None = None
        self._tiebreak = 0

    # ------------------------------------------------------------------
    # StreamSampler interface
    # ------------------------------------------------------------------
    def _key(self, element: Any) -> float:
        weight = float(self.weight(element))
        if weight <= 0.0:
            raise ConfigurationError(
                f"element weights must be positive, got {weight} for {element!r}"
            )
        uniform = self._rng.random()
        # Guard against a zero draw, whose 1/w power would be exactly zero for
        # every weight and lose the weight information.
        uniform = max(uniform, 1e-300)
        return uniform ** (1.0 / weight)

    def _process(self, element: Any) -> SampleUpdate:
        key = self._key(element)
        entry = (key, self._tiebreak, element)
        self._tiebreak += 1
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
            self._view = None
            return SampleUpdate(self._round, element, True)
        if key > self._heap[0][0]:
            evicted_entry = heapq.heapreplace(self._heap, entry)
            self._view = None
            return SampleUpdate(self._round, element, True, evicted_entry[2])
        return SampleUpdate(self._round, element, False)

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        """Vectorised batch ingestion, bit-identical to sequential processing.

        The exponential keys for the whole batch come from one
        ``Generator.random(n)`` draw (which consumes the bit stream exactly
        like ``n`` scalar draws) and one vectorised power; the Python-level
        heap loop then touches only the *candidates* — elements whose key
        beats the reservoir threshold at the start of the batch.  The
        threshold only rises as elements are accepted, so the candidate set
        (``O(k log n)`` expected of an ``n``-element batch) is a superset of
        the true acceptances, and skipped elements never touch Python objects
        at all.
        """
        elements = list(elements)
        if not elements:
            return UpdateBatch.empty() if updates else None
        n = len(elements)
        if self._unit_weight:
            exponents = None
        else:
            try:
                weights = np.fromiter(
                    (float(self.weight(element)) for element in elements),
                    dtype=np.float64,
                    count=n,
                )
                valid = not np.any(weights <= 0.0)
            except Exception:
                valid = False
            if not valid:
                # An invalid (or raising) weight: replay per element, so
                # sampler state, RNG position and the raised error all match
                # sequential processing exactly, whatever weight() does.
                return super().extend(elements, updates)
            # Division is exactly rounded, so the exponents can be batched.
            exponents = 1.0 / weights
        uniforms = np.maximum(self._rng.random(n), 1e-300)
        if exponents is None:
            keys = uniforms
        else:
            # Scalar pow per element: numpy's vectorised power may differ
            # from libm by 1 ulp, which could flip a threshold comparison and
            # break bit-identity with the sequential path.
            keys = np.fromiter(
                (base**exponent for base, exponent in zip(uniforms.tolist(), exponents.tolist())),
                dtype=np.float64,
                count=n,
            )
        start_round = self._round
        base_tiebreak = self._tiebreak
        self._round += n
        self._tiebreak += n

        accepted = np.zeros(n, dtype=bool)
        evictions: dict[int, Any] = {}
        heap = self._heap
        position = 0
        # Fill phase: sequential until the reservoir holds k entries.
        while position < n and len(heap) < self.capacity:
            heapq.heappush(
                heap, (float(keys[position]), base_tiebreak + position, elements[position])
            )
            accepted[position] = True
            position += 1
        if position < n:
            threshold = heap[0][0]
            for offset in np.flatnonzero(keys[position:] > threshold):
                offset = position + int(offset)
                key = float(keys[offset])
                if key > heap[0][0]:
                    evicted_entry = heapq.heapreplace(
                        heap, (key, base_tiebreak + offset, elements[offset])
                    )
                    accepted[offset] = True
                    if updates:
                        evictions[offset] = evicted_entry[2]
        if accepted.any():
            self._view = None
        if not updates:
            return None
        round_indices = np.arange(start_round + 1, start_round + n + 1, dtype=np.int64)
        return UpdateBatch(round_indices, elements, accepted, evictions)

    def _build_view(self) -> tuple[Any, ...]:
        return tuple([element for _key, _tiebreak, element in self._heap])

    def reset(self) -> None:
        self._heap = []
        self._view = None
        self._tiebreak = 0
        self._round = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def smallest_key(self) -> float | None:
        """The smallest key currently in the reservoir (the eviction threshold)."""
        if not self._heap:
            return None
        return self._heap[0][0]
