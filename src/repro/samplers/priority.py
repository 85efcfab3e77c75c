"""Priority sampling (Duffield–Lund–Thorup style), unweighted variant.

Priority sampling assigns each element a priority ``w_i / u_i`` (here with
unit weights, ``1 / u_i``) and keeps the ``k`` elements with the largest
priorities.  Like A-Res it is a fixed-size scheme whose retained set is a
uniform ``k``-subset under unit weights; it is included because the paper's
motivating applications (network monitoring, subset-sum estimation
[CDK+11, DLT05]) typically deploy priority sampling, and the adversarial
experiments can be rerun against it unchanged.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RandomState, ensure_generator
from .base import CachedView, FixedSizeSampler, SampleUpdate, UpdateBatch


class PrioritySampler(CachedView, FixedSizeSampler):
    """Keep the ``k`` elements with the largest priorities ``w_i / u_i``.

    Parameters
    ----------
    capacity:
        Number of elements to retain.
    weight:
        Callable mapping an element to a positive weight (defaults to 1).
    seed:
        Seed or generator for the uniform draws.

    :attr:`sample` is a cached tuple view (:class:`~repro.samplers.base.CachedView`).
    """

    name = "priority"

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
        self._heap: list[tuple[float, int, Any]] = []
        self._view: tuple[Any, ...] | None = None
        self._tiebreak = 0

    def _process(self, element: Any) -> SampleUpdate:
        weight = float(self.weight(element))
        if weight <= 0.0:
            raise ConfigurationError(
                f"element weights must be positive, got {weight} for {element!r}"
            )
        uniform = max(self._rng.random(), 1e-300)
        priority = weight / uniform
        entry = (priority, self._tiebreak, element)
        self._tiebreak += 1
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
            self._view = None
            return SampleUpdate(self._round, element, True)
        if priority > self._heap[0][0]:
            evicted_entry = heapq.heapreplace(self._heap, entry)
            self._view = None
            return SampleUpdate(self._round, element, True, evicted_entry[2])
        return SampleUpdate(self._round, element, False)

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        """Vectorised batch ingestion, bit-identical to sequential processing.

        Mirrors :meth:`WeightedReservoirSampler.extend`: one batched uniform
        draw, one vectorised division for the priorities, and a Python loop
        over only the elements whose priority beats the reservoir minimum at
        the start of the batch (a superset of the true acceptances, since the
        minimum only rises).
        """
        elements = list(elements)
        if not elements:
            return UpdateBatch.empty() if updates else None
        n = len(elements)
        if self._unit_weight:
            weights = None
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
        uniforms = np.maximum(self._rng.random(n), 1e-300)
        priorities = (1.0 / uniforms) if weights is None else (weights / uniforms)
        start_round = self._round
        base_tiebreak = self._tiebreak
        self._round += n
        self._tiebreak += n

        accepted = np.zeros(n, dtype=bool)
        evictions: dict[int, Any] = {}
        heap = self._heap
        position = 0
        while position < n and len(heap) < self.capacity:
            heapq.heappush(
                heap,
                (float(priorities[position]), base_tiebreak + position, elements[position]),
            )
            accepted[position] = True
            position += 1
        if position < n:
            threshold = heap[0][0]
            for offset in np.flatnonzero(priorities[position:] > threshold):
                offset = position + int(offset)
                priority = float(priorities[offset])
                if priority > heap[0][0]:
                    evicted_entry = heapq.heapreplace(
                        heap, (priority, base_tiebreak + offset, elements[offset])
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
        return tuple([element for _priority, _tiebreak, element in self._heap])

    def reset(self) -> None:
        self._heap = []
        self._view = None
        self._tiebreak = 0
        self._round = 0
