"""Key-based weighted samplers: A-Res ([ES06]) and priority sampling.

Both families draw a uniform ``u_i`` in ``(0, 1)`` per element, turn it and
the element's weight ``w_i`` into a key, and keep the ``k`` elements with
the largest keys in a min-heap.  Only the key differs:

* :class:`WeightedReservoirSampler` — Efraimidis–Spirakis A-Res, key
  ``u_i^{1/w_i}``.  The related-work section of the paper mentions weighted
  reservoir sampling as one of the flavours of reservoir sampling studied in
  the literature; an adversary that controls the weights has another lever
  to pull.
* :class:`PrioritySampler` — Duffield–Lund–Thorup priority sampling, key
  ``w_i / u_i``.  The paper's motivating applications (network monitoring,
  subset-sum estimation [CDK+11, DLT05]) typically deploy it, and the
  adversarial experiments can be rerun against it unchanged.

With unit weights either keeps a uniform ``k``-subset of the stream (in
distribution).  :class:`_KeyHeapSampler` holds the one heap kernel, per
element and batched; a family supplies its key rule in scalar and batch form.
"""

from __future__ import annotations

import heapq
from abc import abstractmethod
from collections.abc import Callable, Iterable
from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..exceptions import ConfigurationError
from ..rng import RandomState, ensure_generator
from .base import CachedView, FixedSizeSampler, SampleUpdate, UpdateBatch

_Floats = NDArray[np.float64]


class _KeyHeapSampler(CachedView, FixedSizeSampler):
    """Keep the ``k`` elements with the largest keys ``_key(u_i, w_i)``.

    Parameters
    ----------
    capacity:
        Number of elements to retain, ``k``.
    weight:
        Callable mapping an element to its positive weight.  Defaults to unit
        weights, in which case the sample is a uniform ``k``-subset of the
        stream (in distribution).
    seed:
        Seed or generator for the uniform draws.

    An element whose weight is not positive (NaN included) is rejected with
    a :class:`~repro.exceptions.ConfigurationError` and changes nothing;
    neither does a batch holding one.  :attr:`sample` is a cached tuple view
    (:class:`~repro.samplers.base.CachedView`).
    """

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
        # Min-heap of (key, tiebreak, element); the sample holds the k
        # largest keys seen so far.
        self._heap: list[tuple[float, int, Any]] = []
        self._view: tuple[Any, ...] | None = None
        self._tiebreak = 0

    # ------------------------------------------------------------------
    # Key rules (one per family)
    # ------------------------------------------------------------------
    @staticmethod
    @abstractmethod
    def _key(uniform: float, weight: float) -> float:
        """The key of one element from its uniform draw and weight."""

    @staticmethod
    @abstractmethod
    def _keys(uniforms: _Floats, weights: _Floats | None) -> _Floats:
        """:meth:`_key` over a batch, bit for bit (``weights`` is ``None``
        under unit weights)."""

    # ------------------------------------------------------------------
    # StreamSampler interface
    # ------------------------------------------------------------------
    def _weight(self, element: Any) -> float:
        """The element's weight; the one check both paths make."""
        weight = float(self.weight(element))
        if not weight > 0.0:
            raise ConfigurationError(
                f"element weights must be positive, got {weight} for {element!r}"
            )
        return weight

    def process(self, element: Any) -> SampleUpdate:
        # _process checks the weight before the round counter moves, so a
        # rejected element is not a round.
        return self._process(element)

    def _process(self, element: Any) -> SampleUpdate:
        weight = self._weight(element)
        self._round += 1
        # Guard against a zero draw: A-Res would give every weight the key
        # zero, priority sampling would divide by it.
        key = self._key(max(self._rng.random(), 1e-300), weight)
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

        Every weight is read and checked first, so a batch holding an
        invalid weight (or one the weight callable raises on) is rejected
        whole, with no state change.  The keys for the whole batch come from
        one ``Generator.random(n)`` draw (which consumes the bit stream
        exactly like ``n`` scalar draws) and one :meth:`_keys` call; the
        Python-level heap loop then touches only the *candidates* — elements
        whose key beats the heap minimum at the start of the batch.  The
        minimum only rises as elements are accepted, so the candidate set
        (``O(k log n)`` expected of an ``n``-element batch) is a superset of
        the true acceptances, and skipped elements never touch Python
        objects at all.
        """
        elements = list(elements)
        if not elements:
            return UpdateBatch.empty() if updates else None
        n = len(elements)
        weights = (
            None
            if self._unit_weight
            else np.fromiter(map(self._weight, elements), dtype=np.float64, count=n)
        )
        keys = self._keys(np.maximum(self._rng.random(n), 1e-300), weights)
        start_round = self._round
        base_tiebreak = self._tiebreak
        self._round += n
        self._tiebreak += n

        accepted = np.zeros(n, dtype=bool)
        evictions: dict[int, Any] = {}
        heap = self._heap
        position = 0
        # Fill phase: sequential until the heap holds k entries.
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
        """The smallest key currently in the heap (the eviction threshold)."""
        if not self._heap:
            return None
        return self._heap[0][0]


class WeightedReservoirSampler(_KeyHeapSampler):
    """A-Res weighted reservoir sampler: the ``k`` largest keys ``u_i^{1/w_i}``.

    Takes ``capacity``, ``weight`` and ``seed`` as :class:`_KeyHeapSampler`
    documents.
    """

    name = "weighted-reservoir"

    @staticmethod
    def _key(uniform: float, weight: float) -> float:
        return uniform ** (1.0 / weight)

    @staticmethod
    def _keys(uniforms: _Floats, weights: _Floats | None) -> _Floats:
        if weights is None:
            return uniforms
        # Division is exactly rounded, so the exponents can be batched.  The
        # power is a scalar pow per element: numpy's vectorised power may
        # differ from libm by 1 ulp, which could flip a threshold comparison
        # and break bit-identity with the sequential path.
        return np.fromiter(
            (base**exponent for base, exponent in zip(uniforms.tolist(), (1.0 / weights).tolist())),
            dtype=np.float64,
            count=len(uniforms),
        )


class PrioritySampler(_KeyHeapSampler):
    """Priority sampler: the ``k`` largest priorities ``w_i / u_i``.

    Takes ``capacity``, ``weight`` and ``seed`` as :class:`_KeyHeapSampler`
    documents.
    """

    name = "priority"

    @staticmethod
    def _key(uniform: float, weight: float) -> float:
        return weight / uniform

    @staticmethod
    def _keys(uniforms: _Floats, weights: _Floats | None) -> _Floats:
        return (1.0 if weights is None else weights) / uniforms
