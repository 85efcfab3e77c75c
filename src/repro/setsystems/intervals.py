"""Prefix and interval set systems over an ordered discrete universe.

These are the systems the paper works with most:

* the **prefix system** ``R = {[1, b] : b in U}`` over the well-ordered
  universe ``U = {1, ..., N}`` (used by the Figure-3 attack and the quantile
  application, Corollary 1.5); its VC dimension is 1 and ``|R| = N``;
* the **interval system** ``R = {[a, b] : a <= b in U}`` (the natural notion
  of "representative" for ordered data discussed in Section 1); its VC
  dimension is 2 and ``|R| = N (N + 1) / 2``.

Both systems admit near-linear worst-range discrepancy computations through a
Kolmogorov–Smirnov-style sweep over the cumulative density difference, which
is what makes the benchmark harness practical on streams of millions of
elements.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError, EmptySampleError
from .base import DiscrepancyResult, IntegerUniverseSystem, Range, SetSystem


@dataclass(frozen=True)
class Prefix(Range):
    """The range ``[min_value, bound]`` (all universe elements ``<= bound``)."""

    bound: float

    def __contains__(self, element: Any) -> bool:
        return element <= self.bound

    def count_in(self, elements: Iterable[Any]) -> int:
        bound = self.bound
        return len([element for element in elements if element <= bound])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Prefix(<= {self.bound})"


@dataclass(frozen=True)
class Interval(Range):
    """The closed range ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ConfigurationError(
                f"interval low endpoint {self.low} exceeds high endpoint {self.high}"
            )

    def __contains__(self, element: Any) -> bool:
        return self.low <= element <= self.high

    def count_in(self, elements: Iterable[Any]) -> int:
        low, high = self.low, self.high
        return len([element for element in elements if low <= element <= high])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interval([{self.low}, {self.high}])"


def _cumulative_difference(
    stream: Sequence[Any], sample: Sequence[Any]
) -> tuple[list, np.ndarray]:
    """Return breakpoints and the cumulative density difference at each breakpoint.

    For each distinct value ``v`` appearing in the stream or the sample,
    computes ``F_stream(v) - F_sample(v)`` where ``F`` is the empirical CDF
    (fraction of elements ``<= v``): the difference a prefix or interval
    system's :meth:`~repro.setsystems.base.IntegerUniverseSystem.worst_range`
    reduces.  Integer data keep their integer breakpoints, so witnesses are
    ranges of the system.

    The computation only needs the *order* of the values, not their
    magnitudes: when elements are huge Python integers (the Figure-3 attack
    uses universes of thousands of bits) the fast numpy path would overflow,
    so a pure-Python bisection fallback is used instead.
    """
    if len(sample) == 0:
        raise EmptySampleError("an empty sample is never an epsilon-approximation")
    stream_sorted = sorted(stream)
    sample_sorted = sorted(sample)
    if _requires_exact_arithmetic(stream_sorted, sample_sorted):
        return _cumulative_difference_exact(stream_sorted, sample_sorted)
    try:
        stream_values = _as_numbers(stream_sorted)
        sample_values = _as_numbers(sample_sorted)
        if not (np.isfinite(stream_values).all() and np.isfinite(sample_values).all()):
            raise OverflowError("non-finite values after float conversion")
    except (OverflowError, ValueError):
        return _cumulative_difference_exact(stream_sorted, sample_sorted)
    breakpoints = np.unique(np.concatenate([stream_values, sample_values]))
    stream_cdf = np.searchsorted(stream_values, breakpoints, side="right") / len(stream_values)
    sample_cdf = np.searchsorted(sample_values, breakpoints, side="right") / len(sample_values)
    return breakpoints.tolist(), stream_cdf - sample_cdf


def _as_numbers(values: list) -> np.ndarray:
    """``values`` as an integer array when numpy infers one, else as floats."""
    array = np.asarray(values)
    return array if array.dtype.kind in "iu" else array.astype(float, copy=False)


def _requires_exact_arithmetic(stream_sorted: list, sample_sorted: list) -> bool:
    """True when elements are integers too large for IEEE doubles to keep distinct.

    Converting integers above ``2^53`` to floats can merge adjacent values,
    which would silently *understate* the discrepancy of attack streams; such
    data is routed to the exact (order-comparison) path instead.
    """
    extremes = (stream_sorted[0], stream_sorted[-1], sample_sorted[0], sample_sorted[-1])
    return any(isinstance(value, int) and abs(value) > 2**53 for value in extremes)


def _cumulative_difference_exact(stream_sorted: list, sample_sorted: list) -> tuple[list, np.ndarray]:
    """Order-based fallback of :func:`_cumulative_difference` for huge integers."""
    breakpoints: list = []
    for value in _merge_unique(stream_sorted, sample_sorted):
        breakpoints.append(value)
    stream_cdf = np.array(
        [bisect.bisect_right(stream_sorted, value) / len(stream_sorted) for value in breakpoints]
    )
    sample_cdf = np.array(
        [bisect.bisect_right(sample_sorted, value) / len(sample_sorted) for value in breakpoints]
    )
    return breakpoints, stream_cdf - sample_cdf


def _merge_unique(first: list, second: list) -> list:
    """Merge two sorted lists into a sorted list of distinct values."""
    merged: list = []
    i = j = 0
    while i < len(first) or j < len(second):
        if j >= len(second) or (i < len(first) and first[i] <= second[j]):
            candidate = first[i]
            i += 1
        else:
            candidate = second[j]
            j += 1
        if not merged or candidate != merged[-1]:
            merged.append(candidate)
    return merged


class PrefixSystem(IntegerUniverseSystem):
    """The one-sided interval (prefix) system ``{[1, b] : b in U}`` over ``U = [N]``.

    Parameters
    ----------
    universe_size:
        ``N``, the number of elements in the ordered universe ``{1, ..., N}``.
    """

    name = "prefixes"
    range_type = Prefix

    def ranges(self) -> Iterator[Prefix]:
        for bound in range(1, self.universe_size + 1):
            yield Prefix(bound)

    def cardinality(self) -> int:
        return self.universe_size

    def vc_dimension(self) -> int:
        # Prefixes over a totally ordered universe shatter any single point but
        # no pair (the smaller point of a pair cannot be excluded while the
        # larger is included).
        return 1

    def max_discrepancy(
        self, stream: Sequence[Any], sample: Sequence[Any]
    ) -> DiscrepancyResult:
        return self.worst_range(*_cumulative_difference(stream, sample))


class IntervalSystem(IntegerUniverseSystem):
    """The system of all closed intervals ``{[a, b] : a <= b in U}`` over ``U = [N]``."""

    name = "intervals"

    def ranges(self) -> Iterator[Interval]:
        for low in range(1, self.universe_size + 1):
            for high in range(low, self.universe_size + 1):
                yield Interval(low, high)

    def cardinality(self) -> int:
        return self.universe_size * (self.universe_size + 1) // 2

    def vc_dimension(self) -> int:
        # Intervals shatter any two points but no three (the middle point of a
        # sorted triple cannot be excluded while the outer two are included).
        return 2 if self.universe_size >= 2 else 1

    @classmethod
    def worst_range(cls, values: Sequence[Any], difference: np.ndarray) -> DiscrepancyResult:
        """The interval from the minimiser to the maximiser of the cumulative difference.

        The density difference of the interval ``(a, b]`` equals
        ``D(b) - D(a)``, where ``D`` is the cumulative difference and
        ``D = 0`` before the first value; the worst interval therefore spans
        from the minimiser to the maximiser of ``D``, in either order.
        """
        padded = np.concatenate([[0.0], difference])
        max_index = int(np.argmax(padded))
        min_index = int(np.argmin(padded))
        error = float(padded[max_index] - padded[min_index])
        # Padded index i > 0 is values[i - 1]; index 0 lies before them all.
        low, high = sorted((min_index, max_index))
        if error == 0.0:
            witness: Range = Prefix(values[0])
        elif low == 0:
            witness = Prefix(values[high - 1])
        else:
            # The witness opens just after values[low - 1]: integer data step
            # by one, continuous data by the smallest representable step.
            left = values[low - 1]
            opening = left + 1 if isinstance(left, int) else np.nextafter(left, math.inf)
            witness = Interval(opening, values[high - 1])
        return DiscrepancyResult(
            error=error,
            witness=witness,
            exact=True,
            ranges_examined=len(values) + 1,
        )

    def max_discrepancy(
        self, stream: Sequence[Any], sample: Sequence[Any]
    ) -> DiscrepancyResult:
        return self.worst_range(*_cumulative_difference(stream, sample))


class ContinuousPrefixSystem(SetSystem):
    """Prefix system over the continuous universe ``[0, 1]``.

    This is the set system implicit in the introduction's bisection attack:
    the universe is the real interval ``[0, 1]`` and the ranges are all
    prefixes ``[0, b]``.  Its cardinality is infinite, so the adaptive bound
    of Theorem 1.2 is vacuous here — which is exactly the point of the
    introduction's example.  :meth:`cardinality` therefore raises; callers
    needing a finite surrogate should discretise via :class:`PrefixSystem`.
    """

    name = "continuous-prefixes"

    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        if not low < high:
            raise ConfigurationError(f"need low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def ranges(self) -> Iterator[Prefix]:
        raise ConfigurationError(
            "the continuous prefix system has uncountably many ranges; "
            "use max_discrepancy, which only needs data-defined breakpoints"
        )

    def cardinality(self) -> int:
        raise ConfigurationError("the continuous prefix system has infinite cardinality")

    def log_cardinality(self) -> float:
        return math.inf

    def vc_dimension(self) -> int:
        return 1

    def contains_element(self, element: Any) -> bool:
        return self.low <= element <= self.high

    def max_discrepancy(
        self, stream: Sequence[Any], sample: Sequence[Any]
    ) -> DiscrepancyResult:
        return PrefixSystem.worst_range(*_cumulative_difference(stream, sample))
