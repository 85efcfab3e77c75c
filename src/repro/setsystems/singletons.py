"""The singleton set system, used by the heavy-hitters application.

For a universe ``U``, the singleton system is ``R = {{a} : a in U}``.  An
epsilon-approximation with respect to it preserves every element's relative
frequency up to an additive ``epsilon``, which is exactly what the
sample-and-count heavy-hitters algorithm of Corollary 1.6 needs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Iterator, Sequence
from typing import Any

from ..exceptions import EmptySampleError
from .base import DiscrepancyResult, IntegerUniverseSystem, Range


@dataclass(frozen=True)
class Singleton(Range):
    """The range containing exactly one universe element."""

    value: Any

    def __contains__(self, element: Any) -> bool:
        return element == self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Singleton({self.value!r})"


class SingletonSystem(IntegerUniverseSystem):
    """``R = {{a} : a in U}`` over the discrete universe ``U = {1, ..., N}``.

    The VC dimension of the singleton system is 1 (a single point is
    shattered; no pair is, because no singleton contains both points), while
    its cardinality is ``N`` — another instance of the gap the paper is about.

    Its batch :meth:`max_discrepancy` counts with a :class:`~collections.Counter`,
    so it judges samples of any hashable elements; its tracker reads the
    per-value difference through :meth:`worst_range`.
    """

    name = "singletons"
    cumulative = False
    range_type = Singleton

    def ranges(self) -> Iterator[Singleton]:
        for value in range(1, self.universe_size + 1):
            yield Singleton(value)

    def cardinality(self) -> int:
        return self.universe_size

    def vc_dimension(self) -> int:
        return 1

    def max_discrepancy(
        self, stream: Sequence[Any], sample: Sequence[Any]
    ) -> DiscrepancyResult:
        if len(sample) == 0:
            raise EmptySampleError("an empty sample is never an epsilon-approximation")
        stream_counts = Counter(stream)
        sample_counts = Counter(sample)
        worst_error = 0.0
        worst_value: Any = None
        examined = 0
        for value in stream_counts.keys() | sample_counts.keys():
            examined += 1
            stream_density = stream_counts.get(value, 0) / len(stream)
            sample_density = sample_counts.get(value, 0) / len(sample)
            error = abs(stream_density - sample_density)
            if error > worst_error or worst_value is None:
                worst_error = error
                worst_value = value
        return DiscrepancyResult(
            error=worst_error,
            witness=Singleton(worst_value),
            exact=True,
            ranges_examined=examined,
        )
