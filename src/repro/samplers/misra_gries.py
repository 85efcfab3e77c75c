"""Misra–Gries deterministic heavy-hitters summary.

Deterministic counterpart to the sample-and-count heavy-hitters algorithm of
Corollary 1.6: with ``k`` counters the summary estimates every element's
frequency within ``n / (k + 1)``, so choosing ``k >= 1 / epsilon`` suffices
for the (alpha, epsilon) heavy-hitters task.  Being deterministic it is
automatically robust against adaptive adversaries — at the cost of having to
examine every element, which is exactly the trade-off the paper highlights.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Sequence
from typing import Any

from ..exceptions import ConfigurationError


class MisraGriesSummary:
    """Frequency summary with ``capacity`` counters and additive error ``n / (capacity + 1)``."""

    name = "misra-gries"

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._counters: dict[Any, int] = {}
        self._count = 0
        # Cumulative amount subtracted from every (tracked or untracked)
        # element's counter by decrement-all steps and merge truncations —
        # the summary's exact worst-case underestimate (see
        # :attr:`max_underestimate`).
        self._decrements = 0

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def update(self, element: Any) -> None:
        """Process one stream element; an unhashable one raises ``TypeError``
        with no state change."""
        # An unhashable element raises here, before anything changes.
        tracked = element in self._counters
        self._count += 1
        if tracked:
            self._counters[element] += 1
            return
        if len(self._counters) < self.capacity:
            self._counters[element] = 1
            return
        # Decrement-all step: every counter loses one; zeroed counters vanish.
        self._decrements += 1
        exhausted = []
        for key in self._counters:
            self._counters[key] -= 1
            if self._counters[key] == 0:
                exhausted.append(key)
        for key in exhausted:
            del self._counters[key]

    def extend(self, elements: Iterable[Any]) -> None:
        """Process a batch of stream elements with chunked counter updates.

        Bit-identical to sequential processing on every input.  The key
        observation: while incoming elements hit keys that are *already
        tracked*, the per-element rule only increments counters — no key can
        appear or vanish — so maximal runs of tracked elements collapse to
        one ``collections.Counter`` pass and a bulk merge.  Novel keys (where
        eviction order matters) are processed by the exact per-element rule
        between runs.  The per-element rule is already a bare dict update,
        so the payoff is modest: parity at typical skew (runs are short),
        ~2x when a few keys dominate outright and runs grow long.

        Every element is hashed before any state changes, so a batch holding
        an unhashable element raises ``TypeError`` and ingests none of it.
        """
        elements = list(elements)
        deque(map(hash, elements), maxlen=0)
        counters = self._counters
        update = self.update

        def flush(start: int, stop: int) -> None:
            length = stop - start
            if length <= 32:
                # A Counter pass only pays off on long runs; short ones take
                # plain increments (still one dict op per element).
                for position in range(start, stop):
                    counters[elements[position]] += 1
            else:
                for key, increment in Counter(elements[start:stop]).items():
                    counters[key] += increment
            self._count += length

        run_start = None
        for position, element in enumerate(elements):
            if element in counters:
                if run_start is None:
                    run_start = position
                continue
            if run_start is not None:
                flush(run_start, position)
                run_start = None
            update(element)
        if run_start is not None:
            flush(run_start, len(elements))

    # ------------------------------------------------------------------
    # Merging (the mergeable-summaries rule)
    # ------------------------------------------------------------------
    def merge(self, others: Sequence["MisraGriesSummary"], *, rng: Any = None) -> "MisraGriesSummary":
        """Merge sharded summaries via the summed-counter rule.

        Counters are added key-wise; if more than ``capacity`` keys survive,
        the ``(capacity + 1)``-th largest merged count is subtracted from
        every counter and non-positive counters are dropped — the classical
        mergeable-summaries rule, which keeps the total underestimate within
        ``n / (capacity + 1)`` for the combined stream length ``n`` (each
        unit of subtraction destroys at least ``capacity + 1`` units of
        counted weight, exactly like a streaming decrement-all step).  The
        subtraction is accounted in :attr:`max_underestimate`, so the error
        budget of a sharded deployment is explicit rather than implied.
        Deterministic (``rng`` is accepted for protocol uniformity and
        ignored); the parts are not mutated.

        When the merged counters fit within ``capacity`` no truncation
        happens and the merge is **exact**: every estimate equals the sum of
        the parts' estimates.
        """
        parts = [self, *others]
        for part in parts:
            if not isinstance(part, MisraGriesSummary):
                raise ConfigurationError(
                    f"cannot merge a MisraGriesSummary with {type(part).__name__}"
                )
            if part.capacity != self.capacity:
                raise ConfigurationError(
                    "cannot merge summaries of different capacities: "
                    f"{self.capacity} vs {part.capacity}"
                )
        merged = MisraGriesSummary(self.capacity)
        counters: Counter = Counter()
        for part in parts:
            counters.update(part._counters)
            merged._count += part._count
            merged._decrements += part._decrements
        if len(counters) > self.capacity:
            by_count = sorted(counters.values(), reverse=True)
            truncation = by_count[self.capacity]
            counters = Counter(
                {key: count - truncation for key, count in counters.items() if count > truncation}
            )
            merged._decrements += truncation
        merged._counters = dict(counters)
        return merged

    @property
    def max_underestimate(self) -> int:
        """Exact worst-case underestimate of any element's frequency.

        The sum of every decrement-all step and merge truncation this
        summary (and the parts it was merged from) ever performed.  Always
        within the Misra–Gries guarantee ``count // (capacity + 1)`` —
        including across arbitrarily many merges — because each unit of
        subtraction destroys at least ``capacity + 1`` units of counted
        weight.
        """
        return self._decrements

    def degradation_report(self) -> dict[str, Any]:
        """Deterministic error accounting for merged / degraded summaries.

        ``max_underestimate`` is the realised worst-case underestimate
        (decrement-all steps plus merge truncations actually performed);
        ``guarantee`` is the family's a-priori bound for the represented
        stream length.  The realised value never exceeds the guarantee, so
        the pair brackets the error of any survivor-subset merge.
        """
        return {
            "family": self.name,
            "rounds": self._count,
            "sample_size": len(self._counters),
            "capacity": self.capacity,
            "max_underestimate": self._decrements,
            "guarantee": self._count // (self.capacity + 1),
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, element: Any) -> int:
        """Lower-bound estimate of the element's frequency (within ``n/(capacity+1)``)."""
        return self._counters.get(element, 0)

    def frequency_bounds(self, element: Any) -> tuple[int, int]:
        """Return (lower, upper) bounds on the element's true frequency."""
        lower = self.estimate(element)
        slack = self._count // (self.capacity + 1)
        return lower, lower + slack

    def heavy_hitters(self, threshold_fraction: float) -> dict[Any, int]:
        """Return candidate elements whose frequency may be ``>= threshold_fraction * n``.

        Guaranteed to include every true heavy hitter; may include false
        positives whose frequency is at least ``threshold - n/(capacity+1)``.
        """
        if not 0.0 < threshold_fraction <= 1.0:
            raise ConfigurationError(
                f"threshold fraction must lie in (0, 1], got {threshold_fraction}"
            )
        slack = self._count / (self.capacity + 1)
        cutoff = threshold_fraction * self._count - slack
        return {
            element: count
            for element, count in self._counters.items()
            if count >= cutoff
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of stream elements processed."""
        return self._count

    def memory_footprint(self) -> int:
        """Number of counters currently held."""
        return len(self._counters)

    def reset(self) -> None:
        self._counters = {}
        self._count = 0
        self._decrements = 0
