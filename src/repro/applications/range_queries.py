"""Sample-based range counting over grid universes (Section 1.2, "Range queries").

With ``R`` the axis-aligned boxes over ``U = [m]^d``, an epsilon-approximation
``S`` of the stream answers every box-counting query within ``epsilon * n``:
the estimate is simply ``d_R(S) * n``.  Because ``ln |R| = O(d ln m)``, the
adaptive sample size is ``O((d ln m + ln(1/delta)) / epsilon^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Any

from ..exceptions import ConfigurationError, EmptySampleError
from ..rng import RandomState
from ..setsystems.rectangles import Box, RectangleSystem
from .sampled import Mechanism, SampledEstimator


def exact_range_count(points: Sequence[tuple], box: Box) -> int:
    """Ground truth: number of stream points inside the box."""
    return sum(1 for point in points if point in box)


@dataclass(frozen=True)
class RangeQueryResult:
    """One answered range query: the estimate, the truth and the normalised error."""

    box: Box
    estimate: float
    exact: int
    stream_length: int

    @property
    def normalized_error(self) -> float:
        """``|estimate - exact| / n`` — the quantity bounded by epsilon."""
        if self.stream_length == 0:
            return 0.0
        return abs(self.estimate - self.exact) / self.stream_length


class SampleRangeCounter(SampledEstimator):
    """Streaming range-count estimator backed by a robust random sample.

    Parameters
    ----------
    side / dimension:
        The grid universe ``[side]^dimension``; the sample is sized for the
        box system over it.
    epsilon / delta:
        Target additive error (as a fraction of ``n``) and failure probability.
    stream_length:
        Needed for the Bernoulli mechanism.
    mechanism:
        ``"reservoir"`` (default) or ``"bernoulli"``.
    """

    _plural = "range counters"

    def __init__(
        self,
        side: int,
        dimension: int,
        epsilon: float,
        delta: float,
        stream_length: int | None = None,
        mechanism: Mechanism = "reservoir",
        seed: RandomState = None,
    ) -> None:
        if side < 2:
            raise ConfigurationError(f"grid side must be >= 2, got {side}")
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        self.side = int(side)
        self.dimension = int(dimension)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        super().__init__(
            # Only ln|R| is read, so the system's generator never draws.
            RectangleSystem(self.side, self.dimension, seed=0),
            epsilon,
            delta,
            stream_length,
            mechanism,
            seed,
        )

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def update(self, point: tuple) -> None:
        """Process one stream point (a ``dimension``-tuple of grid coordinates)."""
        super().update(self._point(point))

    def extend(self, points: Iterable[tuple]) -> None:
        """Process a batch of stream points, each checked before any is sampled."""
        super().extend([self._point(point) for point in points])

    def _point(self, point: Iterable[Any]) -> tuple:
        point = tuple(point)
        if len(point) != self.dimension:
            raise ConfigurationError(
                f"expected {self.dimension}-dimensional points, got {point!r}"
            )
        return point

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, box: Box) -> float:
        """Estimate the number of stream points inside ``box``."""
        sample = self._sampler.sample
        if len(sample) == 0:
            raise EmptySampleError("the counter has not retained any point yet")
        density = sum(1 for point in sample if point in box) / len(sample)
        return density * self._count

    def answer(self, box: Box, stream: Sequence[tuple]) -> RangeQueryResult:
        """Answer a query and package it with the exact count for evaluation."""
        return RangeQueryResult(
            box=box,
            estimate=self.count(box),
            exact=exact_range_count(stream, box),
            stream_length=len(stream),
        )

    @property
    def count_processed(self) -> int:
        """Number of stream points processed."""
        return self._count
