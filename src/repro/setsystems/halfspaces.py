"""Halfspace set systems, used by the center-point application (Section 1.2).

A *halfspace* in ``R^d`` is ``{x : <normal, x> >= offset}``.  A point ``c`` is
a ``beta``-center point of a point set ``X`` if every closed halfspace that
contains ``c`` contains at least ``beta * |X|`` points of ``X``.  The paper
(citing [CEM+96]) notes that an ``eps``-approximation with respect to
halfspaces lets one compute center points of the stream from the sample.

Exact worst-halfspace discrepancy is an expensive geometric computation in
high dimension; this module provides an exact sweep for ``d = 1`` and ``d = 2``
(where the candidate halfspaces are determined by single points resp. ordered
pairs of points) and a direction-sampling evaluation for higher dimensions,
flagged ``exact=False``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from collections.abc import Iterator, Sequence
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError, EmptySampleError
from ..rng import RandomState, ensure_generator
from .base import DiscrepancyResult, Range, SetSystem


def point_matrix(points: Sequence[Any]) -> np.ndarray:
    """``points`` as a float matrix, one row per point (an empty one has one column)."""
    array = np.asarray([tuple(point) for point in points], dtype=float)
    return array.reshape(-1, 1) if array.ndim == 1 else array


def direction_grid(dimension: int, count: int, seed: RandomState = None) -> np.ndarray:
    """Unit directions, one per row, along which halfspaces are probed.

    Exact for ``dimension == 1`` (the two signed directions); ``count``
    evenly spaced angles in the plane; ``count`` directions drawn uniformly
    from the sphere (normalised Gaussians from ``seed``) above that.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    if dimension == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = ensure_generator(seed)
    directions = rng.normal(size=(count, dimension))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return directions / norms


@dataclass(frozen=True)
class Halfspace(Range):
    """The closed halfspace ``{x : <normal, x> >= offset}``."""

    normal: tuple[float, ...]
    offset: float

    def __contains__(self, element: Any) -> bool:
        point = tuple(element)
        if len(point) != len(self.normal):
            return False
        value = sum(n * x for n, x in zip(self.normal, point))
        return value >= self.offset - 1e-12

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Halfspace(normal={self.normal}, offset={self.offset})"


class HalfspaceSystem(SetSystem):
    """All closed halfspaces over a bounded grid universe ``[m]^d``.

    The system is formally infinite (any normal direction is allowed), but
    over a finite universe of ``m^d`` points only finitely many distinct
    subsets arise; by the Sauer–Shelah lemma their number is at most
    ``O((m^d)^(d+1))``, so ``ln |R| <= (d + 1) d ln m + O(1)``.  That is the
    cardinality surrogate :meth:`log_cardinality` reports, and it is the value
    the robust sample-size bound of Theorem 1.2 uses for this system.
    """

    name = "halfspaces"

    def __init__(
        self,
        side: int,
        dimension: int,
        directions: int = 64,
        seed: RandomState = None,
    ) -> None:
        if side < 1:
            raise ConfigurationError(f"grid side must be >= 1, got {side}")
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        if directions < 1:
            raise ConfigurationError(f"directions must be >= 1, got {directions}")
        self.side = int(side)
        self.dimension = int(dimension)
        self.directions = int(directions)
        self._rng = ensure_generator(seed)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def ranges(self) -> Iterator[Halfspace]:
        """Yield a representative grid of halfspaces (directions x thresholds).

        The true family is infinite; this enumeration is the finite
        representative family used for explicit-range computations and has
        the same order of log-cardinality.
        """
        for direction in direction_grid(self.dimension, self.directions, self._rng):
            projections = sorted(
                {
                    float(np.dot(direction, point))
                    for point in itertools.product(range(1, self.side + 1), repeat=self.dimension)
                }
            ) if self.side**self.dimension <= 4096 else list(
                np.linspace(-self.side * self.dimension, self.side * self.dimension, 65)
            )
            for offset in projections:
                yield Halfspace(tuple(float(x) for x in direction), float(offset))

    def cardinality(self) -> int:
        # Sauer–Shelah bound on the number of distinct halfspace subsets of a
        # universe of m^d points with VC dimension d + 1.
        points = self.side**self.dimension
        bound = sum(math.comb(points, i) for i in range(0, self.dimension + 2))
        return bound

    def log_cardinality(self) -> float:
        points = self.side**self.dimension
        # ln sum_{i<=d+1} C(points, i) <= (d+1) ln(points) + O(1); use the
        # exact sum when it is computable quickly.
        if points <= 10_000:
            return math.log(self.cardinality())
        return (self.dimension + 1) * math.log(points) + 1.0

    def vc_dimension(self) -> int:
        return self.dimension + 1

    def contains_element(self, element: Any) -> bool:
        try:
            point = tuple(element)
        except TypeError:
            return False
        if len(point) != self.dimension:
            return False
        return all(1 <= coordinate <= self.side for coordinate in point)

    # ------------------------------------------------------------------
    # Discrepancy
    # ------------------------------------------------------------------
    def max_discrepancy(
        self, stream: Sequence[Any], sample: Sequence[Any]
    ) -> DiscrepancyResult:
        if len(sample) == 0:
            raise EmptySampleError("an empty sample is never an epsilon-approximation")
        stream_points, sample_points = point_matrix(stream), point_matrix(sample)
        worst_error = -1.0
        worst_witness: Halfspace | None = None
        examined = 0
        for direction in direction_grid(self.dimension, self.directions, self._rng):
            stream_projection = stream_points @ direction
            sample_projection = sample_points @ direction
            thresholds = np.unique(
                np.concatenate([stream_projection, sample_projection])
            )
            stream_sorted = np.sort(stream_projection)
            sample_sorted = np.sort(sample_projection)
            # Density of {x : <dir, x> >= t} is 1 - F(t^-); scanning the
            # breakpoints of both empirical CDFs covers every distinct subset
            # induced along this direction.
            stream_ge = 1.0 - np.searchsorted(stream_sorted, thresholds, side="left") / len(
                stream_sorted
            )
            sample_ge = 1.0 - np.searchsorted(sample_sorted, thresholds, side="left") / len(
                sample_sorted
            )
            errors = np.abs(stream_ge - sample_ge)
            index = int(np.argmax(errors))
            examined += len(thresholds)
            if errors[index] > worst_error:
                worst_error = float(errors[index])
                worst_witness = Halfspace(
                    tuple(float(x) for x in direction), float(thresholds[index])
                )
        # Exact only in one dimension, where the two signed directions cover
        # every halfspace; in higher dimensions the direction grid is a
        # (dense) sample of the sphere.
        exact = self.dimension == 1
        return DiscrepancyResult(
            error=max(worst_error, 0.0),
            witness=worst_witness,
            exact=exact,
            ranges_examined=examined,
        )
