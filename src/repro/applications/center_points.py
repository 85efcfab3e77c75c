"""Approximate center points from samples (Section 1.2, "Center points").

A point ``c`` is a *beta-center point* of a point set ``X`` if every closed
halfspace containing ``c`` contains at least ``beta |X|`` points of ``X``.
The paper (citing [CEM+96, Lemma 6.1]) notes that an epsilon-approximation
with respect to halfspaces transfers center points between the sample and the
stream: with ``epsilon = beta / 5``, a ``6 beta / 5``-center of the sample is
a ``beta``-center of the stream.

The geometric primitive needed is *Tukey depth* (the minimum, over halfspaces
through a point, of the fraction of data on the other side).  Exact Tukey
depth is itself a non-trivial computation in higher dimensions; this module
evaluates it over a dense grid of directions (exact in 1-D, where two
directions suffice), which is the standard practical surrogate and is
documented as such in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..exceptions import ConfigurationError, EmptySampleError
from ..rng import RandomState
from ..setsystems.halfspaces import direction_grid, point_matrix


def tukey_depth(
    point: Sequence[float],
    points: Sequence,
    directions: np.ndarray | None = None,
    num_directions: int = 64,
    seed: RandomState = None,
) -> float:
    """Approximate Tukey depth of ``point`` within ``points`` (fraction in [0, 1]).

    The depth is the minimum, over the probed directions, of the fraction of
    data points lying in the closed halfspace on the far side of ``point``.
    A ``beta``-center point is precisely a point of depth at least ``beta``.
    """
    data = point_matrix(points)
    if len(data) == 0:
        raise EmptySampleError("cannot compute depth within an empty point set")
    query = np.asarray(tuple(point) if hasattr(point, "__len__") else (point,), dtype=float)
    if directions is None:
        directions = direction_grid(data.shape[1], num_directions, seed)
    projections = data @ directions.T
    query_projection = query @ directions.T
    # For each direction, the fraction of points on the "greater or equal"
    # side of the query; the depth is the minimum over directions.
    fractions = (projections >= query_projection - 1e-12).mean(axis=0)
    return float(fractions.min())


def is_beta_center(
    point: Sequence[float],
    points: Sequence,
    beta: float,
    directions: np.ndarray | None = None,
    num_directions: int = 64,
) -> bool:
    """Check whether ``point`` is a ``beta``-center of ``points`` (via probed depth)."""
    if not 0.0 < beta <= 0.5 + 1e-9:
        raise ConfigurationError(f"beta must lie in (0, 0.5], got {beta}")
    return tukey_depth(point, points, directions, num_directions) >= beta - 1e-12


def deepest_point(
    points: Sequence,
    candidates: Sequence | None = None,
    num_directions: int = 64,
    seed: RandomState = None,
) -> tuple[tuple[float, ...], float]:
    """Return the candidate of maximum (approximate) Tukey depth and its depth.

    By default the candidates are the points themselves plus the coordinate-wise
    median, which in low dimensions reliably contains a point of depth close to
    the maximum possible (``>= 1 / (d + 1)`` is always achievable).
    """
    data = point_matrix(points)
    if len(data) == 0:
        raise EmptySampleError("cannot find a center of an empty point set")
    directions = direction_grid(data.shape[1], num_directions, seed)
    if candidates is None:
        median = tuple(float(v) for v in np.median(data, axis=0))
        candidate_list = [tuple(float(c) for c in row) for row in data]
        candidate_list.append(median)
    else:
        candidate_list = [tuple(float(c) for c in np.atleast_1d(np.asarray(candidate, dtype=float)))
                          for candidate in candidates]
    best_point = candidate_list[0]
    best_depth = -1.0
    for candidate in candidate_list:
        depth = tukey_depth(candidate, points, directions)
        if depth > best_depth:
            best_depth = depth
            best_point = candidate
    return best_point, best_depth


@dataclass(frozen=True)
class CenterPointResult:
    """A center point computed from a sample, evaluated on the full stream."""

    point: tuple[float, ...]
    sample_depth: float
    stream_depth: float
    beta: float

    @property
    def valid_for_stream(self) -> bool:
        """Did the sample's center transfer to the stream as a beta-center?"""
        return self.stream_depth >= self.beta - 1e-12


def center_from_sample(
    sample: Sequence,
    stream: Sequence,
    beta: float,
    num_directions: int = 64,
    seed: RandomState = None,
) -> CenterPointResult:
    """Compute a ``(6/5) beta``-center of the sample and evaluate it on the stream.

    This is the paper's recipe with ``epsilon = beta / 5``: if the sample is an
    ``epsilon``-approximation with respect to halfspaces, the returned point is
    guaranteed to be a ``beta``-center of the stream.
    """
    if not 0.0 < beta <= 0.5:
        raise ConfigurationError(f"beta must lie in (0, 0.5], got {beta}")
    point, sample_depth = deepest_point(sample, num_directions=num_directions, seed=seed)
    stream_depth = tukey_depth(point, stream, num_directions=num_directions, seed=seed)
    return CenterPointResult(
        point=point, sample_depth=sample_depth, stream_depth=stream_depth, beta=beta
    )
