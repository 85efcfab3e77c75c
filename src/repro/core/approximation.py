"""Epsilon-approximation utilities built on top of the set-system layer.

This module provides the functional API most callers use: given a stream, a
sample and a set system, compute the worst-range discrepancy, decide whether
the sample is an epsilon-approximation (Definition 1.1), and lay out the
geometric checkpoint schedule of Theorem 1.4's proof.  The continuous
experiments judge the sample at those checkpoints with
:func:`~repro.adversary.game.run_continuous_game`, which tracks the stream's
range counts incrementally.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from ..exceptions import EmptySampleError
from ..setsystems.base import DiscrepancyResult, SetSystem


def density(range_: Any, elements: Sequence[Any]) -> float:
    """Return the fraction of ``elements`` lying in ``range_``.

    ``range_`` may be any object supporting ``in`` (all :class:`Range`
    implementations do); repetitions in ``elements`` count individually.
    """
    if len(elements) == 0:
        raise EmptySampleError("density of a range in an empty sequence is undefined")
    return sum(1 for element in elements if element in range_) / len(elements)


def approximation_error(
    set_system: SetSystem, stream: Sequence[Any], sample: Sequence[Any]
) -> float:
    """Return ``sup_R |d_R(stream) - d_R(sample)|`` for the given set system."""
    return set_system.max_discrepancy(stream, sample).error


def approximation_report(
    set_system: SetSystem, stream: Sequence[Any], sample: Sequence[Any]
) -> DiscrepancyResult:
    """Return the full discrepancy result (error, witness range, exactness)."""
    return set_system.max_discrepancy(stream, sample)


def is_epsilon_approximation(
    set_system: SetSystem,
    stream: Sequence[Any],
    sample: Sequence[Any],
    epsilon: float,
) -> bool:
    """Definition 1.1: is ``sample`` an ``epsilon``-approximation of ``stream``?"""
    return approximation_error(set_system, stream, sample) <= epsilon


def geometric_checkpoints(start: int, end: int, ratio: float) -> list[int]:
    """Return the paper's checkpoint schedule ``i_{j+1} = floor((1 + ratio) i_j)``.

    Theorem 1.4's proof evaluates robustness only at ``O(ln(n) / ratio)``
    geometrically spaced positions; this helper reproduces that schedule
    (always including ``start`` and ``end``).
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if end < start:
        raise ValueError(f"end must be >= start, got start={start}, end={end}")
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    points = [start]
    current = start
    while current < end:
        nxt = int((1.0 + ratio) * current)
        if nxt <= current:
            nxt = current + 1
        current = min(nxt, end)
        points.append(current)
    return points
