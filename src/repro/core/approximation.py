"""The checkpoint schedule of Theorem 1.4's proof.

Definition 1.1 itself lives on the set systems: ``max_discrepancy``,
``is_epsilon_approximation`` and ``density`` of
:class:`~repro.setsystems.base.SetSystem`, and the incremental
:meth:`~repro.setsystems.base.SetSystem.make_tracker`.  The continuous
experiments judge the sample at the checkpoints laid out here with
:func:`~repro.adversary.game.run_continuous_game`, which tracks the stream's
range counts incrementally.
"""

from __future__ import annotations


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
