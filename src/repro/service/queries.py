"""Pure query kernels evaluated against a published :class:`Snapshot`.

The service layer separates *when* a view is taken (the snapshot store /
writer lock) from *what* is computed on it.  Everything here is a pure
function of an immutable sample tuple (plus, for discrepancy, the writer's
true-count array), so reader threads can evaluate queries with no lock held
and no torn state: once they hold a snapshot, nothing the writer does can
change the answer.

The discrepancy query is Definition 1.1 for the prefix system — the same
quantity the offline game engine scores — computed incrementally from a
counts vector rather than the raw stream, so the service never has to
retain the stream it ingested.

**The sample index.**  Consecutive queries usually share one snapshot (the
service answers several per publish), so the kernels answer from a private
index built at most once per sample: the sample sorted as ``int64``, plus
its distinct values in heavy-hitter order with their multiplicities and
the sample CDF's breakpoints, built by the first query that needs them.
The kernels build it, not the publisher, so a snapshot that no query
reads costs nothing and a kernel's time includes its index.  Only a
``tuple`` whose elements are all exactly ``int`` and fit in ``int64`` gets
an index; that is what a :class:`Snapshot` of an integer stream holds.
Every other sample takes the reference code: a list (which its owner may
mutate between calls), bools, numpy scalars, floats, strings, or ints
beyond ``int64``.  Indexed answers equal the reference answers in value
and in type: Python ``int`` out, never a numpy scalar.

The index sits in a one-slot memo keyed by the sample's *identity*, not by
equality: ``(1, 2) == (True, 2)`` and their hashes agree, so an
equality-keyed cache would answer a bool sample from an int index.  The
slot holds a strong reference, so the identity cannot be reused while the
slot holds it, and the slot is replaced as one tuple, so a concurrent
reader sees the old ``(sample, index)`` pair or the new one, never a mix.
Nothing derived from the discrepancy ``counts`` is cached: that array
belongs to the caller, who may change it between calls.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..exceptions import ConfigurationError, EmptySampleError

__all__ = ["heavy_hitters", "prefix_discrepancy", "quantile"]


def _check_level(q: float) -> None:
    """Reject a quantile level outside ``[0, 1]``."""
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile q must lie in [0, 1], got {q}")


def _check_top(k: int) -> None:
    """Reject a heavy-hitter count below 1."""
    if k < 1:
        raise ConfigurationError(f"heavy_hitters k must be >= 1, got {k}")


class _SampleIndex:
    """One exact-int sample tuple, sorted as ``int64`` (``ordered``), plus
    its run structure, built by the first query that needs it."""

    __slots__ = ("ordered", "_runs")

    def __init__(self, ordered: NDArray[np.int64]) -> None:
        self.ordered = ordered
        self._runs: tuple[NDArray[Any], ...] | None = None

    def runs(self) -> tuple[NDArray[Any], ...]:
        """``(values, multiplicities, points, levels)``.

        ``values`` are the distinct values in heavy-hitter order (most
        frequent first, ties by ascending value) and ``multiplicities``
        their counts.  ``points`` are the thresholds where the prefix
        discrepancy can peak and ``levels`` the sample CDF at each: every
        distinct value ``v``; ``v' - 1`` before each next distinct value
        ``v'``, where the CDF still equals its value at ``v``; and, when
        the smallest value ``v_1`` is positive, ``v_1 - 1``, where it is 0.
        """
        runs = self._runs
        if runs is None:
            ordered = self.ordered
            # One past each distinct value's last position: its cumulative count.
            cumulative = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True)) + 1
            values = ordered[cumulative - 1]
            multiplicities = cumulative.copy()
            multiplicities[1:] -= cumulative[:-1]
            rank = np.argsort(-multiplicities, kind="stable")
            density = cumulative / ordered.shape[0]
            points = [values, values[1:] - 1]
            levels = [density, density[:-1]]
            if values[0] > 0:
                points.append(values[:1] - 1)
                levels.append(np.zeros(1))
            # One assignment, so a racing reader sees all of it or none.
            runs = self._runs = (
                values[rank], multiplicities[rank],
                np.concatenate(points), np.concatenate(levels),
            )
        return runs


#: The last sample looked up and its index (``None`` when it has none).
_memo: tuple[Sequence[Any], _SampleIndex | None] = ((), None)


def _index(sample: Sequence[Any]) -> _SampleIndex | None:
    """The index of ``sample``, or ``None`` when it takes the reference code."""
    global _memo
    held, index = _memo
    if held is sample:
        return index
    if type(sample) is not tuple or not sample:
        return None
    index = None
    if set(map(type, sample)) <= {int}:
        try:
            ordered = np.fromiter(sample, dtype=np.int64, count=len(sample))
        except OverflowError:
            pass
        else:
            ordered.sort()
            index = _SampleIndex(ordered)
    _memo = (sample, index)
    return index


def quantile(sample: Sequence[Any], q: float) -> Any:
    """The empirical ``q``-quantile of the snapshot sample.

    The sample is a uniform-ish subsequence of the stream, so its empirical
    quantile estimates the stream quantile with the set-system guarantee of
    the interval family.  Lower empirical quantile: the element at rank
    ``floor(q * size)`` of the sorted sample, read by position off the
    sample index when the sample has one (see the module docstring).
    """
    _check_level(q)
    if len(sample) == 0:
        raise EmptySampleError("quantile of an empty sample is undefined")
    index = _index(sample)
    if index is not None:
        size = index.ordered.shape[0]
        return int(index.ordered[min(size - 1, int(q * size))])
    ordered = sorted(sample)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def heavy_hitters(sample: Sequence[Any], k: int = 8) -> list[tuple[Any, int]]:
    """The ``k`` most frequent sample elements as ``(element, count)`` pairs.

    Ties are broken by element value so the answer is a pure function of the
    sample multiset (``Counter.most_common`` alone would leak insertion
    order into the report).  With a sample index, a stable sort of the
    multiplicities over the ascending distinct values gives the same order;
    it is done once per sample, and each query slices off the first ``k``.
    """
    _check_top(k)
    index = _index(sample)
    if index is not None:
        values, multiplicities, _, _ = index.runs()
        return list(zip(values[:k].tolist(), multiplicities[:k].tolist()))
    counts = Counter(sample)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def prefix_discrepancy(sample: Sequence[int], counts: NDArray[np.int64]) -> float:
    """Worst prefix-density discrepancy between sample and true counts.

    ``counts[v]`` is the multiplicity of element ``v`` in the stream so far
    (index 0 unused for 1-based universes; any length covering the maximum
    element works).  This is Definition 1.1 for the prefix system
    ``{[1, t]}``, evaluated over every threshold at once via cumulative
    sums — O(universe + sample) per query.

    With a sample index whose values lie in ``[0, len(counts))`` and
    non-negative counts, only the sample's breakpoints are evaluated.  The
    sample CDF is constant between consecutive distinct values ``v`` and
    ``v'``, and the stream CDF is nondecreasing, so on ``[v, v' - 1]`` the
    gap peaks at an end; before the first value the sample CDF is 0.  The
    floats are the same divisions of the same integers as the full scan,
    and rounding is monotone, so the maximum is bit-identical.  Any other
    input takes the full scan, which pads ``counts`` for larger values and
    raises ``ValueError`` for negative ones.  The stream CDF is computed
    on every call, never cached: ``counts`` belongs to the caller, who may
    change it in place between calls.
    """
    if len(sample) == 0:
        raise EmptySampleError("an empty sample is never an epsilon-approximation")
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total <= 0:
        raise EmptySampleError("prefix discrepancy needs a non-empty stream")
    index = _index(sample)
    if (
        index is not None
        and counts.ndim == 1
        and 0 <= index.ordered[0]
        and index.ordered[-1] < counts.shape[0]
        and counts.min() >= 0
    ):
        _, _, points, levels = index.runs()
        stream = np.cumsum(counts)
        return float(np.max(np.abs(stream[points] / total - levels)))
    sample_counts = np.bincount(
        np.asarray(sample, dtype=np.int64), minlength=counts.shape[0]
    )
    if sample_counts.shape[0] > counts.shape[0]:
        counts = np.pad(counts, (0, sample_counts.shape[0] - counts.shape[0]))
    stream_density = np.cumsum(counts) / total
    sample_density = np.cumsum(sample_counts) / len(sample)
    return float(np.max(np.abs(stream_density - sample_density)))
