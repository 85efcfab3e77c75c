"""Reference copies of the service's query kernels, for differential tests.

These are the kernels as they were before ``repro.service.queries`` gained
its per-snapshot sample index, kept verbatim (names aside).  The tests
require the shipped kernels to return the same answer of the same type, or
raise the same exception type, on every input.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.exceptions import ConfigurationError, EmptySampleError


def reference_quantile(sample: Sequence[Any], q: float) -> Any:
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile q must lie in [0, 1], got {q}")
    if len(sample) == 0:
        raise EmptySampleError("quantile of an empty sample is undefined")
    ordered = sorted(sample)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def reference_heavy_hitters(sample: Sequence[Any], k: int = 8) -> list[tuple[Any, int]]:
    if k < 1:
        raise ConfigurationError(f"heavy_hitters k must be >= 1, got {k}")
    counts = Counter(sample)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def reference_prefix_discrepancy(sample: Sequence[int], counts: NDArray[np.int64]) -> float:
    if len(sample) == 0:
        raise EmptySampleError("an empty sample is never an epsilon-approximation")
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total <= 0:
        raise EmptySampleError("prefix discrepancy needs a non-empty stream")
    sample_counts = np.bincount(
        np.asarray(sample, dtype=np.int64), minlength=counts.shape[0]
    )
    if sample_counts.shape[0] > counts.shape[0]:
        counts = np.pad(counts, (0, sample_counts.shape[0] - counts.shape[0]))
    stream_density = np.cumsum(counts) / total
    sample_density = np.cumsum(sample_counts) / len(sample)
    return float(np.max(np.abs(stream_density - sample_density)))


def outcome(kernel: Callable[..., Any], *args: Any) -> tuple[str, Any]:
    """``("value", answer)`` or ``("raised", exception type)``."""
    try:
        return "value", kernel(*args)
    except Exception as error:
        return "raised", type(error)


def identical(left: Any, right: Any) -> bool:
    """Equal, with every element of every answer of the same type."""
    if type(left) is not type(right):
        return False
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(identical, left, right))
    return bool(left == right)
