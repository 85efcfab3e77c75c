"""Random-number-generation helpers shared across the library.

The paper's adversarial model gives the adversary full knowledge of the
sampler's *state* but not of its future coin flips, so reproducibility of
experiments hinges on carefully separated random streams: the sampler, the
adversary and the workload generator each receive independent generators
derived from a single experiment seed.  This module centralises that logic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

RandomState = int | np.random.Generator | None

#: Default bit generator used throughout the library.
_DEFAULT_BIT_GENERATOR = np.random.PCG64


def ensure_generator(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged).  This is the single conversion point used
    by every randomised component in the library, so seeding behaviour is
    uniform everywhere.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(_DEFAULT_BIT_GENERATOR(seed))


def spawn_generators(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Independence is obtained through :class:`numpy.random.SeedSequence`
    spawning, which is the recommended way to parallelise PCG64 streams.
    When ``seed`` is already a generator its bit generator's seed sequence is
    spawned, so repeated calls keep producing fresh streams.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seed_seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        children = seed_seq.spawn(count)
    else:
        children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(_DEFAULT_BIT_GENERATOR(child)) for child in children]


def collapse_seed(seed: RandomState) -> int:
    """Collapse any accepted seed form into one master integer.

    Used wherever a plain integer must stand in for the seed — substream
    derivation below, and the batch engine, whose master integer (not a live
    generator) crosses process boundaries.  Integer seeds below ``2^128`` are
    preserved exactly: a 32-bit mask would collapse distinct master seeds
    (e.g. ``2^32`` and ``0``) onto identical streams.  ``None`` draws fresh
    entropy; a generator is consumed for one 32-bit draw.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**32))
    if seed is None:
        return int(np.random.SeedSequence().entropy % (2**32))
    return int(seed) & ((1 << 128) - 1)


def derive_substream(seed: RandomState, *labels: int | str) -> np.random.Generator:
    """Return a generator deterministically derived from ``seed`` and ``labels``.

    Useful when an experiment needs a reproducible stream per (trial, role)
    pair: ``derive_substream(seed, trial_index, "adversary")``.  String labels
    are folded into integers via a stable hash so the derivation does not
    depend on Python's per-process hash randomisation.
    """
    keys: list[int] = []
    for label in labels:
        if isinstance(label, int):
            keys.append(label & 0xFFFFFFFF)
        else:
            keys.append(_stable_string_key(str(label)))
    seq = np.random.SeedSequence([collapse_seed(seed), *keys])
    return np.random.Generator(_DEFAULT_BIT_GENERATOR(seq))


def _stable_string_key(label: str) -> int:
    """Fold a string into a 32-bit integer with a process-independent hash."""
    value = 2166136261
    for char in label.encode("utf-8"):
        value ^= char
        value = (value * 16777619) & 0xFFFFFFFF
    return value


def hypergeometric_split(
    rng: np.random.Generator,
    counts: Sequence[int],
    size: int,
    available: Sequence[int] | None = None,
) -> list[int]:
    """Draw a multivariate-hypergeometric allocation of ``size`` slots.

    Part ``i`` summarises ``counts[i]`` stream elements; the returned
    allocation says how many of the ``size`` output slots each part
    contributes, distributed exactly as a uniform ``size``-subset of the
    union of all substreams would be — the merge rule of [CTW16]-style
    coordinator sampling behind :meth:`~repro.samplers.reservoir.
    ReservoirSampler.merge`.

    ``available`` caps how many elements part ``i`` can actually supply
    (its locally stored sample).  Slack caused by the cap is redistributed
    greedily to parts with spare stored elements, as the coordinator always
    did.  The draw sequence (one conditional ``hypergeometric`` per part)
    is kept identical to the historical coordinator implementation so
    seeded merges reproduce across releases.
    """
    counts = [int(count) for count in counts]
    if available is None:
        available = counts
    remaining_size = int(size)
    remaining_total = sum(counts)
    allocation: list[int] = []
    for part, count in enumerate(counts):
        if remaining_size == 0 or remaining_total == 0:
            allocation.append(0)
            continue
        other = remaining_total - count
        draw = int(
            rng.hypergeometric(
                ngood=count, nbad=max(other, 0), nsample=remaining_size
            )
        ) if other >= 0 and remaining_size <= remaining_total else remaining_size
        draw = min(draw, count, int(available[part]), remaining_size)
        allocation.append(draw)
        remaining_size -= draw
        remaining_total -= count
    # Any slack (caused by capping at the locally available sample) is
    # redistributed greedily to parts with spare stored elements.
    part = 0
    while remaining_size > 0 and part < len(counts):
        spare = int(available[part]) - allocation[part]
        grant = min(spare, remaining_size)
        if grant > 0:
            allocation[part] += grant
            remaining_size -= grant
        part += 1
    return allocation


def bernoulli_trial(rng: np.random.Generator, probability: float) -> bool:
    """Return ``True`` with the given probability using ``rng``."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return bool(rng.random() < probability)


def sample_without_replacement(
    rng: np.random.Generator, population: Iterable[Any], size: int
) -> list[Any]:
    """Uniformly sample ``size`` distinct items from ``population``."""
    items = list(population)
    if size > len(items):
        raise ValueError(
            f"cannot sample {size} items from a population of {len(items)}"
        )
    indices = rng.choice(len(items), size=size, replace=False)
    return [items[int(i)] for i in indices]
