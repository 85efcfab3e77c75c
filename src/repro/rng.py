"""Random-number-generation helpers shared across the library.

The paper's adversarial model gives the adversary full knowledge of the
sampler's *state* but not of its future coin flips, so reproducibility of
experiments hinges on carefully separated random streams: the sampler, the
adversary and the workload generator each receive independent generators
derived from a single experiment seed.  This module centralises that logic.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence
from numpy.typing import NDArray

if TYPE_CHECKING:
    from typing_extensions import Self

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


class LazySeedSequence(ISpawnableSeedSequence):
    """A :class:`numpy.random.SeedSequence` that is built on first use.

    ``spawn`` hands out children with the ``spawn_key`` and count that
    ``SeedSequence.spawn`` would give, as lazy sequences of their own: a
    child mixes its entropy pool only when a generator is seeded from it
    (``generate_state``), so a spawn whose child is never used costs one
    small object.  Every generated state equals the eager sequence's.
    """

    def __init__(
        self,
        entropy: Any,
        spawn_key: tuple[int, ...],
        pool_size: int,
        n_children_spawned: int = 0,
    ) -> None:
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.pool_size = pool_size
        self.n_children_spawned = n_children_spawned
        self._built: np.random.SeedSequence | None = None

    def generate_state(
        self, n_words: int, dtype: Any = np.uint32
    ) -> NDArray[np.uint32 | np.uint64]:
        built = self._built
        if built is None:
            built = self._built = np.random.SeedSequence(
                self.entropy, spawn_key=self.spawn_key, pool_size=self.pool_size
            )
        return built.generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> list[Self]:
        first = self.n_children_spawned
        self.n_children_spawned = first + n_children
        return [
            type(self)(self.entropy, (*self.spawn_key, index), self.pool_size)
            for index in range(first, first + n_children)
        ]


def with_lazy_spawns(generator: np.random.Generator) -> np.random.Generator:
    """A twin of ``generator`` whose seed sequence spawns lazily.

    The twin starts in ``generator``'s current state and its seed sequence
    is a :class:`LazySeedSequence` with the same entropy, ``spawn_key`` and
    spawn count, so it draws the same bits and spawns the same children as
    ``generator`` would.  For streams that spawn far more children than
    they seed generators from.
    """
    bit_generator = generator.bit_generator
    seq: Any = bit_generator.seed_seq
    lazy = LazySeedSequence(
        seq.entropy, seq.spawn_key, seq.pool_size, seq.n_children_spawned
    )
    # numpy's stubs admit only a SeedSequence; bit generators take any
    # ISeedSequence.
    twin = type(bit_generator)(lazy)  # type: ignore[arg-type]
    twin.state = bit_generator.state
    return np.random.Generator(twin)


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
