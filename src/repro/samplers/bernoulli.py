"""Bernoulli sampling (the ``BernoulliSample`` algorithm of the paper).

Each incoming element is stored independently with probability ``p``.  For a
stream of length ``n`` the sample size concentrates around ``n p``
(Chernoff), and Theorem 1.2 shows that choosing
``p >= 10 (ln|R| + ln(4/delta)) / (eps^2 n)`` makes the sample an
epsilon-approximation with probability ``1 - delta`` even against a fully
adaptive adversary.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RandomState, ensure_generator, spawn_generators
from .base import SampleUpdate, StoredSample, StreamSampler, UpdateBatch


class BernoulliSampler(StoredSample, StreamSampler):
    """Keep each element independently with probability ``probability``.

    Parameters
    ----------
    probability:
        The per-element sampling probability ``p`` in ``(0, 1]``.
    seed:
        Seed or generator for the sampler's private coin flips.  The adversary
        observes the sampler's *state* (its sample) but never its future
        randomness, matching the model of Section 2.

    :attr:`sample` is a cached tuple view (:class:`~repro.samplers.base.StoredSample`).
    """

    name = "bernoulli"

    def __init__(self, probability: float, seed: RandomState = None) -> None:
        super().__init__()
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError(
                f"sampling probability must lie in (0, 1], got {probability}"
            )
        self.probability = float(probability)
        self._rng = ensure_generator(seed)
        self._sample: list[Any] = []
        self._view: tuple[Any, ...] | None = None

    # ------------------------------------------------------------------
    # StreamSampler interface
    # ------------------------------------------------------------------
    def _process(self, element: Any) -> SampleUpdate:
        accepted = bool(self._rng.random() < self.probability)
        if accepted:
            self._sample.append(element)
            self._view = None
        return SampleUpdate(self._round, element, accepted)

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        """Vectorised batch ingestion: one numpy draw for the whole batch.

        Bit-identical to feeding the elements through :meth:`process` one by
        one — ``Generator.random(n)`` consumes the underlying bit stream
        exactly like ``n`` scalar draws — so seeded runs reproduce regardless
        of how the stream was chunked.  The per-round record comes back as a
        columnar :class:`UpdateBatch` (no per-element allocations).
        """
        elements = list(elements)
        if not elements:
            return UpdateBatch.empty() if updates else None
        coins = self._rng.random(len(elements))
        accepted = coins < self.probability
        start_round = self._round
        self._round += len(elements)
        kept = [element for element, taken in zip(elements, accepted) if taken]
        if kept:
            self._sample.extend(kept)
            self._view = None
        if not updates:
            return None
        round_indices = np.arange(
            start_round + 1, start_round + len(elements) + 1, dtype=np.int64
        )
        return UpdateBatch(round_indices, elements, accepted)

    def merge(
        self,
        others: Sequence["BernoulliSampler"],
        *,
        rng: np.random.Generator | None = None,
    ) -> "BernoulliSampler":
        """Merge sharded Bernoulli samplers into one summary of the union.

        Exact and deterministic: every element of every substream was kept
        independently with the same probability ``p``, so the union of the
        parts' samples *is* a Bernoulli(``p``) sample of the combined stream.
        Samples are concatenated in part order (``self`` first); the parts
        are not mutated and no randomness is consumed.  The merged sampler
        can keep streaming — its future coins come from ``rng`` (default: a
        fresh independent stream spawned from ``self``'s generator).
        """
        parts = self._validate_merge_parts(others)
        merged = BernoulliSampler(
            self.probability,
            seed=rng if rng is not None else spawn_generators(self._rng, 1)[0],
        )
        merged._round = sum(part._round for part in parts)
        merged._sample = [element for part in parts for element in part._sample]
        return merged

    def _validate_merge_parts(
        self, others: Sequence["BernoulliSampler"]
    ) -> list["BernoulliSampler"]:
        parts = [self, *others]
        for part in parts:
            if not isinstance(part, BernoulliSampler):
                raise ConfigurationError(
                    f"cannot merge a BernoulliSampler with {type(part).__name__}"
                )
            if part.probability != self.probability:
                raise ConfigurationError(
                    "cannot merge Bernoulli samplers with different probabilities: "
                    f"{self.probability} vs {part.probability}"
                )
        return parts

    def reset(self) -> None:
        self._sample = []
        self._view = None
        self._round = 0

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def expected_sample_size_per_element(self) -> float:
        """Expected growth of the sample per processed element (= ``p``)."""
        return self.probability

    def expected_sample_size(self, stream_length: int) -> float:
        """Expected final sample size for a stream of the given length."""
        if stream_length < 0:
            raise ConfigurationError(f"stream length must be >= 0, got {stream_length}")
        return self.probability * stream_length
