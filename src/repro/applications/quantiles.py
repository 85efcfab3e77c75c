"""Robust quantile estimation from samples (Corollary 1.5).

If a sample ``S`` is an epsilon-approximation of the stream ``X`` with respect
to the prefix system, then the rank of *every* element is preserved up to
``epsilon * n`` simultaneously, so every quantile of the sample is an
epsilon-approximate quantile of the stream.  :class:`RobustQuantileSketch`
packages a Bernoulli or reservoir sampler sized per Corollary 1.5 (the
prefix system's :class:`~repro.applications.sampled.SampledEstimator`) behind a
quantile-sketch interface, and the helper functions measure quantile/rank
errors for the experiments.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from ..exceptions import ConfigurationError, EmptySampleError
from ..rng import RandomState
from ..setsystems.intervals import PrefixSystem
from .sampled import Mechanism, SampledEstimator


def rank_of(sequence: Sequence[float], value: float) -> int:
    """The paper's rank: the number of stream elements ``<= value``."""
    return sum(1 for element in sequence if element <= value)


def empirical_quantile(sequence: Sequence[float], fraction: float) -> float:
    """The smallest element whose rank is at least ``fraction * len(sequence)``."""
    if len(sequence) == 0:
        raise EmptySampleError("cannot take a quantile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"fraction must lie in [0, 1], got {fraction}")
    ordered = sorted(sequence)
    index = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def quantile_rank_error(
    stream: Sequence[float], sample: Sequence[float], fraction: float
) -> float:
    """Normalised rank error of the sample's ``fraction``-quantile within the stream.

    The sample's ``fraction``-quantile ``q_S`` is correct when its rank range
    within the stream — ``[#\\{x < q_S\\}, #\\{x <= q_S\\}] / n``, a range
    because of ties — contains ``fraction``; otherwise the error is the
    distance from ``fraction`` to that range.  Corollary 1.5 bounds this
    quantity by ``epsilon``.
    """
    if len(stream) == 0:
        raise EmptySampleError("cannot evaluate against an empty stream")
    estimate = empirical_quantile(sample, fraction)
    below = sum(1 for element in stream if element < estimate) / len(stream)
    at_or_below = rank_of(stream, estimate) / len(stream)
    if below <= fraction <= at_or_below:
        return 0.0
    return min(abs(fraction - below), abs(fraction - at_or_below))


def worst_quantile_error(
    stream: Sequence[float],
    sample: Sequence[float],
    fractions: Iterable[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
) -> float:
    """Maximum rank error over a set of quantile fractions (simultaneity check)."""
    return max(quantile_rank_error(stream, sample, fraction) for fraction in fractions)


class RobustQuantileSketch(SampledEstimator):
    """Quantile sketch backed by an adversarially robust random sample.

    Parameters
    ----------
    universe_size:
        Size ``|U|`` of the ordered universe; Corollary 1.5's sample is sized
        for the prefix system over it, ``ln |R| = ln |U|``.
    epsilon / delta:
        Target rank accuracy and failure probability.
    stream_length:
        Expected stream length (needed to size Bernoulli sampling; the
        reservoir variant ignores it).
    mechanism:
        ``"reservoir"`` (default) or ``"bernoulli"``.
    seed:
        Randomness for the underlying sampler.
    """

    _plural = "quantile sketches"

    def __init__(
        self,
        universe_size: int,
        epsilon: float,
        delta: float,
        stream_length: int | None = None,
        mechanism: Mechanism = "reservoir",
        seed: RandomState = None,
    ) -> None:
        if universe_size < 2:
            raise ConfigurationError(f"universe size must be >= 2, got {universe_size}")
        self.universe_size = int(universe_size)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.mechanism = mechanism
        super().__init__(
            PrefixSystem(self.universe_size), epsilon, delta, stream_length, mechanism, seed
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def quantile(self, fraction: float) -> float:
        """An element whose stream rank is within ``epsilon * n`` of ``fraction * n``."""
        sample = self._sampler.sample
        if len(sample) == 0:
            raise EmptySampleError("the sketch has not retained any element yet")
        return empirical_quantile(list(sample), fraction)

    def median(self) -> float:
        """Approximate median of the stream."""
        return self.quantile(0.5)

    def rank_estimate(self, value: float) -> float:
        """Estimated number of stream elements ``<= value``."""
        sample = self._sampler.sample
        if len(sample) == 0:
            raise EmptySampleError("the sketch has not retained any element yet")
        return rank_of(list(sample), value) / len(sample) * self._count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of stream elements processed so far."""
        return self._count

    def memory_footprint(self) -> int:
        """Number of retained stream elements."""
        return self._sampler.memory_footprint()
