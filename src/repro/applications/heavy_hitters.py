"""Sample-based heavy hitters in the adversarial model (Corollary 1.6).

The algorithm is exactly the paper's: compute an ``epsilon' = epsilon / 3``
approximation ``S`` of the stream with respect to the singleton system and
output every element whose density in ``S`` is at least ``alpha - epsilon'``.
Every element with stream density ``>= alpha`` is then reported, and no
element with stream density ``<= alpha - epsilon`` is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Any

from ..exceptions import ConfigurationError, EmptySampleError
from ..rng import RandomState
from ..setsystems.singletons import SingletonSystem
from .sampled import Mechanism, SampledEstimator


def exact_heavy_hitters(stream: Sequence[Any], threshold_fraction: float) -> set:
    """Ground truth: elements appearing in at least ``threshold_fraction`` of the stream."""
    if not stream:
        raise EmptySampleError("cannot compute heavy hitters of an empty stream")
    if not 0.0 < threshold_fraction <= 1.0:
        raise ConfigurationError(
            f"threshold fraction must lie in (0, 1], got {threshold_fraction}"
        )
    counts = Counter(stream)
    cutoff = threshold_fraction * len(stream)
    return {element for element, count in counts.items() if count >= cutoff}


@dataclass(frozen=True)
class HeavyHitterEvaluation:
    """Outcome of judging a reported heavy-hitter list against the promise of Cor. 1.6.

    ``missed_heavy`` are true heavy hitters (density >= alpha) absent from the
    report — these are hard errors.  ``spurious_light`` are reported elements
    with density <= alpha - epsilon — also hard errors.  Elements in the grey
    zone (alpha - epsilon, alpha) may legitimately appear either way.
    """

    reported: frozenset
    missed_heavy: frozenset
    spurious_light: frozenset

    @property
    def correct(self) -> bool:
        """True when the report satisfies the (alpha, epsilon) promise exactly."""
        return not self.missed_heavy and not self.spurious_light


def evaluate_heavy_hitters(
    reported: Iterable[Any],
    stream: Sequence[Any],
    alpha: float,
    epsilon: float,
) -> HeavyHitterEvaluation:
    """Judge a heavy-hitter report against the paper's correctness promise."""
    if not 0.0 < epsilon < alpha <= 1.0:
        raise ConfigurationError(
            f"need 0 < epsilon < alpha <= 1, got alpha={alpha}, epsilon={epsilon}"
        )
    reported_set = frozenset(reported)
    counts = Counter(stream)
    n = len(stream)
    heavy = {element for element, count in counts.items() if count / n >= alpha}
    missed = frozenset(heavy - reported_set)
    # A reported element is a hard error when its stream density (zero if it
    # never appeared at all) is at most alpha - epsilon.
    spurious = frozenset(
        element
        for element in reported_set
        if counts.get(element, 0) / n <= alpha - epsilon
    )
    return HeavyHitterEvaluation(
        reported=reported_set, missed_heavy=missed, spurious_light=spurious
    )


class SampleHeavyHitters(SampledEstimator):
    """Streaming heavy-hitters detector backed by a robust random sample.

    Parameters
    ----------
    universe_size:
        ``|U|``; the sample is sized for the singleton system over it, whose
        cardinality is ``|U|``, at accuracy ``epsilon / 3``.
    alpha:
        Heaviness threshold (report elements with density ``>= alpha``).
    epsilon:
        Error margin (never report elements with density ``<= alpha - epsilon``).
    delta:
        Failure probability.
    stream_length:
        Needed for the Bernoulli mechanism.
    mechanism:
        ``"reservoir"`` (default) or ``"bernoulli"``.
    """

    _plural = "heavy hitters"

    def __init__(
        self,
        universe_size: int,
        alpha: float,
        epsilon: float,
        delta: float,
        stream_length: int | None = None,
        mechanism: Mechanism = "reservoir",
        seed: RandomState = None,
    ) -> None:
        if not 0.0 < epsilon < alpha <= 1.0:
            raise ConfigurationError(
                f"need 0 < epsilon < alpha <= 1, got alpha={alpha}, epsilon={epsilon}"
            )
        if universe_size < 2:
            raise ConfigurationError(f"universe size must be >= 2, got {universe_size}")
        self.universe_size = int(universe_size)
        self.alpha = float(alpha)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        #: The approximation accuracy used internally (the paper's epsilon').
        self.approximation_epsilon = epsilon / 3.0
        super().__init__(
            SingletonSystem(self.universe_size),
            self.approximation_epsilon,
            delta,
            stream_length,
            mechanism,
            seed,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def report(self) -> set:
        """Return the elements whose sample density is at least ``alpha - epsilon'``."""
        sample = list(self._sampler.sample)
        if not sample:
            return set()
        counts = Counter(sample)
        cutoff = (self.alpha - self.approximation_epsilon) * len(sample)
        return {element for element, count in counts.items() if count >= cutoff}

    def estimated_density(self, element: Any) -> float:
        """Estimated stream density of ``element`` from the sample."""
        sample = list(self._sampler.sample)
        if not sample:
            raise EmptySampleError("the detector has not retained any element yet")
        return sum(1 for item in sample if item == element) / len(sample)

    @property
    def count(self) -> int:
        """Number of stream elements processed."""
        return self._count
