"""The robust sample behind the Section 1.2 estimators (Theorem 1.2).

Theorem 1.2 sizes an adversarially robust sample from ``ln |R|`` of a set
system ``(U, R)``; Corollaries 1.5 and 1.6 and the range-query application
only choose the system (prefixes, singletons, boxes).
:class:`SampledEstimator` takes that system and sizes a reservoir or a
Bernoulli sampler from its :meth:`~repro.setsystems.base.SetSystem.log_cardinality`,
and counts the stream elements it is fed.  Each estimator adds only its own
checks and queries.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any, Literal

from ..core.bounds import bernoulli_adaptive_rate, reservoir_adaptive_size
from ..exceptions import ConfigurationError
from ..rng import RandomState
from ..samplers import BernoulliSampler, ReservoirSampler, StreamSampler
from ..setsystems.base import SetSystem

Mechanism = Literal["reservoir", "bernoulli"]


class SampledEstimator:
    """An estimator answering from one sample sized by Theorem 1.2.

    Parameters
    ----------
    system:
        The set system the estimator's guarantee is stated for; the sample
        is sized from its ``log_cardinality()``.
    epsilon / delta:
        Approximation accuracy with respect to ``system``, and failure
        probability.
    stream_length:
        Expected stream length (needed to size Bernoulli sampling; the
        reservoir ignores it).
    mechanism:
        ``"reservoir"`` (a ``k``-reservoir, ``k`` from
        :func:`~repro.core.bounds.reservoir_adaptive_size`) or
        ``"bernoulli"`` (rate from
        :func:`~repro.core.bounds.bernoulli_adaptive_rate`).
    seed:
        Randomness for the sampler.
    """

    #: The estimator in the plural, for the Bernoulli sizing error.
    _plural = "estimators"

    def __init__(
        self,
        system: SetSystem,
        epsilon: float,
        delta: float,
        stream_length: int | None = None,
        mechanism: Mechanism = "reservoir",
        seed: RandomState = None,
    ) -> None:
        log_cardinality = system.log_cardinality()
        if mechanism == "reservoir":
            bound = reservoir_adaptive_size(log_cardinality, epsilon, delta)
            self._sampler: StreamSampler = ReservoirSampler(bound.size, seed=seed)
        elif mechanism == "bernoulli":
            if stream_length is None:
                raise ConfigurationError(
                    f"Bernoulli-based {self._plural} need the stream length up front"
                )
            bound = bernoulli_adaptive_rate(log_cardinality, epsilon, delta, stream_length)
            assert bound.probability is not None
            self._sampler = BernoulliSampler(bound.probability, seed=seed)
        else:
            raise ConfigurationError(f"unknown mechanism {mechanism!r}")
        self.sample_size_bound = bound
        self._count = 0

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def update(self, element: Any) -> None:
        """Process one stream element."""
        self._sampler.process(element)
        self._count += 1

    def extend(self, elements: Iterable[Any]) -> None:
        """Process a batch of stream elements.

        Routes through the sampler's vectorised ``extend`` with the
        per-element update records suppressed — nothing here reads them.
        """
        elements = list(elements)
        self._sampler.extend(elements, updates=False)
        self._count += len(elements)

    @property
    def sampler(self) -> StreamSampler:
        """The underlying sampler (its state is what an adversary observes)."""
        return self._sampler
