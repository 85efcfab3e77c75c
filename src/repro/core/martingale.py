"""Martingale trackers mirroring Claims 4.2 and 4.3 of the paper.

The heart of the paper's upper-bound proof is that, for any fixed range ``R``,
the quantity

* ``Z_i = |R ∩ S_i| / (n p) - |R ∩ X_i| / n``   (Bernoulli sampling, Claim 4.2)
* ``Z_i = (i / k) |R ∩ S_i| - |R ∩ X_i|``        (reservoir sampling, Claim 4.3)

is a martingale with small step differences and conditional variances, so
Freedman's inequality (Lemma 3.3) pins ``Z_n`` near zero regardless of the
adversary's strategy.  The trackers in this module recompute these quantities
online during a game so that experiment E13 can verify empirically that

1. the sequences behave like martingales (empirical conditional drift ≈ 0),
2. every step difference respects the claimed bound, and
3. the final deviation is no larger than Freedman's inequality predicts (with
   the predicted tail probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

from ..exceptions import ConfigurationError
from .concentration import freedman_tail


@dataclass
class MartingaleTrace:
    """The recorded trajectory of a ``Z^R_i`` martingale during one game.

    Attributes
    ----------
    values:
        ``Z_0, Z_1, ..., Z_n`` (``Z_0 = 0`` always).
    differences:
        Consecutive differences ``Z_i - Z_{i-1}``.
    difference_bounds:
        The per-step theoretical bound on ``|Z_i - Z_{i-1}|`` from the claim.
    variance_bounds:
        The per-step theoretical bound on the conditional variance.
    """

    values: list[float] = field(default_factory=lambda: [0.0])
    differences: list[float] = field(default_factory=list)
    difference_bounds: list[float] = field(default_factory=list)
    variance_bounds: list[float] = field(default_factory=list)

    @property
    def final_value(self) -> float:
        return self.values[-1]

    @property
    def max_abs_value(self) -> float:
        return max(abs(v) for v in self.values)

    @property
    def max_abs_difference(self) -> float:
        return max((abs(d) for d in self.differences), default=0.0)

    def differences_within_bounds(self, tolerance: float = 1e-9) -> bool:
        """Return ``True`` if every step difference respects its claimed bound."""
        return all(
            abs(difference) <= bound + tolerance
            for difference, bound in zip(self.differences, self.difference_bounds)
        )

    def freedman_bound(self, deviation: float) -> float:
        """Freedman tail probability for ``|Z_n - Z_0| >= deviation`` along this trace."""
        return freedman_tail(
            deviation,
            variance_sum=sum(self.variance_bounds),
            max_difference=max(self.difference_bounds, default=0.0),
        )

    def _append(self, value: float, difference_bound: float, variance_bound: float) -> None:
        self.differences.append(value - self.values[-1])
        self.values.append(value)
        self.difference_bounds.append(difference_bound)
        self.variance_bounds.append(variance_bound)


class BernoulliMartingaleTracker:
    """Online tracker of the Claim 4.2 martingale for Bernoulli sampling.

    Usage: after the sampler processes element ``x_i``, call
    :meth:`record_step` with whether ``x_i`` belongs to the tracked range and
    whether it was sampled.  The tracker maintains the counts ``|R ∩ X_i|``
    and ``|R ∩ S_i|`` itself.
    """

    def __init__(self, stream_length: int, probability: float) -> None:
        if stream_length < 1:
            raise ConfigurationError(f"stream length must be >= 1, got {stream_length}")
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError(f"probability must lie in (0, 1], got {probability}")
        self.stream_length = int(stream_length)
        self.probability = float(probability)
        self.trace = MartingaleTrace()
        self._stream_hits = 0
        self._sample_hits = 0
        self._steps = 0

    @property
    def theoretical_difference_bound(self) -> float:
        """Claim 4.2: ``|Z_i - Z_{i-1}| <= 1 / (n p)``."""
        return 1.0 / (self.stream_length * self.probability)

    @property
    def theoretical_variance_bound(self) -> float:
        """Claim 4.2: ``Var(Z_i | past) <= 1 / (n^2 p)``."""
        return 1.0 / (self.stream_length**2 * self.probability)

    def record_step(self, in_range: bool, sampled: bool) -> float:
        """Record one round; returns the updated martingale value ``Z_i``."""
        if self._steps >= self.stream_length:
            raise ConfigurationError(
                f"tracker configured for {self.stream_length} steps received more"
            )
        self._steps += 1
        if in_range:
            self._stream_hits += 1
            if sampled:
                self._sample_hits += 1
        a_value = self._stream_hits / self.stream_length
        b_value = self._sample_hits / (self.stream_length * self.probability)
        z_value = b_value - a_value
        self.trace._append(
            z_value, self.theoretical_difference_bound, self.theoretical_variance_bound
        )
        return z_value


class ReservoirMartingaleTracker:
    """Online tracker of the Claim 4.3 martingale for reservoir sampling.

    Because the reservoir replaces elements, the tracker cannot maintain the
    sample-intersection count incrementally from per-element flags alone;
    instead :meth:`record_step` receives the current count ``|R ∩ S_i|``
    (the caller keeps it from each round's accepted and evicted elements).
    """

    def __init__(self, reservoir_size: int) -> None:
        if reservoir_size < 1:
            raise ConfigurationError(f"reservoir size must be >= 1, got {reservoir_size}")
        self.reservoir_size = int(reservoir_size)
        self.trace = MartingaleTrace()
        self._stream_hits = 0
        self._step = 0

    def difference_bound_at(self, step: int) -> float:
        """Claim 4.3: ``|Z_i - Z_{i-1}| <= i / k``."""
        return step / self.reservoir_size

    def variance_bound_at(self, step: int) -> float:
        """Claim 4.3: ``Var(Z_i | past) <= i / k`` (zero while the reservoir is filling)."""
        if step <= self.reservoir_size:
            return 0.0
        return step / self.reservoir_size

    def record_step(self, in_range: bool, sample_hits: int) -> float:
        """Record one round given the post-update count ``|R ∩ S_i|``."""
        self._step += 1
        if in_range:
            self._stream_hits += 1
        if self._step <= self.reservoir_size:
            # While the reservoir is filling, S_i = X_i and the claim defines
            # A_i = B_i = |R ∩ X_i|, so Z_i = 0.
            a_value = float(self._stream_hits)
            b_value = float(self._stream_hits)
        else:
            a_value = float(self._stream_hits)
            b_value = self._step / self.reservoir_size * sample_hits
        z_value = b_value - a_value
        self.trace._append(
            z_value,
            self.difference_bound_at(self._step),
            self.variance_bound_at(self._step),
        )
        return z_value


def empirical_drift(values: Sequence[float]) -> float:
    """Return the mean step increment of a recorded martingale trajectory.

    For a true martingale the *conditional* drift is zero at every step; the
    empirical mean increment over one trajectory is a noisy proxy, and over
    many trials its average should concentrate near zero.  E13 averages this
    statistic over many independent games.
    """
    if len(values) < 2:
        return 0.0
    return (values[-1] - values[0]) / (len(values) - 1)


def normalized_final_deviation(trace: MartingaleTrace) -> float:
    """Return ``|Z_n| / sqrt(sum of variance bounds)`` — a z-score-like statistic.

    Under the martingale structure this should rarely exceed a small constant;
    systematically large values would indicate the claims are violated.
    """
    variance_sum = sum(trace.variance_bounds)
    if variance_sum <= 0:
        return 0.0 if trace.final_value == 0 else math.inf
    return abs(trace.final_value) / math.sqrt(variance_sum)
