"""An attack heuristic tailored to reservoir sampling's decaying acceptance rate.

Reservoir sampling accepts round ``i``'s element with probability ``k / i``,
so an adaptive adversary knows *when* its submissions are likely to be
reflected in the sample (early rounds) and when they are likely to be ignored
(late rounds).  :class:`EvictionChaserAdversary` exploits that schedule and
the observed sample jointly:

* while the acceptance probability is still high it submits elements
  *outside* its target range, so that whatever gets stored is out-of-range
  mass;
* once the acceptance probability drops below a threshold it floods the
  stream with *in-range* elements, which now rarely make it into the sample
  (and when they do, the adversary notices and briefly switches back).

The result, if the reservoir is small, is a stream whose target-range density
is high while the sample's is low.  Theorem 1.2 predicts the trick stops
working once ``k`` reaches ``2 (ln|R| + ln(2/delta)) / eps^2``; the E2/E3
ablations run this adversary alongside the Figure-3 attack to confirm neither
beats a properly sized reservoir.

Decision cadence: the acceptance schedule ``k / i`` is *known in advance*,
so a whole block's early/late phase split is planned without feedback; only
the one-round back-off after a noticed in-range acceptance is
feedback-driven, and with ``decision_period=p`` that notice arrives at block
boundaries.  ``p=1`` reproduces the historical per-round chaser exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError
from ..samplers.base import SampleUpdate, UpdateBatch
from .base import CadencedAdversary


class EvictionChaserAdversary(CadencedAdversary):
    """Schedule-aware attack against a target range, designed for reservoir sampling.

    Parameters
    ----------
    target_range:
        Range whose sample density the adversary tries to suppress.
    in_range_element / out_range_element:
        Fixed elements (or zero-argument callables) inside / outside the range.
    reservoir_size:
        The reservoir capacity ``k`` the adversary believes the sampler uses
        (the paper's adversary knows the sampling algorithm and parameters).
    switch_threshold:
        Acceptance probability ``k / i`` below which the adversary switches
        from out-of-range to in-range submissions; defaults to 0.5.
    decision_period:
        Rounds between decision points; the phase schedule inside a block is
        precomputed, feedback (the back-off trigger) lands at boundaries.
    """

    name = "eviction-chaser"
    decision_needs = "updates"

    def __init__(
        self,
        target_range: Any,
        in_range_element: Any | Callable[[], Any],
        out_range_element: Any | Callable[[], Any],
        reservoir_size: int,
        switch_threshold: float = 0.5,
        decision_period: int = 1,
    ) -> None:
        super().__init__(decision_period)
        if reservoir_size < 1:
            raise ConfigurationError(f"reservoir size must be >= 1, got {reservoir_size}")
        if not 0.0 < switch_threshold <= 1.0:
            raise ConfigurationError(
                f"switch threshold must lie in (0, 1], got {switch_threshold}"
            )
        self.target_range = target_range
        self._in_supplier = in_range_element if callable(in_range_element) else (
            lambda: in_range_element
        )
        self._out_supplier = out_range_element if callable(out_range_element) else (
            lambda: out_range_element
        )
        self.reservoir_size = int(reservoir_size)
        self.switch_threshold = float(switch_threshold)
        self._recent_in_range_accepted = False

    # ------------------------------------------------------------------
    # Cadence interface
    # ------------------------------------------------------------------
    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        # The early/late phase of every round in the block is known up front:
        # acceptance probability k / i against the switch threshold, the same
        # float expression as the historical per-round rule, so the phase
        # boundary lands on exactly the same round.
        k, threshold = self.reservoir_size, self.switch_threshold
        elements: list[Any] = []
        backoff = self._recent_in_range_accepted
        for i in range(round_index, round_index + count):
            if min(1.0, k / max(i, 1)) >= threshold:
                # Early phase: whatever we submit is likely stored, so keep
                # the stored mass out of the target range.
                elements.append(self._out_supplier())
            elif backoff:
                # Our last in-range submission slipped into the sample; back
                # off for one round to avoid feeding the sample more in-range
                # mass while the density gap recovers.
                backoff = False
                self._recent_in_range_accepted = False
                elements.append(self._out_supplier())
            else:
                elements.append(self._in_supplier())
        return elements

    def observe_block(self, updates: Sequence[SampleUpdate]) -> None:
        if isinstance(updates, UpdateBatch):
            # Columnar fast path: only the (rare, late-phase) accepted rounds
            # need the in-range membership test.
            for offset in np.flatnonzero(updates.accepted):
                if updates.elements[int(offset)] in self.target_range:
                    self._recent_in_range_accepted = True
                    return
            return
        if any(u.accepted and u.element in self.target_range for u in updates):
            self._recent_in_range_accepted = True

    def reset(self) -> None:
        super().reset()
        self._recent_in_range_accepted = False
