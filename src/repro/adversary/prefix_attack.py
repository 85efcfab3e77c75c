"""Greedy density-gap adversary against an arbitrary target range.

The Figure-3 attack is tailored to prefix systems over huge universes.  For
moderate universes (where Theorem 1.2 says the samplers *are* robust) the
natural strongest simple opponent is a greedy adversary that fixes a target
range ``R`` and, in every round, submits whichever element — one inside ``R``
or one outside it — pushes the current density gap ``d_R(X) - d_R(S)``
further from zero.  Because it conditions on the realised sample it is a
genuinely adaptive strategy; because the gap process is a martingale
(Claims 4.2/4.3), Theorem 1.2 predicts it still cannot beat a properly sized
sample, which is exactly what experiments E1/E2 verify.

Decision cadence: the strategy reads only the observed sample (never
per-round update records — ``decision_needs = "sample"``), so with
``decision_period=p`` it re-reads the sample every ``p`` rounds, commits the
greedy direction for the whole block, and keeps its stream-density
bookkeeping in one vectorised step per block.  ``p=1`` is the historical
per-round greedy, decision for decision.

Decision cost: a sample handed over as a tuple is immutable, so its density
is memoised on its identity.  Bernoulli, reservoir, sliding-window,
priority and weighted-reservoir samplers hand out the same tuple until
their sample changes (in O(k ln n) of n reservoir rounds, about pn
Bernoulli rounds), so a decision on an unchanged sample is O(1); any other
sequence is recounted on every read.  A block of a fixed element is
counted from its known membership, not element by element.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial
from typing import Any

from ..exceptions import ConfigurationError
from .base import CadencedAdversary


def _count_members(target_range: Any, elements: Sequence[Any]) -> int:
    return sum(map(target_range.__contains__, elements))


class GreedyDensityAdversary(CadencedAdversary):
    """One-step-greedy adversary maximising ``|d_R(stream) - d_R(sample)|``.

    Parameters
    ----------
    target_range:
        Any object supporting ``element in target_range`` (all
        :class:`repro.setsystems.base.Range` implementations qualify).
    in_range_element:
        A fixed element of the target range, or a zero-argument callable
        producing one (called each time an in-range element is submitted).
    out_range_element:
        Same, for elements outside the target range.
    widen:
        When ``True`` (default) the adversary pushes the gap away from zero in
        whichever direction it already points; when ``False`` it always tries
        to make the range *over-represented in the stream* (gap positive),
        which is the one-sided variant used by the heavy-hitters attack.
    decision_period:
        Rounds between decision points: the sample is observed (and the
        greedy direction re-decided) once per block.
    """

    name = "greedy-density"
    decision_needs = "sample"

    def __init__(
        self,
        target_range: Any,
        in_range_element: Any | Callable[[], Any],
        out_range_element: Any | Callable[[], Any],
        widen: bool = True,
        decision_period: int = 1,
    ) -> None:
        super().__init__(decision_period)
        self.target_range = target_range
        count_in = getattr(target_range, "count_in", None)
        # A target without ``count_in`` is counted through its membership test.
        self._count_in: Callable[[Sequence[Any]], int] = (
            count_in if count_in is not None else partial(_count_members, target_range)
        )
        self._in_supplier, self._in_hits = self._as_supplier(in_range_element, expected_inside=True)
        self._out_supplier, self._out_hits = self._as_supplier(
            out_range_element, expected_inside=False
        )
        self.widen = widen
        self._stream_hits = 0
        self._stream_length = 0
        # The last tuple sample counted and its density.
        self._counted: tuple[Any, ...] | None = None
        self._counted_density = 0.0

    def _as_supplier(
        self, spec: Any | Callable[[], Any], expected_inside: bool
    ) -> tuple[Callable[[], Any], int | None]:
        """The supplier of ``spec`` and, for a fixed element, its in-range
        count per submission (1 or 0); ``None`` for a callable, whose
        elements are counted as they come."""
        if callable(spec):
            return spec, None
        inside = spec in self.target_range
        if inside != expected_inside:
            raise ConfigurationError(
                f"element {spec!r} is {'inside' if inside else 'outside'} the target "
                f"range but was supplied as the {'in' if expected_inside else 'out'}-range element"
            )
        return (lambda: spec), int(inside)

    # ------------------------------------------------------------------
    # Cadence interface
    # ------------------------------------------------------------------
    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        gap = self._current_gap(observed_sample)
        return self._submit_block(self._send_in_range(gap, observed_sample), count)

    def _send_in_range(self, gap: float, observed_sample: Sequence[Any] | None) -> bool:
        """The greedy direction for a block at density gap ``gap``."""
        if self.widen:
            return gap >= 0.0
        # One-sided mode: keep pushing stream mass into the range as long
        # as the sample has not caught up.
        return gap >= 0.0 or self._sample_density(observed_sample) == 0.0

    def _submit_block(self, send_in_range: bool, count: int) -> list[Any]:
        """Draw the block's elements and keep the stream-density bookkeeping."""
        if send_in_range:
            supplier, hits = self._in_supplier, self._in_hits
        else:
            supplier, hits = self._out_supplier, self._out_hits
        self._stream_length += count
        if hits is not None:
            self._stream_hits += hits * count
            return [supplier()] * count
        elements = [supplier() for _ in range(count)]
        self._stream_hits += self._count_in(elements)
        return elements

    def reset(self) -> None:
        super().reset()
        self._stream_hits = 0
        self._stream_length = 0
        self._counted = None
        self._counted_density = 0.0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _stream_density(self) -> float:
        if self._stream_length == 0:
            return 0.0
        return self._stream_hits / self._stream_length

    def _sample_density(self, observed_sample: Sequence[Any] | None) -> float:
        """The target's share of the observed sample, memoised on the
        identity of the last tuple counted (a tuple cannot change, and the
        memo's reference keeps its identity from being reused)."""
        if not observed_sample:
            return 0.0
        if observed_sample is self._counted:
            return self._counted_density
        density = self._count_in(observed_sample) / len(observed_sample)
        if type(observed_sample) is tuple:
            self._counted, self._counted_density = observed_sample, density
        return density

    def _current_gap(self, observed_sample: Sequence[Any] | None) -> float:
        """The density gap ``d_R(X_{i-1}) - d_R(S_{i-1})`` the adversary reacts to.

        When the game runner withholds the sample (restricted knowledge
        models) the adversary falls back to assuming the sample is
        representative, i.e. a zero gap, which degrades it to an essentially
        static strategy — the behaviour the knowledge ablation measures.
        """
        if observed_sample is None:
            return 0.0
        return self._stream_density() - self._sample_density(observed_sample)


class MixingGreedyDensityAdversary(GreedyDensityAdversary):
    """Greedy density-gap adversary that alternates on an exactly zero gap.

    The plain greedy strategy is degenerate from a cold start: with the gap
    at exactly zero it keeps submitting in-range elements, the stream becomes
    100% in-range, the sample (a subsequence) matches it, and the gap stays
    pinned at zero forever.  This variant breaks exact ties by alternating
    in-range / out-of-range with the round parity, which seeds the balanced
    stream the greedy dynamic needs; as soon as sampling noise opens a real
    gap (which, for a size-``k`` sample, happens at the ``1/k``
    quantisation immediately), the strategy reverts to pure greedy widening.
    The scenario layer uses this as its default ``greedy_density`` attack.

    On a tie a cadenced block alternates within itself (each round keeps its
    own parity), so ``decision_period=1`` reproduces the historical per-round
    mixing exactly and longer blocks still seed a balanced stream.
    """

    name = "mixing-greedy-density"

    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        gap = self._current_gap(observed_sample)
        if gap == 0.0 and self.widen:
            elements = []
            for offset in range(count):
                elements.extend(self._submit_block((round_index + offset) % 2 == 1, 1))
            return elements
        return self._submit_block(self._send_in_range(gap, observed_sample), count)
