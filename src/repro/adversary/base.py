"""Adversary interface for the adaptive sampling game (Section 2 of the paper).

An adversary is a (possibly randomised) strategy that, given everything it has
observed so far — the elements it already submitted and the sampler's current
state — chooses the next stream elements.  The game runner in
:mod:`repro.adversary.game` drives the interaction and controls exactly how
much of the sampler's state the adversary is allowed to see (the paper's model
is "full state"; restricted views are available for the knowledge-model
ablation).

The protocol
------------
In the paper's AdaptiveGame (Figure 1) a round is one decision on the
current sample ``S_{i-1}`` followed by one update.  Every adversary speaks
that protocol a block at a time, through two hooks:

* :meth:`Adversary.plan_block` — called at a decision point with the
  observed state; returns the elements the adversary commits to without
  further feedback;
* :meth:`Adversary.observe_block` — called once per fully played block with
  the block's update records, in round order.

Two declarations tell the runners how to drive them:

* ``decision_period`` — the rounds one block covers.  ``1`` is the paper's
  fully adaptive model (plan one element, observe one update); ``p > 1``
  models a reaction-rate-limited attacker whose blocks the runners feed
  through the samplers' vectorised kernels; ``None`` declares no decision
  points at all, so a block fills whatever count the runner offers
  (oblivious adversaries, and campaigns, which route to their members).
* ``decision_needs`` — what a decision reads: per-round update records, the
  sample, both, or nothing.  The runners build neither the sample view (a
  coordinator merge on sharded deployments, an exposure under sketch
  switching) nor update records that nothing reads.

:class:`BlockBuffer` plays one adversary's blocks over the runner's
segments: a block longer than a segment is served over several, and its
records reach ``observe_block`` once, after its last round.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any, Literal

from ..exceptions import ConfigurationError
from ..samplers.base import SampleUpdate

#: What an adversary reads at its decision points.
DecisionNeeds = Literal["updates", "sample", "both", "none"]
#: The needs that read the sample view, and those that read update records.
SAMPLE_NEEDS = frozenset({"sample", "both"})
UPDATE_NEEDS = frozenset({"updates", "both"})
#: What the needs read between two decision points: updates, never the sample.
_MID_BLOCK: dict[str, DecisionNeeds] = {
    "updates": "updates",
    "both": "updates",
    "sample": "none",
    "none": "none",
}


class Adversary(ABC):
    """A strategy that plans blocks of stream elements and learns from them.

    Subclasses implement :meth:`plan_block`, and :meth:`observe_block` when
    they learn from update records; ``decision_period`` and
    ``decision_needs`` declare how the runners drive the two (see the module
    docstring).  The defaults are the paper's fully adaptive model: a
    decision every round that may read both the sample and the update.
    """

    #: Human-readable name used in experiment tables.
    name: str = "adversary"

    #: Rounds per decision block, or ``None`` for no decision points.
    decision_period: int | None = 1

    #: What a decision reads (see the module docstring).
    decision_needs: DecisionNeeds = "both"

    @abstractmethod
    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        """Plan the block whose first element is round ``round_index`` (1-based).

        ``count`` is the declared ``decision_period``, or, for an adversary
        without decision points, the rounds on offer; such an adversary
        returns between 1 and ``count`` elements.  ``observed_sample`` is
        the sampler's current sample ``S_{i-1}``, or ``None`` when the
        knowledge model withholds it or ``decision_needs`` does not read it.
        """

    def observe_block(self, updates: Sequence[SampleUpdate]) -> None:
        """Digest the update records of one fully played block (in order).

        ``updates`` is a sequence of :class:`SampleUpdate`; when the block
        played as one segment of several rounds it is the columnar
        :class:`~repro.samplers.base.UpdateBatch` itself, so implementations
        can take vectorised fast paths over its ``accepted`` / ``elements``
        columns (see the attack adversaries).  The default ignores it.
        """

    def reset(self) -> None:
        """Forget all per-game state so the adversary can be reused."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ObliviousAdversary(Adversary):
    """Base class for adversaries that never look at the sampler's state.

    These realise the *static* setting of the paper: the stream they produce
    is independent of the sampler's coin flips, so the classical VC bounds
    apply to them.  Having no decision points, a block fills any count the
    runner offers, generated in round order so the stream does not depend
    on how the runner cuts it.  They read nothing, so the runners never
    build the sample view for them (a coordinator merge on sharded
    deployments, an exposure under sketch switching) nor update records.
    """

    name = "oblivious"
    decision_period = None
    decision_needs = "none"


class CadencedAdversary(Adversary):
    """Adaptive adversary with a declared, validated decision cadence.

    ``decision_period=1`` (the default everywhere) is the paper's fully
    adaptive model: every block is a single element and every update is
    digested at once, so the realised games are exactly the historical
    per-round attacks.  Larger periods model a reaction-rate-limited
    attacker; its decision sequence then does not depend on how the runner
    chunks the stream, so chunked and ``chunk_size=1`` games agree wherever
    the sampler's kernels are bit-identical.

    ``decision_needs`` declares what the strategy reads at decision points:

    * ``"updates"`` — per-round update records (via :meth:`observe_block`),
    * ``"sample"`` — the observed sample passed to :meth:`plan_block`,
    * ``"both"`` — both of the above,
    * ``"none"`` — nothing (the strategy is effectively oblivious).
    """

    #: What this adversary reads at its decision points (see class docs).
    decision_needs: DecisionNeeds = "updates"

    def __init__(self, decision_period: int = 1) -> None:
        self.set_decision_period(decision_period)

    def set_decision_period(self, decision_period: int) -> None:
        """Re-declare the cadence (validated); the next planned block uses it."""
        period = int(decision_period)
        if period < 1:
            raise ConfigurationError(f"decision period must be >= 1, got {decision_period}")
        self.decision_period = period


class BlockBuffer:
    """Plays one adversary's blocks over a game's segments.

    At a decision point :meth:`serve` reads the adversary's
    ``decision_period`` and plans a block of that many elements, or of the
    offered count when it declares none.  A block longer than the offered
    count is served over several segments, and the records of its segments
    are buffered: it reaches ``observe_block`` once, in round order, after
    its last round.  A block that plays as one segment reaches it directly,
    as the columnar record when it is longer than one round.  A block cut
    short by the end of the game is never observed.
    """

    __slots__ = ("adversary", "_block", "_served", "_pieces", "_owed")

    def __init__(self, adversary: Adversary) -> None:
        self.adversary = adversary
        #: The block being served over several segments, and how much of it has been.
        self._block: list[Any] = []
        self._served = 0
        #: That block's records so far, and how many of its rounds are still owed.
        self._pieces: list[Sequence[SampleUpdate]] = []
        self._owed = 0

    def needs(self) -> DecisionNeeds:
        """What the next segment reads: mid-block there is no decision, so
        never the sample."""
        needs = self.adversary.decision_needs
        return _MID_BLOCK[needs] if self._served < len(self._block) else needs

    def serve(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        """The next segment of at most ``count`` elements (a planner without
        decision points is trusted to stay within ``count``)."""
        block, served = self._block, self._served
        if served < len(block):
            self._served = min(served + count, len(block))
            return block[served : self._served]
        adversary = self.adversary
        period = adversary.decision_period
        if period is None:
            return adversary.plan_block(round_index, count, observed_sample)
        block = adversary.plan_block(round_index, period, observed_sample)
        if not block and period > 1:
            raise ConfigurationError(
                f"{adversary.name!r} planned an empty decision block at round {round_index}"
            )
        if len(block) <= count:
            self._owed = 0
            return block
        self._block, self._served = block, count
        self._pieces, self._owed = [], len(block)
        return block[:count]

    def observe(self, updates: Sequence[SampleUpdate]) -> None:
        """Take one served segment's records, in round order."""
        if not self._owed:
            self.adversary.observe_block(updates)
            return
        self._pieces.append(updates)
        self._owed -= len(updates)
        if not self._owed:
            pieces, self._pieces = self._pieces, []
            self.adversary.observe_block([update for piece in pieces for update in piece])


def block_outcome_for_element(
    updates: Sequence[SampleUpdate], element: Any
) -> bool | None:
    """Whether any of a block's records for ``element`` was accepted.

    Returns ``None`` when the block carries no record for ``element`` (the
    feedback was withheld or foreign), else the any-copy-accepted verdict.
    This is the shared digest of the split-point attacks (bisection and the
    Figure-3 threshold family): a block repeats one probe element, and the
    working range moves up iff *any* copy was stored.  Takes a columnar
    fast path over an :class:`~repro.samplers.base.UpdateBatch`'s raw
    ``elements``/``accepted`` columns (no per-round views), short-circuiting
    on the first stored copy.
    """
    # Imported lazily at call time would be circular-import-safe but slow;
    # duck-type on the columnar attributes instead.
    accepted_column = getattr(updates, "accepted", None)
    elements_column = getattr(updates, "elements", None)
    if accepted_column is not None and elements_column is not None:
        seen = False
        for offset, candidate in enumerate(elements_column):
            if candidate == element:
                seen = True
                if accepted_column[offset]:
                    return True
        return False if seen else None
    seen = False
    for update in updates:
        if update.element == element:
            seen = True
            if update.accepted:
                return True
    return False if seen else None


def apply_decision_period(adversary: Adversary, decision_period: int) -> bool:
    """Re-declare an adversary's decision cadence, if it supports one.

    Returns ``True`` when the adversary (or, for a
    :class:`~repro.adversary.campaign.CampaignAdversary` — the scenario
    layer's ``BudgetedAdversary`` among them — any of its members) accepted
    the cadence, ``False`` when it declares none — oblivious adversaries
    have no decision points to space out, and fully adaptive strategies
    without a cadence protocol stay per-round.  Cadence is declared before a
    game starts: the scenario layer applies it as it builds each attack.
    """
    setter = getattr(adversary, "set_decision_period", None)
    if setter is None:
        return False
    result = setter(int(decision_period))
    # A campaign's setter reports whether any member accepted; the
    # CadencedAdversary setter returns None, meaning "applied".
    return True if result is None else bool(result)
