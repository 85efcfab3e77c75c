"""Adversary interface for the adaptive sampling game (Section 2 of the paper).

An adversary is a (possibly randomised) strategy that, given everything it has
observed so far — the elements it already submitted and the sampler's current
state — chooses the next stream element.  The game runner in
:mod:`repro.adversary.game` drives the interaction and controls exactly how
much of the sampler's state the adversary is allowed to see (the paper's model
is "full state"; restricted views are available for the knowledge-model
ablation).

Decision points and segmentation
--------------------------------
The game is only *inherently* sequential at the adversary's decision points:
between two points where the adversary actually reacts to feedback, the
stream is fixed and can be consumed in bulk by the sampler's vectorised
``extend`` kernels.  :meth:`Adversary.next_elements` is how an adversary
declares its decision granularity: the default commits to a single element
(fully adaptive — a decision point every round), while
:class:`ObliviousAdversary` commits to arbitrarily long segments (it never
looks at feedback at all).  Adaptive strategies with coarser decision points
(e.g. a budgeted attack that turns benign after round ``r``) override it to
return multi-element segments exactly where their strategy allows.

Decision cadence
----------------
:class:`CadencedAdversary` is the middle ground the attack adversaries live
on: a genuinely adaptive strategy that declares *how often* it actually
needs to observe the sampler (``decision_period`` — one decision every ``p``
rounds) and *what* it needs at those decision points (``decision_needs`` —
per-round update records, the current sample, both, or nothing).  At each
decision point the strategy plans a whole block of elements
(:meth:`CadencedAdversary.plan_block`), commits to it without further
feedback, and digests the block's buffered update records in one call
(:meth:`CadencedAdversary.observe_block`) once the block has fully played
out.  ``decision_period=1`` reproduces the historical per-round attack
exactly — plan one element, observe one update — while larger periods model
a reaction-rate-limited attacker and let the game runners feed whole blocks
through the samplers' vectorised kernels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any, Literal, Protocol, runtime_checkable

from ..exceptions import ConfigurationError
from ..samplers.base import SampleUpdate

#: What a cadenced adversary needs at its decision points.
DecisionNeeds = Literal["updates", "sample", "both", "none"]


@runtime_checkable
class BlockCadence(Protocol):
    """Structural form of the decision-cadence contract.

    Anything that declares a ``decision_period`` must also implement both
    block hooks — planning a block and digesting its outcomes are two halves
    of one protocol, and implementing only one silently reintroduces
    chunking-dependent games (the PR 7 bug class; the ``analyze`` PRO002
    rule enforces the same pairing statically).  :class:`CadencedAdversary`
    is the canonical implementation.  Campaigns (the scenario layer's
    budget among them) do not implement it: they forward
    ``set_decision_period`` to their members.
    """

    decision_period: int

    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]: ...

    def observe_block(self, updates: Sequence[SampleUpdate]) -> None: ...


class Adversary(ABC):
    """A strategy for choosing the next stream element adaptively.

    The game runner calls :meth:`next_element` at the start of each round and
    :meth:`observe_update` right after the sampler has processed the element,
    giving the adversary the per-round outcome (accepted / evicted).  The full
    current sample is additionally passed to :meth:`next_element` under the
    default "full knowledge" model.
    """

    #: Human-readable name used in experiment tables.
    name: str = "adversary"

    #: Whether :meth:`next_element` / :meth:`next_elements` actually read the
    #: ``observed_sample`` argument.  The game runners skip materialising the
    #: sampler's sample (an expensive merge for sharded deployments) for
    #: adversaries that declare they never look at it; the conservative
    #: default is ``True``.
    uses_observed_sample: bool = True

    def will_observe_sample(self) -> bool:
        """Whether the *next* ``next_elements`` call will read the sample view.

        A per-request refinement of :attr:`uses_observed_sample`: the
        chunked runner asks before materialising the sample for each segment
        request, so adversaries that know they are mid-way through a
        committed block (the cadence protocol) can decline the view they are
        guaranteed to ignore.  The default is the static declaration.  It
        may only narrow that declaration: the runners read
        :attr:`uses_observed_sample` once per game and never ask an
        adversary that declares it false.
        """
        return self.uses_observed_sample

    @abstractmethod
    def next_element(
        self, round_index: int, observed_sample: Sequence[Any] | None
    ) -> Any:
        """Return the element to submit in round ``round_index`` (1-based).

        ``observed_sample`` is the sampler's current sample ``S_{i-1}`` under
        the full-knowledge model, or ``None`` when the game runner withholds
        it (oblivious / update-only knowledge models).
        """

    def next_elements(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        """Return between 1 and ``count`` elements the adversary commits to.

        The chunked game runner offers the adversary a segment of up to
        ``count`` rounds starting at ``round_index``; the adversary returns
        as many elements as it is willing to submit *without observing any
        further feedback*.  The default returns a single element — a decision
        point every round, the paper's fully adaptive model.  Subclasses with
        coarser decision points override this; returning more than ``count``
        elements is a contract violation the runner rejects.
        """
        return [self.next_element(round_index, observed_sample)]

    def observe_update(self, update: SampleUpdate) -> None:
        """Receive the outcome of the round just played.

        The default implementation ignores it; adversaries that only need to
        know whether their element was stored (the Figure-3 attack) override
        this instead of scanning the whole sample.
        """

    def observe_update_batch(self, updates: Sequence[SampleUpdate]) -> None:
        """Receive one segment's outcomes (usually a columnar ``UpdateBatch``).

        The chunked game runner forwards whole segments through this hook so
        batch-aware adversaries (the cadence protocol below) can digest the
        columnar record directly instead of paying one lazy
        :class:`SampleUpdate` view per round.  The default simply loops
        :meth:`observe_update`, so per-round adversaries are unaffected.
        """
        for update in updates:
            self.observe_update(update)

    def observes_updates(self, first_round: int, last_round: int) -> bool:
        """Whether this adversary wants per-round updates for a segment.

        The chunked game runner skips materialising and forwarding per-round
        :class:`SampleUpdate` views for segments where the adversary would
        ignore them anyway.  The default reports ``True`` iff the class
        overrides :meth:`observe_update`; adversaries that stop listening
        after a known round (budgeted attacks) refine this per segment.
        """
        return type(self).observe_update is not Adversary.observe_update

    def reset(self) -> None:
        """Forget all per-game state so the adversary can be reused."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ObliviousAdversary(Adversary):
    """Base class for adversaries that never look at the sampler's state.

    These realise the *static* setting of the paper: the stream they produce
    is independent of the sampler's coin flips, so the classical VC bounds
    apply to them.  Having no decision points at all, they commit to whole
    segments: :meth:`next_elements` fills any requested count.  They never
    read the sample view either, so the runners never build it for them (a
    coordinator merge on sharded deployments, an exposure under sketch
    switching).
    """

    name = "oblivious"
    uses_observed_sample = False

    def next_elements(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        # Element choices cannot depend on feedback, so the whole segment is
        # generated up front; per-element generators are called in round
        # order, keeping seeded streams identical to the per-round game.
        return [self.next_element(round_index + offset, None) for offset in range(count)]

    def observe_update(self, update: SampleUpdate) -> None:  # pragma: no cover
        # Explicitly ignore all feedback.
        return

    def observes_updates(self, first_round: int, last_round: int) -> bool:
        return False


class CadencedAdversary(Adversary):
    """Adaptive adversary with a declared decision cadence.

    Subclasses implement the *strategy* as two block-level hooks and inherit
    the serving machinery that keeps games bit-identical across chunk
    sizes:

    * :meth:`plan_block` — called at each decision point with the current
      observed state; returns the next ``count`` elements the strategy
      commits to without further feedback.  This is where the
      element-construction loop lives, and where subclasses vectorise.
    * :meth:`observe_block` — called once per fully played block with the
      block's buffered :class:`SampleUpdate` records (in round order);
      this is where the strategy's state moves.

    ``decision_period=1`` (the default everywhere) is the paper's fully
    adaptive model: every block is a single element, every update is
    digested immediately, and the realised games are exactly the historical
    per-round attacks.  That path keeps no block buffer: a round is one
    :meth:`plan_block` call and one :meth:`observe_block` call.  Larger
    periods model a reaction-rate-limited
    attacker — the adversary's *decision sequence* then no longer depends on
    how the runner chunks the stream, so chunked and ``chunk_size=1`` games
    agree wherever the sampler's kernels are bit-identical.

    ``decision_needs`` declares what the strategy reads at decision points:

    * ``"updates"`` — per-round update records (via :meth:`observe_block`),
    * ``"sample"`` — the observed sample passed to :meth:`plan_block`,
    * ``"both"`` — both of the above,
    * ``"none"`` — nothing (the strategy is effectively oblivious).

    The game runners use it to skip materialising whichever feedback channel
    the adversary would ignore (update records, or the sample view — an
    expensive merge for sharded deployments).
    """

    #: What this adversary reads at its decision points (see class docs).
    decision_needs: DecisionNeeds = "updates"

    def __init__(self, decision_period: int = 1) -> None:
        period = int(decision_period)
        if period < 1:
            raise ConfigurationError(f"decision period must be >= 1, got {decision_period}")
        self.decision_period = period
        self._block_elements: list[Any] = []
        self._block_served = 0
        # Buffered feedback for the current block: single SampleUpdate
        # records and/or whole segment UpdateBatch pieces, flushed to
        # observe_block once the block has fully played out.
        self._pending_updates: list[Any] = []
        self._pending_count = 0

    # ------------------------------------------------------------------
    # Strategy hooks (subclasses implement these)
    # ------------------------------------------------------------------
    @abstractmethod
    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        """Plan the next decision block of up to ``count`` elements.

        Called exactly once per decision point, with ``round_index`` the
        1-based round of the block's first element and ``observed_sample``
        the sampler's current sample (``None`` when withheld by the
        knowledge model or skipped because ``decision_needs`` excludes it).
        """

    def observe_block(self, updates: Sequence[SampleUpdate]) -> None:
        """Digest the update records of one fully played block (in order).

        ``updates`` is a sequence of :class:`SampleUpdate`; when the block
        was fed by the chunked runner in one piece it is the columnar
        :class:`~repro.samplers.base.UpdateBatch` itself, so implementations
        can take vectorised fast paths over its ``accepted`` / ``elements``
        columns (see the attack adversaries).
        """

    # ------------------------------------------------------------------
    # Cadence protocol
    # ------------------------------------------------------------------
    @property
    def uses_observed_sample(self) -> bool:  # type: ignore[override]
        return self.decision_needs in ("sample", "both")

    def will_observe_sample(self) -> bool:
        if type(self).next_element is not CadencedAdversary.next_element:
            # Per-round fallback for subclasses overriding the per-round
            # hook: the override may read the view every round.
            return self.uses_observed_sample
        # Mid-block requests serve from the committed buffer and never read
        # the view; only a fresh decision point does.
        return self.uses_observed_sample and self._block_served >= len(self._block_elements)

    def observes_updates(self, first_round: int, last_round: int) -> bool:
        return self.decision_needs in ("updates", "both")

    def set_decision_period(self, decision_period: int) -> None:
        """Re-declare the cadence (validated; only safe between games)."""
        period = int(decision_period)
        if period < 1:
            raise ConfigurationError(f"decision period must be >= 1, got {decision_period}")
        if self._block_served < len(self._block_elements) or self._pending_count:
            raise ConfigurationError("cannot change the decision period mid-block")
        self.decision_period = period

    # ------------------------------------------------------------------
    # Serving machinery (shared by every chunk size)
    # ------------------------------------------------------------------
    def _plan(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        block = self.plan_block(round_index, count, observed_sample)
        if not block:
            raise ConfigurationError(
                f"{self.name!r} planned an empty decision block at round {round_index}"
            )
        return block

    def next_element(
        self, round_index: int, observed_sample: Sequence[Any] | None
    ) -> Any:
        if self.decision_period == 1:
            return self._plan(round_index, 1, observed_sample)[0]
        return self._serve_block(round_index, 1, observed_sample)[0]

    def next_elements(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        if type(self).next_element is not CadencedAdversary.next_element:
            # A subclass overrode the per-round hook; honour it (and the live
            # state view it may read) by reverting to per-round decisions —
            # the same protection the static adversaries' kernels apply.
            return Adversary.next_elements(self, round_index, count, observed_sample)
        if self.decision_period == 1:
            # Every round is a decision point: the one-element plan is the
            # segment, with no buffer (the runner rejects an empty one).
            return self.plan_block(round_index, 1, observed_sample)
        return self._serve_block(round_index, count, observed_sample)

    def _serve_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        """Up to ``count`` elements of the buffered block, planning a new
        block at a decision point (periods above 1 only)."""
        if self._block_served >= len(self._block_elements):
            self._block_elements = list(
                self._plan(round_index, self.decision_period, observed_sample)
            )
            self._block_served = 0
            self._pending_updates = []
            self._pending_count = 0
        take = min(count, len(self._block_elements) - self._block_served)
        segment = self._block_elements[self._block_served : self._block_served + take]
        self._block_served += take
        return segment

    def observe_update(self, update: SampleUpdate) -> None:
        if self.decision_period == 1 or not self._block_elements:
            # A one-round block (or direct use without a planned block, as
            # in hand-driven loops and tests) is complete on arrival.
            self.observe_block([update])
            return
        self._pending_updates.append(update)
        self._pending_count += 1
        self._maybe_flush_block()

    def observe_update_batch(self, updates: Sequence[SampleUpdate]) -> None:
        if len(updates) == 0:
            return
        if self.decision_period == 1 or not self._block_elements:
            self.observe_block(updates)
            return
        self._pending_updates.append(updates)
        self._pending_count += len(updates)
        self._maybe_flush_block()

    def _maybe_flush_block(self) -> None:
        if (
            self._block_served < len(self._block_elements)
            or self._pending_count < self._block_served
        ):
            return
        pieces, self._pending_updates = self._pending_updates, []
        self._pending_count = 0
        if len(pieces) == 1 and not isinstance(pieces[0], SampleUpdate):
            # The whole block arrived as one segment: hand the columnar
            # record straight to the strategy, no per-round views.
            self.observe_block(pieces[0])
            return
        flat: list[SampleUpdate] = []
        for piece in pieces:
            if isinstance(piece, SampleUpdate):
                flat.append(piece)
            else:
                flat.extend(piece)
        self.observe_block(flat)

    def reset(self) -> None:
        """Forget cadence state; subclasses must chain via ``super().reset()``."""
        self._block_elements = []
        self._block_served = 0
        self._pending_updates = []
        self._pending_count = 0


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
