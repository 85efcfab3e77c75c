"""Multi-adversary campaigns: several attacks composed over one stream.

The paper's game has a single adversary, but the follow-up threat models
([BJWY20], [HKMMS20]) assume attackers that *phase* their attacks (spam to
fill the sample, then poison a target range), *probe* before striking, or
*collude* — several strategies splitting the round budget between them.
:class:`CampaignAdversary` composes existing adversaries into those shapes
behind the ordinary :class:`~repro.adversary.base.Adversary` protocol, so
every game runner and knowledge model applies unchanged.  The scenario
layer's attack budget is itself a two-phase campaign (the attack, then
benign filler), so a budgeted campaign scenario nests one campaign in
another.

Two composition modes:

* **phased** — the stream is cut at fixed fractions into consecutive
  phases, one member per phase (``spam`` for the first half, ``poison`` for
  the second).  The members share the attack timeline: one finishes, the
  next begins.
* **interleaved** — round-robin over fixed-length slots of ``stride``
  rounds: member ``i`` plays slots ``i, i+k, i+2k, ...``.  This is the
  colluding model — ``k`` adversaries splitting the round budget evenly,
  each seeing only its own substream's feedback.

Local round indices
-------------------
Members are written against a stream of their own: round indices are
semantic for several attacks (the sorted adversary returns the index, the
eviction chaser arranges probes around it, cadence blocks align to it).  A
campaign therefore presents each member with its **local** substream — the
member sees rounds ``1, 2, 3, ...`` of its own contiguous play, and update
records are translated back to those local indices before forwarding.  The
round -> member map depends only on the round index and the configured
schedule, never on the realised stream or the attack budget, which is what
keeps campaign scenarios budget-monotone: a larger budget extends each
member's local stream, it never alters its beginning.

Segmentation
------------
A campaign has no decision points of its own (``decision_period = None``):
:meth:`CampaignAdversary.plan_block` serves each segment from the member
that owns its first round, and never lets it straddle an ownership boundary
(a phase start, or a slot edge in interleaved mode), so the chunked game
runners keep their vectorised fast paths.  Each member's blocks are played
by its own :class:`~repro.adversary.base.BlockBuffer`, so a member's block
may span several of its runs: a period-7 member of an interleaved campaign
with 5-round slots plans once per 7 of its own rounds.  The campaign's
``decision_needs`` are those of the member about to play, without the
sample while that member is mid-block.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError
from ..samplers.base import SampleUpdate, UpdateBatch
from .base import Adversary, BlockBuffer, DecisionNeeds, apply_decision_period

__all__ = ["CampaignAdversary", "phase_start_rounds"]

#: Campaign composition modes.
CAMPAIGN_MODES = ("phased", "interleaved")


def phase_start_rounds(starts: Sequence[float], stream_length: int) -> tuple[int, ...]:
    """Resolve phase start fractions to 1-based first rounds.

    The fractions are validated to produce a usable schedule *at this stream
    length*: the first phase must begin at round 1, every phase must own at
    least one round after rounding (tiny streams can collapse two close
    fractions onto the same round), and no phase may start beyond the
    stream.
    """
    if not starts:
        raise ConfigurationError("a phased campaign needs at least one phase start")
    rounds = [int(round(float(start) * stream_length)) + 1 for start in starts]
    if rounds[0] != 1:
        raise ConfigurationError(
            f"the first campaign phase must start at fraction 0.0, got {starts[0]}"
        )
    for earlier, later in zip(rounds, rounds[1:]):
        if later <= earlier:
            raise ConfigurationError(
                f"campaign phase starts {list(starts)} collapse at stream length "
                f"{stream_length}: rounds {rounds} must be strictly increasing"
            )
    if rounds[-1] > stream_length:
        raise ConfigurationError(
            f"campaign phase start {starts[-1]} lies beyond the stream "
            f"(round {rounds[-1]} of {stream_length})"
        )
    return tuple(rounds)


class CampaignAdversary(Adversary):
    """Compose member adversaries over one stream (phased or interleaved).

    Parameters
    ----------
    members:
        The member adversaries, in schedule order.  A member may itself be
        a campaign: below full budget the scenario layer's
        ``BudgetedAdversary`` is a two-phase campaign whose first member is
        the whole attack, campaign or not.
    mode:
        ``"phased"`` (consecutive phases, requires ``phase_starts``) or
        ``"interleaved"`` (round-robin slots of ``stride`` rounds).
    phase_starts:
        Phased mode only: the 1-based first round of each phase (from
        :func:`phase_start_rounds`); the first must be 1 and the sequence
        strictly increasing.  The last phase extends to the end of the
        stream.
    stride:
        Interleaved mode only: slot length in rounds (default 16).
    name:
        Display name; defaults to ``campaign(<member names>)``.
    """

    decision_period = None

    def __init__(
        self,
        members: Sequence[Adversary],
        mode: str = "phased",
        phase_starts: Sequence[int] | None = None,
        stride: int = 16,
        name: str | None = None,
    ) -> None:
        if not members:
            raise ConfigurationError("a campaign needs at least one member adversary")
        if mode not in CAMPAIGN_MODES:
            raise ConfigurationError(
                f"unknown campaign mode {mode!r}; expected one of {CAMPAIGN_MODES}"
            )
        self.members = list(members)
        self.mode = mode
        if mode == "phased":
            if phase_starts is None or len(phase_starts) != len(self.members):
                raise ConfigurationError(
                    "a phased campaign needs one phase start per member, got "
                    f"{phase_starts!r} for {len(self.members)} members"
                )
            starts = [int(start) for start in phase_starts]
            if starts[0] != 1 or any(b <= a for a, b in zip(starts, starts[1:])):
                raise ConfigurationError(
                    f"phase starts must begin at 1 and strictly increase, got {starts}"
                )
            self._phase_starts = starts
            self.stride = int(stride)
        else:
            if phase_starts is not None:
                raise ConfigurationError(
                    "an interleaved campaign takes a stride, not phase starts"
                )
            if int(stride) < 1:
                raise ConfigurationError(f"campaign stride must be >= 1, got {stride}")
            self._phase_starts = []
            self.stride = int(stride)
        self.name = name or f"campaign({'+'.join(m.name for m in self.members)})"
        self._players = [BlockBuffer(member) for member in self.members]
        self._next_round = 1
        # The cached run of :meth:`_run`; empty until the first lookup.
        self._run_first, self._run_info = 1, (0, 0, 0)

    # ------------------------------------------------------------------
    # Schedule arithmetic (pure functions of the global round index)
    # ------------------------------------------------------------------
    def _run(self, round_index: int) -> tuple[int, int, int]:
        """The contiguous run containing global round ``round_index``.

        Returns its owner's index, its last global round (``sys.maxsize``
        for the final phase) and the owner's local offset: the member-local
        round is ``round_index - offset``.  The current run is cached, since
        a game asks about the same run several times per round.
        """
        if self._run_first <= round_index <= self._run_info[1]:
            return self._run_info
        k = len(self.members)
        if self.mode == "phased":
            member = bisect_right(self._phase_starts, round_index) - 1
            first = self._phase_starts[member]
            last = self._phase_starts[member + 1] - 1 if member + 1 < k else sys.maxsize
            offset = first - 1
        else:
            slot = (round_index - 1) // self.stride
            member = slot % k
            first = slot * self.stride + 1
            last = first + self.stride - 1
            offset = (slot - slot // k) * self.stride
        self._run_first, self._run_info = first, (member, last, offset)
        return self._run_info

    def _owners_of(self, round_indices: np.ndarray) -> np.ndarray:
        """The owner of each global round in a column (vectorised)."""
        if self.mode == "phased":
            starts = np.asarray(self._phase_starts, dtype=np.int64)
            return np.searchsorted(starts, round_indices, side="right") - 1
        return ((round_indices - 1) // self.stride) % len(self.members)

    def _locals_of(self, round_indices: np.ndarray, member_index: int) -> np.ndarray:
        """Member-local rounds for a column of rounds all owned by one member."""
        if self.mode == "phased":
            return round_indices - self._phase_starts[member_index] + 1
        slots = (round_indices - 1) // self.stride
        within = (round_indices - 1) % self.stride
        return (slots // len(self.members)) * self.stride + within + 1

    # ------------------------------------------------------------------
    # Adversary protocol
    # ------------------------------------------------------------------
    @property
    def decision_needs(self) -> DecisionNeeds:  # type: ignore[override]
        """What the next segment reads: the needs of the member about to
        play, without the sample while that member is mid-block."""
        return self._players[self._run(self._next_round)[0]].needs()

    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        """Serve a segment from the member owning ``round_index``.

        The count is capped at the owner's run end so a served segment never
        straddles an ownership boundary; within the run the member's own
        decision period applies.
        """
        member_index, last, offset = self._run(round_index)
        take = min(count, last - round_index + 1)
        elements = self._players[member_index].serve(round_index - offset, take, observed_sample)
        if len(elements) > take:
            raise ConfigurationError(
                f"campaign member {self.members[member_index].name!r} returned "
                f"{len(elements)} elements for a segment of at most {take}"
            )
        self._next_round = round_index + len(elements)
        return elements

    def observe_block(self, updates: Sequence[SampleUpdate]) -> None:
        """Forward each record to the member owning its round, renumbered
        to the member's own rounds."""
        players = self._players
        if not isinstance(updates, UpdateBatch):
            for update in updates:
                member_index, _, offset = self._run(update.round_index)
                if offset:
                    update = SampleUpdate(
                        update.round_index - offset, update.element, update.accepted, update.evicted
                    )
                players[member_index].observe([update])
            return
        if len(updates) == 0:
            return
        # Split the columnar record into runs of constant ownership and
        # forward each run with member-local round indices; acceptance flags
        # and sparse evictions are re-sliced, never copied per element.
        owners = self._owners_of(updates.round_indices)
        cuts = [0, *(np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist(), len(owners)]
        for low, high in zip(cuts, cuts[1:]):
            member_index = int(owners[low])
            piece = updates if high - low == len(updates) else updates[low:high]
            players[member_index].observe(
                UpdateBatch(
                    self._locals_of(piece.round_indices, member_index),
                    piece.elements,
                    piece.accepted,
                    piece.evictions,
                )
            )

    def set_decision_period(self, decision_period: int) -> bool:
        """Forward a cadence re-declaration to every member.

        Returns ``True`` when any member accepted — the contract
        :func:`~repro.adversary.base.apply_decision_period` expects from
        composite setters; members without a cadence protocol are unaffected.
        """
        applied = [
            apply_decision_period(member, decision_period) for member in self.members
        ]
        return any(applied)

    def reset(self) -> None:
        for member in self.members:
            member.reset()
        self._players = [BlockBuffer(member) for member in self.members]
        self._next_round = 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        schedule = (
            f"phase_starts={self._phase_starts}"
            if self.mode == "phased"
            else f"stride={self.stride}"
        )
        return (
            f"CampaignAdversary(mode={self.mode!r}, members={len(self.members)}, "
            f"{schedule})"
        )
