"""A reference player for the games, for differential tests.

It plays the AdaptiveGame of Figure 1 round by round with none of the
runners' machinery: no segments, no budget wrapper, no campaign, no update
log and no incremental tracker.  A cadenced attack calls
``plan_block(r, decision_period, view)`` only when its current block is used
up, reads the sample only then (and only if its ``decision_needs`` read it),
and gets one ``observe_block`` with the block's records once the whole block
has played; a block cut off by the stream end is never observed.  An
oblivious adversary is asked for a one-element block, ``plan_block(r, 1,
None)``, every round and observes nothing.  Campaign members own phases or
take turns in fixed-length slots, and each sees its own rounds numbered
from 1.  The result records the rounds at which the sample was read.  The
tests require both game runners to realise exactly its stream, sample,
update record, errors and sample reads.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.adversary import CadencedAdversary
from repro.samplers.base import SampleUpdate


@dataclass
class ReferenceResult:
    stream: list[Any]
    sample: tuple[Any, ...]
    updates: list[SampleUpdate]
    error: float | None
    checkpoint_errors: list[float] = field(default_factory=list)
    #: The round about to be played at each read of the sample view.
    sample_reads: list[int] = field(default_factory=list)


class _Cadenced:
    """A cadenced attack: one planned block per decision point."""

    def __init__(self, attack: CadencedAdversary) -> None:
        self.attack = attack
        self.unplayed: list[Any] = []
        self.records: list[SampleUpdate] = []
        self.size = 0

    def next_element(self, round_index: int, view: Callable[[], Any], knowledge: str) -> Any:
        if not self.unplayed:
            reads = knowledge == "full" and self.attack.decision_needs in ("sample", "both")
            block = self.attack.plan_block(
                round_index, self.attack.decision_period, view() if reads else None
            )
            self.unplayed = list(block)
            self.size, self.records = len(self.unplayed), []
        return self.unplayed.pop(0)

    def observe(self, update: SampleUpdate) -> None:
        self.records.append(update)
        if len(self.records) == self.size:
            self.attack.observe_block(self.records)


class _PerRound:
    """An oblivious adversary: a one-element block every round, no feedback."""

    def __init__(self, adversary: Any) -> None:
        self.adversary = adversary

    def next_element(self, round_index: int, view: Callable[[], Any], knowledge: str) -> Any:
        return self.adversary.plan_block(round_index, 1, None)[0]

    def observe(self, update: SampleUpdate) -> None:
        pass


def _error(set_system: Any, stream: list[Any], sample: tuple[Any, ...]) -> float:
    return 1.0 if len(sample) == 0 else set_system.max_discrepancy(stream, sample).error


def reference_game(
    sampler: Any,
    phases: Sequence[tuple[int, Any]],
    stream_length: int,
    *,
    knowledge: str = "full",
    set_system: Any = None,
    checkpoints: Sequence[int] = (),
    attack_rounds: int | None = None,
    benign: Callable[[], Any] | None = None,
    stride: int | None = None,
) -> ReferenceResult:
    """Play ``stream_length`` rounds of ``phases`` against ``sampler``.

    ``phases`` lists ``(first_round, adversary)`` pairs in round order:
    each adversary owns the rounds from its first round to the next phase's
    (a bare adversary is ``[(1, adversary)]``).  With ``stride``, ``phases``
    lists the members of an interleaved campaign instead: member ``i`` of
    ``k`` owns the slots ``i, i + k, ...`` of ``stride`` rounds.  Either way
    an adversary sees the rounds it owns, and their update records,
    numbered from 1.  Past ``attack_rounds`` every element comes from
    ``benign`` and nobody observes anything.  The sample view goes out only
    under the full-knowledge model.  Checkpoint and final errors are
    recomputed from the stream.
    """
    if stride is None:
        starts = [first for first, _ in phases]
        adversaries = [adversary for _, adversary in phases]

        def owner_of(round_index: int) -> int:
            return max(i for i, first in enumerate(starts) if first <= round_index)

    else:
        adversaries = list(phases)

        def owner_of(round_index: int) -> int:
            return (round_index - 1) // stride % len(adversaries)

    players = [
        _Cadenced(adversary) if isinstance(adversary, CadencedAdversary) else _PerRound(adversary)
        for adversary in adversaries
    ]
    played = [0] * len(players)
    reads: list[int] = []

    def view() -> Any:
        reads.append(round_index)
        return sampler.sample

    stream: list[Any] = []
    updates: list[SampleUpdate] = []
    errors: list[float] = []
    for round_index in range(1, stream_length + 1):
        attacking = attack_rounds is None or round_index <= attack_rounds
        if attacking:
            owner = owner_of(round_index)
            player = players[owner]
            played[owner] += 1
            local = played[owner]
            element = player.next_element(local, view, knowledge)
        else:
            assert benign is not None
            element = benign()
        update = sampler.process(element)
        stream.append(element)
        updates.append(update)
        if attacking and knowledge != "oblivious":
            player.observe(update._replace(round_index=local))
        if round_index in checkpoints:
            errors.append(_error(set_system, stream, sampler.snapshot()))
    sample = sampler.snapshot()
    error = None if set_system is None else _error(set_system, stream, sample)
    return ReferenceResult(stream, sample, updates, error, errors, reads)
