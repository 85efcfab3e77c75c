"""A reference player for the games, for differential tests.

It plays the AdaptiveGame of Figure 1 round by round with none of the
runners' machinery: no segments, no budget wrapper, no campaign, no update
log and no incremental tracker.  A cadenced attack calls
``plan_block(r, decision_period, view)`` only when its current block is used
up, reads the sample only then (and only if its ``decision_needs`` read it),
and gets one ``observe_block`` with the block's records once the whole block
has played; a block cut off by the stream end is never observed.  Every
other adversary gets ``next_element(r, view)`` and ``observe_update(update)``
each round.  The tests require both game runners to realise exactly its
stream, sample, update record and errors.
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


class _Cadenced:
    """A cadenced attack: one planned block per decision point."""

    def __init__(self, attack: CadencedAdversary) -> None:
        self.attack = attack
        self.unplayed: list[Any] = []
        self.records: list[SampleUpdate] = []
        self.size = 0

    def next_element(self, round_index: int, sampler: Any, knowledge: str) -> Any:
        if not self.unplayed:
            reads = knowledge == "full" and self.attack.decision_needs in ("sample", "both")
            view = sampler.sample if reads else None
            block = self.attack.plan_block(round_index, self.attack.decision_period, view)
            self.unplayed = list(block)
            self.size, self.records = len(self.unplayed), []
        return self.unplayed.pop(0)

    def observe(self, update: SampleUpdate) -> None:
        self.records.append(update)
        if len(self.records) == self.size:
            self.attack.observe_block(self.records)


class _PerRound:
    """Any other adversary: a decision and an update every round."""

    def __init__(self, adversary: Any) -> None:
        self.adversary = adversary

    def next_element(self, round_index: int, sampler: Any, knowledge: str) -> Any:
        reads = knowledge == "full" and self.adversary.uses_observed_sample
        return self.adversary.next_element(round_index, sampler.sample if reads else None)

    def observe(self, update: SampleUpdate) -> None:
        self.adversary.observe_update(update)


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
) -> ReferenceResult:
    """Play ``stream_length`` rounds of ``phases`` against ``sampler``.

    ``phases`` lists ``(first_round, adversary)`` pairs in round order:
    each adversary owns the rounds from its first round to the next phase's
    and sees them, and their update records, numbered from 1 (a bare
    adversary is ``[(1, adversary)]``).  Past ``attack_rounds`` every
    element comes from ``benign`` and nobody observes anything.  The sample
    view goes out only under the full-knowledge model.  Checkpoint and
    final errors are recomputed from the stream.
    """
    starts = [first for first, _ in phases]
    players = [
        _Cadenced(adversary) if isinstance(adversary, CadencedAdversary) else _PerRound(adversary)
        for _, adversary in phases
    ]
    stream: list[Any] = []
    updates: list[SampleUpdate] = []
    errors: list[float] = []
    for round_index in range(1, stream_length + 1):
        attacking = attack_rounds is None or round_index <= attack_rounds
        if attacking:
            owner = max(i for i, first in enumerate(starts) if first <= round_index)
            player = players[owner]
            local = round_index - starts[owner] + 1
            element = player.next_element(local, sampler, knowledge)
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
    return ReferenceResult(stream, sample, updates, error, errors)
