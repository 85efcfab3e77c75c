"""A reference player for period-1 games, for differential tests.

It plays the AdaptiveGame of Figure 1 round by round with none of the
runners' machinery: no segments, no cadence buffer, no budget wrapper, no
campaign, no update log and no incremental tracker.  Each attack round it
calls the owning attack's ``plan_block(r, 1, view)`` and, once the sampler
has processed the element, ``observe_block([update])``.  The tests require
both game runners to realise exactly its stream, sample, update record and
errors.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from repro.samplers.base import SampleUpdate


@dataclass
class ReferenceResult:
    stream: list[Any]
    sample: tuple[Any, ...]
    updates: list[SampleUpdate]
    error: float | None
    checkpoint_errors: list[float] = field(default_factory=list)


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
    """Play ``stream_length`` rounds of period-1 attacks against ``sampler``.

    ``phases`` lists ``(first_round, attack)`` pairs in round order: each
    attack owns the rounds from its first round to the next phase's and
    sees them, and their update records, numbered from 1 (a bare attack is
    ``[(1, attack)]``).  Past ``attack_rounds`` every element comes from
    ``benign`` and nobody observes anything.  The sample view goes only to
    attacks whose ``decision_needs`` read it, under the full-knowledge
    model.  Checkpoint and final errors are recomputed from the stream.
    """
    starts = [first for first, _ in phases]
    stream: list[Any] = []
    updates: list[SampleUpdate] = []
    errors: list[float] = []
    for round_index in range(1, stream_length + 1):
        attacking = attack_rounds is None or round_index <= attack_rounds
        if attacking:
            owner = max(i for i, first in enumerate(starts) if first <= round_index)
            attack = phases[owner][1]
            local = round_index - starts[owner] + 1
            reads = knowledge == "full" and attack.decision_needs in ("sample", "both")
            (element,) = attack.plan_block(local, 1, sampler.sample if reads else None)
        else:
            assert benign is not None
            element = benign()
        update = sampler.process(element)
        stream.append(element)
        updates.append(update)
        if attacking and knowledge != "oblivious":
            attack.observe_block([replace(update, round_index=local)])
        if round_index in checkpoints:
            errors.append(_error(set_system, stream, sampler.snapshot()))
    sample = sampler.snapshot()
    error = None if set_system is None else _error(set_system, stream, sample)
    return ReferenceResult(stream, sample, updates, error, errors)
