"""Games against a reference player with no runner machinery.

``game_reference`` plays round by round: a cadenced attack plans a block
with ``plan_block(r, decision_period, view)`` when its last one is used up
and digests it with one ``observe_block`` once it has played, and any other
adversary gets ``next_element`` and ``observe_update`` every round.  It
shares no code with the runners' segment loop, so these tests pin that loop
independently of how it chunks the stream: both runners must realise the
reference's stream, sample, update record and errors bit for bit — for
every attack family at several decision periods and for the static
adversaries, at chunk sizes 1, 5, 32 and the default over Bernoulli (whose
batched kernel is bit-identical to one element at a time), and at chunk
size 1 over reservoir (whose batched kernel draws in batch order).  At
period 1 every family is also checked inside a phased campaign, and at
periods 1, 7 and 32 under a partial budget, alone and around a phased
campaign whose second phase the budget cuts, under both knowledge models
that feed the attack.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from game_reference import reference_game
from test_adversary_cadence import ATTACK_FACTORIES, UNIVERSE

from repro.adversary import (
    CampaignAdversary,
    SortedAdversary,
    StaticAdversary,
    SwitchingSingletonAdversary,
    UniformAdversary,
    run_adaptive_game,
    run_continuous_game,
)
from repro.exceptions import ConfigurationError
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.samplers.base import SampleUpdate
from repro.scenarios.builders import BudgetedAdversary
from repro.setsystems import PrefixSystem

N = 400
#: The second phase of the campaign games starts here.
SECOND_PHASE = 161
#: Attack rounds of the budgeted games; the benign tail follows.
ATTACK_ROUNDS = 240
CHECKPOINTS = (*range(37, N + 1, 37), N)
SAMPLERS = {
    "bernoulli": lambda: BernoulliSampler(0.08, seed=11),
    "reservoir": lambda: ReservoirSampler(16, seed=11),
}


#: Every attack family at three decision periods, plus three static adversaries.
ADVERSARIES = {
    **{
        f"{family}@{period}": partial(factory, period)
        for family, factory in ATTACK_FACTORIES.items()
        for period in (1, 7, 32)
    },
    "uniform": lambda: UniformAdversary(UNIVERSE, seed=3),
    "static": lambda: StaticAdversary([(7 * r) % UNIVERSE + 1 for r in range(N)]),
    "sorted": SortedAdversary,
}
#: The (sampler, chunk size) pairs whose games are bit-identical to the
#: reference's round-by-round play.
CHUNKINGS = [
    ("bernoulli", 1),
    ("bernoulli", 5),
    ("bernoulli", 32),
    ("bernoulli", None),
    ("reservoir", 1),
]


def _benign():
    rng = np.random.default_rng(5)
    return lambda: int(rng.integers(1, UNIVERSE + 1))


def _play(runner, sampler, adversary, knowledge, chunk_size):
    # The prefix system's tracker indexes the integer attacks' elements and
    # deactivates on the bisection's floats and the Figure-3 attack's huge
    # integers, so both judging paths are compared with the reference.
    system = PrefixSystem(UNIVERSE)
    if runner == "continuous":
        return run_continuous_game(
            sampler, adversary, N, system,
            checkpoints=CHECKPOINTS, knowledge=knowledge, chunk_size=chunk_size,
        )
    return run_adaptive_game(
        sampler, adversary, N, set_system=system, knowledge=knowledge, chunk_size=chunk_size
    )


def _assert_same_game(result, reference, runner):
    assert result.stream == reference.stream
    assert result.sample == reference.sample
    assert list(result.updates) == reference.updates
    assert result.error == reference.error
    if runner == "continuous":
        assert result.checkpoint_errors == reference.checkpoint_errors


def _reference(sampler, phases, knowledge, runner, **tail):
    return reference_game(
        sampler, phases, N, knowledge=knowledge, set_system=PrefixSystem(UNIVERSE),
        checkpoints=CHECKPOINTS if runner == "continuous" else (), **tail,
    )


@pytest.mark.parametrize("runner", ["adaptive", "continuous"])
@pytest.mark.parametrize("knowledge", ["full", "updates"])
@pytest.mark.parametrize("sampler, chunk_size", CHUNKINGS)
@pytest.mark.parametrize("name", sorted(ADVERSARIES))
def test_every_adversary_matches_reference(name, sampler, chunk_size, knowledge, runner):
    make = ADVERSARIES[name]
    result = _play(runner, SAMPLERS[sampler](), make(), knowledge, chunk_size)
    reference = _reference(SAMPLERS[sampler](), [(1, make())], knowledge, runner)
    _assert_same_game(result, reference, runner)


@pytest.mark.parametrize("runner", ["adaptive", "continuous"])
@pytest.mark.parametrize("chunk_size", [1, None])
@pytest.mark.parametrize("knowledge", ["full", "updates"])
@pytest.mark.parametrize("family", sorted(ATTACK_FACTORIES))
class TestPeriodOneMatchesReference:
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_bare_attack(self, family, knowledge, chunk_size, runner, sampler):
        factory = ATTACK_FACTORIES[family]
        result = _play(runner, SAMPLERS[sampler](), factory(1), knowledge, chunk_size)
        reference = _reference(SAMPLERS[sampler](), [(1, factory(1))], knowledge, runner)
        _assert_same_game(result, reference, runner)

    def test_phased_campaign(self, family, knowledge, chunk_size, runner):
        factory = ATTACK_FACTORIES[family]
        campaign = CampaignAdversary(
            [factory(1), factory(1)], mode="phased", phase_starts=[1, SECOND_PHASE]
        )
        result = _play(runner, SAMPLERS["bernoulli"](), campaign, knowledge, chunk_size)
        reference = _reference(
            SAMPLERS["bernoulli"](), [(1, factory(1)), (SECOND_PHASE, factory(1))],
            knowledge, runner,
        )
        _assert_same_game(result, reference, runner)

    def test_partial_budget(self, family, knowledge, chunk_size, runner):
        factory = ATTACK_FACTORIES[family]
        wrapped = BudgetedAdversary(factory(1), _benign(), ATTACK_ROUNDS)
        result = _play(runner, SAMPLERS["bernoulli"](), wrapped, knowledge, chunk_size)
        reference = _reference(
            SAMPLERS["bernoulli"](), [(1, factory(1))], knowledge, runner,
            attack_rounds=ATTACK_ROUNDS, benign=_benign(),
        )
        _assert_same_game(result, reference, runner)


@pytest.mark.parametrize("runner", ["adaptive", "continuous"])
@pytest.mark.parametrize("chunk_size", [1, None])
@pytest.mark.parametrize("knowledge", ["full", "updates"])
@pytest.mark.parametrize("family", sorted(ATTACK_FACTORIES))
class TestBudgetMatchesReference:
    """The budget at every cadence: a period-7 or period-32 block is cut at
    the attack/benign boundary and its records are never observed, and a
    budget around a phased campaign ends inside the second phase."""

    @pytest.mark.parametrize("period", [7, 32])
    def test_partial_budget(self, period, family, knowledge, chunk_size, runner):
        factory = partial(ATTACK_FACTORIES[family], period)
        wrapped = BudgetedAdversary(factory(), _benign(), ATTACK_ROUNDS)
        result = _play(runner, SAMPLERS["bernoulli"](), wrapped, knowledge, chunk_size)
        reference = _reference(
            SAMPLERS["bernoulli"](), [(1, factory())], knowledge, runner,
            attack_rounds=ATTACK_ROUNDS, benign=_benign(),
        )
        _assert_same_game(result, reference, runner)

    @pytest.mark.parametrize("period", [1, 7, 32])
    def test_budgeted_campaign(self, period, family, knowledge, chunk_size, runner):
        factory = partial(ATTACK_FACTORIES[family], period)
        campaign = CampaignAdversary(
            [factory(), factory()], mode="phased", phase_starts=[1, SECOND_PHASE]
        )
        wrapped = BudgetedAdversary(campaign, _benign(), ATTACK_ROUNDS)
        result = _play(runner, SAMPLERS["bernoulli"](), wrapped, knowledge, chunk_size)
        reference = _reference(
            SAMPLERS["bernoulli"](), [(1, factory()), (SECOND_PHASE, factory())],
            knowledge, runner, attack_rounds=ATTACK_ROUNDS, benign=_benign(),
        )
        _assert_same_game(result, reference, runner)


def test_switching_to_period_one_with_updates_pending_is_rejected():
    """Period 1 keeps no buffer, so a block whose updates are still pending
    must be digested before the cadence may drop to 1."""
    adversary = SwitchingSingletonAdversary(100, decision_period=4)
    assert adversary.next_elements(1, 4, None) == [1] * 4
    adversary.observe_update(SampleUpdate(round_index=1, element=1, accepted=True))
    with pytest.raises(ConfigurationError, match="mid-block"):
        adversary.set_decision_period(1)
    for round_index in (2, 3, 4):
        adversary.observe_update(SampleUpdate(round_index=round_index, element=1, accepted=False))
    adversary.set_decision_period(1)
    assert adversary.burnt_targets == [1]
    assert adversary.next_elements(5, 4, None) == [2]
