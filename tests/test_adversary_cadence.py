"""Tests for the decision-cadence protocol (CadencedAdversary and friends).

The pins, in the order the chunked engine relies on them:

* **chunk invariance** — a cadenced adversary's decision sequence depends
  only on its ``decision_period``, never on how the runner chunks the
  stream, so against a sampler with a bit-identical kernel (Bernoulli) the
  ``chunk_size=1`` and chunked games agree exactly, for every attack
  adversary and several periods;
* **period 1 is the historical attack** — hand-driven traces match the
  pre-cadence per-round behaviour;
* **protocol plumbing** — ``decision_needs`` controls what the runner
  materialises, and ``apply_decision_period`` re-declares cadence through
  wrappers.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    BisectionAdversary,
    CadencedAdversary,
    EvictionChaserAdversary,
    GreedyDensityAdversary,
    MedianAttackAdversary,
    MixingGreedyDensityAdversary,
    SwitchingSingletonAdversary,
    ThresholdAttackAdversary,
    UniformAdversary,
    apply_decision_period,
    run_adaptive_game,
    run_continuous_game,
)
from repro.exceptions import ConfigurationError
from repro.samplers import BernoulliSampler
from repro.samplers.base import SampleUpdate, UpdateBatch
from repro.scenarios import ScenarioConfig, run_config
from repro.setsystems import ContinuousPrefixSystem, Prefix

UNIVERSE = 256

#: One factory per attack adversary, so every family is pinned.
ATTACK_FACTORIES = {
    "bisection": lambda period: BisectionAdversary(decision_period=period),
    "figure3": lambda period: ThresholdAttackAdversary.for_bernoulli(
        0.05, 400, decision_period=period
    ),
    "median": lambda period: MedianAttackAdversary(400, decision_period=period),
    "greedy": lambda period: GreedyDensityAdversary(
        Prefix(64), 1, UNIVERSE, decision_period=period
    ),
    "mixing-greedy": lambda period: MixingGreedyDensityAdversary(
        Prefix(64), 1, UNIVERSE, decision_period=period
    ),
    "switching": lambda period: SwitchingSingletonAdversary(
        UNIVERSE, revisit_evicted=True, decision_period=period
    ),
    "eviction-chaser": lambda period: EvictionChaserAdversary(
        Prefix(64), 1, UNIVERSE, reservoir_size=16, decision_period=period
    ),
}


def _play(adversary, chunk_size, seed=11, n=400, continuous=False):
    """A game against the bit-identical Bernoulli kernel (0/1-valued streams
    map into every attack's universe)."""
    sampler = BernoulliSampler(0.08, seed=seed)
    if continuous:
        return run_continuous_game(
            sampler,
            adversary,
            n,
            set_system=ContinuousPrefixSystem(0.0, 2.0**901),
            checkpoints=range(37, n + 1, 37),
            chunk_size=chunk_size,
        )
    return run_adaptive_game(sampler, adversary, n, chunk_size=chunk_size)


class TestChunkInvariance:
    """chunk_size=1 == chunked, for every attack family and period."""

    @pytest.mark.parametrize("name", sorted(ATTACK_FACTORIES))
    @pytest.mark.parametrize("period", [1, 7, 32])
    def test_endpoint_game_bit_identical(self, name, period):
        factory = ATTACK_FACTORIES[name]
        per_element = _play(factory(period), chunk_size=1)
        chunked = _play(factory(period), chunk_size=None)
        assert per_element.stream == chunked.stream
        assert per_element.sample == chunked.sample
        assert list(per_element.updates) == list(chunked.updates)

    @pytest.mark.parametrize("name", ["bisection", "mixing-greedy", "switching"])
    def test_continuous_game_bit_identical(self, name):
        factory = ATTACK_FACTORIES[name]
        per_element = _play(factory(16), chunk_size=1, continuous=True)
        chunked = _play(factory(16), chunk_size=None, continuous=True)
        assert per_element.stream == chunked.stream
        assert per_element.checkpoint_errors == chunked.checkpoint_errors
        assert per_element.error == chunked.error

    @pytest.mark.parametrize("name", sorted(ATTACK_FACTORIES))
    def test_odd_chunk_sizes_bit_identical(self, name):
        """Blocks that span several segments (chunk < period) still realise
        the same decision sequence."""
        factory = ATTACK_FACTORIES[name]
        reference = _play(factory(32), chunk_size=1)
        for chunk in (5, 32, 50):
            other = _play(factory(32), chunk_size=chunk)
            assert reference.stream == other.stream, f"chunk={chunk}"
            assert reference.sample == other.sample, f"chunk={chunk}"


class TestPeriodOneIsHistorical:
    """Hand-driven traces at decision_period=1 match the per-round attacks."""

    def test_bisection_trace(self):
        adversary = BisectionAdversary()
        low, high = 0.0, 1.0
        for round_index, accepted in enumerate([True, False, True, False], start=1):
            element = adversary.next_element(round_index, None)
            assert element == (low + high) / 2.0
            adversary.observe_update(
                SampleUpdate(round_index=round_index, element=element, accepted=accepted)
            )
            if accepted:
                low = element
            else:
                high = element
            assert adversary.working_range == (low, high)

    def test_eviction_chaser_backoff_lasts_one_round(self):
        adversary = EvictionChaserAdversary(Prefix(10), 1, 99, reservoir_size=5)
        adversary.observe_update(
            SampleUpdate(round_index=999, element=1, accepted=True)
        )
        assert adversary.next_element(1000, None) == 99
        assert adversary.next_element(1001, None) == 1

    def test_switching_singleton_burns_on_acceptance(self):
        adversary = SwitchingSingletonAdversary(100)
        assert adversary.next_element(1, None) == 1
        adversary.observe_update(SampleUpdate(round_index=1, element=1, accepted=True))
        assert adversary.next_element(2, None) == 2
        assert adversary.burnt_targets == [1]


class TestCadenceSemantics:
    def test_every_attack_family_is_cadenced(self):
        for name, factory in ATTACK_FACTORIES.items():
            adversary = factory(4)
            assert isinstance(adversary, CadencedAdversary), name
            assert adversary.decision_period == 4, name

    def test_bisection_block_repeats_midpoint_and_moves_on_any_acceptance(self):
        adversary = BisectionAdversary(decision_period=4)
        block = adversary.next_elements(1, 4, None)
        assert block == [0.5] * 4
        batch = UpdateBatch.from_updates(
            SampleUpdate(round_index=i, element=0.5, accepted=(i == 3))
            for i in range(1, 5)
        )
        adversary.observe_update_batch(batch)
        assert adversary.working_range == (0.5, 1.0)

    def test_bisection_block_moves_down_without_acceptance(self):
        adversary = BisectionAdversary(decision_period=4)
        adversary.next_elements(1, 4, None)
        batch = UpdateBatch.from_updates(
            SampleUpdate(round_index=i, element=0.5, accepted=False)
            for i in range(1, 5)
        )
        adversary.observe_update_batch(batch)
        assert adversary.working_range == (0.0, 0.5)

    def test_block_spanning_segments_flushes_once_complete(self):
        adversary = SwitchingSingletonAdversary(100, decision_period=6)
        first = adversary.next_elements(1, 4, None)
        assert first == [1] * 4
        adversary.observe_update_batch(
            UpdateBatch.from_updates(
                SampleUpdate(round_index=i, element=1, accepted=(i == 2))
                for i in range(1, 5)
            )
        )
        # The block is not complete: the acceptance must not be digested yet.
        assert adversary.current_target == 1
        rest = adversary.next_elements(5, 10, None)
        assert rest == [1] * 2
        adversary.observe_update_batch(
            UpdateBatch.from_updates(
                SampleUpdate(round_index=i, element=1, accepted=False)
                for i in range(5, 7)
            )
        )
        assert adversary.current_target == 2
        assert adversary.burnt_targets == [1]

    def test_greedy_density_needs_sample_not_updates(self):
        adversary = GreedyDensityAdversary(Prefix(10), 1, 99)
        assert adversary.decision_needs == "sample"
        assert adversary.uses_observed_sample
        assert not adversary.observes_updates(1, 100)

    def test_mid_block_segments_skip_the_sample_view(self):
        """With chunk_size < decision_period the runner must materialise the
        sample once per *block*, not once per segment (the view is an
        expensive merge on sharded deployments)."""
        observations = []

        class CountingSampler(BernoulliSampler):
            @property
            def sample(self):
                view = super().sample
                observations.append(len(view))
                return view

        adversary = GreedyDensityAdversary(
            Prefix(10), 1, 99, decision_period=64
        )
        run_adaptive_game(
            CountingSampler(0.1, seed=3), adversary, 640, chunk_size=16, keep_updates=False
        )
        # 640 rounds / 64-round blocks = 10 decision points (plus the final
        # result snapshot), not one per 16-round segment (40).
        assert len(observations) == 11

    def test_update_driven_attacks_skip_the_sample_view(self):
        """The runner passes None to plan_block for decision_needs="updates"
        even under the full-knowledge model."""
        seen = []

        class Spy(ThresholdAttackAdversary):
            def plan_block(self, round_index, count, observed_sample):
                seen.append(observed_sample)
                return super().plan_block(round_index, count, observed_sample)

        adversary = Spy(10**6, 60, 0.2, decision_period=10)
        run_adaptive_game(
            BernoulliSampler(0.2, seed=1), adversary, 60, knowledge="full"
        )
        assert seen and all(view is None for view in seen)

    def test_invalid_decision_period_rejected(self):
        with pytest.raises(ConfigurationError):
            BisectionAdversary(decision_period=0)
        with pytest.raises(ConfigurationError):
            BisectionAdversary().set_decision_period(-3)

    def test_set_decision_period_mid_block_rejected(self):
        adversary = BisectionAdversary(decision_period=8)
        adversary.next_elements(1, 3, None)
        with pytest.raises(ConfigurationError, match="mid-block"):
            adversary.set_decision_period(4)

    def test_reset_clears_cadence_state(self):
        adversary = SwitchingSingletonAdversary(100, decision_period=4)
        adversary.next_elements(1, 2, None)
        adversary.reset()
        assert adversary.next_elements(1, 4, None) == [1] * 4


class TestApplyDecisionPeriod:
    def test_applies_to_cadenced_adversaries(self):
        adversary = MedianAttackAdversary(100)
        assert apply_decision_period(adversary, 25)
        assert adversary.decision_period == 25

    def test_oblivious_adversaries_decline(self):
        assert not apply_decision_period(UniformAdversary(16, seed=0), 25)


class TestScenarioCadence:
    SMALL = dict(stream_length=192, universe_size=64, trials=2)

    def test_decision_period_field_is_validated(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(name="x", decision_period=0)

    def test_decision_period_round_trips_through_json(self):
        config = ScenarioConfig(name="x", decision_period=16)
        assert ScenarioConfig.from_json(config.to_json()) == config

    def test_spec_level_cadence_overrides_config_level(self):
        base = dict(
            name="cadence",
            **self.SMALL,
            samplers={"bernoulli": {"family": "bernoulli", "probability": 0.1}},
            set_system={"kind": "prefix"},
        )
        config_level = run_config(
            ScenarioConfig(
                **base,
                decision_period=16,
                adversary={
                    "family": "greedy_density",
                    "target": {"kind": "prefix", "bound_fraction": 0.5},
                },
            )
        )
        spec_level = run_config(
            ScenarioConfig(
                **base,
                decision_period=3,
                adversary={
                    "family": "greedy_density",
                    "decision_period": 16,
                    "target": {"kind": "prefix", "bound_fraction": 0.5},
                },
            )
        )
        assert config_level.cells[0]["mean_error"] == spec_level.cells[0]["mean_error"]

    def test_spec_level_cadence_on_oblivious_family_rejected(self):
        config = ScenarioConfig(
            name="bad",
            **self.SMALL,
            adversary={"family": "uniform", "decision_period": 16},
        )
        with pytest.raises(ConfigurationError, match="declares no decision"):
            run_config(config)

    def test_config_level_cadence_is_lenient_for_oblivious_families(self):
        config = ScenarioConfig(
            name="ok",
            **self.SMALL,
            decision_period=16,
            adversary={"family": "uniform"},
        )
        result = run_config(config)
        assert result.cells


class TestBudgetedCadence:
    def test_budget_boundary_caps_blocks(self):
        """The wrapper slices cadence blocks at the attack/benign boundary
        and forwards only attack-window update records (columnar slice)."""
        from repro.scenarios.builders import BudgetedAdversary

        inner = SwitchingSingletonAdversary(100, decision_period=8)
        wrapper = BudgetedAdversary(inner, lambda: 0, attack_rounds=10)
        first = wrapper.next_elements(9, 100, None)
        assert first == [1, 1]  # capped at the boundary
        batch = UpdateBatch.from_updates(
            SampleUpdate(round_index=i, element=1, accepted=True) for i in range(9, 13)
        )
        wrapper.observe_update_batch(batch)
        # Rounds 11-12 are benign-tail records and must not reach the inner
        # attack; the block (8 long) is still incomplete, so nothing burns.
        assert inner.current_target == 1
        assert wrapper.next_elements(11, 3, None) == [0, 0, 0]

    def test_budgeted_wrapper_forwards_sample_appetite(self):
        from repro.scenarios.builders import BudgetedAdversary

        updates_driven = BudgetedAdversary(
            ThresholdAttackAdversary(10**6, 100, 0.2), lambda: 0, attack_rounds=50
        )
        assert not updates_driven.uses_observed_sample
        sample_driven = BudgetedAdversary(
            GreedyDensityAdversary(Prefix(10), 1, 99), lambda: 0, attack_rounds=50
        )
        assert sample_driven.uses_observed_sample

    def test_budgeted_wrapper_forwards_set_decision_period(self):
        from repro.scenarios.builders import BudgetedAdversary

        inner = BisectionAdversary()
        wrapper = BudgetedAdversary(inner, lambda: 0, attack_rounds=50)
        assert apply_decision_period(wrapper, 9)
        assert inner.decision_period == 9
        oblivious = BudgetedAdversary(UniformAdversary(8, seed=0), lambda: 0, attack_rounds=5)
        assert not apply_decision_period(oblivious, 9)


class TestCadencedSubclassOverridingNextElement:
    def test_per_round_override_is_honoured(self):
        """Mirrors the static adversaries' regression guard: a subclass that
        overrides next_element must not be bypassed by block serving."""

        class Constant(BisectionAdversary):
            def next_element(self, round_index, observed_sample):
                return 0.25

        result = run_adaptive_game(
            BernoulliSampler(0.5, seed=1), Constant(decision_period=32), 40
        )
        assert result.stream == [0.25] * 40
