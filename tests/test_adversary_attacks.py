"""Tests for the adaptive attacks: bisection, Figure-3, greedy, heavy-hitter, eviction-chaser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    BisectionAdversary,
    EvictionChaserAdversary,
    GreedyDensityAdversary,
    MedianAttackAdversary,
    SwitchingSingletonAdversary,
    ThresholdAttackAdversary,
    recommended_universe_size,
    run_adaptive_game,
    sufficient_universe_size,
)
from repro.exceptions import ConfigurationError
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.setsystems import ContinuousPrefixSystem, Prefix, PrefixSystem


class TestBisectionAdversary:
    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            BisectionAdversary(1.0, 0.0)

    def test_sample_is_exactly_smallest_elements(self, rng):
        sampler = BernoulliSampler(0.3, seed=rng)
        adversary = BisectionAdversary()
        result = run_adaptive_game(sampler, adversary, 200)
        stream_sorted = sorted(result.stream)
        sample_sorted = sorted(result.sample)
        assert sample_sorted == stream_sorted[: len(sample_sorted)]

    def test_final_error_is_one_minus_sample_fraction(self, rng):
        # Keep the stream short enough that float precision has not run out
        # (the paper's point is precisely that this attack needs precision
        # exponential in the stream length).
        system = ContinuousPrefixSystem()
        sampler = BernoulliSampler(0.2, seed=rng)
        adversary = BisectionAdversary()
        result = run_adaptive_game(sampler, adversary, 40, set_system=system)
        expected = 1.0 - len(result.sample) / len(result.stream)
        assert result.error == pytest.approx(expected, abs=0.03)

    def test_precision_exhaustion_recorded_on_long_streams(self, rng):
        sampler = BernoulliSampler(0.5, seed=rng)
        adversary = BisectionAdversary()
        run_adaptive_game(sampler, adversary, 300)
        assert adversary.precision_exhausted_at is not None
        assert adversary.precision_exhausted_at < 200

    def test_working_range_shrinks_monotonically(self, rng):
        sampler = BernoulliSampler(0.5, seed=rng)
        adversary = BisectionAdversary()
        widths = []
        for round_index in range(1, 40):
            element = adversary.plan_block(round_index, 1, sampler.sample)[0]
            update = sampler.process(element)
            adversary.observe_block([update])
            low, high = adversary.working_range
            widths.append(high - low)
        assert all(b <= a for a, b in zip(widths, widths[1:]))

    def test_reset(self):
        adversary = BisectionAdversary()
        adversary.plan_block(1, 1, None)
        adversary.reset()
        assert adversary.working_range == (0.0, 1.0)
        assert adversary.precision_exhausted_at is None


class TestThresholdAttack:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ThresholdAttackAdversary(2, 10, 0.5)
        with pytest.raises(ConfigurationError):
            ThresholdAttackAdversary(100, 10, 0.0)
        with pytest.raises(ConfigurationError):
            ThresholdAttackAdversary(100, 0, 0.5)

    def test_recommended_universe_size_in_theorem_window(self):
        n = 500
        size = recommended_universe_size(n)
        assert size > n
        # ln N should be ~ 6 (ln n)^2 when un-clamped.
        import math

        assert math.log(size) == pytest.approx(6 * math.log(n) ** 2, rel=0.05)

    def test_sufficient_universe_size_monotone_in_accepts(self):
        assert sufficient_universe_size(100, 1000, 0.1) > sufficient_universe_size(
            10, 1000, 0.1
        )

    def test_elements_stay_inside_universe(self, rng):
        n = 300
        adversary = ThresholdAttackAdversary.for_bernoulli(0.05, n)
        sampler = BernoulliSampler(0.05, seed=rng)
        result = run_adaptive_game(sampler, adversary, n)
        assert all(1 <= element <= adversary.universe_size for element in result.stream)

    def test_invariant_sampled_below_unsampled(self, rng):
        n = 400
        adversary = ThresholdAttackAdversary.for_bernoulli(0.05, n)
        sampler = BernoulliSampler(0.05, seed=rng)
        result = run_adaptive_game(sampler, adversary, n)
        accepted = [u.element for u in result.updates if u.accepted]
        rejected = [u.element for u in result.updates if not u.accepted]
        if accepted and rejected:
            assert max(accepted) < min(rejected)

    def test_attack_defeats_undersized_bernoulli(self, rng):
        n = 500
        system = PrefixSystem(recommended_universe_size(n))
        probability = 0.02
        sampler = BernoulliSampler(probability, seed=rng)
        adversary = ThresholdAttackAdversary.for_bernoulli(
            probability, n, universe_size=system.universe_size
        )
        result = run_adaptive_game(sampler, adversary, n, set_system=system)
        assert result.error > 0.8

    def test_attack_defeats_undersized_reservoir(self, rng):
        n = 600
        reservoir_size = 5
        adversary = ThresholdAttackAdversary.for_reservoir(reservoir_size, n)
        system = PrefixSystem(adversary.universe_size)
        sampler = ReservoirSampler(reservoir_size, seed=rng)
        result = run_adaptive_game(sampler, adversary, n, set_system=system)
        assert result.error > 0.8
        assert not adversary.attack_failed

    def test_attack_fails_against_large_sample(self, rng):
        # When the sample is a constant fraction of the stream the attack
        # cannot make it unrepresentative (Theorem 1.2 regime).
        n = 500
        sampler = BernoulliSampler(0.8, seed=rng)
        adversary = ThresholdAttackAdversary.for_bernoulli(0.8, n)
        system = PrefixSystem(adversary.universe_size)
        result = run_adaptive_game(sampler, adversary, n, set_system=system)
        assert result.error < 0.3

    def test_reset_restores_range(self):
        adversary = ThresholdAttackAdversary(10**6, 100, 0.1)
        adversary.plan_block(1, 1, None)
        adversary.reset()
        assert adversary.working_range == (1, 10**6)
        assert not adversary.attack_failed

    def test_range_exhaustion_detected_on_tiny_universe(self, rng):
        adversary = ThresholdAttackAdversary(universe_size=8, stream_length=200, step_fraction=0.3)
        sampler = BernoulliSampler(0.3, seed=rng)
        run_adaptive_game(sampler, adversary, 200)
        assert adversary.attack_failed


class TestMedianAttack:
    def test_defaults_build_large_universe(self):
        adversary = MedianAttackAdversary(100)
        assert adversary.universe_size >= 2**100
        assert adversary.step_fraction == pytest.approx(0.5)

    def test_drives_sample_to_bottom_of_stream(self, rng):
        n = 300
        adversary = MedianAttackAdversary(n)
        sampler = BernoulliSampler(0.2, seed=rng)
        result = run_adaptive_game(sampler, adversary, n)
        stream_sorted = sorted(result.stream)
        assert sorted(result.sample) == stream_sorted[: len(result.sample)]

    def test_invalid_length_rejected(self):
        with pytest.raises(ConfigurationError):
            MedianAttackAdversary(0)


class TestGreedyDensityAdversary:
    def test_element_supplier_validation(self):
        with pytest.raises(ConfigurationError):
            GreedyDensityAdversary(Prefix(10), in_range_element=50, out_range_element=100)

    def test_reacts_to_observed_gap(self):
        adversary = GreedyDensityAdversary(Prefix(10), in_range_element=1, out_range_element=100)
        # The sample over-represents the range relative to the (still empty)
        # stream, so the widening strategy pushes out-of-range mass.
        assert adversary.plan_block(1, 1, [1, 1, 1])[0] == 100
        # Now the stream under-represents the range relative to an all-out
        # sample view, so it pushes in-range mass.
        assert adversary.plan_block(2, 1, [100, 100])[0] == 1

    def test_oblivious_view_degrades_to_in_range(self):
        adversary = GreedyDensityAdversary(Prefix(10), in_range_element=2, out_range_element=99)
        assert adversary.plan_block(1, 1, None)[0] == 2

    def test_cannot_defeat_theorem_sized_reservoir(self, rng):
        from repro.core.bounds import reservoir_adaptive_size

        system = PrefixSystem(256)
        epsilon, delta, n = 0.3, 0.2, 1500
        size = reservoir_adaptive_size(system.log_cardinality(), epsilon, delta).size
        sampler = ReservoirSampler(size, seed=rng)
        adversary = GreedyDensityAdversary(
            Prefix(128), in_range_element=1, out_range_element=256
        )
        result = run_adaptive_game(sampler, adversary, n, set_system=system, epsilon=epsilon)
        assert result.succeeded

    def test_reset(self):
        adversary = GreedyDensityAdversary(Prefix(10), in_range_element=1, out_range_element=99)
        adversary.plan_block(1, 1, [])
        adversary.reset()
        assert adversary._stream_length == 0


class TestSwitchingSingletonAdversary:
    def test_invalid_universe_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchingSingletonAdversary(1)

    def test_switches_target_after_acceptance(self, rng):
        adversary = SwitchingSingletonAdversary(100)
        sampler = BernoulliSampler(1.0, seed=rng)
        first = adversary.plan_block(1, 1, sampler.sample)[0]
        adversary.observe_block([sampler.process(first)])
        second = adversary.plan_block(2, 1, sampler.sample)[0]
        assert first == 1 and second == 2
        assert adversary.burnt_targets == [1]

    def test_keeps_target_while_uncaught(self, rng):
        adversary = SwitchingSingletonAdversary(100)
        sampler = BernoulliSampler(1e-9, seed=rng)
        elements = []
        for i in range(1, 21):
            element = adversary.plan_block(i, 1, sampler.sample)[0]
            adversary.observe_block([sampler.process(element)])
            elements.append(element)
        assert set(elements) == {1}

    def test_revisit_evicted_returns_to_flushed_targets(self, rng):
        adversary = SwitchingSingletonAdversary(100, revisit_evicted=True)
        # Simulate: target 1 accepted, then later the sample no longer holds 1.
        adversary.observe_block(
            [type("U", (), {"element": 1, "accepted": True, "evicted": None})()]
        )
        assert adversary.plan_block(5, 1, [2, 3])[0] == 1

    def test_reset(self):
        adversary = SwitchingSingletonAdversary(10)
        adversary.observe_block(
            [type("U", (), {"element": 1, "accepted": True, "evicted": None})()]
        )
        adversary.reset()
        assert adversary.current_target == 1
        assert adversary.burnt_targets == []


class TestEvictionChaser:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            EvictionChaserAdversary(Prefix(10), 1, 99, reservoir_size=0)
        with pytest.raises(ConfigurationError):
            EvictionChaserAdversary(Prefix(10), 1, 99, reservoir_size=5, switch_threshold=0.0)

    def test_early_rounds_send_out_of_range(self):
        adversary = EvictionChaserAdversary(Prefix(10), 1, 99, reservoir_size=50)
        assert adversary.plan_block(1, 1, None)[0] == 99

    def test_late_rounds_send_in_range(self):
        adversary = EvictionChaserAdversary(Prefix(10), 1, 99, reservoir_size=5)
        assert adversary.plan_block(1000, 1, None)[0] == 1

    def test_backs_off_after_in_range_acceptance(self, rng):
        adversary = EvictionChaserAdversary(Prefix(10), 1, 99, reservoir_size=5)
        adversary.observe_block(
            [type("U", (), {"element": 1, "accepted": True, "evicted": None})()]
        )
        assert adversary.plan_block(1000, 1, None)[0] == 99
        # The back-off lasts one round.
        assert adversary.plan_block(1001, 1, None)[0] == 1

    @pytest.mark.parametrize("period", [1, 7, 32])
    @pytest.mark.parametrize(
        "reservoir_size, switch_threshold",
        [(10, 0.5), (7, 0.3), (3, 0.1), (1, 1 / 3), (5, 1.0), (64, 0.75)],
    )
    def test_plan_matches_the_array_phase_rule(self, period, reservoir_size, switch_threshold):
        """Consecutive block plans through the boundary round ``k / threshold``
        equal the rule evaluated over an array of rounds, with a back-off
        pending at every third block."""
        adversary = EvictionChaserAdversary(
            Prefix(10),
            1,
            99,
            reservoir_size=reservoir_size,
            switch_threshold=switch_threshold,
            decision_period=period,
        )
        boundary = reservoir_size / switch_threshold
        first, block, backoff = 1, 0, False
        while first <= boundary + 3 * period:
            if block % 3 == 2:
                adversary._recent_in_range_accepted = backoff = True
            rounds = np.arange(first, first + period)
            early = np.minimum(1.0, reservoir_size / np.maximum(rounds, 1)) >= switch_threshold
            expected = []
            for is_early in early:
                if is_early:
                    expected.append(99)
                elif backoff:
                    backoff = False
                    expected.append(99)
                else:
                    expected.append(1)
            assert adversary.plan_block(first, period, None) == expected, first
            assert adversary._recent_in_range_accepted == backoff
            first, block = first + period, block + 1
        assert not early.any()  # the last block lies wholly in the late phase

    def test_cannot_defeat_theorem_sized_reservoir(self, rng):
        from repro.core.bounds import reservoir_adaptive_size

        system = PrefixSystem(256)
        epsilon, delta, n = 0.3, 0.2, 1500
        size = reservoir_adaptive_size(system.log_cardinality(), epsilon, delta).size
        sampler = ReservoirSampler(size, seed=rng)
        adversary = EvictionChaserAdversary(
            Prefix(128), 1, 256, reservoir_size=size
        )
        result = run_adaptive_game(sampler, adversary, n, set_system=system, epsilon=epsilon)
        assert result.succeeded
