"""Tests for Bernoulli, reservoir, weighted-reservoir, priority and sliding-window samplers."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.samplers import (
    BernoulliSampler,
    PrioritySampler,
    ReservoirSampler,
    SlidingWindowSampler,
    WeightedReservoirSampler,
)


@pytest.mark.parametrize("make", [PrioritySampler, WeightedReservoirSampler])
@pytest.mark.parametrize("capacity", [0, -3])
def test_non_positive_capacity_is_a_configuration_error(make, capacity):
    """Every fixed-size sampler rejects its capacity like the sliding
    window does, so the CLI reports it instead of a traceback."""
    with pytest.raises(ConfigurationError, match="capacity must be >= 1"):
        make(capacity)


class TestBernoulliSampler:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            BernoulliSampler(0.0)
        with pytest.raises(ConfigurationError):
            BernoulliSampler(1.5)

    def test_probability_one_keeps_everything(self):
        sampler = BernoulliSampler(1.0, seed=0)
        sampler.extend(range(50))
        assert list(sampler.sample) == list(range(50))

    def test_sample_is_subsequence_of_stream(self, rng):
        sampler = BernoulliSampler(0.3, seed=rng)
        stream = list(rng.integers(0, 100, size=200))
        sampler.extend(stream)
        iterator = iter(stream)
        assert all(any(x == s for x in iterator) for s in sampler.sample)

    def test_sample_size_concentrates(self):
        sizes = []
        for seed in range(30):
            sampler = BernoulliSampler(0.2, seed=seed)
            sampler.extend(range(1000))
            sizes.append(sampler.sample_size)
        assert 150 < np.mean(sizes) < 250

    def test_updates_report_acceptance(self):
        sampler = BernoulliSampler(1.0, seed=0)
        update = sampler.process("x")
        assert update.accepted and update.element == "x" and update.round_index == 1

    def test_reset_clears_state(self):
        sampler = BernoulliSampler(0.5, seed=1)
        sampler.extend(range(20))
        sampler.reset()
        assert sampler.sample_size == 0
        assert sampler.rounds_processed == 0

    def test_expected_sample_size_helpers(self):
        sampler = BernoulliSampler(0.25)
        assert sampler.expected_sample_size(1000) == pytest.approx(250)
        assert sampler.expected_sample_size_per_element == 0.25
        with pytest.raises(ConfigurationError):
            sampler.expected_sample_size(-1)

    def test_seeded_runs_are_reproducible(self):
        first = BernoulliSampler(0.5, seed=7)
        second = BernoulliSampler(0.5, seed=7)
        first.extend(range(100))
        second.extend(range(100))
        assert list(first.sample) == list(second.sample)


class TestReservoirSampler:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ReservoirSampler(0)

    def test_invalid_eviction_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ReservoirSampler(5, eviction="random-ish")

    def test_fills_up_to_capacity_then_stays_fixed(self):
        sampler = ReservoirSampler(10, seed=0)
        sampler.extend(range(5))
        assert sampler.sample_size == 5
        sampler.extend(range(5, 100))
        assert sampler.sample_size == 10

    def test_sample_subset_of_stream(self, rng):
        sampler = ReservoirSampler(8, seed=rng)
        stream = list(rng.integers(0, 1000, size=300))
        sampler.extend(stream)
        counts = Counter(stream)
        assert all(counts[value] > 0 for value in sampler.sample)

    def test_acceptance_probability_schedule(self):
        sampler = ReservoirSampler(10)
        assert sampler.acceptance_probability(5) == 1.0
        assert sampler.acceptance_probability(20) == pytest.approx(0.5)
        with pytest.raises(ConfigurationError):
            sampler.acceptance_probability(0)

    def test_uniformity_each_element_equally_likely(self):
        # Each of the n elements should appear in the final reservoir with
        # probability k/n; check the empirical inclusion frequency of the
        # first and the last element across many runs.
        n, k, runs = 60, 6, 800
        first_in, last_in = 0, 0
        for seed in range(runs):
            sampler = ReservoirSampler(k, seed=seed)
            sampler.extend(range(n))
            sample = set(sampler.sample)
            first_in += 0 in sample
            last_in += (n - 1) in sample
        expected = k / n
        assert first_in / runs == pytest.approx(expected, abs=0.05)
        assert last_in / runs == pytest.approx(expected, abs=0.05)

    def test_total_accepted_scales_like_k_log_n(self):
        n, k = 5000, 20
        accepted = []
        for seed in range(5):
            sampler = ReservoirSampler(k, seed=seed)
            sampler.extend(range(n))
            accepted.append(sampler.total_accepted)
        expected = k * (1 + np.log(n / k))
        assert expected * 0.5 < np.mean(accepted) < expected * 2.0

    def test_eviction_reported_in_update(self):
        sampler = ReservoirSampler(1, seed=0)
        sampler.process("a")
        accepted_updates = [sampler.process(chr(98 + i)) for i in range(50)]
        evictions = [u.evicted for u in accepted_updates if u.accepted]
        assert all(evicted is not None for evicted in evictions)

    def test_fifo_eviction_removes_oldest(self):
        sampler = ReservoirSampler(2, seed=0, eviction="fifo")
        sampler.extend([1, 2])
        # Force acceptance by processing many elements and checking that once
        # something is evicted it is the oldest surviving entry.
        for value in range(3, 300):
            before = list(sampler._insertion_order)
            update = sampler.process(value)
            if update.accepted:
                assert update.evicted is not None
                break

    def test_min_value_eviction_removes_smallest(self):
        sampler = ReservoirSampler(3, seed=0, eviction="min-value")
        sampler.extend([10, 20, 30])
        for value in range(31, 500):
            update = sampler.process(value)
            if update.accepted:
                assert update.evicted == min([10, 20, 30] + list(range(31, value)))
                break

    def test_reset(self):
        sampler = ReservoirSampler(4, seed=0)
        sampler.extend(range(20))
        sampler.reset()
        assert sampler.sample_size == 0
        assert sampler.total_accepted == 0


class TestWeightedReservoirSampler:
    def test_unit_weights_fixed_size(self, rng):
        sampler = WeightedReservoirSampler(10, seed=rng)
        sampler.extend(range(100))
        assert sampler.sample_size == 10

    def test_nonpositive_weight_rejected(self):
        sampler = WeightedReservoirSampler(3, weight=lambda x: 0.0)
        with pytest.raises(ConfigurationError):
            sampler.process(1)

    def test_heavily_weighted_element_almost_always_kept(self):
        kept = 0
        for seed in range(50):
            sampler = WeightedReservoirSampler(
                5, weight=lambda x: 1000.0 if x == "vip" else 1.0, seed=seed
            )
            sampler.extend(["vip"] + list(range(100)))
            kept += "vip" in sampler.sample
        assert kept >= 45

    def test_smallest_key_tracks_heap_root(self, rng):
        sampler = WeightedReservoirSampler(3, seed=rng)
        assert sampler.smallest_key is None
        sampler.extend(range(10))
        assert 0.0 < sampler.smallest_key <= 1.0

    def test_reset(self, rng):
        sampler = WeightedReservoirSampler(3, seed=rng)
        sampler.extend(range(10))
        sampler.reset()
        assert sampler.sample_size == 0


class TestPrioritySampler:
    def test_fixed_size(self, rng):
        sampler = PrioritySampler(7, seed=rng)
        sampler.extend(range(100))
        assert sampler.sample_size == 7

    def test_uniform_inclusion_under_unit_weights(self):
        n, k, runs = 40, 4, 600
        include_first = 0
        for seed in range(runs):
            sampler = PrioritySampler(k, seed=seed)
            sampler.extend(range(n))
            include_first += 0 in sampler.sample
        assert include_first / runs == pytest.approx(k / n, abs=0.06)

    def test_invalid_weight_rejected(self):
        sampler = PrioritySampler(2, weight=lambda x: -1.0)
        with pytest.raises(ConfigurationError):
            sampler.process(1)

    def test_reset(self, rng):
        sampler = PrioritySampler(2, seed=rng)
        sampler.extend(range(5))
        sampler.reset()
        assert sampler.sample_size == 0


class TestSlidingWindowSampler:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowSampler(0, 10)
        with pytest.raises(ConfigurationError):
            SlidingWindowSampler(10, 5)

    def test_sample_size_bounded_by_capacity(self, rng):
        sampler = SlidingWindowSampler(5, 50, seed=rng)
        sampler.extend(range(200))
        assert sampler.sample_size <= 5

    def test_sample_only_contains_live_window_elements(self, rng):
        window = 30
        sampler = SlidingWindowSampler(5, window, seed=rng)
        stream = list(range(500))
        sampler.extend(stream)
        live = set(stream[-window:])
        assert set(sampler.sample) <= live

    def test_memory_footprint_stays_modest(self, rng):
        sampler = SlidingWindowSampler(4, 100, seed=rng)
        sampler.extend(range(2000))
        # O(k log w) with small constants; far below the window size.
        assert sampler.memory_footprint() <= 60

    def test_reset(self, rng):
        sampler = SlidingWindowSampler(3, 10, seed=rng)
        sampler.extend(range(20))
        sampler.reset()
        assert sampler.sample_size == 0
