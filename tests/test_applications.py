"""Tests for the Section 1.2 applications: quantiles, heavy hitters, range queries,
center points, clustering and load balancing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications import (
    RobustQuantileSketch,
    SampleHeavyHitters,
    SampleRangeCounter,
    center_from_sample,
    compare_sample_clustering,
    empirical_quantile,
    evaluate_heavy_hitters,
    exact_heavy_hitters,
    exact_range_count,
    greedy_k_center,
    is_beta_center,
    kmeans,
    kmeans_cost,
    quantile_rank_error,
    rank_of,
    required_stream_length,
    simulate_load_balancing,
    tukey_depth,
    worst_quantile_error,
)
from repro.adversary import GreedyDensityAdversary, MedianAttackAdversary, run_adaptive_game
from repro.exceptions import ConfigurationError, EmptySampleError
from repro.setsystems import Prefix, PrefixSystem
from repro.setsystems.rectangles import Box
from repro.streams import clustered_points, uniform_stream


class TestQuantileHelpers:
    def test_rank_of(self):
        assert rank_of([1, 2, 3, 4], 2) == 2
        assert rank_of([1, 2, 3, 4], 0) == 0

    def test_empirical_quantile_median(self):
        assert empirical_quantile([5, 1, 3], 0.5) == 3

    def test_empirical_quantile_extremes(self):
        data = list(range(1, 11))
        assert empirical_quantile(data, 0.0) == 1
        assert empirical_quantile(data, 1.0) == 10

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleError):
            empirical_quantile([], 0.5)

    def test_quantile_rank_error_of_perfect_sample(self):
        stream = list(range(1, 101))
        assert quantile_rank_error(stream, stream, 0.5) <= 0.01

    def test_worst_quantile_error_of_biased_sample(self):
        stream = list(range(1, 101))
        sample = [1, 2, 3]
        assert worst_quantile_error(stream, sample) > 0.4


class TestRobustQuantileSketch:
    def test_reservoir_sizing_matches_corollary(self):
        sketch = RobustQuantileSketch(universe_size=1024, epsilon=0.2, delta=0.1)
        assert sketch.sample_size_bound.size == pytest.approx(
            2 * (np.log(1024) + np.log(20)) / 0.04, abs=1
        )

    def test_bernoulli_requires_stream_length(self):
        with pytest.raises(ConfigurationError):
            RobustQuantileSketch(1024, 0.2, 0.1, mechanism="bernoulli")

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigurationError):
            RobustQuantileSketch(1024, 0.2, 0.1, mechanism="magic")

    def test_median_accuracy_on_static_stream(self, rng):
        sketch = RobustQuantileSketch(universe_size=2**16, epsilon=0.15, delta=0.1, seed=rng)
        stream = uniform_stream(4000, 2**16, seed=rng)
        sketch.extend(stream)
        median = sketch.median()
        achieved = rank_of(stream, median) / len(stream)
        assert abs(achieved - 0.5) <= 0.15

    def test_rank_estimate(self, rng):
        sketch = RobustQuantileSketch(universe_size=1000, epsilon=0.2, delta=0.1, seed=rng)
        stream = uniform_stream(2000, 1000, seed=rng)
        sketch.extend(stream)
        estimate = sketch.rank_estimate(500)
        assert abs(estimate - rank_of(stream, 500)) <= 0.2 * len(stream)

    def test_empty_queries_rejected(self):
        sketch = RobustQuantileSketch(universe_size=1000, epsilon=0.2, delta=0.1)
        with pytest.raises(EmptySampleError):
            sketch.median()

    def test_survives_median_attack_at_corollary_size(self, rng):
        universe_size = 2**16
        epsilon = 0.25
        sketch = RobustQuantileSketch(universe_size, epsilon, 0.1, seed=rng)
        n = 1500
        adversary = MedianAttackAdversary(n, universe_size=universe_size)
        outcome = run_adaptive_game(sketch.sampler, adversary, n, keep_updates=False)
        error = worst_quantile_error(outcome.stream, list(outcome.sample))
        assert error <= epsilon


class TestHeavyHitters:
    def test_exact_heavy_hitters(self):
        stream = [1] * 60 + [2] * 30 + [3] * 10
        assert exact_heavy_hitters(stream, 0.3) == {1, 2}

    def test_exact_heavy_hitters_validation(self):
        with pytest.raises(EmptySampleError):
            exact_heavy_hitters([], 0.5)
        with pytest.raises(ConfigurationError):
            exact_heavy_hitters([1], 0.0)

    def test_evaluation_flags_misses_and_spurious(self):
        stream = [1] * 50 + [2] * 50
        evaluation = evaluate_heavy_hitters({3}, stream, alpha=0.4, epsilon=0.2)
        assert 1 in evaluation.missed_heavy and 2 in evaluation.missed_heavy
        assert 3 in evaluation.spurious_light
        assert not evaluation.correct

    def test_evaluation_grey_zone_tolerated(self):
        stream = [1] * 35 + list(range(100, 165))
        # Element 1 has density 0.35: with alpha=0.4, epsilon=0.2 it is in the
        # grey zone and may be reported or not without penalty.
        for reported in (set(), {1}):
            evaluation = evaluate_heavy_hitters(reported, stream, alpha=0.4, epsilon=0.2)
            assert evaluation.correct

    def test_detector_finds_planted_heavy_hitter(self, rng):
        detector = SampleHeavyHitters(
            universe_size=1000, alpha=0.4, epsilon=0.3, delta=0.1, seed=rng
        )
        stream = [7] * 900 + uniform_stream(1100, 1000, seed=rng)
        rng.shuffle(stream)
        detector.extend(stream)
        report = detector.report()
        evaluation = evaluate_heavy_hitters(report, stream, 0.4, 0.3)
        assert 7 in report
        assert evaluation.correct

    def test_detector_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            SampleHeavyHitters(1000, alpha=0.2, epsilon=0.3, delta=0.1)
        with pytest.raises(ConfigurationError):
            SampleHeavyHitters(1000, alpha=0.4, epsilon=0.3, delta=0.1, mechanism="bernoulli")

    def test_estimated_density(self, rng):
        detector = SampleHeavyHitters(
            universe_size=100, alpha=0.5, epsilon=0.3, delta=0.1, seed=rng
        )
        detector.extend([1] * 50 + [2] * 50)
        assert detector.estimated_density(1) == pytest.approx(0.5, abs=0.2)


class TestRangeQueries:
    def test_exact_range_count(self):
        points = [(1, 1), (2, 2), (5, 5)]
        assert exact_range_count(points, Box((1.0, 1.0), (3.0, 3.0))) == 2

    def test_counter_estimates_within_epsilon(self, rng):
        epsilon = 0.25
        counter = SampleRangeCounter(side=16, dimension=2, epsilon=epsilon, delta=0.1, seed=rng)
        points = clustered_points(2000, 16, 2, clusters=3, seed=rng)
        counter.extend(points)
        box = Box((1.0, 1.0), (8.0, 8.0))
        result = counter.answer(box, points)
        assert result.normalized_error <= epsilon

    def test_dimension_mismatch_rejected(self, rng):
        counter = SampleRangeCounter(side=16, dimension=2, epsilon=0.3, delta=0.1, seed=rng)
        with pytest.raises(ConfigurationError):
            counter.update((1, 2, 3))

    def test_empty_counter_query_rejected(self):
        counter = SampleRangeCounter(side=16, dimension=2, epsilon=0.3, delta=0.1)
        with pytest.raises(EmptySampleError):
            counter.count(Box((1.0, 1.0), (2.0, 2.0)))

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            SampleRangeCounter(side=1, dimension=2, epsilon=0.3, delta=0.1)
        with pytest.raises(ConfigurationError):
            SampleRangeCounter(side=16, dimension=2, epsilon=0.3, delta=0.1, mechanism="bernoulli")


class TestCenterPoints:
    def test_tukey_depth_of_median_is_half(self):
        points = [(float(i),) for i in range(1, 101)]
        assert tukey_depth((50.0,), points) == pytest.approx(0.5, abs=0.02)

    def test_tukey_depth_of_extreme_point_is_small(self):
        points = [(float(i),) for i in range(1, 101)]
        assert tukey_depth((1.0,), points) <= 0.02

    def test_is_beta_center(self):
        points = [(float(i),) for i in range(1, 101)]
        assert is_beta_center((50.0,), points, 0.4)
        assert not is_beta_center((2.0,), points, 0.4)

    def test_center_from_sample_transfers_on_clustered_data(self, rng):
        points = clustered_points(1000, 64, 2, clusters=1, spread=0.1, seed=rng)
        sample = points[::10]
        result = center_from_sample(sample, points, beta=0.25, seed=rng)
        assert result.sample_depth >= 0.25
        assert result.valid_for_stream

    def test_invalid_beta_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            center_from_sample([(1, 1)], [(1, 1)], beta=0.9)

    def test_empty_points_rejected(self):
        with pytest.raises(EmptySampleError):
            tukey_depth((1.0,), [])


class TestClustering:
    def test_kmeans_recovers_separated_clusters(self, rng):
        cluster_a = [(float(rng.normal(10, 0.5)), float(rng.normal(10, 0.5))) for _ in range(100)]
        cluster_b = [(float(rng.normal(90, 0.5)), float(rng.normal(90, 0.5))) for _ in range(100)]
        result = kmeans(cluster_a + cluster_b, 2, seed=rng)
        centers = sorted(result.centers.tolist())
        assert centers[0][0] == pytest.approx(10, abs=2)
        assert centers[1][0] == pytest.approx(90, abs=2)

    def test_kmeans_cost_zero_for_duplicate_points(self):
        points = [(5.0, 5.0)] * 10
        result = kmeans(points, 1, seed=0)
        assert result.cost == pytest.approx(0.0)

    def test_kmeans_validation(self):
        with pytest.raises(ConfigurationError):
            kmeans([(1, 1)], 2)
        with pytest.raises(EmptySampleError):
            kmeans([], 1)

    def test_greedy_k_center_covers_extremes(self, rng):
        points = [(0.0, 0.0)] * 50 + [(100.0, 100.0)] * 50
        result = greedy_k_center(points, 2, seed=rng)
        assert result.cost == pytest.approx(0.0)

    def test_sample_clustering_close_to_full_clustering(self, rng):
        points = clustered_points(1500, 256, 2, clusters=4, spread=0.02, seed=rng)
        sample = points[::5]
        comparison = compare_sample_clustering(points, sample, 4, seed=rng)
        assert comparison.cost_ratio < 1.5

    def test_kmeans_cost_monotone_in_center_quality(self, rng):
        points = clustered_points(300, 64, 2, clusters=2, seed=rng)
        good = kmeans(points, 2, seed=rng).centers
        bad = np.asarray([[1.0, 1.0]])
        assert kmeans_cost(points, good) <= kmeans_cost(points, bad)


class TestLoadBalancing:
    def test_required_stream_length_grows_with_servers(self):
        short = required_stream_length(2, 5.0, 0.2, 0.1)
        long = required_stream_length(16, 5.0, 0.2, 0.1)
        assert long > short

    def test_required_stream_length_validation(self):
        with pytest.raises(ConfigurationError):
            required_stream_length(1, 5.0, 0.2, 0.1)

    def test_static_simulation_reports_all_servers(self, rng):
        system = PrefixSystem(64)
        report = simulate_load_balancing(
            uniform_stream(4000, 64, seed=rng), 4, system, seed=rng
        )
        assert report.num_servers == 4
        assert len(report.per_server_errors) == 4
        assert report.stream_length == 4000
        assert report.worst_error < 0.2

    def test_adaptive_simulation_runs(self, rng):
        system = PrefixSystem(64)
        adversary = GreedyDensityAdversary(Prefix(32), in_range_element=1, out_range_element=64)
        report = simulate_load_balancing(
            None, 4, system, adversary=adversary, stream_length=800, seed=rng
        )
        assert report.stream_length == 800
        assert 0.0 <= report.worst_error <= 1.0

    def test_adaptive_simulation_is_pinned(self):
        """The adaptive client is a hand-written per-round loop (plan one
        query on the observed server's substream, route it); pin its seeded
        output."""
        report = simulate_load_balancing(
            None,
            4,
            PrefixSystem(64),
            adversary=GreedyDensityAdversary(Prefix(32), 1, 64),
            stream_length=800,
            seed=7,
        )
        assert report.per_server_errors == (0.0, 0.0, 0.0, 0.0)
        assert report.per_server_loads == (198, 185, 190, 227)

    def test_exactly_one_input_mode_required(self, rng):
        system = PrefixSystem(64)
        with pytest.raises(ConfigurationError):
            simulate_load_balancing([1, 2, 3], 4, system, adversary=GreedyDensityAdversary(
                Prefix(32), 1, 64
            ))
        with pytest.raises(ConfigurationError):
            simulate_load_balancing(None, 4, system)

    def test_load_imbalance_small_for_long_streams(self, rng):
        system = PrefixSystem(64)
        report = simulate_load_balancing(
            uniform_stream(8000, 64, seed=rng), 8, system, seed=rng
        )
        assert report.load_imbalance < 0.05
        assert report.servers_within(0.5) == 8
