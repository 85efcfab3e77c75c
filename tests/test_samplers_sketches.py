"""Tests for the deterministic/randomised summary baselines (GK, merge-reduce, MG, KLL)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, EmptySampleError
from repro.samplers import (
    GreenwaldKhannaSketch,
    KLLSketch,
    MergeReduceSummary,
    MisraGriesSummary,
)


class TestGreenwaldKhanna:
    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            GreenwaldKhannaSketch(0.0)

    def test_empty_queries_rejected(self):
        sketch = GreenwaldKhannaSketch(0.1)
        with pytest.raises(EmptySampleError):
            sketch.quantile_query(0.5)
        with pytest.raises(EmptySampleError):
            sketch.rank_query(1.0)

    def test_quantiles_within_epsilon_on_shuffled_stream(self, rng):
        epsilon = 0.05
        sketch = GreenwaldKhannaSketch(epsilon)
        values = list(range(1, 2001))
        rng.shuffle(values)
        sketch.extend(values)
        for fraction in (0.1, 0.25, 0.5, 0.75, 0.9):
            estimate = sketch.quantile_query(fraction)
            true_rank = estimate / 2000
            assert abs(true_rank - fraction) <= 2 * epsilon

    def test_quantiles_within_epsilon_on_sorted_stream(self):
        epsilon = 0.05
        sketch = GreenwaldKhannaSketch(epsilon)
        sketch.extend(range(1, 3001))
        median = sketch.quantile_query(0.5)
        assert abs(median / 3000 - 0.5) <= 2 * epsilon

    def test_memory_is_sublinear(self):
        sketch = GreenwaldKhannaSketch(0.02)
        sketch.extend(range(20_000))
        assert sketch.memory_footprint() < 4000

    def test_rank_query_monotone(self, rng):
        sketch = GreenwaldKhannaSketch(0.1)
        sketch.extend(rng.integers(0, 1000, size=500))
        assert sketch.rank_query(100) <= sketch.rank_query(900)

    def test_reset(self):
        sketch = GreenwaldKhannaSketch(0.1)
        sketch.extend(range(100))
        sketch.reset()
        assert sketch.count == 0
        assert sketch.memory_footprint() == 0

    def test_invalid_fraction_rejected(self):
        sketch = GreenwaldKhannaSketch(0.1)
        sketch.update(1.0)
        with pytest.raises(ConfigurationError):
            sketch.quantile_query(1.5)


class TestMergeReduce:
    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            MergeReduceSummary(1.5)

    def test_empty_query_rejected(self):
        with pytest.raises(EmptySampleError):
            MergeReduceSummary(0.1).weighted_points()

    def test_total_weight_matches_count(self, rng):
        summary = MergeReduceSummary(0.1)
        summary.extend(rng.integers(0, 1000, size=777))
        total_weight = sum(point.weight for point in summary.weighted_points())
        assert total_weight == pytest.approx(777)

    def test_prefix_density_accurate(self, rng):
        epsilon = 0.05
        summary = MergeReduceSummary(epsilon)
        values = list(range(1, 4001))
        rng.shuffle(values)
        summary.extend(values)
        assert summary.prefix_density(2000) == pytest.approx(0.5, abs=2 * epsilon)

    def test_quantile_accuracy(self, rng):
        epsilon = 0.05
        summary = MergeReduceSummary(epsilon)
        values = list(range(1, 5001))
        rng.shuffle(values)
        summary.extend(values)
        for fraction in (0.25, 0.5, 0.75):
            estimate = summary.quantile_query(fraction)
            assert abs(estimate / 5000 - fraction) <= 2 * epsilon

    def test_memory_sublinear(self):
        summary = MergeReduceSummary(0.05)
        summary.extend(range(30_000))
        assert summary.memory_footprint() < 3000

    def test_deterministic_given_same_stream(self):
        first = MergeReduceSummary(0.1)
        second = MergeReduceSummary(0.1)
        data = list(range(1000, 0, -1))
        first.extend(data)
        second.extend(data)
        assert [p.value for p in first.weighted_points()] == [
            p.value for p in second.weighted_points()
        ]

    def test_reset(self):
        summary = MergeReduceSummary(0.1)
        summary.extend(range(100))
        summary.reset()
        assert summary.count == 0
        assert summary.memory_footprint() == 0


class TestMisraGries:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            MisraGriesSummary(0)

    def test_exact_when_few_distinct_values(self):
        summary = MisraGriesSummary(10)
        stream = [1] * 30 + [2] * 20 + [3] * 10
        summary.extend(stream)
        assert summary.estimate(1) == 30
        assert summary.estimate(2) == 20

    def test_frequency_bounds_contain_truth(self, rng):
        summary = MisraGriesSummary(20)
        stream = list(rng.zipf(1.5, size=5000) % 100)
        summary.extend(stream)
        true_count = stream.count(7)
        lower, upper = summary.frequency_bounds(7)
        assert lower <= true_count <= upper

    def test_heavy_hitters_never_missed(self, rng):
        summary = MisraGriesSummary(capacity=19)  # error n/20
        heavy = [42] * 300
        light = list(rng.integers(100, 1000, size=700))
        stream = heavy + light
        rng.shuffle(stream)
        summary.extend(stream)
        assert 42 in summary.heavy_hitters(0.2)

    def test_light_elements_eventually_excluded(self):
        summary = MisraGriesSummary(5)
        stream = [1] * 90 + list(range(100, 110))
        summary.extend(stream)
        reported = summary.heavy_hitters(0.5)
        assert 1 in reported
        assert 105 not in reported

    def test_memory_bounded_by_capacity(self, rng):
        summary = MisraGriesSummary(8)
        summary.extend(rng.integers(0, 10_000, size=5000))
        assert summary.memory_footprint() <= 8

    def test_invalid_threshold_rejected(self):
        summary = MisraGriesSummary(4)
        with pytest.raises(ConfigurationError):
            summary.heavy_hitters(0.0)

    def test_reset(self):
        summary = MisraGriesSummary(4)
        summary.extend([1, 2, 3])
        summary.reset()
        assert summary.count == 0
        assert summary.memory_footprint() == 0


class TestKLL:
    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            KLLSketch(k=2)

    def test_empty_queries_rejected(self):
        sketch = KLLSketch(k=50)
        with pytest.raises(EmptySampleError):
            sketch.quantile_query(0.5)

    def test_rank_accuracy(self, rng):
        sketch = KLLSketch(k=200, seed=rng)
        values = list(range(1, 10_001))
        rng.shuffle(values)
        sketch.extend(values)
        estimated = sketch.rank_query(5000)
        assert abs(estimated - 5000) <= 0.05 * 10_000

    def test_quantile_accuracy(self, rng):
        sketch = KLLSketch(k=200, seed=rng)
        values = list(range(1, 8001))
        rng.shuffle(values)
        sketch.extend(values)
        median = sketch.quantile_query(0.5)
        assert abs(median / 8000 - 0.5) <= 0.06

    def test_memory_sublinear(self, rng):
        sketch = KLLSketch(k=100, seed=rng)
        sketch.extend(rng.random(50_000))
        assert sketch.memory_footprint() < 2500

    def test_estimated_epsilon(self):
        assert KLLSketch(k=170).estimated_epsilon == pytest.approx(0.01)

    def test_reset(self, rng):
        sketch = KLLSketch(k=64, seed=rng)
        sketch.extend(range(1000))
        sketch.reset()
        assert sketch.count == 0
        assert sketch.memory_footprint() == 0

    def test_invalid_fraction_rejected(self, rng):
        sketch = KLLSketch(k=64, seed=rng)
        sketch.update(1.0)
        with pytest.raises(ConfigurationError):
            sketch.quantile_query(-0.1)


NAN = float("nan")


def _gk_state(sketch):
    return sketch.count, list(sketch._tuples)


def _kll_state(sketch):
    return sketch.count, [list(level) for level in sketch._compactors], sketch._rng.bit_generator.state


def _mr_state(summary):
    return summary.count, list(summary._pending), {
        level: list(buffer) for level, buffer in summary._levels.items()
    }


def _mg_state(summary):
    return summary.count, dict(summary._counters), summary.max_underestimate


class TestRejectedInputChangesNothing:
    """A rejected element or batch leaves a summary as an untouched twin,
    and both go on to ingest the same later stream alike."""

    @pytest.mark.parametrize(
        "make, state",
        [
            pytest.param(lambda: GreenwaldKhannaSketch(0.01), _gk_state, id="gk"),
            pytest.param(lambda: KLLSketch(64, seed=3), _kll_state, id="kll"),
            pytest.param(lambda: MergeReduceSummary(0.05), _mr_state, id="merge-reduce"),
        ],
    )
    @pytest.mark.parametrize(
        "feed",
        [
            pytest.param(lambda sketch: sketch.update(NAN), id="update"),
            pytest.param(lambda sketch: sketch.extend([5.0, NAN, 6.0]), id="short-batch"),
            # GK's bulk path merges 512-value blocks; the NaN is in the second.
            pytest.param(
                lambda sketch: sketch.extend([*range(1, 1001), NAN, *range(1001, 2001)]),
                id="blocked-batch",
            ),
        ],
    )
    @pytest.mark.parametrize("history", [0, 3000])
    def test_nan_is_rejected(self, make, state, feed, history):
        sketch, twin = make(), make()
        for part in (sketch, twin):
            part.extend(range(history))
        with pytest.raises(ConfigurationError):
            feed(sketch)
        assert state(sketch) == state(twin)
        for part in (sketch, twin):
            part.extend(range(700))
            part.update(3.5)
        assert state(sketch) == state(twin)

    @pytest.mark.parametrize(
        "feed",
        [
            pytest.param(lambda summary: summary.update([1]), id="update"),
            pytest.param(lambda summary: summary.extend([4, [1], 5]), id="batch"),
            pytest.param(lambda summary: summary.extend([[*range(3)]]), id="batch-of-one"),
            pytest.param(lambda summary: summary.extend([2, (1, [2])]), id="unhashable-tuple"),
            # A long tracked run ahead of the bad element takes the Counter pass.
            pytest.param(lambda summary: summary.extend([*[1] * 40, 9, {}]), id="after-a-run"),
        ],
    )
    def test_unhashable_element_is_rejected(self, feed):
        summary, twin = MisraGriesSummary(2), MisraGriesSummary(2)
        for part in (summary, twin):
            part.extend([1, 2, 3, 1])
        with pytest.raises(TypeError):
            feed(summary)
        assert _mg_state(summary) == _mg_state(twin)
        for part in (summary, twin):
            part.extend([1, 7, 1, 8])
            part.update(1)
        assert _mg_state(summary) == _mg_state(twin)
