"""Tests for the workload generators."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.exceptions import ConfigurationError
from repro.streams import (
    clustered_points,
    planted_heavy_hitter_stream,
    query_workload,
    sorted_stream,
    two_phase_stream,
    uniform_stream,
    zipf_stream,
)


class TestGenerators:
    def test_uniform_stream_in_range(self, rng):
        stream = uniform_stream(500, 50, seed=rng)
        assert len(stream) == 500
        assert all(1 <= value <= 50 for value in stream)

    def test_sorted_stream(self):
        assert sorted_stream(5) == [1, 2, 3, 4, 5]

    def test_zipf_stream_skewed(self, rng):
        stream = zipf_stream(2000, 1000, exponent=1.5, seed=rng)
        assert len(stream) == 2000
        counts = Counter(stream)
        assert counts[1] > counts.get(500, 0)

    def test_zipf_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            zipf_stream(10, 10, exponent=0.9)

    def test_planted_heavy_hitters_have_expected_mass(self, rng):
        stream = planted_heavy_hitter_stream(5000, 1000, [7, 13], 0.2, seed=rng)
        counts = Counter(stream)
        assert counts[7] / 5000 == pytest.approx(0.2, abs=0.05)
        assert counts[13] / 5000 == pytest.approx(0.2, abs=0.05)

    def test_planted_heavy_hitters_validation(self):
        with pytest.raises(ConfigurationError):
            planted_heavy_hitter_stream(100, 10, [], 0.2)
        with pytest.raises(ConfigurationError):
            planted_heavy_hitter_stream(100, 10, [1, 2, 3], 0.4)

    def test_clustered_points_in_grid(self, rng):
        points = clustered_points(300, 32, 2, clusters=3, seed=rng)
        assert len(points) == 300
        assert all(1 <= x <= 32 and 1 <= y <= 32 for x, y in points)

    def test_clustered_points_actually_cluster(self, rng):
        points = clustered_points(500, 100, 2, clusters=1, spread=0.01, seed=rng)
        xs = [x for x, _ in points]
        assert max(xs) - min(xs) < 40

    def test_two_phase_stream_shifts_distribution(self, rng):
        stream = two_phase_stream(1000, 100, change_point_fraction=0.5, seed=rng)
        first_half = stream[:500]
        second_half = stream[500:]
        assert max(first_half) <= 50
        assert min(second_half) >= 51

    def test_query_workload_is_hot_skewed(self, rng):
        stream = query_workload(2000, 1000, hot_fraction=0.1, hot_probability=0.8, seed=rng)
        hot = sum(1 for value in stream if value <= 100)
        assert hot / len(stream) == pytest.approx(0.8, abs=0.05)

    def test_generators_reject_empty_streams(self):
        with pytest.raises(ConfigurationError):
            uniform_stream(0, 10)
        with pytest.raises(ConfigurationError):
            sorted_stream(0)
        with pytest.raises(ConfigurationError):
            two_phase_stream(0, 10)

    def test_seeded_generators_reproducible(self):
        assert uniform_stream(50, 20, seed=3) == uniform_stream(50, 20, seed=3)
        assert zipf_stream(50, 20, seed=3) == zipf_stream(50, 20, seed=3)
