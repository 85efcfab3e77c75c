"""Tests for Definition 1.1 on a set system and the checkpoint schedule."""

from __future__ import annotations

import pytest

from repro.core.approximation import geometric_checkpoints
from repro.exceptions import EmptySampleError
from repro.setsystems import Prefix


class TestDensity:
    def test_counts_fraction(self, prefix_system):
        assert prefix_system.density(Prefix(5), [1, 2, 9, 10]) == pytest.approx(0.5)

    def test_duplicates_count(self, prefix_system):
        assert prefix_system.density(Prefix(5), [1, 1, 1, 9]) == pytest.approx(0.75)

    def test_empty_sequence_rejected(self, prefix_system):
        with pytest.raises(EmptySampleError):
            prefix_system.density(Prefix(5), [])


class TestApproximationHelpers:
    def test_report_contains_witness(self, prefix_system):
        stream = list(range(1, 33))
        sample = [1, 2]
        report = prefix_system.max_discrepancy(stream, sample)
        assert report.error > 0.9
        assert report.witness.bound == 2

    def test_is_epsilon_approximation_boundary(self, prefix_system):
        stream = list(range(1, 33))
        sample = list(range(1, 33))
        assert prefix_system.is_epsilon_approximation(stream, sample, 0.0)

    def test_not_approximation_when_biased(self, prefix_system):
        stream = list(range(1, 33))
        sample = [1, 1, 1, 1]
        assert not prefix_system.is_epsilon_approximation(stream, sample, 0.5)


class TestGeometricCheckpoints:
    def test_includes_endpoints(self):
        points = geometric_checkpoints(10, 1000, 0.25)
        assert points[0] == 10
        assert points[-1] == 1000

    def test_monotone_increasing(self):
        points = geometric_checkpoints(5, 500, 0.1)
        assert all(b > a for a, b in zip(points, points[1:]))

    def test_count_is_logarithmic(self):
        points = geometric_checkpoints(1, 10**6, 0.5)
        assert len(points) < 60

    def test_ratio_respected(self):
        points = geometric_checkpoints(100, 10_000, 0.2)
        for a, b in zip(points[1:-1], points[2:-1]):
            assert b <= int(1.2 * a) + 1

    def test_degenerate_start_equals_end(self):
        assert geometric_checkpoints(7, 7, 0.3) == [7]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            geometric_checkpoints(0, 10, 0.1)
        with pytest.raises(ValueError):
            geometric_checkpoints(10, 5, 0.1)
        with pytest.raises(ValueError):
            geometric_checkpoints(1, 10, 0.0)
