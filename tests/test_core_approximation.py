"""Tests for the epsilon-approximation helpers and the checkpoint schedule."""

from __future__ import annotations

import pytest

from repro.core.approximation import (
    approximation_error,
    approximation_report,
    density,
    geometric_checkpoints,
    is_epsilon_approximation,
)
from repro.exceptions import EmptySampleError
from repro.setsystems import Prefix


class TestDensity:
    def test_counts_fraction(self):
        assert density(Prefix(5), [1, 2, 9, 10]) == pytest.approx(0.5)

    def test_duplicates_count(self):
        assert density(Prefix(5), [1, 1, 1, 9]) == pytest.approx(0.75)

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySampleError):
            density(Prefix(5), [])


class TestApproximationHelpers:
    def test_error_equals_system_discrepancy(self, prefix_system):
        stream = [1, 5, 9, 13, 17, 21, 25, 29]
        sample = [5, 17, 29]
        assert approximation_error(prefix_system, stream, sample) == pytest.approx(
            prefix_system.max_discrepancy(stream, sample).error
        )

    def test_report_contains_witness(self, prefix_system):
        stream = list(range(1, 33))
        sample = [1, 2]
        report = approximation_report(prefix_system, stream, sample)
        assert report.error > 0.9
        assert report.witness.bound == 2

    def test_is_epsilon_approximation_boundary(self, prefix_system):
        stream = list(range(1, 33))
        sample = list(range(1, 33))
        assert is_epsilon_approximation(prefix_system, stream, sample, 0.0)

    def test_not_approximation_when_biased(self, prefix_system):
        stream = list(range(1, 33))
        sample = [1, 1, 1, 1]
        assert not is_epsilon_approximation(prefix_system, stream, sample, 0.5)


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
