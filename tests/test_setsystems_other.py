"""Tests for singleton, rectangle, halfspace and explicit set systems, and VC dimension."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.applications.center_points import tukey_depth
from repro.exceptions import ConfigurationError, EmptySampleError
from repro.setsystems import (
    Box,
    ExplicitSetSystem,
    Halfspace,
    HalfspaceSystem,
    RectangleSystem,
    Singleton,
    SingletonSystem,
    exact_vc_dimension,
    is_shattered,
    sauer_shelah_bound,
)
from repro.setsystems.halfspaces import direction_grid


class TestSingletonSystem:
    def test_cardinality(self):
        assert SingletonSystem(25).cardinality() == 25

    def test_vc_dimension_is_one(self):
        assert SingletonSystem(25).vc_dimension() == 1

    def test_density_counts_duplicates(self):
        system = SingletonSystem(10)
        assert system.density(Singleton(3), [3, 3, 4, 5]) == pytest.approx(0.5)

    def test_discrepancy_detects_missing_heavy_element(self):
        system = SingletonSystem(10)
        stream = [1] * 50 + [2] * 50
        sample = [2] * 10
        result = system.max_discrepancy(stream, sample)
        assert result.error == pytest.approx(0.5)
        assert result.witness.value in (1, 2)

    def test_discrepancy_zero_for_identical(self):
        system = SingletonSystem(10)
        data = [1, 1, 2, 9]
        assert system.max_discrepancy(data, data).error == pytest.approx(0.0)

    def test_matches_brute_force(self):
        system = SingletonSystem(8)
        stream = [1, 1, 2, 3, 3, 3, 7, 8]
        sample = [1, 3, 8, 8]
        fast = system.max_discrepancy(stream, sample).error
        brute = max(
            abs(system.density(r, stream) - system.density(r, sample))
            for r in system.ranges()
        )
        assert fast == pytest.approx(brute)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySampleError):
            SingletonSystem(5).max_discrepancy([1], [])


class TestBoxRange:
    def test_membership(self):
        box = Box((1.0, 1.0), (3.0, 3.0))
        assert (2, 2) in box
        assert (1, 3) in box
        assert (4, 2) not in box

    def test_dimension_mismatch_not_contained(self):
        assert (1, 1, 1) not in Box((1.0,), (3.0,))

    def test_invalid_box_rejected(self):
        with pytest.raises(ConfigurationError):
            Box((3.0,), (1.0,))


class TestRectangleSystem:
    def test_cardinality_formula(self):
        # side=3 -> 6 intervals per axis, squared for d=2.
        assert RectangleSystem(3, 2).cardinality() == 36

    def test_log_cardinality_matches_formula(self):
        system = RectangleSystem(10, 3)
        assert system.log_cardinality() == pytest.approx(3 * math.log(55))

    def test_vc_dimension_is_twice_dimension(self):
        assert RectangleSystem(10, 2).vc_dimension() == 4
        assert RectangleSystem(10, 3).vc_dimension() == 6

    def test_contains_element(self):
        system = RectangleSystem(5, 2)
        assert system.contains_element((1, 5))
        assert not system.contains_element((0, 3))
        assert not system.contains_element((1, 2, 3))

    def test_discrepancy_identical_is_zero(self):
        system = RectangleSystem(8, 2)
        points = [(1, 1), (4, 4), (8, 8), (2, 6)]
        assert system.max_discrepancy(points, points).error == pytest.approx(0.0)

    def test_discrepancy_detects_missing_corner(self):
        system = RectangleSystem(8, 2)
        stream = [(1, 1)] * 10 + [(8, 8)] * 10
        sample = [(8, 8)] * 5
        result = system.max_discrepancy(stream, sample)
        assert result.error == pytest.approx(0.5)
        assert result.exact

    def test_matches_explicit_enumeration_on_tiny_grid(self):
        system = RectangleSystem(3, 2)
        stream = [(1, 1), (2, 3), (3, 3), (2, 2), (1, 3)]
        sample = [(1, 1), (3, 3)]
        fast = system.max_discrepancy(stream, sample).error
        brute = max(
            abs(system.density(box, stream) - system.density(box, sample))
            for box in system.ranges()
        )
        assert fast == pytest.approx(brute)

    def test_randomised_fallback_flagged_not_exact(self):
        system = RectangleSystem(64, 2, max_exact_candidates=10, seed=0)
        stream = [(i % 64 + 1, (3 * i) % 64 + 1) for i in range(50)]
        sample = stream[:10]
        result = system.max_discrepancy(stream, sample)
        assert not result.exact
        assert 0.0 <= result.error <= 1.0


class TestHalfspaceSystem:
    def test_vc_dimension(self):
        assert HalfspaceSystem(10, 2).vc_dimension() == 3

    def test_halfspace_membership(self):
        halfspace = Halfspace((1.0, 0.0), 2.0)
        assert (3, 1) in halfspace
        assert (1, 5) not in halfspace

    def test_one_dimensional_discrepancy_matches_prefixes(self):
        system = HalfspaceSystem(100, 1)
        stream = [(i,) for i in range(1, 101)]
        sample = [(i,) for i in range(1, 11)]
        result = system.max_discrepancy(stream, sample)
        # Sample = smallest tenth; worst halfspace is "x <= 10" ~ error 0.9.
        assert result.error == pytest.approx(0.9, abs=0.02)
        assert result.exact

    def test_two_dimensional_discrepancy_reasonable(self):
        system = HalfspaceSystem(10, 2, directions=64, seed=1)
        stream = [(1, 1)] * 20 + [(10, 10)] * 20
        sample = [(10, 10)] * 10
        result = system.max_discrepancy(stream, sample)
        assert result.error == pytest.approx(0.5, abs=0.05)

    def test_log_cardinality_positive_and_finite(self):
        value = HalfspaceSystem(32, 2).log_cardinality()
        assert 0 < value < 200

    def test_identical_zero(self):
        system = HalfspaceSystem(10, 2, seed=3)
        points = [(1, 2), (5, 5), (9, 1)]
        assert system.max_discrepancy(points, points).error == pytest.approx(0.0)


class TestDirectionGrid:
    """One probe grid for the halfspace system and the Tukey depth."""

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_the_system_probes_the_grid(self, dimension):
        system = HalfspaceSystem(3, dimension, directions=5, seed=7)
        normals = list(dict.fromkeys(halfspace.normal for halfspace in system.ranges()))
        grid = direction_grid(dimension, 5, seed=7)
        assert normals == [tuple(float(x) for x in row) for row in grid]

    def test_the_grid_is_exact_in_one_dimension_and_unit_length_above(self):
        assert direction_grid(1, 64).tolist() == [[1.0], [-1.0]]
        for dimension in (2, 3, 5):
            grid = direction_grid(dimension, 16, seed=1)
            assert grid.shape == (16, dimension)
            assert np.allclose(np.linalg.norm(grid, axis=1), 1.0)

    def test_tukey_depth_reads_the_same_grid(self):
        points = [(1.0, 1.0), (2.0, 5.0), (4.0, 2.0), (5.0, 5.0), (3.0, 3.0)]
        grid = direction_grid(2, 12)
        assert tukey_depth((3.0, 3.0), points, num_directions=12) == tukey_depth(
            (3.0, 3.0), points, directions=grid
        )

    @pytest.mark.parametrize("dimension, count", [(0, 4), (2, 0)])
    def test_an_empty_grid_is_refused(self, dimension, count):
        with pytest.raises(ConfigurationError):
            direction_grid(dimension, count)


class TestExplicitSetSystem:
    def test_duplicate_ranges_collapsed(self):
        system = ExplicitSetSystem([1, 2, 3], [{1}, {1}, {2, 3}])
        assert system.cardinality() == 2

    def test_range_outside_universe_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplicitSetSystem([1, 2], [{3}])

    def test_empty_universe_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplicitSetSystem([], [set()])

    def test_prefixes_constructor_matches_fast_system(self, explicit_prefixes):
        from repro.setsystems import PrefixSystem

        fast = PrefixSystem(12)
        stream = [1, 4, 4, 9, 12, 2, 7]
        sample = [4, 9]
        assert explicit_prefixes.max_discrepancy(stream, sample).error == pytest.approx(
            fast.max_discrepancy(stream, sample).error
        )

    def test_intervals_constructor_vc_dimension(self):
        assert ExplicitSetSystem.intervals(6).vc_dimension() == 2

    def test_singletons_constructor_vc_dimension(self):
        assert ExplicitSetSystem.singletons(6).vc_dimension() == 1

    def test_power_set_shatters_everything(self):
        system = ExplicitSetSystem.power_set([1, 2, 3, 4])
        assert system.vc_dimension() == 4

    def test_power_set_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplicitSetSystem.power_set(list(range(20)))

    def test_describe_reports_structure(self, explicit_prefixes):
        description = explicit_prefixes.describe()
        assert description["cardinality"] == 12
        assert description["vc_dimension"] == 1


class TestVCDimension:
    def test_is_shattered_single_point(self):
        assert is_shattered([1], [{1}, set()])

    def test_is_not_shattered_missing_subset(self):
        assert not is_shattered([1, 2], [{1}, {1, 2}, set()])

    def test_prefix_family_has_dimension_one(self):
        family = [set(range(1, b + 1)) for b in range(1, 9)]
        assert exact_vc_dimension(range(1, 9), family) == 1

    def test_interval_family_has_dimension_two(self):
        family = [
            set(range(a, b + 1)) for a in range(1, 7) for b in range(a, 7)
        ]
        assert exact_vc_dimension(range(1, 7), family) == 2

    def test_power_set_has_full_dimension(self):
        universe = [1, 2, 3]
        family = [set(), {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]
        assert exact_vc_dimension(universe, family) == 3

    def test_max_dimension_early_exit(self):
        universe = [1, 2, 3]
        family = [set(), {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]
        assert exact_vc_dimension(universe, family, max_dimension=2) == 2

    def test_sauer_shelah_bound(self):
        assert sauer_shelah_bound(1, 10) == 11
        assert sauer_shelah_bound(2, 5) == 16

    def test_sauer_shelah_consistency_with_explicit_system(self):
        system = ExplicitSetSystem.prefixes(10)
        bound = sauer_shelah_bound(system.vc_dimension(), 10)
        assert system.cardinality() <= bound
