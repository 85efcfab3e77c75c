"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounds import epsilon_for_reservoir, reservoir_adaptive_size
from repro.core.concentration import freedman_tail
from repro.samplers import (
    BernoulliSampler,
    GreenwaldKhannaSketch,
    MergeReduceSummary,
    MisraGriesSummary,
    ReservoirSampler,
    WeightedReservoirSampler,
)
from repro.setsystems import (
    Box,
    ExplicitRange,
    ExplicitSetSystem,
    Halfspace,
    Interval,
    IntervalSystem,
    Prefix,
    PrefixSystem,
    Singleton,
    SingletonSystem,
)

#: Shared settings: the suite must stay fast, so examples are capped.
FAST = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

elements = st.integers(min_value=1, max_value=12)
streams = st.lists(elements, min_size=1, max_size=60)


class TestDiscrepancyProperties:
    @FAST
    @given(stream=streams, sample_mask=st.lists(st.booleans(), min_size=60, max_size=60))
    def test_prefix_fast_path_matches_brute_force(self, stream, sample_mask):
        sample = [value for value, keep in zip(stream, sample_mask) if keep] or [stream[0]]
        fast_system = PrefixSystem(12)
        explicit = ExplicitSetSystem.prefixes(12)
        fast = fast_system.max_discrepancy(stream, sample).error
        brute = explicit.max_discrepancy(stream, sample).error
        assert fast == pytest.approx(brute, abs=1e-9)

    @FAST
    @given(stream=streams, sample_mask=st.lists(st.booleans(), min_size=60, max_size=60))
    def test_interval_fast_path_matches_brute_force(self, stream, sample_mask):
        sample = [value for value, keep in zip(stream, sample_mask) if keep] or [stream[0]]
        fast = IntervalSystem(12).max_discrepancy(stream, sample).error
        brute = ExplicitSetSystem.intervals(12).max_discrepancy(stream, sample).error
        assert fast == pytest.approx(brute, abs=1e-9)

    @FAST
    @given(stream=streams, sample_mask=st.lists(st.booleans(), min_size=60, max_size=60))
    def test_singleton_fast_path_matches_brute_force(self, stream, sample_mask):
        sample = [value for value, keep in zip(stream, sample_mask) if keep] or [stream[0]]
        fast = SingletonSystem(12).max_discrepancy(stream, sample).error
        brute = ExplicitSetSystem.singletons(12).max_discrepancy(stream, sample).error
        assert fast == pytest.approx(brute, abs=1e-9)

    @FAST
    @given(stream=streams)
    def test_identical_sample_has_zero_error_everywhere(self, stream):
        for system in (PrefixSystem(12), IntervalSystem(12), SingletonSystem(12)):
            assert system.max_discrepancy(stream, stream).error == pytest.approx(0.0)

    @FAST
    @given(stream=streams, sample_mask=st.lists(st.booleans(), min_size=60, max_size=60))
    def test_errors_bounded_by_one_and_witness_valid(self, stream, sample_mask):
        sample = [value for value, keep in zip(stream, sample_mask) if keep] or [stream[0]]
        system = PrefixSystem(12)
        result = system.max_discrepancy(stream, sample)
        assert 0.0 <= result.error <= 1.0
        # The witness must achieve the reported error.
        achieved = abs(system.density(result.witness, stream) - system.density(result.witness, sample))
        assert achieved == pytest.approx(result.error, abs=1e-9)

    @FAST
    @given(stream=streams)
    def test_interval_error_dominates_prefix_error(self, stream):
        sample = stream[::3] or [stream[0]]
        prefix_error = PrefixSystem(12).max_discrepancy(stream, sample).error
        interval_error = IntervalSystem(12).max_discrepancy(stream, sample).error
        assert interval_error >= prefix_error - 1e-9


#: Range bounds and elements: small ints, ints around 2**53 (where floats
#: stop being exact) and far above it (the Figure-3 universes), and floats,
#: so ints meet float bounds and the other way round.
plain_scalars = st.one_of(
    st.integers(-50, 50),
    st.integers(2**53 - 3, 2**53 + 3),
    st.floats(-60.0, 60.0),
    st.just(float(2**53)),
)
scalars = st.one_of(plain_scalars, st.integers(2**900 - 3, 2**900 + 3))
points = st.tuples(plain_scalars, plain_scalars)


def _box(corners):
    first, second = corners
    return Box(tuple(map(min, first, second)), tuple(map(max, first, second)))


#: Each Range class with a strategy for its ranges and one for its elements.
RANGES = {
    "prefix": (st.builds(Prefix, scalars), scalars),
    "interval": (
        st.lists(scalars, min_size=2, max_size=2).map(sorted).map(lambda ends: Interval(*ends)),
        scalars,
    ),
    "singleton": (st.builds(Singleton, scalars), scalars),
    "explicit": (st.frozensets(scalars, max_size=6).map(ExplicitRange), scalars),
    "box": (st.tuples(points, points).map(_box), points),
    "halfspace": (st.builds(Halfspace, points, plain_scalars), points),
}


class TestRangeCountIn:
    @pytest.mark.parametrize("kind", sorted(RANGES))
    @FAST
    @given(data=st.data())
    def test_count_in_equals_membership_count(self, kind, data):
        range_strategy, element_strategy = RANGES[kind]
        range_ = data.draw(range_strategy)
        values = data.draw(st.lists(element_strategy, max_size=40))
        for elements in (values, tuple(values), [], ()):
            assert range_.count_in(elements) == sum(x in range_ for x in elements)


class TestSamplerProperties:
    @FAST
    @given(stream=st.lists(st.integers(0, 1000), min_size=1, max_size=200), seed=st.integers(0, 2**16))
    def test_reservoir_sample_is_multiset_subset_of_stream(self, stream, seed):
        sampler = ReservoirSampler(7, seed=seed)
        sampler.extend(stream)
        from collections import Counter

        stream_counts = Counter(stream)
        sample_counts = Counter(sampler.sample)
        assert all(sample_counts[v] <= stream_counts[v] for v in sample_counts)
        assert sampler.sample_size == min(7, len(stream))

    @FAST
    @given(stream=st.lists(st.integers(0, 1000), min_size=1, max_size=200),
           seed=st.integers(0, 2**16),
           probability=st.floats(0.05, 1.0))
    def test_bernoulli_sample_preserves_stream_order(self, stream, seed, probability):
        sampler = BernoulliSampler(probability, seed=seed)
        sampler.extend(stream)
        iterator = iter(stream)
        for sampled in sampler.sample:
            assert any(sampled == value for value in iterator)

    @FAST
    @given(stream=st.lists(st.integers(0, 100), min_size=1, max_size=150), seed=st.integers(0, 2**16))
    def test_weighted_reservoir_never_exceeds_capacity(self, stream, seed):
        sampler = WeightedReservoirSampler(5, seed=seed)
        sampler.extend(stream)
        assert sampler.sample_size == min(5, len(stream))

    @FAST
    @given(stream=st.lists(st.integers(0, 30), min_size=1, max_size=300))
    def test_misra_gries_estimate_error_bound(self, stream):
        capacity = 6
        summary = MisraGriesSummary(capacity)
        summary.extend(stream)
        slack = len(stream) / (capacity + 1)
        from collections import Counter

        truth = Counter(stream)
        for value, count in truth.items():
            estimate = summary.estimate(value)
            assert estimate <= count
            assert count - estimate <= slack + 1e-9

    @FAST
    @given(values=st.lists(st.integers(0, 10_000), min_size=5, max_size=400))
    def test_greenwald_khanna_rank_error_bound(self, values):
        epsilon = 0.1
        sketch = GreenwaldKhannaSketch(epsilon)
        sketch.extend(values)
        ordered = sorted(values)
        probe = ordered[len(ordered) // 2]
        true_rank = sum(1 for v in values if v <= probe)
        assert abs(sketch.rank_query(probe) - true_rank) <= 2 * epsilon * len(values) + 1

    @FAST
    @given(values=st.lists(st.integers(0, 10_000), min_size=2, max_size=500))
    def test_merge_reduce_total_weight_is_count(self, values):
        summary = MergeReduceSummary(0.2)
        summary.extend(values)
        total = sum(point.weight for point in summary.weighted_points())
        assert total == pytest.approx(len(values))


class TestBoundProperties:
    @FAST
    @given(log_r=st.floats(0.0, 100.0), epsilon=st.floats(0.01, 0.9), delta=st.floats(0.01, 0.9))
    def test_reservoir_bound_positive_and_monotone_in_cardinality(self, log_r, epsilon, delta):
        bound = reservoir_adaptive_size(log_r, epsilon, delta)
        larger = reservoir_adaptive_size(log_r + 1.0, epsilon, delta)
        assert bound.size >= 1
        assert larger.value >= bound.value

    @FAST
    @given(log_r=st.floats(0.0, 50.0), delta=st.floats(0.01, 0.5), size=st.integers(1, 10_000))
    def test_epsilon_inverse_consistent_with_forward_bound(self, log_r, delta, size):
        epsilon = epsilon_for_reservoir(log_r, delta, size)
        if epsilon < 1.0:
            forward = reservoir_adaptive_size(log_r, epsilon, delta)
            assert forward.value <= size * 1.01

    @FAST
    @given(deviation=st.floats(0.0, 10.0), variance=st.floats(0.0, 10.0), step=st.floats(0.0, 2.0))
    def test_freedman_tail_is_a_probability_and_monotone(self, deviation, variance, step):
        value = freedman_tail(deviation, variance, step)
        assert 0.0 <= value <= 1.0
        assert freedman_tail(deviation + 1.0, variance, step) <= value + 1e-12
