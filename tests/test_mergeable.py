"""Property tests pinning the Mergeable protocol's merge-equivalence guarantees.

Every mergeable sampler family must stay within the same error guarantee on
a sharded-and-merged run as a single sampler on the concatenated stream, and
the merge must be **bit-identical** where it is exact:

* Bernoulli and sliding-window merges are exact: when the part samplers
  consume the same underlying bit stream as one sampler over the
  concatenated stream (shared generator), the merged state equals the single
  sampler's state bit for bit.
* The reservoir merge is an exactly uniform draw (not bit-identical by
  design — it adds coordinator randomness) and is pinned structurally:
  merged size, multiset membership, stream accounting, determinism under a
  fixed merge generator.
* Misra–Gries merges stay within the ``n // (capacity + 1)`` underestimate
  budget, with :attr:`max_underestimate` tracking the realised error
  exactly; without truncation the merge is bit-identical to a single
  summary.
* KLL merges preserve the element count and the ``O(eps n)`` rank-error
  regime.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.distributed import ShardedSampler
from repro.exceptions import ConfigurationError
from repro.rng import ensure_generator, spawn_generators
from repro.samplers import (
    BernoulliSampler,
    KLLSketch,
    Mergeable,
    MisraGriesSummary,
    ReservoirSampler,
    SlidingWindowSampler,
)

streams = st.lists(st.integers(min_value=1, max_value=64), min_size=2, max_size=300)


def _split(stream: list, fraction: float) -> tuple[list, list]:
    cut = max(1, min(len(stream) - 1, int(len(stream) * fraction)))
    return stream[:cut], stream[cut:]


class TestProtocol:
    def test_mergeable_families_satisfy_the_protocol(self):
        assert isinstance(BernoulliSampler(0.5, seed=0), Mergeable)
        assert isinstance(ReservoirSampler(4, seed=0), Mergeable)
        assert isinstance(SlidingWindowSampler(4, 16, seed=0), Mergeable)
        assert isinstance(MisraGriesSummary(4), Mergeable)
        assert isinstance(KLLSketch(16, seed=0), Mergeable)

    def test_cross_family_merges_are_rejected(self):
        with pytest.raises(ConfigurationError):
            BernoulliSampler(0.5, seed=0).merge([ReservoirSampler(4, seed=0)])
        with pytest.raises(ConfigurationError):
            MisraGriesSummary(4).merge([KLLSketch(16, seed=0)])

    def test_mismatched_parameters_are_rejected(self):
        with pytest.raises(ConfigurationError):
            BernoulliSampler(0.5, seed=0).merge([BernoulliSampler(0.25, seed=0)])
        with pytest.raises(ConfigurationError):
            ReservoirSampler(4, seed=0).merge([ReservoirSampler(8, seed=0)])
        with pytest.raises(ConfigurationError):
            SlidingWindowSampler(4, 16, seed=0).merge([SlidingWindowSampler(4, 32, seed=0)])
        with pytest.raises(ConfigurationError):
            MisraGriesSummary(4).merge([MisraGriesSummary(5)])
        with pytest.raises(ConfigurationError):
            KLLSketch(16, seed=0).merge([KLLSketch(32, seed=0)])

    def test_reservoir_ablation_evictions_are_not_mergeable(self):
        uniform = ReservoirSampler(4, seed=0)
        fifo = ReservoirSampler(4, seed=0, eviction="fifo")
        with pytest.raises(ConfigurationError, match="not mergeable"):
            uniform.merge([fifo])


class TestBernoulliMergeExact:
    @settings(max_examples=60, deadline=None)
    @given(stream=streams, fraction=st.floats(0.1, 0.9), seed=st.integers(0, 2**16))
    def test_bit_identical_to_single_sampler_on_concatenated_stream(
        self, stream, fraction, seed
    ):
        """Parts sharing one generator reproduce the single sampler exactly."""
        part_a, part_b = _split(stream, fraction)
        single = BernoulliSampler(0.3, seed=ensure_generator(seed))
        single.extend(stream, updates=False)

        shared = ensure_generator(seed)
        a = BernoulliSampler(0.3, seed=shared)
        b = BernoulliSampler(0.3, seed=shared)
        a.extend(part_a, updates=False)
        b.extend(part_b, updates=False)
        merged = a.merge([b])

        assert list(merged.sample) == list(single.sample)
        assert merged.rounds_processed == single.rounds_processed
        # The parts were not mutated by the merge.
        assert a.rounds_processed == len(part_a)
        assert b.rounds_processed == len(part_b)

    def test_merge_does_not_consume_part_randomness(self):
        a = BernoulliSampler(0.5, seed=1)
        b = BernoulliSampler(0.5, seed=2)
        a.extend(range(50), updates=False)
        b.extend(range(50), updates=False)
        state_before = a._rng.bit_generator.state
        a.merge([b])
        assert a._rng.bit_generator.state == state_before


class TestSlidingWindowMergeExact:
    @settings(max_examples=40, deadline=None)
    @given(
        stream=streams,
        fraction=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**16),
        capacity=st.integers(1, 6),
        window=st.integers(8, 64),
    )
    def test_bit_identical_to_single_sampler_on_concatenated_stream(
        self, stream, fraction, seed, capacity, window
    ):
        window = max(window, capacity)
        part_a, part_b = _split(stream, fraction)
        single = SlidingWindowSampler(capacity, window, seed=ensure_generator(seed))
        single.extend(stream, updates=False)

        shared = ensure_generator(seed)
        a = SlidingWindowSampler(capacity, window, seed=shared)
        b = SlidingWindowSampler(capacity, window, seed=shared)
        a.extend(part_a, updates=False)
        b.extend(part_b, updates=False)
        merged = a.merge([b])

        assert merged._candidates == single._candidates
        assert merged.sample == single.sample
        assert merged.rounds_processed == single.rounds_processed

    def test_three_way_merge_matches_single_run(self):
        stream = list(range(1, 201))
        shared = ensure_generator(9)
        parts = [SlidingWindowSampler(4, 32, seed=shared) for _ in range(3)]
        parts[0].extend(stream[:70], updates=False)
        parts[1].extend(stream[70:120], updates=False)
        parts[2].extend(stream[120:], updates=False)
        single = SlidingWindowSampler(4, 32, seed=ensure_generator(9))
        single.extend(stream, updates=False)
        merged = parts[0].merge(parts[1:])
        assert merged._candidates == single._candidates

    def test_explicit_offsets_keep_every_local_window_live(self):
        """Trailing offsets (the sharded view) never expire live candidates."""
        a = SlidingWindowSampler(4, 16, seed=1)
        b = SlidingWindowSampler(4, 16, seed=2)
        a.extend(range(100), updates=False)
        b.extend(range(100, 130), updates=False)
        total = a.rounds_processed + b.rounds_processed
        merged = a.merge(
            [b], offsets=[total - a.rounds_processed, total - b.rounds_processed]
        )
        live_priorities = sorted(
            priority
            for part in (a, b)
            for _arrival, priority, _element in part._candidates
        )
        merged_priorities = sorted(p for _a, p, _e in merged._current_sample_entries())
        assert merged_priorities == live_priorities[: len(merged_priorities)]


def _reservoir_parts(lengths: list[int], capacity: int) -> list[ReservoirSampler]:
    """One reservoir per length, over consecutive stretches of ``range``."""
    parts = []
    offset = 0
    for index, length in enumerate(lengths):
        part = ReservoirSampler(capacity, seed=index)
        part.extend(range(offset, offset + length), updates=False)
        offset += length
        parts.append(part)
    return parts


class TestReservoirMergeUniform:
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 120), min_size=2, max_size=4),
        capacity=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    def test_merge_structure(self, lengths, capacity, seed):
        if sum(lengths) == 0:
            lengths[0] = 1
        parts = _reservoir_parts(lengths, capacity)
        merged = parts[0].merge(parts[1:], rng=ensure_generator(seed))
        total = sum(lengths)
        assert merged.rounds_processed == total
        assert merged.sample_size == min(capacity, total)
        union = Counter()
        for part in parts:
            union.update(part.sample)
        assert not Counter(merged.sample) - union, "merged sample left the union"

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 120), min_size=1, max_size=4),
        capacity=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    def test_merged_sample_is_the_merge_draw(self, lengths, capacity, seed):
        """``merged_sample`` draws what ``merge`` holds and leaves the
        generator where ``merge`` does: the same bits *and* the same spawn
        count, since a reshard later spawns the sibling's generator from it."""
        parts = _reservoir_parts(lengths, capacity)
        served, full = ensure_generator(seed), ensure_generator(seed)
        sample = parts[0].merged_sample(parts[1:], rng=served)
        assert sample == list(parts[0].merge(parts[1:], rng=full).sample)
        assert served.random() == full.random()
        assert spawn_generators(served, 1)[0].random() == spawn_generators(full, 1)[0].random()

    def test_merged_sample_validates_parts_like_merge(self):
        with pytest.raises(ConfigurationError, match="different capacities"):
            ReservoirSampler(4, seed=0).merged_sample([ReservoirSampler(8, seed=0)])
        with pytest.raises(ConfigurationError, match="not mergeable"):
            ReservoirSampler(4, seed=0).merged_sample(
                [ReservoirSampler(4, seed=0, eviction="fifo")]
            )

    def test_merge_is_deterministic_under_a_fixed_generator(self):
        a = ReservoirSampler(8, seed=1)
        b = ReservoirSampler(8, seed=2)
        a.extend(range(100), updates=False)
        b.extend(range(100, 300), updates=False)
        one = a.merge([b], rng=ensure_generator(7))
        two = a.merge([b], rng=ensure_generator(7))
        assert list(one.sample) == list(two.sample)

    def test_merged_reservoir_keeps_streaming_with_correct_rounds(self):
        a = ReservoirSampler(8, seed=1)
        b = ReservoirSampler(8, seed=2)
        a.extend(range(50), updates=False)
        b.extend(range(50, 80), updates=False)
        merged = a.merge([b], rng=ensure_generator(3))
        update = merged.process(999)
        assert update.round_index == 81

    def test_merge_is_statistically_uniform(self):
        """Each element of the union appears in the merged k-subset with
        probability ~ k / total (chi-square-free coarse check)."""
        hits = Counter()
        trials = 400
        for trial in range(trials):
            a = ReservoirSampler(4, seed=trial * 2)
            b = ReservoirSampler(4, seed=trial * 2 + 1)
            a.extend(range(10), updates=False)
            b.extend(range(10, 30), updates=False)
            merged = a.merge([b], rng=ensure_generator(10_000 + trial))
            hits.update(merged.sample)
        expected = trials * 4 / 30
        for element in range(30):
            assert hits[element] > 0.3 * expected, (element, hits[element], expected)
            assert hits[element] < 2.5 * expected, (element, hits[element], expected)


#: The joint-law tests below share a 1% family-wise level (Bonferroni over
#: the five tests); each runs on fixed seeds, so the suite is deterministic.
_JOINT_LAW_ALPHA = 0.01 / 5
_TRIALS = 2_000


def _uniform_subset_pvalue(samples) -> float:
    """Chi-square p-value of the drawn samples against the uniform law on
    all 20 3-subsets of ``range(6)``."""
    cells = list(combinations(range(6), 3))
    counts = Counter(tuple(sorted(sample)) for sample in samples)
    assert set(counts) <= set(cells), counts
    return float(stats.chisquare([counts[cell] for cell in cells]).pvalue)


def _full_reservoir(values, seed) -> ReservoirSampler:
    reservoir = ReservoirSampler(3, seed=seed)
    reservoir.extend(values, updates=False)
    return reservoir


class TestCTW16JointLaw:
    """The [CTW16] coordinator draws a *uniform 3-subset* of a 6-element
    union, not just the right marginals: exact-subset chi-square tests over
    all 20 subsets, and the split's sibling count against its
    hypergeometric law."""

    @pytest.mark.parametrize("read", ["merge", "merged_sample"])
    def test_merge_draws_each_subset_uniformly(self, read):
        first, second = _full_reservoir([0, 1, 2], 1), _full_reservoir([3, 4, 5], 2)
        rng = ensure_generator(17)
        if read == "merge":
            samples = [first.merge([second], rng=rng).sample for _ in range(_TRIALS)]
        else:
            samples = [first.merged_sample([second], rng=rng) for _ in range(_TRIALS)]
        assert _uniform_subset_pvalue(samples) > _JOINT_LAW_ALPHA

    def test_sharded_read_draws_each_subset_uniformly(self):
        samples = []
        for seed in range(_TRIALS):
            sharded = ShardedSampler(
                2, lambda rng: ReservoirSampler(3, seed=rng), strategy="round_robin", seed=seed
            )
            sharded.extend(range(6), updates=False)
            samples.append(sharded.sample)
        assert _uniform_subset_pvalue(samples) > _JOINT_LAW_ALPHA

    def test_split_sibling_count_is_hypergeometric(self):
        """A 3-slot reservoir over 6 rounds hands its sibling half of the
        rounds: the sibling's share of the 3 stored elements follows
        ``hypergeom(M=6, n=3, N=3)``."""
        counts = Counter()
        for seed in range(_TRIALS):
            reservoir = _full_reservoir(range(6), seed)
            counts[reservoir.split().sample_size] += 1
        expected = stats.hypergeom(6, 3, 3).pmf(range(4)) * _TRIALS
        observed = [counts[take] for take in range(4)]
        assert sum(observed) == _TRIALS
        assert stats.chisquare(observed, expected).pvalue > _JOINT_LAW_ALPHA

    def test_split_then_merge_draws_each_subset_uniformly(self):
        """Split a site, then merge both halves with a third part: the
        halves' round counts must weigh the draw exactly."""
        other = _full_reservoir([3, 4, 5], 2)
        samples = []
        for seed in range(_TRIALS):
            site = _full_reservoir([0, 1, 2], seed)
            sibling = site.split()
            samples.append(site.merge([sibling, other]).sample)
        assert _uniform_subset_pvalue(samples) > _JOINT_LAW_ALPHA


class TestMisraGriesMergeBudget:
    @settings(max_examples=60, deadline=None)
    @given(
        stream_a=st.lists(st.integers(1, 12), max_size=250),
        stream_b=st.lists(st.integers(1, 12), max_size=250),
        capacity=st.integers(1, 8),
    )
    def test_merged_estimates_stay_within_the_tracked_budget(
        self, stream_a, stream_b, capacity
    ):
        a, b = MisraGriesSummary(capacity), MisraGriesSummary(capacity)
        for element in stream_a:
            a.update(element)
        for element in stream_b:
            b.update(element)
        merged = a.merge([b])
        n = len(stream_a) + len(stream_b)
        assert merged.count == n
        assert merged.memory_footprint() <= capacity
        assert merged.max_underestimate <= n // (capacity + 1)
        true = Counter(stream_a + stream_b)
        for element, frequency in true.items():
            estimate = merged.estimate(element)
            assert estimate <= frequency
            assert frequency - estimate <= merged.max_underestimate

    @settings(max_examples=60, deadline=None)
    @given(
        stream_a=st.lists(st.integers(1, 4), max_size=120),
        stream_b=st.lists(st.integers(1, 4), max_size=120),
    )
    def test_exact_when_no_truncation_is_needed(self, stream_a, stream_b):
        """Few distinct keys => the merge is bit-identical to one summary."""
        a, b, single = (MisraGriesSummary(8) for _ in range(3))
        for element in stream_a:
            a.update(element)
        for element in stream_b:
            b.update(element)
        for element in stream_a + stream_b:
            single.update(element)
        merged = a.merge([b])
        assert merged._counters == single._counters
        assert merged.max_underestimate == 0 == single.max_underestimate

    def test_streaming_decrements_are_tracked(self):
        summary = MisraGriesSummary(2)
        for element in [1, 2, 3, 4, 5, 6]:
            summary.update(element)
        assert summary.max_underestimate == summary._decrements > 0
        assert summary.max_underestimate <= summary.count // 3


class TestMergeEdgeCases:
    """Degenerate inputs every merge kernel must handle: empty parts (a shard
    that received nothing) and single-element streams."""

    def test_empty_bernoulli_parts_merge_exactly(self):
        a, b = BernoulliSampler(0.3, seed=1), BernoulliSampler(0.3, seed=2)
        b.extend(range(50), updates=False)
        merged = a.merge([b])
        assert list(merged.sample) == list(b.sample)
        assert merged.rounds_processed == 50
        both = BernoulliSampler(0.3, seed=3).merge([BernoulliSampler(0.3, seed=4)])
        assert both.rounds_processed == 0
        assert list(both.sample) == []

    def test_empty_sliding_window_parts_merge_exactly(self):
        a = SlidingWindowSampler(4, 16, seed=1)
        b = SlidingWindowSampler(4, 16, seed=2)
        b.extend(range(40), updates=False)
        # An empty leading part shifts arrivals by zero: the merge equals b.
        merged = a.merge([b])
        assert merged._candidates == b._candidates
        assert merged.rounds_processed == 40
        both = SlidingWindowSampler(4, 16, seed=5).merge([SlidingWindowSampler(4, 16, seed=6)])
        assert list(both.sample) == []

    def test_empty_reservoir_parts_merge_exactly(self):
        a, b = ReservoirSampler(8, seed=1), ReservoirSampler(8, seed=2)
        b.extend(range(30), updates=False)
        merged = a.merge([b], rng=ensure_generator(3))
        assert merged.rounds_processed == 30
        assert merged.sample_size == 8
        assert not Counter(merged.sample) - Counter(b.sample)
        both = ReservoirSampler(8, seed=4).merge(
            [ReservoirSampler(8, seed=5)], rng=ensure_generator(6)
        )
        assert both.rounds_processed == 0
        assert both.sample_size == 0

    def test_empty_summary_parts_merge_exactly(self):
        fed = MisraGriesSummary(4)
        for element in [1, 1, 2, 3]:
            fed.update(element)
        merged = MisraGriesSummary(4).merge([fed])
        assert merged._counters == fed._counters
        assert merged.count == 4
        sketch = KLLSketch(16, seed=0)
        sketch.extend(np.random.default_rng(0).random(200))
        merged_sketch = KLLSketch(16, seed=1).merge([sketch], rng=ensure_generator(2))
        assert merged_sketch.count == 200

    def test_single_element_streams_merge_across_families(self):
        a, b = ReservoirSampler(4, seed=1), ReservoirSampler(4, seed=2)
        a.extend([7], updates=False)
        b.extend([9], updates=False)
        merged = a.merge([b], rng=ensure_generator(3))
        assert sorted(merged.sample) == [7, 9]
        assert merged.rounds_processed == 2

        keep_all = BernoulliSampler(1.0, seed=1)
        keep_all.extend([7], updates=False)
        other = BernoulliSampler(1.0, seed=2)
        other.extend([9], updates=False)
        assert sorted(keep_all.merge([other]).sample) == [7, 9]

        one = SlidingWindowSampler(1, 8, seed=1)
        one.extend([7], updates=False)
        two = SlidingWindowSampler(1, 8, seed=2)
        merged_window = one.merge([two])
        assert list(merged_window.sample) == [7]

        summary = MisraGriesSummary(2)
        summary.update(7)
        assert summary.merge([MisraGriesSummary(2)]).estimate(7) == 1

        sketch = KLLSketch(16, seed=0)
        sketch.extend([0.5])
        merged_sketch = sketch.merge([KLLSketch(16, seed=1)])
        assert merged_sketch.count == 1
        assert merged_sketch.rank_query(0.7) == 1


#: Factory and merge-exactness flag per shardable Mergeable family (the
#: reservoir coordinator redraws, so its merged view is compared as a
#: multiset rather than bit-for-bit).
SHARDABLE_FAMILIES = {
    "bernoulli": (lambda rng: BernoulliSampler(0.3, seed=rng), True),
    "reservoir": (lambda rng: ReservoirSampler(6, seed=rng), False),
    "sliding_window": (lambda rng: SlidingWindowSampler(4, 24, seed=rng), True),
}


class TestDegenerateSharding:
    """ShardedSampler edge regimes: one site, empty sites, one-element streams."""

    @pytest.mark.parametrize("family", sorted(SHARDABLE_FAMILIES))
    def test_single_site_is_bit_identical_to_unsharded(self, family):
        """num_sites=1 routes everything to the lone site, whose generator is
        the third child of the deployment seed — reproduced here with a twin
        generator, so the per-site state matches the standalone sampler bit
        for bit."""
        factory, exact = SHARDABLE_FAMILIES[family]
        stream = list(range(1, 121))
        sharded = ShardedSampler(1, factory, strategy="round_robin", seed=42)
        sharded.extend(stream, updates=False)
        _route, _merge, site_rng = spawn_generators(ensure_generator(42), 3)
        single = factory(site_rng)
        single.extend(stream, updates=False)
        assert tuple(sharded.site_sample(0)) == tuple(single.sample)
        if exact:
            assert tuple(sharded.sample) == tuple(single.sample)
        else:
            assert Counter(sharded.sample) == Counter(single.sample)

    @pytest.mark.parametrize("family", sorted(SHARDABLE_FAMILIES))
    def test_hash_hotspot_leaves_sites_empty(self, family):
        """A constant-valued stream hash-routes to one site; the other sites
        stay empty and the merge must cope with their empty summaries."""
        factory, _ = SHARDABLE_FAMILIES[family]
        sharded = ShardedSampler(3, factory, strategy="hash", seed=7)
        sharded.extend([5] * 40, updates=False)
        counts = list(sharded.site_counts)
        assert sorted(counts) == [0, 0, 40]
        for site, count in enumerate(counts):
            if count == 0:
                assert tuple(sharded.site_sample(site)) == ()
        assert sharded.rounds_processed == 40
        assert set(sharded.sample) <= {5}
        assert len(sharded.sample) > 0

    @pytest.mark.parametrize("family", sorted(SHARDABLE_FAMILIES))
    @pytest.mark.parametrize("strategy", ["random", "hash", "round_robin", "skewed"])
    def test_single_element_stream(self, family, strategy):
        factory, _ = SHARDABLE_FAMILIES[family]
        sharded = ShardedSampler(4, factory, strategy=strategy, seed=3)
        sharded.extend([9], updates=False)
        assert sharded.rounds_processed == 1
        assert sum(sharded.site_counts) == 1
        assert set(sharded.sample) <= {9}
        if family != "bernoulli":  # Bernoulli may legitimately reject it
            assert tuple(sharded.sample) == (9,)

    def test_empty_extend_is_a_no_op(self):
        sharded = ShardedSampler(2, lambda rng: ReservoirSampler(4, seed=rng), seed=1)
        assert sharded.extend([], updates=False) is None
        batch = sharded.extend([], updates=True)
        assert len(batch) == 0
        assert sharded.sample == ()


#: Every non-empty subset of a 4-site deployment, as survivor index tuples.
_SURVIVOR_SUBSETS = [
    subset for size in (1, 2, 3, 4) for subset in combinations(range(4), size)
]


class TestSurvivorSubsetMerge:
    """PR 8 fault-tolerance property: merging *any* non-empty subset of a
    deployment's per-site states yields a valid sampler of the family, and
    the family's :meth:`degradation_report` brackets the error realised on
    the survivor union.  This is what makes coordinator re-merges after a
    site loss trustworthy: the degraded view never lies about what it
    still represents."""

    def _integer_substreams(self) -> list[list[int]]:
        rng = np.random.default_rng(11)
        return [
            [int(value) for value in rng.integers(1, 13, size=length)]
            for length in (40, 25, 55, 30)
        ]

    @pytest.mark.parametrize("survivors", _SURVIVOR_SUBSETS)
    def test_bernoulli_survivor_merge_is_the_exact_union(self, survivors):
        substreams = self._integer_substreams()
        parts = [BernoulliSampler(0.3, seed=index) for index in range(4)]
        for part, substream in zip(parts, substreams):
            part.extend(substream, updates=False)
        alive = [parts[index] for index in survivors]
        merged = alive[0].merge(alive[1:])
        report = merged.degradation_report()
        expected_rounds = sum(len(substreams[index]) for index in survivors)
        assert report["family"] == "bernoulli"
        assert report["rounds"] == merged.rounds_processed == expected_rounds
        union = Counter()
        for part in alive:
            union.update(part.sample)
        assert Counter(merged.sample) == union
        assert report["sample_size"] == len(merged.sample)

    @pytest.mark.parametrize("survivors", _SURVIVOR_SUBSETS)
    def test_reservoir_survivor_merge_reports_zero_shortfall(self, survivors):
        substreams = self._integer_substreams()
        parts = [ReservoirSampler(6, seed=index) for index in range(4)]
        for part, substream in zip(parts, substreams):
            part.extend(substream, updates=False)
        alive = [parts[index] for index in survivors]
        merged = alive[0].merge(alive[1:], rng=ensure_generator(99))
        report = merged.degradation_report()
        expected_rounds = sum(len(substreams[index]) for index in survivors)
        assert report["rounds"] == expected_rounds
        # The hypergeometric merge refills to min(capacity, rounds): the
        # merged view is a full uniform sample of the survivor rounds.
        assert report["expected_size"] == min(6, expected_rounds)
        assert report["sample_size"] == merged.sample_size == report["expected_size"]
        assert report["shortfall"] == 0
        union = Counter()
        for part in alive:
            union.update(part.sample)
        assert not Counter(merged.sample) - union

    @pytest.mark.parametrize("survivors", _SURVIVOR_SUBSETS)
    def test_sliding_window_survivor_merge_stays_inside_the_union(self, survivors):
        substreams = self._integer_substreams()
        parts = [SlidingWindowSampler(4, 24, seed=index) for index in range(4)]
        for part, substream in zip(parts, substreams):
            part.extend(substream, updates=False)
        alive = [parts[index] for index in survivors]
        merged = alive[0].merge(alive[1:])
        report = merged.degradation_report()
        expected_rounds = sum(len(substreams[index]) for index in survivors)
        assert report["rounds"] == merged.rounds_processed == expected_rounds
        live = Counter()
        for part in alive:
            live.update(element for _a, _p, element in part._candidates)
        assert not Counter(merged.sample) - live, "merged sample left the live union"
        assert report["sample_size"] == len(merged.sample) <= 4

    @pytest.mark.parametrize("survivors", _SURVIVOR_SUBSETS)
    def test_misra_gries_survivor_merge_brackets_every_estimate(self, survivors):
        substreams = self._integer_substreams()
        parts = [MisraGriesSummary(4) for _ in range(4)]
        for part, substream in zip(parts, substreams):
            for element in substream:
                part.update(element)
        alive = [parts[index] for index in survivors]
        merged = alive[0].merge(alive[1:])
        report = merged.degradation_report()
        surviving = [e for index in survivors for e in substreams[index]]
        assert report["rounds"] == len(surviving)
        # Realised error never exceeds the a-priori family guarantee ...
        assert report["max_underestimate"] <= report["guarantee"]
        assert report["guarantee"] == len(surviving) // 5
        # ... and every estimate is bracketed by the realised error.
        true = Counter(surviving)
        for element, frequency in true.items():
            estimate = merged.estimate(element)
            assert estimate <= frequency
            assert frequency - estimate <= report["max_underestimate"]

    @pytest.mark.parametrize("survivors", _SURVIVOR_SUBSETS)
    def test_kll_survivor_merge_stays_inside_the_rank_budget(self, survivors):
        rng = np.random.default_rng(23)
        substreams = [rng.random(length) for length in (400, 250, 550, 300)]
        parts = [KLLSketch(64, seed=index) for index in range(4)]
        for part, substream in zip(parts, substreams):
            part.extend(substream)
        alive = [parts[index] for index in survivors]
        merged = alive[0].merge(alive[1:], rng=ensure_generator(5))
        report = merged.degradation_report()
        surviving = np.sort(
            np.concatenate([substreams[index] for index in survivors])
        )
        assert report["rounds"] == merged.count == len(surviving)
        assert report["rank_error_budget"] == report["estimated_epsilon"] * len(surviving)
        budget = 6 * report["rank_error_budget"]
        for probe in (0.1, 0.5, 0.9):
            true_rank = int(np.searchsorted(surviving, probe, side="right"))
            assert abs(merged.rank_query(probe) - true_rank) <= budget


class TestKLLMerge:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merged_rank_queries_stay_in_the_eps_n_regime(self, seed):
        rng = np.random.default_rng(seed)
        values_a = rng.random(3_000)
        values_b = rng.random(2_000)
        a, b = KLLSketch(64, seed=seed), KLLSketch(64, seed=seed + 100)
        a.extend(values_a)
        b.extend(values_b)
        merged = a.merge([b], rng=ensure_generator(seed + 200))
        assert merged.count == 5_000
        everything = np.sort(np.concatenate([values_a, values_b]))
        budget = 6 * merged.estimated_epsilon * merged.count
        for probe in (0.05, 0.25, 0.5, 0.75, 0.95):
            true_rank = int(np.searchsorted(everything, probe, side="right"))
            assert abs(merged.rank_query(probe) - true_rank) <= budget

    def test_merge_respects_capacity_invariants(self):
        a, b = KLLSketch(16, seed=0), KLLSketch(16, seed=1)
        a.extend(np.random.default_rng(0).random(4_000))
        b.extend(np.random.default_rng(1).random(4_000))
        merged = a.merge([b], rng=ensure_generator(2))
        assert merged._size() <= merged._capacity_total()
        assert merged.count == 8_000

    def test_parts_are_not_mutated(self):
        a, b = KLLSketch(16, seed=0), KLLSketch(16, seed=1)
        a.extend(np.random.default_rng(0).random(1_000))
        b.extend(np.random.default_rng(1).random(1_000))
        before_a = [list(level) for level in a._compactors]
        before_b = [list(level) for level in b._compactors]
        a.merge([b], rng=ensure_generator(5))
        assert [list(level) for level in a._compactors] == before_a
        assert [list(level) for level in b._compactors] == before_b

    def test_streaming_into_the_merged_sketch_leaves_the_parts_seeded_streams_alone(self):
        a, b = KLLSketch(16, seed=0), KLLSketch(16, seed=1)
        a.extend(np.random.default_rng(0).random(500))
        b.extend(np.random.default_rng(1).random(500))
        merged = a.merge([b])
        state_a = a._rng.bit_generator.state
        merged.extend(np.random.default_rng(2).random(2_000))
        assert a._rng.bit_generator.state == state_a
