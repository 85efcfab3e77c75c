"""Property tests pinning ``extend()`` to sequential ``process()`` for every
sampler, plus chunked-vs-per-element equivalence for both game runners.

Two equivalence strengths appear below, matching each kernel's contract:

* **bit-identical** — same seed, same chunking-independent state:
  Bernoulli, weighted reservoir, priority, sliding window, Misra–Gries,
  KLL, merge-reduce.  (The plain reservoir consumes the bit stream in batch
  order, so its ``extend`` is distribution-equivalent rather than
  bit-identical — documented since PR 1.)
* **property-equivalent** — the Greenwald–Khanna bulk merge keeps the
  ``epsilon * n`` rank guarantee but not tuple-for-tuple equality.
"""

from __future__ import annotations

import bisect
import copy

import numpy as np
import pytest

from repro.adversary import (
    StaticAdversary,
    UniformAdversary,
    run_adaptive_game,
    run_continuous_game,
)
from repro.distributed import FaultPlan, Reshard, ShardedSampler
from repro.rng import ensure_generator
from repro.samplers import (
    BernoulliSampler,
    GreenwaldKhannaSketch,
    KLLSketch,
    MergeReduceSummary,
    MisraGriesSummary,
    PrioritySampler,
    ReservoirSampler,
    SampleUpdate,
    SlidingWindowSampler,
    UpdateBatch,
    WeightedReservoirSampler,
)
from repro.setsystems import PrefixSystem

CHUNK_PLANS = [[1] * 20 + [97, 503, 380], [1500], [250] * 6, [1, 999, 1, 499]]


def _stream(seed: int, n: int = 1500, universe: int = 300) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(1, universe + 1, size=n)]


def _feed_chunks(sampler, data, plan, updates=False):
    cursor = 0
    for size in plan:
        if cursor >= len(data):
            break
        sampler.extend(data[cursor : cursor + size], updates=updates)
        cursor += size
    if cursor < len(data):
        sampler.extend(data[cursor:], updates=updates)


def _feed_chunks_sketch(sketch, data, plan):
    """Like :func:`_feed_chunks` for sketches, whose extend has no updates flag."""
    cursor = 0
    for size in plan:
        if cursor >= len(data):
            break
        sketch.extend(data[cursor : cursor + size])
        cursor += size
    if cursor < len(data):
        sketch.extend(data[cursor:])


class TestSampleUpdate:
    """The per-round record is an immutable named tuple."""

    def test_fields_cannot_be_assigned(self):
        update = SampleUpdate(4, "a", True)
        for name in SampleUpdate._fields:
            with pytest.raises(AttributeError):
                setattr(update, name, None)
        assert update == SampleUpdate(4, "a", True, None)

    def test_replace_round_trips(self):
        update = SampleUpdate(4, "a", True, evicted="b")
        shifted = update._replace(round_index=1)
        assert shifted == SampleUpdate(1, "a", True, "b")
        assert shifted._replace(round_index=4) == update
        assert update._replace() == update

    def test_is_a_tuple_of_its_fields(self):
        update = SampleUpdate(2, "x", False)
        assert tuple(update) == (2, "x", False, None)
        assert update == (2, "x", False, None)
        assert SampleUpdate._fields == ("round_index", "element", "accepted", "evicted")


class TestUpdateBatch:
    def test_lazy_views_and_equality(self):
        records = [
            SampleUpdate(1, "a", True),
            SampleUpdate(2, "b", False),
            SampleUpdate(3, "c", True, evicted="a"),
        ]
        batch = UpdateBatch.from_updates(records)
        assert len(batch) == 3
        assert list(batch) == records
        assert batch == records
        assert batch[2].evicted == "a"
        assert batch[-1] == records[-1]
        assert batch.accepted_count == 2
        assert batch.eviction_count == 1
        assert batch.accepted_elements() == ["a", "c"]

    def test_slicing_preserves_evictions(self):
        records = [SampleUpdate(i, i, True, evicted=i - 1 if i > 3 else None) for i in range(1, 8)]
        batch = UpdateBatch.from_updates(records)
        assert batch[2:6] == records[2:6]

    def test_concat(self):
        first = UpdateBatch.from_updates([SampleUpdate(1, "x", True)])
        second = UpdateBatch.from_updates(
            [SampleUpdate(2, "y", True, evicted="x"), SampleUpdate(3, "z", False)]
        )
        merged = UpdateBatch.concat([first, second])
        assert len(merged) == 3
        assert merged.evictions == {1: "x"}
        assert UpdateBatch.concat([]) == []

    def test_out_of_range_index(self):
        batch = UpdateBatch.from_updates([SampleUpdate(1, "x", True)])
        with pytest.raises(IndexError):
            batch[3]

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            UpdateBatch(np.arange(3), ["a"], np.ones(3, dtype=bool))


class TestBernoulliExtend:
    def test_bit_identical_to_sequential_processing(self):
        sequential = BernoulliSampler(0.3, seed=42)
        batched = BernoulliSampler(0.3, seed=42)
        data = list(range(1, 2001))
        loop_updates = [sequential.process(element) for element in data]
        fast_updates = batched.extend(data)
        assert list(sequential.sample) == list(batched.sample)
        assert fast_updates == loop_updates
        assert sequential.rounds_processed == batched.rounds_processed

    @pytest.mark.parametrize("plan", CHUNK_PLANS)
    def test_any_chunking_is_bit_identical(self, plan):
        data = _stream(1)
        reference = BernoulliSampler(0.2, seed=9)
        chunked = BernoulliSampler(0.2, seed=9)
        for element in data:
            reference.process(element)
        _feed_chunks(chunked, data, plan)
        assert list(reference.sample) == list(chunked.sample)

    def test_updates_suppressed_and_empty_batch(self):
        sampler = BernoulliSampler(0.5, seed=1)
        assert sampler.extend(range(100), updates=False) is None
        assert sampler.rounds_processed == 100
        assert sampler.extend([]) == []
        assert sampler.extend([], updates=False) is None


class TestReservoirExtend:
    def test_per_element_update_semantics(self):
        sampler = ReservoirSampler(50, seed=7)
        data = list(range(1, 3001))
        updates = sampler.extend(data)
        assert len(updates) == len(data)
        assert [u.round_index for u in updates] == list(range(1, 3001))
        assert [u.element for u in updates] == data
        # The first k rounds fill the reservoir without evictions.
        assert all(u.accepted and u.evicted is None for u in updates[:50])
        # After the fill, every acceptance evicts exactly one element.
        for update in updates[50:]:
            assert update.accepted == (update.evicted is not None)
        assert sampler.total_accepted == updates.accepted_count
        assert sampler.sample_size == 50
        assert sampler.rounds_processed == 3000

    def test_updates_false_builds_same_sample(self):
        with_updates = ReservoirSampler(15, seed=8)
        without_updates = ReservoirSampler(15, seed=8)
        data = list(range(400))
        with_updates.extend(data)
        without_updates.extend(data, updates=False)
        assert list(with_updates.sample) == list(without_updates.sample)
        assert with_updates.total_accepted == without_updates.total_accepted

    def test_extend_then_process_continues_the_round_count(self):
        sampler = ReservoirSampler(5, seed=0)
        sampler.extend(range(100), updates=False)
        update = sampler.process(999)
        assert update.round_index == 101

    def test_inclusion_probability_is_uniform(self):
        """Each stream position lands in the final reservoir w.p. ~ k/n."""
        n, k, trials = 120, 12, 400
        counts = np.zeros(n)
        for seed in range(trials):
            sampler = ReservoirSampler(k, seed=seed)
            sampler.extend(range(n), updates=False)
            for value in sampler.sample:
                counts[value] += 1
        rates = counts / trials
        expected = k / n
        # Binomial(400, 0.1) per position: 5 sigma ~ 0.075.
        assert np.all(np.abs(rates - expected) < 0.075)
        assert abs(rates.mean() - expected) < 0.01

    def test_non_uniform_eviction_policies_fall_back(self):
        fifo = ReservoirSampler(10, seed=1, eviction="fifo")
        updates = fifo.extend(range(1, 101))
        assert len(updates) == 100
        assert fifo.sample_size == 10
        replay = ReservoirSampler(10, seed=1, eviction="fifo")
        for element in range(1, 101):
            replay.process(element)
        assert list(replay.sample) == list(fifo.sample)

    def test_fill_phase_spanning_chunks(self):
        sampler = ReservoirSampler(30, seed=2)
        sampler.extend(range(10), updates=False)
        assert sampler.sample_size == 10
        sampler.extend(range(10, 200), updates=False)
        assert sampler.sample_size == 30
        assert sampler.rounds_processed == 200


class TestWeightedReservoirExtend:
    @pytest.mark.parametrize("capacity", [3, 25])
    @pytest.mark.parametrize("plan", CHUNK_PLANS)
    def test_bit_identical_to_sequential(self, capacity, plan):
        data = _stream(11)
        sequential = WeightedReservoirSampler(capacity, seed=4)
        chunked = WeightedReservoirSampler(capacity, seed=4)
        seq_updates = [sequential.process(element) for element in data]
        _feed_chunks(chunked, data, plan, updates=True)
        assert sorted(map(str, sequential.sample)) == sorted(map(str, chunked.sample))
        assert sequential._heap == chunked._heap
        assert sequential.rounds_processed == chunked.rounds_processed
        assert sum(u.accepted for u in seq_updates) >= capacity

    def test_update_records_match_sequential(self):
        data = _stream(12, n=600)
        sequential = WeightedReservoirSampler(10, seed=5)
        batched = WeightedReservoirSampler(10, seed=5)
        seq_updates = [sequential.process(element) for element in data]
        batch = batched.extend(data)
        assert batch == seq_updates

    def test_custom_weights_bit_identical(self):
        weight = lambda element: 0.5 + (element % 7)  # noqa: E731
        data = _stream(13, n=800)
        sequential = WeightedReservoirSampler(12, weight=weight, seed=6)
        batched = WeightedReservoirSampler(12, weight=weight, seed=6)
        for element in data:
            sequential.process(element)
        batched.extend(data, updates=False)
        assert sequential._heap == batched._heap

    def test_invalid_weight_rejected(self):
        sampler = WeightedReservoirSampler(4, weight=lambda _e: 0.0, seed=1)
        with pytest.raises(Exception):
            sampler.extend([1, 2, 3])


class TestPriorityExtend:
    @pytest.mark.parametrize("plan", CHUNK_PLANS)
    def test_bit_identical_to_sequential(self, plan):
        data = _stream(21)
        sequential = PrioritySampler(20, seed=8)
        chunked = PrioritySampler(20, seed=8)
        for element in data:
            sequential.process(element)
        _feed_chunks(chunked, data, plan)
        assert sequential._heap == chunked._heap
        assert sequential.rounds_processed == chunked.rounds_processed

    def test_update_records_match_sequential(self):
        data = _stream(22, n=700)
        sequential = PrioritySampler(15, seed=3)
        batched = PrioritySampler(15, seed=3)
        seq_updates = [sequential.process(element) for element in data]
        assert batched.extend(data) == seq_updates


class TestSlidingWindowExtend:
    @pytest.mark.parametrize("capacity,window", [(4, 30), (10, 100), (8, 5000)])
    @pytest.mark.parametrize("plan", CHUNK_PLANS)
    def test_bit_identical_state(self, capacity, window, plan):
        data = _stream(31)
        sequential = SlidingWindowSampler(capacity, window, seed=14)
        chunked = SlidingWindowSampler(capacity, window, seed=14)
        for element in data:
            sequential.process(element)
        _feed_chunks(chunked, data, plan)
        assert sequential._candidates == chunked._candidates
        assert list(sequential.sample) == list(chunked.sample)
        assert sequential.rounds_processed == chunked.rounds_processed

    def test_updates_true_takes_sequential_path(self):
        data = _stream(32, n=400)
        sequential = SlidingWindowSampler(5, 50, seed=2)
        batched = SlidingWindowSampler(5, 50, seed=2)
        seq_updates = [sequential.process(element) for element in data]
        assert batched.extend(data, updates=True) == seq_updates

    def test_window_larger_than_stream(self):
        sampler = SlidingWindowSampler(6, 10_000, seed=1)
        sampler.extend(range(500), updates=False)
        assert sampler.sample_size == 6
        assert sampler.rounds_processed == 500


def _window_sample(priorities, capacity, window, t):
    """Arrivals in the sample after round ``t``, from the definition: the
    ``capacity`` smallest priorities among arrivals ``(t - window, t]``,
    ties broken by arrival (``sorted`` is stable)."""
    live = range(max(1, t - window + 1), t + 1)
    return sorted(live, key=lambda i: priorities[i - 1])[:capacity]


def _survivors(entries, capacity, cutoff):
    """The candidates among ``(arrival, priority, element)`` entries in
    arrival order: those arrived after ``cutoff`` with fewer than
    ``capacity`` later live entries of strictly smaller priority."""
    live = [entry for entry in entries if entry[0] > cutoff]
    return [
        entry
        for i, entry in enumerate(live)
        if sum(later[1] < entry[1] for later in live[i + 1 :]) < capacity
    ]


def _window_candidates(priorities, data, capacity, window, t):
    """``(arrival, priority, element)`` a sampler must hold after round
    ``t``: the live arrivals with fewer than ``capacity`` later live
    arrivals of strictly smaller priority."""
    live = range(max(1, t - window + 1), t + 1)
    return _survivors([(i, priorities[i - 1], data[i - 1]) for i in live], capacity, t - window)


def _assert_counts(sampler):
    """The ranked lists hold the candidates themselves in a stable priority
    sort, with their priorities, and each one's stored domination count is
    the number of later candidates with a strictly smaller priority."""
    candidates = sampler._candidates
    expected = [
        sum(later[1] < entry[1] for later in candidates[i + 1 :])
        for i, entry in enumerate(candidates)
    ]
    order = sorted(range(len(candidates)), key=lambda i: candidates[i][1])
    assert [id(entry) for entry in sampler._ranked] == [id(candidates[i]) for i in order]
    assert sampler._priorities == [candidates[i][1] for i in order]
    assert sampler._counts == [expected[i] for i in order]


class _TiedPriorities:
    """Stands in for a sampler's generator with priorities that tie: one
    fixed sequence over {0.25, 0.5, 0.75}, handed out in order by
    ``random()`` and ``random(n)`` alike, as a real generator's scalar and
    batch draws are."""

    def __init__(self, seed, n):
        self.priorities = np.random.default_rng(seed).choice([0.25, 0.5, 0.75], size=n)
        self._drawn = 0

    def random(self, size=None):
        start = self._drawn
        self._drawn += 1 if size is None else size
        if size is None:
            return float(self.priorities[start])
        return self.priorities[start : self._drawn].copy()


class TestSlidingWindowOracle:
    """The sliding-window sampler against a brute-force reference.

    ``process`` updates per-candidate domination counts in place, while
    batches and merges re-run the fixed-point scan and hand its counts back,
    so every path into the counted state is checked here: the reference
    recomputes the candidates, the sample and the counts from the window
    model, with the priorities the sampler's generator draws.
    """

    GEOMETRIES = [(1, 1), (3, 3), (4, 30), (32, 256), (8, 500)]
    SEED = 14

    @pytest.mark.parametrize("capacity,window", GEOMETRIES)
    def test_process_matches_reference(self, capacity, window):
        data = _stream(33)
        priorities = ensure_generator(self.SEED).random(len(data)).tolist()
        sampler = SlidingWindowSampler(capacity, window, seed=self.SEED)
        self._process_matches(sampler, priorities, data, capacity, window)

    @pytest.mark.parametrize("capacity,window", GEOMETRIES)
    @pytest.mark.parametrize("plan", CHUNK_PLANS)
    def test_chunked_extend_matches_reference(self, capacity, window, plan):
        data = _stream(34)
        priorities = ensure_generator(self.SEED).random(len(data)).tolist()
        sampler = SlidingWindowSampler(capacity, window, seed=self.SEED)
        _feed_chunks(sampler, data, plan)
        self._check_state(sampler, priorities, data, capacity, window)

    MIXED_SCHEDULE = [
        ("process", 60),
        ("batch", 400),
        ("process", 40),
        ("records", 150),
        ("process", 70),
        ("batch", 9),
        ("process", 30),
    ]

    @pytest.mark.parametrize("capacity,window", GEOMETRIES)
    def test_mixed_schedule_matches_reference(self, capacity, window):
        """``process``, ``extend(updates=False)``, ``extend(updates=True)``
        and ``process`` again continue from each other's state, before and
        after a ``reset``."""
        length = sum(size for _kind, size in self.MIXED_SCHEDULE)
        data = _stream(35, n=2 * length)
        priorities = ensure_generator(self.SEED).random(len(data)).tolist()
        sampler = SlidingWindowSampler(capacity, window, seed=self.SEED)
        for start in (0, length):
            if start:
                sampler.reset()
            stream, drawn = data[start : start + length], priorities[start : start + length]
            cursor = 0
            for kind, size in self.MIXED_SCHEDULE:
                chunk = stream[cursor : cursor + size]
                cursor += size
                if kind == "batch":
                    sampler.extend(chunk, updates=False)
                else:
                    updates = (
                        sampler.extend(chunk)
                        if kind == "records"
                        else [sampler.process(element) for element in chunk]
                    )
                    for update in updates:
                        t = update.round_index
                        assert update.accepted == (t in _window_sample(drawn, capacity, window, t))
                self._check_state(sampler, drawn, stream, capacity, window)

    @pytest.mark.parametrize("capacity,window", GEOMETRIES)
    def test_merge_then_stream_matches_single_sampler(self, capacity, window):
        """A merge of consecutive parts keeps ingesting exactly like one
        sampler fed the concatenated stream with the same priorities."""
        data = _stream(36, n=1200)
        shared = ensure_generator(self.SEED)
        parts = [SlidingWindowSampler(capacity, window, seed=shared) for _ in range(3)]
        parts[0].extend(data[:250], updates=False)
        for element in data[250:300]:
            parts[1].process(element)
        parts[2].extend(data[300:700], updates=False)
        merged = parts[0].merge(parts[1:], rng=shared)
        single = SlidingWindowSampler(capacity, window, seed=self.SEED)
        for element in data[:700]:
            single.process(element)
        assert merged._candidates == single._candidates
        _assert_counts(merged)
        for element in data[700:]:
            assert merged.process(element) == single.process(element)
            assert merged._candidates == single._candidates
        priorities = ensure_generator(self.SEED).random(len(data)).tolist()
        self._check_state(merged, priorities, data, capacity, window)

    @pytest.mark.parametrize("capacity,window", [(1, 1), (3, 3), (4, 30), (8, 64)])
    def test_sharded_sites_keep_ingesting_after_a_reshard_merge(self, capacity, window):
        """Sliding-window sites fed one element at a time, with sites 0 and
        1 merged mid-stream: after every round each site holds the
        candidates of its own window stream, and the merged site's stream
        is site 0's followed by site 1's."""
        data = _stream(37, n=600)
        sharded = ShardedSampler(
            3,
            lambda rng: SlidingWindowSampler(capacity, window, seed=rng),
            seed=self.SEED,
            fault_plan=FaultPlan(reshards=(Reshard(round=301, op="merge", site=0, other=1),)),
        )
        expected = [[] for _ in sharded.sites]
        for element in data:
            rounds = [site.rounds_processed for site in sharded.sites]
            update = sharded.process(element)
            sites = sharded.sites
            if len(sites) < len(expected):
                shifted = [(a + rounds[0], p, e) for a, p, e in expected[1]]
                rounds[:2] = [rounds[0] + rounds[1]]
                expected[:2] = [_survivors(expected[0] + shifted, capacity, rounds[0] - window)]
            (index,) = [i for i, site in enumerate(sites) if site.rounds_processed != rounds[i]]
            site = sites[index]
            newest = site._candidates[-1]
            assert newest[::2] == (site.rounds_processed, element)
            expected[index] = _survivors(
                [*expected[index], newest], capacity, site.rounds_processed - window
            )
            in_sample = sorted(expected[index], key=lambda entry: entry[1])[:capacity]
            assert site._candidates == expected[index]
            assert update.accepted == (newest in in_sample)
            assert list(site.sample) == [entry[2] for entry in in_sample]
            _assert_counts(site)
        assert len(sharded.sites) == 2

    @pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
    @pytest.mark.parametrize("capacity,window", [(1, 1), (4, 16), (8, 64)])
    def test_streaming_after_an_interleaved_merge(self, capacity, window, tied):
        """A coordinator's merge of random-routed sites treats each site's
        window as the trailing stretch of its own substream, so the merged
        window can hold one arrival index several times.  It keeps ingesting
        like any window: ``process`` and ``extend(updates=False)`` reach the
        same candidates, counts and sample, round after round."""
        data = _stream(40, n=200 + 2 * window)

        def site(rng):
            window_site = SlidingWindowSampler(capacity, window, seed=rng)
            if tied:
                window_site._rng = _TiedPriorities(int(rng.integers(2**16)), 200)
            return window_site

        sharded = ShardedSampler(4, site, strategy="random", seed=3)
        for element in data[:200]:
            sharded.process(element)
        merged = sharded.merged_sampler()
        if tied:
            merged._rng = _TiedPriorities(self.SEED, len(data))
        arrivals = [entry[0] for entry in merged._candidates]
        assert len(set(arrivals)) < len(arrivals)
        _assert_counts(merged)
        by_process, by_extend = copy.deepcopy(merged), copy.deepcopy(merged)
        for element in data[200:]:
            by_process.process(element)
            by_extend.extend([element], updates=False)
            assert by_process._candidates == by_extend._candidates
            assert by_process._counts == by_extend._counts
            assert by_process.sample == by_extend.sample
            _assert_counts(by_process)

    @pytest.mark.parametrize("capacity,window", GEOMETRIES)
    def test_tied_priorities_process_matches_reference(self, capacity, window):
        """Under forced ties, domination stays strict and acceptance counts
        equal priorities: the reference's strict ``<`` and stable sort."""
        data = _stream(38, n=600)
        sampler = SlidingWindowSampler(capacity, window, seed=self.SEED)
        sampler._rng = tied = _TiedPriorities(self.SEED, len(data))
        self._process_matches(sampler, tied.priorities.tolist(), data, capacity, window)

    @pytest.mark.parametrize("capacity,window", GEOMETRIES)
    @pytest.mark.parametrize("plan", CHUNK_PLANS)
    def test_tied_priorities_chunked_extend_matches_reference(self, capacity, window, plan):
        data = _stream(39)
        sampler = SlidingWindowSampler(capacity, window, seed=self.SEED)
        sampler._rng = tied = _TiedPriorities(self.SEED, len(data))
        _feed_chunks(sampler, data, plan)
        self._check_state(sampler, tied.priorities.tolist(), data, capacity, window)

    def _process_matches(self, sampler, priorities, data, capacity, window):
        """Feed ``data`` through ``process``, checking every acceptance and
        sample against the reference."""
        for t, element in enumerate(data, start=1):
            update = sampler.process(element)
            sample = _window_sample(priorities, capacity, window, t)
            assert update.accepted == (t in sample)
            assert list(sampler.sample) == [data[i - 1] for i in sample]
            # The candidate reference is quadratic in the window: spot-check it.
            if t % 37 == 0 or t == len(data):
                self._check_state(sampler, priorities, data, capacity, window)

    @staticmethod
    def _check_state(sampler, priorities, data, capacity, window):
        """Sample, candidates and counts equal the reference's after the
        sampler's last round."""
        t = sampler.rounds_processed
        sample = _window_sample(priorities, capacity, window, t)
        assert list(sampler.sample) == [data[i - 1] for i in sample]
        assert sampler._candidates == _window_candidates(priorities, data, capacity, window, t)
        _assert_counts(sampler)


class TestMisraGriesExtend:
    @pytest.mark.parametrize("plan", CHUNK_PLANS)
    def test_bit_identical_counters(self, plan):
        # Heavy-hitter-ish stream: a few frequent keys plus noise, which
        # exercises both the bulk path (all-tracked chunks) and the fallback.
        rng = np.random.default_rng(41)
        data = [int(v) for v in rng.zipf(1.3, size=1500) if v < 10_000]
        sequential = MisraGriesSummary(8)
        chunked = MisraGriesSummary(8)
        for element in data:
            sequential.update(element)
        _feed_chunks_sketch(chunked, data, plan)
        assert sequential._counters == chunked._counters
        assert sequential.count == chunked.count

    def test_all_distinct_stream_matches(self):
        data = list(range(500))
        sequential = MisraGriesSummary(5)
        chunked = MisraGriesSummary(5)
        for element in data:
            sequential.update(element)
        chunked.extend(data)
        assert sequential._counters == chunked._counters

    def test_frequency_guarantee_after_bulk(self):
        data = [1] * 400 + _stream(42, n=600, universe=50)
        summary = MisraGriesSummary(20)
        summary.extend(data)
        lower, upper = summary.frequency_bounds(1)
        true = data.count(1)
        assert lower <= true <= upper


class TestKLLExtend:
    @pytest.mark.parametrize("plan", CHUNK_PLANS)
    def test_bit_identical_compactors(self, plan):
        data = [float(v) for v in _stream(51, n=1500)]
        sequential = KLLSketch(64, seed=7)
        chunked = KLLSketch(64, seed=7)
        for value in data:
            sequential.update(value)
        _feed_chunks_sketch(chunked, data, plan)
        assert sequential._compactors == chunked._compactors
        assert sequential.count == chunked.count

    def test_rank_guarantee_after_bulk(self):
        rng = np.random.default_rng(52)
        data = [float(v) for v in rng.normal(size=4000)]
        sketch = KLLSketch(128, seed=1)
        sketch.extend(data)
        ordered = sorted(data)
        for q in (-1.0, 0.0, 1.0):
            true_rank = bisect.bisect_right(ordered, q)
            assert abs(sketch.rank_query(q) - true_rank) <= 3 * sketch.estimated_epsilon * len(data)


class TestGreenwaldKhannaExtend:
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_rank_guarantee_on_bulk_path(self, seed):
        """The bulk merge keeps the same rank guarantee as per-element
        insertion.

        ``rank_query`` reports the one-sided minimum rank, so the worst-case
        deviation the implementation guarantees — on either path — is
        ``2 * epsilon * n`` (the ``g + delta`` invariant), not ``epsilon * n``.
        """
        epsilon = 0.05
        rng = np.random.default_rng(seed)
        data = [float(v) for v in rng.integers(1, 1000, size=3000)]
        sequential = GreenwaldKhannaSketch(epsilon)
        for value in data:
            sequential.update(value)
        sketch = GreenwaldKhannaSketch(epsilon)
        sketch.extend(data)
        ordered = sorted(data)

        def worst_error(summary):
            worst = 0.0
            for q in range(0, 1001, 37):
                true_rank = bisect.bisect_right(ordered, float(q))
                worst = max(worst, abs(summary.rank_query(float(q)) - true_rank))
            return worst

        bound = 2 * epsilon * len(data)
        sequential_worst = worst_error(sequential)
        bulk_worst = worst_error(sketch)
        assert sequential_worst <= bound
        assert bulk_worst <= bound
        # The bulk path must not be meaningfully less accurate than the
        # per-element path on the same data.
        assert bulk_worst <= sequential_worst + 0.2 * epsilon * len(data)
        assert sketch.count == len(data)

    def test_quantiles_on_bulk_path(self):
        epsilon = 0.05
        sketch = GreenwaldKhannaSketch(epsilon)
        data = [float(v) for v in range(1, 5001)]
        np.random.default_rng(64).shuffle(data)
        sketch.extend(data)
        for fraction in (0.1, 0.5, 0.9):
            estimate = sketch.quantile_query(fraction)
            assert abs(estimate / 5000 - fraction) <= 2 * epsilon

    def test_memory_stays_sublinear_on_bulk_path(self):
        sketch = GreenwaldKhannaSketch(0.02)
        sketch.extend(float(v) for v in range(20_000))
        assert sketch.memory_footprint() < 4000

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_rank_guarantee_on_duplicate_heavy_streams(self, seed):
        """Regression: values tying the running maximum merge *before* the
        old max tuple, so they must take the interior uncertainty rule —
        delta=0 there understates the rank band and breaks the guarantee."""
        epsilon = 0.1
        rng = np.random.default_rng(seed)
        data = [float(v) for v in rng.integers(1, 10, size=3500)]
        sketch = GreenwaldKhannaSketch(epsilon)
        sketch.extend(data)
        ordered = sorted(data)
        worst = max(
            abs(sketch.rank_query(float(q)) - bisect.bisect_right(ordered, float(q)))
            for q in range(0, 11)
        )
        assert worst <= 2 * epsilon * len(data)

    def test_small_batches_match_sequential_exactly(self):
        data = [float(v) for v in _stream(65, n=60)]
        sequential = GreenwaldKhannaSketch(0.1)
        batched = GreenwaldKhannaSketch(0.1)
        for value in data:
            sequential.update(value)
        batched.extend(data)  # below _BULK_THRESHOLD: per-element rule
        assert sequential._tuples == batched._tuples


class TestMergeReduceExtend:
    @pytest.mark.parametrize("plan", CHUNK_PLANS)
    def test_bit_identical_buffers(self, plan):
        data = [float(v) for v in _stream(71, n=1500)]
        sequential = MergeReduceSummary(0.05)
        chunked = MergeReduceSummary(0.05)
        for value in data:
            sequential.update(value)
        _feed_chunks_sketch(chunked, data, plan)
        assert sequential._levels == chunked._levels
        assert sequential._pending == chunked._pending
        assert sequential.count == chunked.count


class TestChunkedGameEquivalence:
    """chunk_size=1 (one-element segments) vs default chunking, both runners."""

    def test_adaptive_game_bit_identical_for_bernoulli(self):
        def play(chunk_size):
            return run_adaptive_game(
                BernoulliSampler(0.05, seed=3),
                UniformAdversary(128, seed=4),
                5000,
                set_system=PrefixSystem(128),
                epsilon=0.5,
                chunk_size=chunk_size,
            )

        per_element = play(1)
        chunked = play(None)
        assert per_element.stream == chunked.stream
        assert per_element.sample == chunked.sample
        assert per_element.error == chunked.error
        assert chunked.updates == per_element.updates
        assert per_element.total_accepted == chunked.total_accepted

    def test_adaptive_game_bit_identical_for_weighted_reservoir(self):
        def play(chunk_size):
            return run_adaptive_game(
                WeightedReservoirSampler(32, seed=5),
                UniformAdversary(128, seed=6),
                4000,
                set_system=PrefixSystem(128),
                chunk_size=chunk_size,
                keep_updates=False,
            )

        per_element = play(1)
        chunked = play(777)
        assert per_element.stream == chunked.stream
        assert sorted(per_element.sample) == sorted(chunked.sample)
        assert per_element.error == chunked.error

    def test_continuous_game_bit_identical_for_bernoulli(self):
        def play(chunk_size):
            return run_continuous_game(
                BernoulliSampler(0.05, seed=7),
                UniformAdversary(128, seed=8),
                4000,
                set_system=PrefixSystem(128),
                epsilon=0.5,
                checkpoints=range(100, 4001, 100),
                chunk_size=chunk_size,
            )

        per_element = play(1)
        chunked = play(None)
        assert per_element.stream == chunked.stream
        assert per_element.checkpoint_errors == chunked.checkpoint_errors
        assert per_element.error == chunked.error
        assert chunked.updates == per_element.updates

    def test_continuous_game_reservoir_checkpoints_align(self):
        """Reservoir consumes bits in batch order (documented), but the
        checkpoint schedule and stream must be unaffected by chunking."""

        def play(chunk_size):
            return run_continuous_game(
                ReservoirSampler(32, seed=9),
                UniformAdversary(128, seed=10),
                3000,
                set_system=PrefixSystem(128),
                checkpoints=[64, 1000, 2500, 3000],
                chunk_size=chunk_size,
                keep_updates=False,
            )

        per_element = play(1)
        chunked = play(None)
        assert per_element.checkpoints == chunked.checkpoints == [64, 1000, 2500, 3000]
        assert per_element.stream == chunked.stream
        assert len(chunked.checkpoint_errors) == 4
        # Both paths draw from the same seeded generator over the same
        # stream, so sample sizes (state shape) agree even though the
        # realised reservoir contents may differ.
        assert per_element.sample_size == chunked.sample_size

    def test_static_adversary_segments_are_sliced_not_replayed(self):
        stream = list(range(1, 2001))
        per_element = run_adaptive_game(
            BernoulliSampler(0.1, seed=11), StaticAdversary(stream), 2000, chunk_size=1
        )
        chunked = run_adaptive_game(
            BernoulliSampler(0.1, seed=11), StaticAdversary(stream), 2000
        )
        assert per_element.stream == chunked.stream == stream
        assert per_element.sample == chunked.sample

    def test_chunked_updates_log_matches_per_element_log(self):
        per_element = run_adaptive_game(
            BernoulliSampler(0.2, seed=13),
            UniformAdversary(64, seed=14),
            1000,
            chunk_size=1,
        )
        chunked = run_adaptive_game(
            BernoulliSampler(0.2, seed=13),
            UniformAdversary(64, seed=14),
            1000,
            chunk_size=129,
        )
        assert isinstance(chunked.updates, UpdateBatch)
        assert chunked.updates == per_element.updates
        assert [u.round_index for u in chunked.updates] == list(range(1, 1001))
