"""Tests for the incremental discrepancy trackers (continuous-game fast path).

The central property: at every checkpoint of every stream, the tracker's
reported error equals the batch ``max_discrepancy`` recomputation on the same
prefix and sample — verified both directly (property tests over random
streams) and end to end through ``run_continuous_game`` on random and
adversarial streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import (
    GreedyDensityAdversary,
    ThresholdAttackAdversary,
    UniformAdversary,
    run_continuous_game,
)
from repro.exceptions import EmptySampleError, TrackerUnsupportedError
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.setsystems import (
    ContinuousPrefixSystem,
    DenseCountTracker,
    ExplicitSetSystem,
    IntervalSystem,
    Prefix,
    PrefixSystem,
    SingletonSystem,
)

FAST = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

UNIVERSE = 16
elements = st.integers(min_value=1, max_value=UNIVERSE)
streams = st.lists(elements, min_size=1, max_size=80)
samples = st.lists(elements, min_size=1, max_size=20)

SYSTEMS = [PrefixSystem, IntervalSystem, SingletonSystem]


class TestTrackerMatchesBatchRecomputation:
    @FAST
    @given(stream=streams, sample=samples, data=st.data())
    @pytest.mark.parametrize("system_cls", SYSTEMS)
    def test_checkpoint_equals_max_discrepancy_on_random_streams(
        self, system_cls, stream, sample, data
    ):
        """Tracker error == batch recomputation at an arbitrary prefix."""
        system = system_cls(UNIVERSE)
        tracker = system.make_tracker()
        assert tracker is not None
        cut = data.draw(st.integers(min_value=1, max_value=len(stream)))
        for element in stream[:cut]:
            tracker.add(element)
        incremental = tracker.checkpoint(sample)
        batch = system.max_discrepancy(stream[:cut], sample)
        assert incremental.error == batch.error  # bit-identical by design
        assert incremental.exact

    @FAST
    @given(stream=streams, sample=samples)
    @pytest.mark.parametrize("system_cls", SYSTEMS)
    def test_checkpoint_at_every_prefix(self, system_cls, stream, sample):
        """Equality holds at *all* prefixes of one growing stream."""
        system = system_cls(UNIVERSE)
        tracker = system.make_tracker()
        for cut, element in enumerate(stream, start=1):
            tracker.add(element)
            assert (
                tracker.checkpoint(sample).error
                == system.max_discrepancy(stream[:cut], sample).error
            )

    @pytest.mark.parametrize("system_cls", SYSTEMS)
    def test_witness_achieves_reported_error(self, system_cls, rng):
        system = system_cls(64)
        tracker = system.make_tracker()
        stream = [int(x) for x in rng.integers(1, 65, size=400)]
        sample = stream[::13]
        tracker.add_batch(stream)
        report = tracker.checkpoint(sample)
        witnessed = abs(
            system.density(report.witness, stream) - system.density(report.witness, sample)
        )
        assert witnessed == pytest.approx(report.error, abs=1e-12)


class TestContinuousGameEquivalence:
    @pytest.mark.parametrize("system_cls", SYSTEMS)
    def test_random_stream_checkpoint_errors_identical(self, system_cls):
        system = system_cls(50)
        kwargs = dict(
            stream_length=400,
            set_system=system,
            epsilon=0.4,
            checkpoints=list(range(1, 401, 7)),
        )
        with_tracker = run_continuous_game(
            ReservoirSampler(25, seed=3), UniformAdversary(50, seed=4), **kwargs
        )
        without_tracker = run_continuous_game(
            ReservoirSampler(25, seed=3),
            UniformAdversary(50, seed=4),
            incremental=False,
            **kwargs,
        )
        assert with_tracker.checkpoint_errors == without_tracker.checkpoint_errors
        assert with_tracker.error == without_tracker.error

    def test_adversarial_stream_checkpoint_errors_identical(self):
        """The greedy density attack (adaptive, feedback-driven) as workload."""
        system = PrefixSystem(128)

        def play(incremental: bool):
            return run_continuous_game(
                ReservoirSampler(10, seed=11),
                GreedyDensityAdversary(Prefix(64), 1, 128),
                300,
                set_system=system,
                epsilon=0.3,
                checkpoint_ratio=0.05,
                incremental=incremental,
            )

        assert play(True).checkpoint_errors == play(False).checkpoint_errors

    def test_bernoulli_empty_prefix_sample_scores_one(self):
        """Empty snapshots bypass the tracker and score error 1.0 either way."""
        system = PrefixSystem(32)
        result = run_continuous_game(
            BernoulliSampler(1e-9, seed=0),
            UniformAdversary(32, seed=1),
            50,
            set_system=system,
            checkpoints=[1, 10, 50],
        )
        assert result.checkpoint_errors == [1.0, 1.0, 1.0]

    def test_figure3_huge_universe_falls_back_to_batch_path(self):
        """The Figure-3 attack uses a 2^Θ(n) universe: no dense tracker fits.

        ``make_tracker`` refuses the universe, the game silently uses the
        batch path, and results equal the explicitly non-incremental run.
        """
        n, k = 120, 4
        universe_size = 2 ** (n // k + 2)
        system = PrefixSystem(universe_size)
        assert system.make_tracker() is None

        def play(incremental: bool):
            return run_continuous_game(
                ReservoirSampler(k, seed=5),
                ThresholdAttackAdversary.for_reservoir(k, n, universe_size=universe_size),
                n,
                set_system=system,
                checkpoints=[n // 4, n // 2, n],
                incremental=incremental,
            )

        assert play(True).checkpoint_errors == play(False).checkpoint_errors


class TestTrackerEdgeCases:
    def test_out_of_universe_element_raises_and_leaves_state_intact(self):
        tracker = PrefixSystem(8).make_tracker()
        tracker.add(3)
        for bad in (0, 9, -1, 2.5, "x", None):
            with pytest.raises(TrackerUnsupportedError):
                tracker.add(bad)
        assert tracker.stream_length == 1
        assert tracker.checkpoint([3]).error == 0.0

    def test_game_falls_back_when_stream_leaves_universe(self):
        """An adversary may submit data the tracker cannot index mid-stream."""
        from repro.adversary import StaticAdversary

        system = PrefixSystem(16)
        stream = [1, 5, 9, 2.5, 13, 4]  # 2.5 is not a universe element
        kwargs = dict(
            stream_length=len(stream),
            set_system=system,
            checkpoints=[2, len(stream)],
        )
        with_tracker = run_continuous_game(
            ReservoirSampler(4, seed=2), StaticAdversary(stream), **kwargs
        )
        without_tracker = run_continuous_game(
            ReservoirSampler(4, seed=2),
            StaticAdversary(stream),
            incremental=False,
            **kwargs,
        )
        assert with_tracker.checkpoint_errors == without_tracker.checkpoint_errors

    def test_add_batch_equals_repeated_add(self, rng):
        stream = [int(x) for x in rng.integers(1, 33, size=200)]
        one = PrefixSystem(32).make_tracker()
        other = PrefixSystem(32).make_tracker()
        for element in stream:
            one.add(element)
        other.add_batch(stream)
        sample = stream[::9]
        assert one.checkpoint(sample).error == other.checkpoint(sample).error
        assert one.stream_length == other.stream_length == 200

    def test_reset_forgets_the_stream(self):
        tracker = SingletonSystem(8).make_tracker()
        tracker.add_batch([1, 1, 1, 2])
        tracker.reset()
        assert tracker.stream_length == 0
        tracker.add(5)
        assert tracker.checkpoint([5]).error == 0.0

    def test_empty_sample_rejected(self):
        tracker = IntervalSystem(8).make_tracker()
        tracker.add(1)
        with pytest.raises(EmptySampleError):
            tracker.checkpoint([])

    def test_systems_without_incremental_algorithms_return_none(self):
        assert ContinuousPrefixSystem().make_tracker() is None
        assert ExplicitSetSystem.prefixes(6).make_tracker() is None
        assert PrefixSystem(DenseCountTracker.MAX_DENSE_UNIVERSE + 1).make_tracker() is None

    def test_dense_tracker_declined_for_short_streams_over_huge_universes(self):
        """O(N) checkpoints would lose to the O(n log n) batch path there."""
        huge = PrefixSystem(DenseCountTracker.MAX_DENSE_UNIVERSE)
        assert huge.make_tracker(stream_length=1_000) is None
        # A stream long enough to amortise the dense arrays gets the tracker.
        assert huge.make_tracker(stream_length=DenseCountTracker.MAX_DENSE_UNIVERSE) is not None
        # Small universes always qualify, whatever the stream length.
        assert PrefixSystem(1024).make_tracker(stream_length=10) is not None


class TestVectorisedIndexing:
    """A batch, or a checkpoint's sample, of exact ``int`` is indexed with
    one numpy conversion; anything else goes through ``_index`` element by
    element.  Both routes must accept, count and reject exactly alike."""

    @pytest.mark.parametrize(
        "elements",
        [
            [3, 7],
            [3.0, 4],
            [True, 2],
            [np.int64(5), np.int32(16), np.uint8(1)],
            (1, UNIVERSE, UNIVERSE, 2),
            range(1, UNIVERSE + 1),
        ],
        ids=["ints", "floats", "bool", "numpy-ints", "tuple", "range"],
    )
    @pytest.mark.parametrize("system_cls", SYSTEMS)
    def test_equals_per_element_index(self, system_cls, elements):
        one = system_cls(UNIVERSE).make_tracker()
        other = system_cls(UNIVERSE).make_tracker()
        expected = [one._index(element) for element in elements]
        assert one._indices(elements).tolist() == expected
        for element in elements:
            one.add(element)
        other.add_batch(elements)
        assert one.stream_length == other.stream_length == len(expected)
        assert one._counts.tolist() == other._counts.tolist()
        sample_counts = np.bincount(expected, minlength=UNIVERSE)
        assert one._sample_counts(elements).tolist() == sample_counts.tolist()

    @pytest.mark.parametrize(
        "bad",
        [[0], [UNIVERSE + 1], [2.5], ["7"], [2**70], [-1], [3, 0], [4, 2**70, 5]],
        ids=["zero", "above", "fraction", "string", "huge", "negative", "then-zero", "then-huge"],
    )
    def test_rejection_changes_nothing(self, bad):
        tracker = PrefixSystem(UNIVERSE).make_tracker()
        tracker.add_batch([1, 5, 9])
        counts = tracker._counts.tolist()
        before = tracker.checkpoint([5, 9])
        offender = next(element for element in bad if not self._indexable(tracker, element))
        with pytest.raises(TrackerUnsupportedError) as expected:
            tracker._index(offender)
        for call in (tracker.add_batch, tracker.checkpoint):
            with pytest.raises(TrackerUnsupportedError) as raised:
                call(bad)
            assert str(raised.value) == str(expected.value)
            assert tracker.stream_length == 3
            assert tracker._counts.tolist() == counts
        after = tracker.checkpoint([5, 9])
        assert (after.error, after.witness) == (before.error, before.witness)

    @staticmethod
    def _indexable(tracker, element) -> bool:
        try:
            tracker._index(element)
        except TrackerUnsupportedError:
            return False
        return True

