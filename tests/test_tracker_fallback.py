"""The continuous game's tracker fallback paths, pinned to batch recomputation.

``run_continuous_game`` prefers the incremental :class:`DiscrepancyTracker`
but must *silently* degrade to the batch ``max_discrepancy`` path in two
situations, always with identical reported errors:

* the set system has no incremental algorithm at all (rectangles, halfspaces,
  explicitly enumerated systems) — ``make_tracker`` returns ``None``;
* the system has a tracker but the stream carries an element the tracker
  cannot index (outside the universe, non-integral, astronomically large) —
  the tracker raises ``TrackerUnsupportedError`` when the runner feeds it
  that element, at the next checkpoint, and the runner recomputes that and
  every later checkpoint from the stream.
"""

from __future__ import annotations

import pytest

from repro.adversary import StaticAdversary, run_continuous_game
from repro.exceptions import TrackerUnsupportedError
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.setsystems import (
    ExplicitSetSystem,
    HalfspaceSystem,
    IntervalSystem,
    PrefixSystem,
    RectangleSystem,
    SingletonSystem,
)
from repro.streams import clustered_points, uniform_stream

CHECKPOINTS = (8, 16, 32, 48, 64)
N = 64


def _play(system, stream, seed=7):
    """One continuous game per incremental flag, on the identical stream."""
    results = []
    for incremental in (True, False):
        results.append(
            run_continuous_game(
                ReservoirSampler(12, seed=seed),
                StaticAdversary(stream),
                len(stream),
                set_system=system,
                epsilon=0.5,
                checkpoints=CHECKPOINTS,
                incremental=incremental,
            )
        )
    return results


def _assert_identical(tracked, batch):
    assert tracked.checkpoint_errors == batch.checkpoint_errors
    assert tracked.error == batch.error
    assert tracked.succeeded == batch.succeeded


class TestSystemsWithoutTrackers:
    """Rectangles, halfspaces and discrete systems never get a tracker."""

    def test_rectangle_system_declines_tracker(self):
        assert RectangleSystem(8, 2, seed=0).make_tracker(64) is None

    def test_halfspace_system_declines_tracker(self):
        assert HalfspaceSystem(8, 2, directions=16, seed=0).make_tracker(64) is None

    def test_explicit_system_declines_tracker(self):
        assert ExplicitSetSystem.prefixes(12).make_tracker(64) is None

    def test_rectangle_continuous_game_matches_batch(self):
        stream = clustered_points(N, side=8, dimension=2, clusters=3, seed=5)
        tracked, batch = _play(RectangleSystem(8, 2, seed=0), stream)
        _assert_identical(tracked, batch)

    def test_halfspace_continuous_game_matches_batch(self):
        stream = clustered_points(N, side=8, dimension=2, clusters=3, seed=5)
        tracked, batch = _play(HalfspaceSystem(8, 2, directions=16, seed=0), stream)
        _assert_identical(tracked, batch)

    def test_explicit_continuous_game_matches_batch(self):
        stream = uniform_stream(N, 12, seed=3)
        tracked, batch = _play(ExplicitSetSystem.prefixes(12), stream)
        _assert_identical(tracked, batch)


@pytest.mark.parametrize("bad_element", [0, -3, N + 17, 2.5, 2**200])
@pytest.mark.parametrize(
    "system_factory", [PrefixSystem, IntervalSystem, SingletonSystem]
)
class TestMidStreamFallback:
    """An unindexable element mid-stream deactivates the tracker in place."""

    def test_matches_batch_after_midstream_deactivation(self, system_factory, bad_element):
        system = system_factory(N)
        assert system.make_tracker(N) is not None, "precondition: system has a tracker"
        stream = uniform_stream(N, N, seed=11)
        # The offending element lands between the 2nd and 3rd checkpoints, so
        # some checkpoints are answered by the live tracker and the rest by
        # the batch fallback within the same game.
        stream[20] = bad_element
        tracked, batch = _play(system, stream)
        _assert_identical(tracked, batch)

    def test_tracker_add_raises_and_preserves_state(self, system_factory, bad_element):
        tracker = system_factory(N).make_tracker(N)
        good_prefix = [1, 5, 9, 13]
        tracker.add_batch(good_prefix)
        before = tracker.checkpoint([5, 9])
        with pytest.raises(TrackerUnsupportedError):
            tracker.add(bad_element)
        # State is untouched: same length, same checkpoint answer.
        assert tracker.stream_length == len(good_prefix)
        after = tracker.checkpoint([5, 9])
        assert after.error == before.error
        assert after.witness == before.witness


class TestFallbackBeforeFirstCheckpoint:
    def test_bad_first_element_falls_back_for_every_checkpoint(self):
        system = PrefixSystem(N)
        stream = uniform_stream(N, N, seed=2)
        stream[0] = 2**200  # tracker dies on round 1, before any checkpoint
        tracked, batch = _play(system, stream)
        _assert_identical(tracked, batch)

    def test_huge_integer_streams_use_exact_batch_path(self):
        # The Figure-3 regime: elements far beyond 2^53.  The tracker cannot
        # index them, and the batch path must route to exact arithmetic —
        # both flags must agree on every checkpoint.
        base = 2**120
        stream = [base + i for i in uniform_stream(N, N, seed=4)]
        tracked, batch = _play(PrefixSystem(2**130), stream)
        _assert_identical(tracked, batch)


@pytest.mark.parametrize("bad_element", [None, 0, N + 17, 2.5, 2**200])
class TestCheckpointTimeJudging:
    """The runner feeds the tracker only when it judges a checkpoint: one
    ``add`` or ``add_batch`` call with everything played since the last
    judgement.  Neither that nor the chunking may move any error."""

    @staticmethod
    def _errors(stream, checkpoints, chunk_size, incremental):
        result = run_continuous_game(
            BernoulliSampler(0.5, seed=3),  # extend is bit-identical to process
            StaticAdversary(stream),
            len(stream),
            set_system=PrefixSystem(N),
            checkpoints=checkpoints,
            incremental=incremental,
            chunk_size=chunk_size,
        )
        return result.checkpoint_errors + [result.error]

    @pytest.mark.parametrize("checkpoints", [CHECKPOINTS, range(1, N + 1)], ids=["sparse", "every"])
    def test_errors_agree_across_chunk_sizes_and_paths(self, bad_element, checkpoints):
        stream = uniform_stream(N, N, seed=11)
        if bad_element is not None:
            stream[20] = bad_element
        reference = self._errors(stream, checkpoints, 1, incremental=False)
        for chunk_size in (1, 7, None):
            for incremental in (True, False):
                assert self._errors(stream, checkpoints, chunk_size, incremental) == reference
