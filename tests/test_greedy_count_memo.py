"""The greedy density attack's count memo and known-block counting.

``GreedyDensityAdversary`` memoises the observed sample's density on the
identity of a tuple view and counts a block of a fixed element from its
known membership.  Every game here is played twice from the same seeds:
once by the real attack and once by a test-local greedy that recounts the
whole stream and the whole observed sample at every decision.  The played
streams must be equal element for element, across samplers whose views are
cached tuples (Bernoulli, reservoir, sliding window), a fresh tuple per
read (a sharded reservoir), a changing serving copy (sketch switching, DP
aggregation) and one list mutated in place.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np
import pytest

from repro.adversary import (
    CadencedAdversary,
    GreedyDensityAdversary,
    MixingGreedyDensityAdversary,
    run_adaptive_game,
)
from repro.defenses import DPAggregateSampler, SketchSwitchingSampler
from repro.distributed import ShardedSampler
from repro.samplers import BernoulliSampler, ReservoirSampler, SlidingWindowSampler
from repro.setsystems import Prefix
from repro.setsystems.base import Range

_TARGET = Prefix(16)
_UNIVERSE = 64


class _RecountingGreedy(CadencedAdversary):
    """The greedy density rule with no memo and no running counts."""

    decision_needs = "sample"

    def __init__(
        self,
        target: Any,
        inside: Any,
        outside: Any,
        *,
        mixing: bool,
        widen: bool = True,
        decision_period: int = 1,
    ) -> None:
        super().__init__(decision_period)
        self.target = target
        self.suppliers = {
            send: spec if callable(spec) else (lambda spec=spec: spec)
            for send, spec in ((True, inside), (False, outside))
        }
        self.mixing, self.widen = mixing, widen
        self.stream: list[Any] = []

    def _density(self, elements: Sequence[Any]) -> float:
        if not elements:
            return 0.0
        return sum(element in self.target for element in elements) / len(elements)

    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        sample_density = self._density(list(observed_sample or ()))
        gap = 0.0 if observed_sample is None else self._density(self.stream) - sample_density
        if self.mixing and self.widen and gap == 0.0:
            sends = [(round_index + offset) % 2 == 1 for offset in range(count)]
        else:
            send = gap >= 0.0 if self.widen else gap >= 0.0 or sample_density == 0.0
            sends = [send] * count
        block = [self.suppliers[send]() for send in sends]
        self.stream.extend(block)
        return block


class _LiveListReservoir(ReservoirSampler):
    """A reservoir whose ``sample`` is its one stored list, mutated in place."""

    @property
    def sample(self) -> list[Any]:
        return self._sample


def _reservoir_sites(rng: np.random.Generator) -> ReservoirSampler:
    return ReservoirSampler(6, seed=rng)


def _bernoulli_copy(rng: np.random.Generator) -> BernoulliSampler:
    return BernoulliSampler(0.2, seed=rng)


def _reservoir_copy(rng: np.random.Generator) -> ReservoirSampler:
    return ReservoirSampler(8, seed=rng)


#: Sampler factories by label; each call builds a fresh sampler from ``seed``.
SAMPLERS: dict[str, Callable[[int], Any]] = {
    "bernoulli": lambda seed: BernoulliSampler(0.15, seed=seed),
    "reservoir": lambda seed: ReservoirSampler(10, seed=seed),
    "reservoir-fifo": lambda seed: ReservoirSampler(10, seed=seed, eviction="fifo"),
    "sharded-reservoir": lambda seed: ShardedSampler(
        3, _reservoir_sites, strategy="random", seed=seed
    ),
    "sliding-window": lambda seed: SlidingWindowSampler(8, 40, seed=seed),
    # Switches at the first read after round 1 and after round 10 x the
    # first exposure: the serving copy changes while the memo holds a view.
    "sketch-switching": lambda seed: SketchSwitchingSampler(
        _reservoir_copy, copies=3, growth=10.0, seed=seed
    ),
    "dp-aggregate": lambda seed: DPAggregateSampler(_bernoulli_copy, copies=3, seed=seed),
    "live-list": lambda seed: _LiveListReservoir(10, seed=seed),
}


def _drifting(seed: int) -> Callable[[], int]:
    """A supplier over the whole universe: mostly outside the target."""
    rng = np.random.default_rng(seed)
    return lambda: int(rng.integers(1, _UNIVERSE + 1))


def _pair(mixing: bool, period: int, inside: Any = 1, outside: Any = _UNIVERSE, widen: bool = True):
    """The real attack and its recounting twin; callable suppliers come as
    factories so that each twin draws from its own identical generator."""
    real_cls = MixingGreedyDensityAdversary if mixing else GreedyDensityAdversary

    def spec(value: Any, seed: int) -> Any:
        return value(seed) if callable(value) else value

    real = real_cls(
        _TARGET, spec(inside, 3), spec(outside, 4), widen=widen, decision_period=period
    )
    reference = _RecountingGreedy(
        _TARGET, spec(inside, 3), spec(outside, 4), mixing=mixing, widen=widen,
        decision_period=period,
    )
    return real, reference


def _streams(sampler: str, real: Any, reference: Any, n: int = 300, seed: int = 11):
    make = SAMPLERS[sampler]
    played = run_adaptive_game(make(seed), real, n, keep_updates=False).stream
    expected = run_adaptive_game(make(seed), reference, n, keep_updates=False).stream
    return played, expected


class TestAgainstRecountingGreedy:
    @pytest.mark.parametrize("period", [1, 7])
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_mixing_greedy_streams_are_equal(self, sampler, period):
        played, expected = _streams(sampler, *_pair(True, period))
        assert played == expected
        # The attack really reacted: both directions were played.
        assert 1 in played and _UNIVERSE in played

    @pytest.mark.parametrize("period", [1, 7])
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_callable_supplier_out_of_range(self, sampler, period):
        """The plain greedy with an in-range supplier that mostly returns
        elements outside the target: its blocks are counted element by
        element, and the gap it opens makes the attack react."""
        played, expected = _streams(sampler, *_pair(False, period, inside=_drifting))
        assert played == expected
        assert any(element not in _TARGET for element in played if element != _UNIVERSE)

    @pytest.mark.parametrize("period", [1, 7])
    @pytest.mark.parametrize("sampler", ["bernoulli", "reservoir", "live-list"])
    def test_one_sided_mode(self, sampler, period):
        played, expected = _streams(sampler, *_pair(False, period, widen=False))
        assert played == expected

    @pytest.mark.parametrize("sampler", ["reservoir", "bernoulli"])
    def test_reset_between_two_games(self, sampler):
        real, reference = _pair(True, 1)
        run_adaptive_game(SAMPLERS[sampler](5), real, 200, keep_updates=False)
        real.reset()
        played = run_adaptive_game(SAMPLERS[sampler](6), real, 200, keep_updates=False).stream
        expected = run_adaptive_game(SAMPLERS[sampler](6), reference, 200, keep_updates=False).stream
        assert played == expected

    @pytest.mark.parametrize("period", [1, 7])
    def test_sketch_switching_serves_a_new_copy_mid_game(self, period):
        real, _ = _pair(True, period)
        sampler = SAMPLERS["sketch-switching"](11)
        run_adaptive_game(sampler, real, 300, keep_updates=False)
        assert sampler.switches_used == 2


class _CountingPrefix(Range):
    """A prefix range that records every ``count_in`` call."""

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.counted: list[int] = []

    def __contains__(self, element: Any) -> bool:
        return element <= self.bound

    def count_in(self, elements: Any) -> int:
        elements = list(elements)
        self.counted.append(len(elements))
        return sum(element <= self.bound for element in elements)


class _ViewRecordingGreedy(MixingGreedyDensityAdversary):
    """The mixing greedy, keeping every sample it is handed (so no two
    distinct views can share an identity)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.seen: list[Any] = []

    def plan_block(self, round_index: int, count: int, observed_sample: Any) -> list[Any]:
        self.seen.append(observed_sample)
        return super().plan_block(round_index, count, observed_sample)


class TestCountMemo:
    def test_a_tuple_is_counted_once_until_it_changes(self):
        target = _CountingPrefix(10)
        adversary = GreedyDensityAdversary(target, 1, 99)
        sample = (1, 2, 50)
        for _ in range(3):
            assert adversary._sample_density(sample) == pytest.approx(2 / 3)
        assert target.counted == [3]
        equal = tuple([1, 2, 50])  # equal to ``sample`` but another object
        assert adversary._sample_density(equal) == pytest.approx(2 / 3)
        assert target.counted == [3, 3]

    def test_a_list_is_recounted_every_time(self):
        target = _CountingPrefix(10)
        adversary = GreedyDensityAdversary(target, 1, 99)
        sample = [1, 2, 50]
        adversary._sample_density(sample)
        sample.append(3)
        assert adversary._sample_density(sample) == pytest.approx(3 / 4)
        assert target.counted == [3, 4]

    def test_reset_clears_the_memo(self):
        target = _CountingPrefix(10)
        adversary = GreedyDensityAdversary(target, 1, 99)
        sample = (1, 50)
        adversary._sample_density(sample)
        adversary.reset()
        adversary._sample_density(sample)
        assert target.counted == [2, 2]

    def test_fixed_elements_are_never_counted_but_callables_are(self):
        target = _CountingPrefix(10)
        fixed = GreedyDensityAdversary(target, 1, 99, decision_period=5)
        fixed.plan_block(1, 5, ())
        assert target.counted == []
        assert (fixed._stream_hits, fixed._stream_length) == (5, 5)
        supplied = GreedyDensityAdversary(target, lambda: 50, 99, decision_period=5)
        assert supplied.plan_block(1, 5, ()) == [50] * 5
        assert target.counted == [5]
        assert (supplied._stream_hits, supplied._stream_length) == (0, 5)

    def test_a_period_one_game_counts_each_window_view_once(self):
        """A window hands out one tuple per change of its sample, so the
        attack counts each view it is handed once, and far fewer views than
        decisions."""
        target = _CountingPrefix(_UNIVERSE // 4)
        adversary = _ViewRecordingGreedy(target, 1, _UNIVERSE)
        run_adaptive_game(SlidingWindowSampler(8, 200, seed=0), adversary, 2_000, keep_updates=False)
        assert all(type(view) is tuple for view in adversary.seen)
        views = {id(view) for view in adversary.seen if view}
        assert len(target.counted) == len(views) < len(adversary.seen) // 4

    def test_a_period_one_game_counts_each_reservoir_sample_once(self):
        """The per-decision cost: one count per change of the sample, not
        one per round."""
        target = _CountingPrefix(_UNIVERSE // 4)
        sampler = ReservoirSampler(16, seed=0)
        adversary = MixingGreedyDensityAdversary(target, 1, _UNIVERSE)
        run_adaptive_game(sampler, adversary, 2_000, keep_updates=False)
        assert len(target.counted) <= sampler.total_accepted < 2_000 // 10
