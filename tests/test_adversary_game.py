"""Tests for the game runners (Figures 1 and 2) and the static adversaries."""

from __future__ import annotations

import pytest

from repro.adversary import (
    Adversary,
    BatchGameRunner,
    CadencedAdversary,
    GeneratorAdversary,
    SortedAdversary,
    StaticAdversary,
    UniformAdversary,
    ZipfAdversary,
    run_adaptive_game,
    run_continuous_game,
)
from repro.defenses import SketchSwitchingSampler
from repro.distributed import ShardedSampler
from repro.exceptions import ConfigurationError, StreamExhaustedError
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.setsystems import PrefixSystem
from repro.streams import uniform_stream


def _one(adversary, round_index):
    """The element a one-element block plans for ``round_index``."""
    return adversary.plan_block(round_index, 1, None)[0]


class TestStaticAdversaries:
    def test_static_adversary_replays_stream(self):
        adversary = StaticAdversary([5, 4, 3])
        elements = [_one(adversary, i) for i in range(1, 4)]
        assert elements == [5, 4, 3]

    def test_static_adversary_exhaustion(self):
        adversary = StaticAdversary([1])
        _one(adversary, 1)
        with pytest.raises(StreamExhaustedError):
            _one(adversary, 2)

    def test_static_adversary_reset(self):
        adversary = StaticAdversary([1, 2])
        _one(adversary, 1)
        adversary.reset()
        assert adversary.remaining == 2

    def test_empty_static_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticAdversary([])

    def test_uniform_adversary_stays_in_universe(self, rng):
        adversary = UniformAdversary(100, seed=rng)
        values = [_one(adversary, i) for i in range(1, 201)]
        assert all(1 <= value <= 100 for value in values)

    def test_sorted_adversary_is_identity(self):
        adversary = SortedAdversary()
        assert [_one(adversary, i) for i in (1, 2, 3)] == [1, 2, 3]

    def test_sorted_adversary_respects_universe_limit(self):
        adversary = SortedAdversary(universe_size=2)
        _one(adversary, 1)
        _one(adversary, 2)
        with pytest.raises(StreamExhaustedError):
            _one(adversary, 3)

    def test_zipf_adversary_heavy_tail(self, rng):
        adversary = ZipfAdversary(1000, exponent=1.5, seed=rng)
        values = [_one(adversary, i) for i in range(1, 501)]
        assert all(1 <= value <= 1000 for value in values)
        # Zipf streams concentrate on small values.
        assert sum(1 for value in values if value <= 5) > len(values) * 0.4

    def test_zipf_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            ZipfAdversary(100, exponent=1.0)

    def test_generator_adversary_reset_reproduces(self):
        adversary = GeneratorAdversary(lambda i, rng: int(rng.integers(0, 100)), seed=3)
        first = [_one(adversary, i) for i in range(1, 11)]
        adversary.reset()
        second = [_one(adversary, i) for i in range(1, 11)]
        assert first == second


class TestAdaptiveGame:
    def test_game_runs_requested_rounds(self, rng):
        result = run_adaptive_game(
            BernoulliSampler(0.5, seed=rng), UniformAdversary(50, seed=rng), 100
        )
        assert result.stream_length == 100
        assert len(result.updates) == 100

    def test_game_without_set_system_has_no_verdict(self, rng):
        result = run_adaptive_game(
            BernoulliSampler(0.5, seed=rng), UniformAdversary(50, seed=rng), 20
        )
        assert result.error is None
        assert result.succeeded is None

    def test_game_with_set_system_scores_error(self, rng):
        system = PrefixSystem(50)
        result = run_adaptive_game(
            ReservoirSampler(40, seed=rng),
            UniformAdversary(50, seed=rng),
            200,
            set_system=system,
            epsilon=0.5,
        )
        assert 0.0 <= result.error <= 1.0
        assert result.succeeded is True

    def test_epsilon_without_system_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            run_adaptive_game(
                BernoulliSampler(0.5, seed=rng),
                UniformAdversary(50, seed=rng),
                10,
                epsilon=0.1,
            )

    def test_invalid_stream_length_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            run_adaptive_game(
                BernoulliSampler(0.5, seed=rng), UniformAdversary(50, seed=rng), 0
            )

    def test_empty_final_sample_scores_error_one(self):
        system = PrefixSystem(50)
        result = run_adaptive_game(
            BernoulliSampler(1e-9, seed=0),
            UniformAdversary(50, seed=1),
            50,
            set_system=system,
            epsilon=0.2,
        )
        assert result.error == 1.0
        assert result.succeeded is False

    def test_keep_updates_false_drops_log(self, rng):
        result = run_adaptive_game(
            BernoulliSampler(0.5, seed=rng),
            UniformAdversary(50, seed=rng),
            30,
            keep_updates=False,
        )
        assert result.updates == []

    def test_total_accepted_counts_accept_events(self, rng):
        result = run_adaptive_game(
            BernoulliSampler(1.0, seed=rng), UniformAdversary(50, seed=rng), 25
        )
        assert result.total_accepted == 25

    def test_knowledge_oblivious_hides_state(self, rng):
        class Spy(UniformAdversary):
            # A decision every round that would read the sample, so the
            # spy sees what the knowledge model hands out each round.
            decision_period = 1
            decision_needs = "both"

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.seen = []

            def plan_block(self, round_index, count, observed_sample):
                self.seen.append(observed_sample)
                return super().plan_block(round_index, count, observed_sample)

        spy = Spy(10, seed=rng)
        run_adaptive_game(BernoulliSampler(0.5, seed=rng), spy, 10, knowledge="oblivious")
        assert len(spy.seen) == 10 and all(view is None for view in spy.seen)

    def test_knowledge_full_exposes_sample(self, rng):
        class Spy(Adversary):
            def __init__(self):
                self.seen_sizes = []

            def plan_block(self, round_index, count, observed_sample):
                # The view is live state; record its size at observation time.
                self.seen_sizes.append(
                    None if observed_sample is None else len(observed_sample)
                )
                return [round_index]

        spy = Spy()
        run_adaptive_game(BernoulliSampler(1.0, seed=rng), spy, 5, knowledge="full")
        # Before round i the sample holds i - 1 elements (probability 1 here).
        assert spy.seen_sizes == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("chunk_size", [1, 64, None])
    def test_oblivious_adversaries_read_no_sample(self, chunk_size):
        """Oblivious adversaries never look at the view, so under the full
        knowledge model the runner must not build it: a sharded deployment
        merges once (the final snapshot) and sketch switching never fires."""
        sharded = ShardedSampler(
            4, lambda rng: ReservoirSampler(16, seed=rng), strategy="hash", seed=1
        )
        run_adaptive_game(sharded, UniformAdversary(256, seed=2), 4096, chunk_size=chunk_size)
        assert sharded.ledger.events("merge") == 1
        switching = SketchSwitchingSampler(
            lambda rng: BernoulliSampler(0.05, seed=rng), copies=4, seed=3
        )
        run_adaptive_game(switching, ZipfAdversary(256, seed=4), 4096, chunk_size=chunk_size)
        assert switching.switches_used == 0


class TestContinuousGame:
    def test_checkpoints_default_to_geometric_schedule(self, rng):
        system = PrefixSystem(50)
        result = run_continuous_game(
            ReservoirSampler(30, seed=rng),
            UniformAdversary(50, seed=rng),
            200,
            set_system=system,
            epsilon=0.4,
        )
        assert result.checkpoints[0] == 1
        assert result.checkpoints[-1] == 200
        assert len(result.checkpoint_errors) == len(result.checkpoints)

    def test_explicit_checkpoints_respected(self, rng):
        system = PrefixSystem(50)
        result = run_continuous_game(
            ReservoirSampler(30, seed=rng),
            UniformAdversary(50, seed=rng),
            100,
            set_system=system,
            checkpoints=[10, 50, 100],
        )
        assert result.checkpoints == [10, 50, 100]

    def test_requested_checkpoints_each_record_an_error(self):
        """One error per requested checkpoint; the last one is the final
        sample scored against the whole stream."""
        system = PrefixSystem(40)
        stream = uniform_stream(120, 40, seed=3)
        sampler = ReservoirSampler(8, seed=4)
        result = run_continuous_game(
            sampler, StaticAdversary(stream), 120, set_system=system, checkpoints=[10, 50, 120]
        )
        assert result.checkpoints == [10, 50, 120]
        assert len(result.checkpoint_errors) == 3
        assert result.checkpoint_errors[-1] == system.max_discrepancy(stream, sampler.sample).error
        assert result.max_checkpoint_error == max(result.checkpoint_errors)

    def test_out_of_range_checkpoint_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            run_continuous_game(
                ReservoirSampler(5, seed=rng),
                UniformAdversary(50, seed=rng),
                20,
                set_system=PrefixSystem(50),
                checkpoints=[25],
            )

    def test_first_violation_and_success_flags(self, rng):
        system = PrefixSystem(50)
        result = run_continuous_game(
            ReservoirSampler(45, seed=rng),
            UniformAdversary(50, seed=rng),
            300,
            set_system=system,
            epsilon=0.5,
        )
        assert result.continuously_succeeded is True
        assert result.first_violation is None

    def test_violations_are_flagged_at_every_prefix(self):
        """Checked at every prefix, a reservoir scores 0 while it still holds
        the whole prefix; a 4-slot sample of a longer stream then misses the
        bound, and ``first_violation`` is the first checkpoint past it."""
        result = run_continuous_game(
            ReservoirSampler(4, seed=0),
            UniformAdversary(50, seed=1),
            200,
            set_system=PrefixSystem(50),
            epsilon=0.2,
            checkpoints=range(1, 201),
        )
        assert list(result.checkpoints) == list(range(1, 201))
        assert result.checkpoint_errors[:4] == [0.0] * 4
        violated = [
            checkpoint
            for checkpoint, error in zip(result.checkpoints, result.checkpoint_errors)
            if error > 0.2
        ]
        assert violated
        assert result.first_violation == violated[0]
        assert result.continuously_succeeded is False
        assert result.max_checkpoint_error == max(result.checkpoint_errors)

    def test_max_checkpoint_error_at_least_final_error(self, rng):
        system = PrefixSystem(50)
        result = run_continuous_game(
            ReservoirSampler(20, seed=rng),
            UniformAdversary(50, seed=rng),
            150,
            set_system=system,
            epsilon=0.4,
            checkpoints=list(range(1, 151)),
        )
        assert result.max_checkpoint_error >= result.error - 1e-12


def _play(runner, adversary, chunk_size=None, checkpoints=(10,)):
    sampler = BernoulliSampler(0.5, seed=0)
    if runner is run_continuous_game:
        return runner(sampler, adversary, 10, PrefixSystem(8), checkpoints=checkpoints,
                      chunk_size=chunk_size)
    return runner(sampler, adversary, 10, chunk_size=chunk_size)


class TestSegmentContract:
    """The chunked loop rejects segments that break the plan_block
    contract, and a cadenced adversary rejects an empty planned block."""

    class Segments(Adversary):
        name = "segments"
        decision_period = None

        def __init__(self, size):
            self.size = size

        def plan_block(self, round_index, count, observed_sample):
            return [1] * self.size(count)

    class Idle(CadencedAdversary):
        name = "idle"

        def plan_block(self, round_index, count, observed_sample):
            return []

    @pytest.mark.parametrize("runner", [run_adaptive_game, run_continuous_game])
    def test_empty_segment_rejected(self, runner):
        with pytest.raises(ConfigurationError, match="'segments' returned an empty segment at round 1"):
            _play(runner, self.Segments(lambda count: 0))

    @pytest.mark.parametrize("runner", [run_adaptive_game, run_continuous_game])
    def test_segment_longer_than_budget_rejected(self, runner):
        with pytest.raises(
            ConfigurationError, match="returned 5 elements for a segment budget of 4 at round 1"
        ):
            _play(runner, self.Segments(lambda count: count + 1), chunk_size=4)

    def test_budget_is_cut_at_the_next_checkpoint(self):
        with pytest.raises(
            ConfigurationError, match="returned 4 elements for a segment budget of 3 at round 1"
        ):
            _play(run_continuous_game, self.Segments(lambda count: count + 1), checkpoints=(3, 10))

    @pytest.mark.parametrize("runner", [run_adaptive_game, run_continuous_game])
    @pytest.mark.parametrize(
        "period, chunk_size, message",
        [
            (1, None, "'idle' returned an empty segment at round 1"),
            (1, 1, "'idle' returned an empty segment at round 1"),
            (4, None, "'idle' planned an empty decision block at round 1"),
            (4, 1, "'idle' planned an empty decision block at round 1"),
        ],
    )
    def test_empty_planned_block_rejected(self, runner, period, chunk_size, message):
        with pytest.raises(ConfigurationError, match=message):
            _play(runner, self.Idle(period), chunk_size=chunk_size)


class TestGameOptionsValidated:
    """A knowledge model outside ``KNOWLEDGE_MODELS`` or a given epsilon
    outside (0, 1) is rejected where a game starts, before any player moves."""

    class Untouchable(Adversary):
        name = "untouchable"

        def plan_block(self, round_index, count, observed_sample):
            raise AssertionError("the game started")

    BAD_OPTIONS = (
        pytest.param({"knowledge": "Full"}, id="knowledge-Full"),
        pytest.param({"knowledge": "bogus"}, id="knowledge-bogus"),
        pytest.param({"epsilon": 0.0}, id="epsilon-0"),
        pytest.param({"epsilon": -0.5}, id="epsilon-minus-half"),
        pytest.param({"epsilon": 1.0}, id="epsilon-1"),
    )
    REJECTED = "unknown knowledge model|epsilon must lie in"

    @pytest.mark.parametrize("options", BAD_OPTIONS)
    @pytest.mark.parametrize(
        "runner, schedule",
        [
            pytest.param(run_adaptive_game, {}, id="adaptive"),
            pytest.param(run_continuous_game, {"checkpoints": (5, 10)}, id="continuous"),
            pytest.param(run_continuous_game, {}, id="continuous-geometric"),
        ],
    )
    def test_runners_reject_before_playing(self, runner, schedule, options):
        sampler = BernoulliSampler(0.5, seed=0)
        with pytest.raises(ConfigurationError, match=self.REJECTED):
            runner(sampler, self.Untouchable(), 10, set_system=PrefixSystem(8), **schedule, **options)
        assert sampler.rounds_processed == 0

    @pytest.mark.parametrize("options", BAD_OPTIONS)
    @pytest.mark.parametrize("continuous", [False, True])
    def test_batch_runner_rejects_at_construction(self, continuous, options):
        with pytest.raises(ConfigurationError, match=self.REJECTED):
            BatchGameRunner(10, set_system=PrefixSystem(8), continuous=continuous, **options)
