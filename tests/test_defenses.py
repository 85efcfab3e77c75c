"""Tests for the composable robust-defense wrappers (``repro.defenses``).

Two layers:

* **Wrapper mechanics** — construction validation, chunked/per-element
  parity, idempotent reads, the sketch-switching schedule, DP query
  determinism, rotation arithmetic, copy-wise merging and space accounting.
* **Flattening pins** — the headline acceptance claim: at *matched total
  space* (the defense's per-copy budget is the undefended budget divided by
  the copy count), each defense flattens the **attack-induced excess** of
  ``attacked_peak_discrepancy`` over the same configuration's benign
  (zero-budget) baseline, in at least three attack scenarios per wrapper.
  The excess comparison is the flattening statement: replication buys the
  defense a higher *static* (benign) error floor at matched space, and the
  defense earns its keep by making the adversary's *marginal* contribution
  smaller than against the undefended sampler — in the starred cases below
  the defended configuration beats the undefended one on the raw attacked
  peak outright, static handicap included.

  The pinned games are endpoint games (``continuous=False``), where
  ``attacked_peak_discrepancy`` is the final-state error: the conditioning
  an adaptive adversary accumulates over the whole stream, free of the
  small-sample noise that dominates early-checkpoint peaks.  All runs are
  bit-reproducible, so the inequalities are exact at the pinned seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses import (
    DPAggregateSampler,
    DifferenceEstimatorSampler,
    ReplicatedDefenseSampler,
    SketchSwitchingSampler,
)
from repro.exceptions import ConfigurationError
from repro.rng import ensure_generator
from repro.samplers import BernoulliSampler, ReservoirSampler, SlidingWindowSampler
from repro.scenarios import ScenarioConfig, run_config
from repro.scenarios.builders import (
    SamplerFromSpec,
    build_defended_sampler,
    matched_space_spec,
    oversampled_spec,
)


def bernoulli_factory(rng: np.random.Generator) -> BernoulliSampler:
    return BernoulliSampler(0.2, seed=rng)


def window_factory(rng: np.random.Generator) -> SlidingWindowSampler:
    return SlidingWindowSampler(8, 32, seed=rng)


def reservoir_factory(rng: np.random.Generator) -> ReservoirSampler:
    return ReservoirSampler(16, seed=rng)


WRAPPERS = {
    "sketch_switching": SketchSwitchingSampler,
    "dp_aggregate": DPAggregateSampler,
    "difference_estimator": DifferenceEstimatorSampler,
}


def make_wrapper(kind: str, factory=None, seed: int = 5, **kwargs):
    if factory is None:
        factory = window_factory if kind == "difference_estimator" else bernoulli_factory
    return WRAPPERS[kind](factory, seed=seed, **kwargs)


class TestConstruction:
    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_requires_at_least_two_copies(self, kind):
        with pytest.raises(ConfigurationError):
            make_wrapper(kind, copies=1)

    def test_sketch_growth_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            SketchSwitchingSampler(bernoulli_factory, growth=1.0, seed=1)

    def test_dp_epsilon_and_scale_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DPAggregateSampler(bernoulli_factory, dp_epsilon=0.0, seed=1)
        with pytest.raises(ConfigurationError):
            DPAggregateSampler(bernoulli_factory, value_scale=-1.0, seed=1)

    def test_difference_estimator_requires_a_window(self):
        with pytest.raises(ConfigurationError, match="sliding-window"):
            DifferenceEstimatorSampler(bernoulli_factory, seed=1)

    def test_factory_must_produce_stream_samplers(self):
        with pytest.raises(ConfigurationError, match="not a StreamSampler"):
            SketchSwitchingSampler(lambda rng: object(), seed=1)

    def test_rotation_period_defaults_to_the_window(self):
        wrapper = DifferenceEstimatorSampler(window_factory, seed=1)
        assert wrapper.rotation_period == 32
        with pytest.raises(ConfigurationError):
            DifferenceEstimatorSampler(window_factory, rotation_period=0, seed=1)

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_name_reports_kind_copies_and_inner(self, kind):
        wrapper = make_wrapper(kind, copies=3)
        assert wrapper.name.startswith(f"{kind}-3x-")


class TestStreamingParity:
    """Chunked extend == per-element processing, for every wrapper.

    (Pinned with Bernoulli / sliding-window inners, whose extend kernels are
    bit-identical to their per-element paths repo-wide.)
    """

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_extend_matches_per_element(self, kind):
        elements = list(range(1, 201))
        chunked = make_wrapper(kind, seed=9)
        stepwise = make_wrapper(kind, seed=9)
        batch = chunked.extend(elements)
        updates = [stepwise.process(element) for element in elements]
        assert list(batch.accepted) == [u.accepted for u in updates]
        assert chunked.sample == stepwise.sample
        assert chunked.rounds_processed == stepwise.rounds_processed

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_extend_is_segmentation_independent(self, kind):
        elements = list(range(1, 301))
        whole = make_wrapper(kind, seed=3)
        pieces = make_wrapper(kind, seed=3)
        whole_batch = whole.extend(elements)
        accepted = []
        for start in range(0, 300, 77):
            segment_batch = pieces.extend(elements[start : start + 77])
            accepted.extend(segment_batch.accepted)
        assert list(whole_batch.accepted) == accepted
        assert whole.sample == pieces.sample

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_list_tuple_and_generator_input_leave_identical_state(self, kind):
        """A list reaches the copies uncopied; a tuple or a one-shot
        generator is read once, so every copy still sees every element."""

        def state(convert):
            wrapper = make_wrapper(kind, seed=6)
            batch = wrapper.extend(convert(range(1, 151)))
            wrapper.extend(convert(range(151, 301)), updates=False)
            samples = [list(copy_.sample) for copy_ in wrapper.copy_samplers]
            return list(batch.accepted), samples, wrapper.rounds_processed

        def generator(values):
            return (value for value in values)

        assert state(list) == state(tuple) == state(generator)
        assert state(list)[2] == 300

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_empty_and_updateless_extends(self, kind):
        wrapper = make_wrapper(kind, seed=2)
        assert len(wrapper.extend([])) == 0
        assert wrapper.extend([], updates=False) is None
        assert wrapper.extend([1, 2, 3], updates=False) is None
        assert wrapper.rounds_processed == 3

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_reads_are_idempotent(self, kind):
        wrapper = make_wrapper(kind, seed=4)
        wrapper.extend(list(range(1, 101)))
        assert wrapper.sample == wrapper.sample
        assert wrapper.snapshot() == wrapper.snapshot()


class TestSketchSwitchingSchedule:
    def test_switches_only_after_exposure_and_growth(self):
        wrapper = SketchSwitchingSampler(bernoulli_factory, copies=3, growth=2.0, seed=1)
        wrapper.extend(list(range(1, 11)), updates=False)
        assert wrapper.switches_used == 0
        wrapper.sample  # exposure at round 10
        assert wrapper.switches_used == 0
        wrapper.extend(list(range(11, 20)), updates=False)
        wrapper.sample  # round 19 < 2 * 10: still the same copy
        assert wrapper.switches_used == 0
        wrapper.extend([20], updates=False)
        wrapper.sample  # round 20 >= 2 * 10: switch fires
        assert wrapper.switches_used == 1

    def test_unexposed_copies_never_switch(self):
        wrapper = SketchSwitchingSampler(bernoulli_factory, copies=3, seed=1)
        wrapper.extend(list(range(1, 1001)), updates=False)
        assert wrapper.switches_used == 0

    def test_switch_budget_exhausts_gracefully(self):
        wrapper = SketchSwitchingSampler(bernoulli_factory, copies=2, growth=1.5, seed=1)
        for start in range(0, 200, 10):
            wrapper.extend(list(range(start, start + 10)), updates=False)
            wrapper.sample
        assert wrapper.switches_used == 1  # R - 1 switches, then the last copy holds
        assert wrapper.sample == wrapper.copy_samplers[1].sample

    def test_size_reads_are_no_exposure(self):
        """Sizing the wrapper shows no sample: neither ``degradation_report``
        nor ``sample_size`` starts an exposure epoch or spends a switch,
        while a ``sample`` read still exposes the serving copy."""
        wrapper = SketchSwitchingSampler(lambda rng: ReservoirSampler(4, seed=rng), copies=3, seed=1)
        wrapper.extend(list(range(49)))
        assert wrapper.degradation_report()["sample_size"] == 4
        assert wrapper._exposed_round is None
        wrapper.extend(list(range(59)))
        assert wrapper.sample_size == 4
        assert (wrapper._exposed_round, wrapper.switches_used) == (None, 0)
        wrapper.sample
        assert (wrapper._exposed_round, wrapper.switches_used) == (108, 0)

    def test_reset_restores_the_first_copy(self):
        wrapper = SketchSwitchingSampler(bernoulli_factory, copies=2, growth=1.1, seed=1)
        wrapper.extend(list(range(1, 51)), updates=False)
        wrapper.sample
        wrapper.extend(list(range(51, 101)), updates=False)
        wrapper.sample
        assert wrapper.switches_used == 1
        wrapper.reset()
        assert wrapper.switches_used == 0
        assert wrapper.rounds_processed == 0


class TestDPAggregate:
    def test_serving_copy_is_a_stable_function_of_the_round(self):
        wrapper = DPAggregateSampler(bernoulli_factory, copies=4, seed=8)
        rounds = np.arange(1, 200, dtype=np.int64)
        first = wrapper._serving_indices(rounds)
        second = wrapper._serving_indices(rounds)
        assert np.array_equal(first, second)
        assert set(np.unique(first)) <= set(range(4))
        assert len(np.unique(first)) > 1  # actually rotates

    def test_private_queries_are_deterministic_per_state(self):
        wrapper = DPAggregateSampler(bernoulli_factory, copies=4, seed=8)
        wrapper.extend(list(range(100)), updates=False)
        assert wrapper.private_density(range(50)) == wrapper.private_density(range(50))
        assert wrapper.private_quantile(0.5) == wrapper.private_quantile(0.5)
        assert wrapper.private_count(3) == wrapper.private_count(3)

    def test_private_density_tracks_the_true_density(self):
        wrapper = DPAggregateSampler(
            lambda rng: BernoulliSampler(0.5, seed=rng), copies=8, seed=8
        )
        wrapper.extend(list(range(400)), updates=False)
        estimate = wrapper.private_density(range(200))
        assert abs(estimate - 0.5) < 0.25

    def test_private_count_is_floored_at_zero(self):
        wrapper = DPAggregateSampler(bernoulli_factory, copies=2, seed=8)
        wrapper.extend(list(range(10)), updates=False)
        assert wrapper.private_count("missing") >= 0.0

    def test_quantile_fraction_is_validated(self):
        wrapper = DPAggregateSampler(bernoulli_factory, copies=2, seed=8)
        with pytest.raises(ConfigurationError):
            wrapper.private_quantile(1.5)


class TestDifferenceEstimatorRotation:
    def test_rotation_follows_the_window_schedule(self):
        wrapper = DifferenceEstimatorSampler(window_factory, copies=3, rotation_period=10, seed=2)
        rounds = np.arange(1, 61, dtype=np.int64)
        serving = wrapper._serving_indices(rounds)
        assert list(serving[:10]) == [0] * 10
        assert list(serving[10:20]) == [1] * 10
        assert list(serving[20:30]) == [2] * 10
        assert list(serving[30:40]) == [0] * 10  # copies recycle


def _rule_rounds() -> list[int]:
    """Random rounds, rotation boundaries, and rounds above 2^33, where the
    DP hash's product ``r * 2654435761`` wraps mod 2^64."""
    rng = np.random.default_rng(3)
    boundaries = [edge + step for edge in (10, 20, 30, 32, 64, 96) for step in (-1, 0, 1)]
    return [
        1,
        2,
        *rng.integers(1, 10**6, size=200).tolist(),
        *boundaries,
        *rng.integers(2**33, 2**62, size=200).tolist(),
        2**33,
        2**63 - 1,
    ]


class TestOneRoundServingRule:
    """``process`` and reads pick the serving copy by a scalar rule, which
    must equal the column rule ``extend`` uses, round for round."""

    @pytest.mark.parametrize("copies", [2, 3, 5])
    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_scalar_rule_equals_the_column_rule(self, kind, copies):
        options = {"rotation_period": 10} if kind == "difference_estimator" else {}
        wrapper = make_wrapper(kind, copies=copies, **options)
        if kind == "sketch_switching":
            wrapper.extend(list(range(1, 9)), updates=False)
            wrapper.observe_exposure()
            wrapper.extend(list(range(1, 17)), updates=False)
            wrapper.observe_exposure()
            assert wrapper.switches_used == 1
        rounds = _rule_rounds()
        column = wrapper._serving_indices(np.array(rounds, dtype=np.int64)).tolist()
        assert [wrapper._serving_copy(r) for r in rounds] == column

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_round_zero_read_serves_copy_zero(self, kind):
        wrapper = make_wrapper(kind, copies=3, seed=5)
        if kind != "sketch_switching":
            # The rule itself would pick another copy at round 0.
            assert wrapper._serving_copy(0) != 0
        for _ in range(2):
            assert wrapper.rounds_processed == 0
            assert wrapper._serving_index() == 0
            if kind != "difference_estimator":
                assert wrapper.sample is wrapper.copy_samplers[0].sample
            wrapper.extend(list(range(1, 40)), updates=False)
            wrapper.reset()


class TestSpaceAccountingAndMerge:
    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_memory_footprint_sums_the_copies(self, kind):
        wrapper = make_wrapper(kind, copies=3)
        wrapper.extend(list(range(200)), updates=False)
        assert wrapper.memory_footprint() == sum(
            copy_.memory_footprint() for copy_ in wrapper.copy_samplers
        )

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_sample_size_is_the_serving_copys(self, kind):
        """Bernoulli copies hold samples of different sizes, so only the
        serving copy's size equals the size of the sample a read serves.
        The read goes first: under sketch switching it may switch copies,
        and the size read must follow."""
        rotation = {"rotation_period": 5} if kind == "difference_estimator" else {}
        wrapper = make_wrapper(kind, copies=3, **rotation)
        for start in range(0, 60, 3):
            wrapper.extend(list(range(start, start + 3)), updates=False)
            assert len(wrapper.sample) == wrapper.sample_size

    def test_matched_space_spec_divides_the_budget(self):
        assert matched_space_spec({"family": "reservoir", "capacity": 48}, 4) == {
            "family": "reservoir",
            "capacity": 12,
        }
        assert matched_space_spec({"family": "bernoulli", "probability": 0.2}, 2) == {
            "family": "bernoulli",
            "probability": 0.1,
        }

    def test_oversampled_spec_multiplies_the_budget(self):
        assert oversampled_spec({"family": "reservoir", "capacity": 48}, 4) == {
            "family": "reservoir",
            "capacity": 192,
        }
        assert oversampled_spec({"family": "bernoulli", "probability": 0.4}, 4) == {
            "family": "bernoulli",
            "probability": 1.0,
        }

    def test_merge_is_copy_wise(self):
        rng = ensure_generator(11)
        parts = [
            DPAggregateSampler(reservoir_factory, copies=2, seed=seed)
            for seed in (1, 2, 3)
        ]
        for offset, part in enumerate(parts):
            part.extend(list(range(offset * 100, offset * 100 + 100)), updates=False)
        merged = parts[0].merge(parts[1:], rng=rng)
        assert merged.copies == 2
        assert merged.rounds_processed == 300
        for index in range(2):
            merged_sample = set(merged.copy_samplers[index].sample)
            union = set()
            for part in parts:
                union |= set(part.copy_samplers[index].sample)
            assert merged_sample <= union
        # The parts are untouched.
        assert parts[0].rounds_processed == 100

    def test_merge_rejects_mismatched_defenses(self):
        rng = ensure_generator(11)
        a = DPAggregateSampler(reservoir_factory, copies=2, seed=1)
        b = DPAggregateSampler(reservoir_factory, copies=3, seed=2)
        with pytest.raises(ConfigurationError):
            a.merge([b], rng=rng)
        c = SketchSwitchingSampler(reservoir_factory, copies=2, seed=3)
        with pytest.raises(ConfigurationError):
            a.merge([c], rng=rng)

    def test_window_inners_forward_merge_offsets(self):
        wrapper = DifferenceEstimatorSampler(window_factory, copies=2, seed=1)
        assert wrapper.merge_wants_offsets
        bern = SketchSwitchingSampler(bernoulli_factory, copies=2, seed=1)
        assert not bern.merge_wants_offsets


class TestScenarioIntegration:
    def test_oversample_defense_is_bit_identical_to_a_big_sampler(self):
        spec = {"family": "reservoir", "capacity": 48}
        defended = SamplerFromSpec(spec, defense={"kind": "oversample", "factor": 4})
        plain = SamplerFromSpec({"family": "reservoir", "capacity": 192})
        rng_a = ensure_generator(21)
        rng_b = ensure_generator(21)
        a = defended(rng_a)
        b = plain(rng_b)
        elements = list(range(1000))
        batch_a = a.extend(elements)
        batch_b = b.extend(elements)
        assert list(batch_a.accepted) == list(batch_b.accepted)
        assert a.sample == b.sample

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_build_defended_sampler_applies_matched_space(self, kind):
        spec = (
            {"family": "sliding_window", "capacity": 48, "window": 64}
            if kind == "difference_estimator"
            else {"family": "reservoir", "capacity": 48}
        )
        defense = {"kind": kind, "copies": 4, "matched_space": True}
        wrapper = build_defended_sampler(spec, defense, ensure_generator(5))
        assert wrapper.copies == 4
        wrapper.extend(list(range(500)), updates=False)
        undefended = SamplerFromSpec(spec)(ensure_generator(5))
        undefended.extend(list(range(500)), updates=False)
        # At matched space the defended stack stays within the undefended
        # footprint plus per-copy bookkeeping (window samplers track window
        # metadata per copy on top of the stored sample).
        bookkeeping = 4 * spec.get("window", 0)
        assert wrapper.memory_footprint() <= undefended.memory_footprint() + bookkeeping

    def test_difference_estimator_rejects_non_window_scenarios(self):
        with pytest.raises(ConfigurationError):
            SamplerFromSpec(
                {"family": "reservoir", "capacity": 16},
                defense={"kind": "difference_estimator"},
            )

    def test_defended_scenario_runs_are_reproducible(self):
        config = ScenarioConfig(
            name="repro-check",
            stream_length=128,
            universe_size=32,
            trials=2,
            seed=13,
            samplers={"r": {"family": "reservoir", "capacity": 16}},
            adversary={"family": "uniform"},
            set_system={"kind": "prefix"},
            workers=0,
            defense={"kind": "dp_aggregate", "copies": 2},
        )
        first = run_config(config)
        second = run_config(config)
        assert first.to_dict(include_timing=False) == second.to_dict(include_timing=False)


# ----------------------------------------------------------------------
# Flattening pins (acceptance criterion)
# ----------------------------------------------------------------------

_UNIFORM_FLOAT = {"kind": "uniform_float", "low": 0.0, "high": 1.0}
_CONTINUOUS = {"kind": "continuous_prefix", "low": 0.0, "high": 1.0}
_BISECTION = {"family": "bisection", "low": 0.0, "high": 1.0}
_WINDOW = {"family": "sliding_window", "capacity": 48, "window": 256}

#: Attack scenarios used by the pins: sampler grid, adversary, set system,
#: benign filler (for float-valued streams) and stream length.
_PIN_SCENARIOS = {
    "heavy_hitter": (
        {"b": {"family": "bernoulli", "probability": 0.2}},
        {"family": "switching_singleton"},
        {"kind": "singleton"},
        None,
        512,
    ),
    "bisection_b2": (
        {"b": {"family": "bernoulli", "probability": 0.2}},
        _BISECTION,
        _CONTINUOUS,
        _UNIFORM_FLOAT,
        512,
    ),
    "bisection_b1": (
        {"b": {"family": "bernoulli", "probability": 0.1}},
        _BISECTION,
        _CONTINUOUS,
        _UNIFORM_FLOAT,
        512,
    ),
    "bisection_b05": (
        {"b": {"family": "bernoulli", "probability": 0.05}},
        _BISECTION,
        _CONTINUOUS,
        _UNIFORM_FLOAT,
        512,
    ),
    "window_greedy_interval": (
        {"w": _WINDOW},
        {
            "family": "greedy_density",
            "target": {"kind": "interval", "low": 1, "high_fraction": 0.125},
        },
        {"kind": "interval"},
        None,
        1024,
    ),
    "window_greedy_prefix": (
        {"w": _WINDOW},
        {"family": "greedy_density", "target": {"kind": "prefix", "bound_fraction": 0.25}},
        {"kind": "prefix"},
        None,
        1024,
    ),
    "window_bisection": ({"w": _WINDOW}, _BISECTION, _CONTINUOUS, _UNIFORM_FLOAT, 1024),
}

#: (defense kind, scenario, criterion).  ``excess`` pins assert the defense
#: shrinks the attack-induced excess over the matching benign baseline;
#: ``raw`` pins assert the defended attacked peak beats the undefended one
#: outright, matched-space static handicap included.
_FLATTENING_PINS = [
    ("sketch_switching", "heavy_hitter", "raw"),
    ("sketch_switching", "heavy_hitter", "excess"),
    ("sketch_switching", "bisection_b1", "excess"),
    ("sketch_switching", "bisection_b05", "excess"),
    ("sketch_switching", "window_greedy_interval", "excess"),
    ("dp_aggregate", "heavy_hitter", "raw"),
    ("dp_aggregate", "bisection_b2", "raw"),
    ("dp_aggregate", "bisection_b2", "excess"),
    ("dp_aggregate", "bisection_b1", "raw"),
    ("dp_aggregate", "bisection_b1", "excess"),
    ("dp_aggregate", "bisection_b05", "raw"),
    ("difference_estimator", "window_greedy_interval", "excess"),
    ("difference_estimator", "window_greedy_prefix", "excess"),
    ("difference_estimator", "window_bisection", "raw"),
]


def _pin_config(scenario: str, defense, attack_budget: float) -> ScenarioConfig:
    samplers, adversary, set_system, benign, stream_length = _PIN_SCENARIOS[scenario]
    return ScenarioConfig(
        name=f"pin-{scenario}",
        stream_length=stream_length,
        universe_size=64,
        trials=3,
        seed=7,
        samplers=samplers,
        adversary=adversary,
        set_system=set_system,
        benign=benign,
        knowledge="full",
        continuous=False,
        attack_budget=attack_budget,
        workers=0,
        defense=defense,
    )


@pytest.fixture(scope="module")
def pin_outcomes():
    """Cache of (scenario, defense kind or None) -> (attacked, benign) peaks.

    One scenario/defense cell is shared by every pin that references it, so
    the module runs each endpoint game exactly once.
    """
    cache: dict[tuple[str, str | None], tuple[float, float]] = {}

    def measure(scenario: str, kind: str | None) -> tuple[float, float]:
        key = (scenario, kind)
        if key not in cache:
            defense = (
                None
                if kind is None
                else {"kind": kind, "copies": 2, "matched_space": True}
            )
            attacked = run_config(_pin_config(scenario, defense, 1.0))
            benign = run_config(_pin_config(scenario, defense, 0.0))
            cache[key] = (
                attacked.attacked_peak_discrepancy,
                benign.peak_discrepancy,
            )
        return cache[key]

    return measure


class TestDefenseFlattening:
    @pytest.mark.parametrize(
        "kind,scenario,criterion",
        _FLATTENING_PINS,
        ids=[f"{k}-{s}-{c}" for k, s, c in _FLATTENING_PINS],
    )
    def test_defense_flattens_the_attack(self, pin_outcomes, kind, scenario, criterion):
        undefended_attacked, undefended_benign = pin_outcomes(scenario, None)
        defended_attacked, defended_benign = pin_outcomes(scenario, kind)
        if criterion == "raw":
            assert defended_attacked < undefended_attacked, (
                f"{kind} on {scenario}: defended attacked peak "
                f"{defended_attacked:.3f} >= undefended {undefended_attacked:.3f}"
            )
        else:
            defended_excess = defended_attacked - defended_benign
            undefended_excess = undefended_attacked - undefended_benign
            assert defended_excess < undefended_excess, (
                f"{kind} on {scenario}: defended excess {defended_excess:+.3f} "
                f">= undefended excess {undefended_excess:+.3f}"
            )

    def test_the_attacks_actually_bite_where_claimed(self, pin_outcomes):
        """The non-window pin scenarios have genuinely positive undefended
        attack excess — the flattening claims above are not vacuous."""
        for scenario in ("heavy_hitter", "bisection_b2", "bisection_b1", "bisection_b05"):
            attacked, benign = pin_outcomes(scenario, None)
            assert attacked > benign + 0.02, (
                f"{scenario}: undefended attack excess {attacked - benign:+.3f} "
                "is too small to support a flattening pin"
            )
