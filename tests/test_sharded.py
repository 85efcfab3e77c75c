"""Tests for the sharded-sampler substrate: routing, ingestion, merged views,
and the scenario-level ``sharding`` block.
"""

from __future__ import annotations

from collections import Counter
from typing import ClassVar

import numpy as np
import pytest

from repro.adversary import UniformAdversary, run_adaptive_game, run_continuous_game
from repro.defenses import DPAggregateSampler
from repro.distributed import (
    FaultPlan,
    HashSharding,
    RandomSharding,
    RoundRobinSharding,
    ShardedSampler,
    SiteCrash,
    SkewedSharding,
    StaleWindow,
    build_sharding_strategy,
)
from repro.exceptions import ConfigurationError
from repro.samplers import BernoulliSampler, ReservoirSampler, SlidingWindowSampler
from repro.scenarios import ScenarioConfig, run_config
from repro.setsystems import PrefixSystem
from repro.streams import uniform_stream


def reservoir_site(rng: np.random.Generator) -> ReservoirSampler:
    return ReservoirSampler(16, seed=rng)


def bernoulli_site(rng: np.random.Generator) -> BernoulliSampler:
    return BernoulliSampler(0.2, seed=rng)


def window_site(rng: np.random.Generator) -> SlidingWindowSampler:
    return SlidingWindowSampler(8, 64, seed=rng)


def dp_aggregate_site(rng: np.random.Generator) -> DPAggregateSampler:
    return DPAggregateSampler(reservoir_site, copies=3, seed=rng)


def _mixed_hash_chunks() -> list[list[object]]:
    """One chunk per hash-routing path: numpy keys, int64 overflow, non-int."""
    draw = np.random.default_rng(8)
    negatives = [-x for x in draw.integers(1, 2**40, size=150).tolist()]
    beyond = [x + 2**63 for x in draw.integers(0, 2**62, size=100).tolist()]
    beyond += [-(2**63) - 1, 2**64 + 5, *negatives[:40]]
    others: list[object] = [f"key{x}" for x in range(60)]
    others += [(x, -x) for x in range(40)]
    others += [True, False] * 20
    others += negatives[:40]
    return [
        negatives,
        [beyond[i] for i in draw.permutation(len(beyond))],
        [others[i] for i in draw.permutation(len(others))],
    ]


class TestStrategies:
    @pytest.mark.parametrize(
        "strategy",
        [RandomSharding(), HashSharding(), RoundRobinSharding(), SkewedSharding()],
    )
    def test_assignments_stay_in_range(self, strategy, rng):
        elements = list(range(200))
        batch = strategy.assign(elements, 1, 5, rng)
        assert len(batch) == 200
        assert all(0 <= int(site) < 5 for site in batch)
        one = strategy.assign_one(17, 201, 5, rng)
        assert 0 <= one < 5

    def test_round_robin_is_deterministic_in_the_round_index(self, rng):
        strategy = RoundRobinSharding()
        batch = strategy.assign(list(range(10)), 1, 3, rng)
        assert list(batch) == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
        assert strategy.assign_one("anything", 4, 3, rng) == 0

    def test_hash_routing_is_sticky_and_batch_independent(self, rng):
        strategy = HashSharding()
        elements = [7, "key", 7, (1, 2), "key"]
        batch = list(strategy.assign(elements, 1, 4, rng))
        assert batch[0] == batch[2] and batch[1] == batch[4]
        singles = [
            strategy.assign_one(element, index + 1, 4, rng)
            for index, element in enumerate(elements)
        ]
        assert singles == batch

    def test_skewed_routing_concentrates_on_the_hot_site(self, rng):
        strategy = SkewedSharding(hot_fraction=0.9, hot_site=2)
        batch = strategy.assign(list(range(4_000)), 1, 4, rng)
        counts = Counter(int(site) for site in batch)
        assert counts[2] > 3_200
        assert set(counts) <= {0, 1, 2, 3}

    def test_skewed_parameters_are_validated(self):
        with pytest.raises(ConfigurationError):
            SkewedSharding(hot_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SkewedSharding(hot_site=-1)

    def test_build_from_name_spec_and_instance(self):
        assert isinstance(build_sharding_strategy(None), RandomSharding)
        assert isinstance(build_sharding_strategy("hash"), HashSharding)
        skewed = build_sharding_strategy({"kind": "skewed", "hot_fraction": 0.7})
        assert isinstance(skewed, SkewedSharding) and skewed.hot_fraction == 0.7
        instance = RoundRobinSharding()
        assert build_sharding_strategy(instance) is instance

    def test_build_accepts_name_as_kind_alias(self):
        """Strategies advertise themselves via their ``name`` attribute, so a
        spec keyed by ``name`` must build too (regression)."""
        assert isinstance(build_sharding_strategy({"name": "hash"}), HashSharding)
        skewed = build_sharding_strategy({"name": "skewed", "hot_fraction": 0.7})
        assert isinstance(skewed, SkewedSharding) and skewed.hot_fraction == 0.7
        # Redundant but consistent naming is fine; a conflict is not.
        assert isinstance(
            build_sharding_strategy({"kind": "hash", "name": "hash"}), HashSharding
        )
        with pytest.raises(ConfigurationError, match="pick one"):
            build_sharding_strategy({"kind": "hash", "name": "skewed"})

    def test_name_alias_spec_reaches_parameter_validation(self):
        """{"name": "skewed", "hot_fraction": 1.5} must fail on the *fraction*,
        not on a confusing missing-'kind' complaint (regression)."""
        with pytest.raises(ConfigurationError, match="hot fraction"):
            build_sharding_strategy({"name": "skewed", "hot_fraction": 1.5})

    def test_build_rejects_unknowns(self):
        with pytest.raises(ConfigurationError, match="unknown sharding strategy"):
            build_sharding_strategy("mystery")
        # A spec naming no strategy must list what would be valid.
        with pytest.raises(ConfigurationError, match="random") as excinfo:
            build_sharding_strategy({"hot_fraction": 0.5})
        message = str(excinfo.value)
        for strategy in ("hash", "round_robin", "skewed"):
            assert strategy in message
        with pytest.raises(ConfigurationError, match="invalid parameters"):
            build_sharding_strategy({"kind": "skewed", "nonsense": 1})
        with pytest.raises(ConfigurationError):
            build_sharding_strategy(3.14)


class TestAssignEquivalence:
    """Property pins: vectorised ``assign`` vs per-element ``assign_one``.

    Deterministic strategies must match exactly.  ``RandomSharding``'s batch
    draw consumes the bit stream exactly like scalar draws, so it matches
    bit for bit under a shared seed; ``SkewedSharding`` interleaves two draw
    streams on the per-element path (a different, equally distributed
    realisation), so it is pinned distributionally plus exactly at the
    deterministic extremes.
    """

    ELEMENTS: ClassVar[list[int]] = [int(x) for x in np.random.default_rng(0).integers(1, 1000, size=3000)]
    # Hash routing's numpy keys must wrap to the scalar key at every sign and
    # width, int64's extremes included.
    INT64_RANGE: ClassVar[list[int]] = [0, 1, -1, -12345, 2**31, 2**32 - 1, 2**32, 2**32 + 1]
    INT64_RANGE += [2**63 - 1, -(2**63 - 1), -(2**63)]
    INT64_RANGE += np.random.default_rng(1).integers(-(2**63), 2**63 - 1, size=2000).tolist()

    @pytest.mark.parametrize(
        "elements",
        [
            pytest.param(ELEMENTS, id="small-ints"),
            pytest.param(INT64_RANGE, id="int64-range"),
            # Plain ints that do not fit int64 take the per-element keys.
            pytest.param([3, 2**63, -4, 2**64 + 5, 0, -(2**63) - 1, 7], id="beyond-int64"),
            # Anything but an exact ``int`` takes the per-element keys.
            pytest.param([True, False, np.int64(5), 3.0, "7", (1, 2), 7], id="non-int"),
            pytest.param([True, 1, False, 0, True], id="bools"),
        ],
    )
    @pytest.mark.parametrize("start_round", [1, 17, 1002])
    @pytest.mark.parametrize("num_sites", [1, 3, 8])
    def test_deterministic_strategies_match_exactly(self, start_round, num_sites, elements, rng):
        for strategy in (HashSharding(), RoundRobinSharding()):
            batch = strategy.assign(elements, start_round, num_sites, rng)
            singles = [
                strategy.assign_one(element, start_round + offset, num_sites, rng)
                for offset, element in enumerate(elements)
            ]
            assert batch.dtype == np.int64, strategy.name
            assert list(batch) == singles, strategy.name

    @pytest.mark.parametrize("num_sites", [2, 5])
    def test_random_strategy_matches_bit_for_bit_under_shared_seed(self, num_sites):
        strategy = RandomSharding()
        batch = strategy.assign(self.ELEMENTS, 1, num_sites, np.random.default_rng(9))
        per_element_rng = np.random.default_rng(9)
        singles = [
            strategy.assign_one(element, offset + 1, num_sites, per_element_rng)
            for offset, element in enumerate(self.ELEMENTS)
        ]
        assert list(batch) == singles

    def test_skewed_extremes_are_deterministic_on_both_paths(self):
        all_hot = SkewedSharding(hot_fraction=1.0, hot_site=1)
        batch = all_hot.assign(self.ELEMENTS, 1, 4, np.random.default_rng(1))
        assert set(batch) == {1}
        assert all(
            all_hot.assign_one(e, i + 1, 4, np.random.default_rng(i)) == 1
            for i, e in enumerate(self.ELEMENTS[:50])
        )
        never_hot = SkewedSharding(hot_fraction=0.0, hot_site=1)
        batch = never_hot.assign(self.ELEMENTS, 1, 4, np.random.default_rng(2))
        assert 1 not in set(int(s) for s in batch)
        singles = {
            never_hot.assign_one(e, i + 1, 4, np.random.default_rng(i))
            for i, e in enumerate(self.ELEMENTS[:200])
        }
        assert 1 not in singles and singles <= {0, 2, 3}

    @pytest.mark.parametrize("hot_fraction", [0.3, 0.8])
    def test_skewed_hot_fraction_distribution_matches_per_element(self, hot_fraction):
        """Both paths must realise the declared hot fraction (and spread the
        remainder uniformly) within Monte-Carlo tolerance."""
        strategy = SkewedSharding(hot_fraction=hot_fraction, hot_site=2)
        n, sites = len(self.ELEMENTS), 4
        batch = strategy.assign(self.ELEMENTS, 1, sites, np.random.default_rng(3))
        per_element_rng = np.random.default_rng(4)
        singles = [
            strategy.assign_one(element, offset + 1, sites, per_element_rng)
            for offset, element in enumerate(self.ELEMENTS)
        ]
        for counts in (Counter(int(s) for s in batch), Counter(singles)):
            assert abs(counts[2] / n - hot_fraction) < 0.04
            cold = (1.0 - hot_fraction) / (sites - 1)
            for site in (0, 1, 3):
                assert abs(counts[site] / n - cold) < 0.04

    def test_skewed_hot_site_clamped_on_both_paths(self):
        """hot_site >= num_sites clamps to the last site instead of routing
        out of range."""
        strategy = SkewedSharding(hot_fraction=1.0, hot_site=7)
        batch = strategy.assign(self.ELEMENTS[:100], 1, 3, np.random.default_rng(5))
        assert set(int(s) for s in batch) == {2}
        assert strategy.assign_one(42, 1, 3, np.random.default_rng(5)) == 2
        partial = SkewedSharding(hot_fraction=0.5, hot_site=7)
        batch = partial.assign(self.ELEMENTS, 1, 3, np.random.default_rng(6))
        assert set(int(s) for s in batch) <= {0, 1, 2}
        singles = {
            partial.assign_one(e, i + 1, 3, np.random.default_rng(i))
            for i, e in enumerate(self.ELEMENTS[:200])
        }
        assert singles <= {0, 1, 2}


class TestShardedSampler:
    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedSampler(0, reservoir_site, seed=0)
        with pytest.raises(ConfigurationError, match="Mergeable"):
            # Weighted reservoirs have no merge rule.
            from repro.samplers import WeightedReservoirSampler

            ShardedSampler(2, lambda rng: WeightedReservoirSampler(4, seed=rng), seed=0)
        with pytest.raises(ConfigurationError, match="not a StreamSampler"):
            ShardedSampler(2, lambda rng: object(), seed=0)

    def test_every_element_lands_on_exactly_one_site(self):
        sharded = ShardedSampler(4, reservoir_site, strategy="random", seed=1)
        sharded.extend(list(range(500)), updates=False)
        assert sum(sharded.site_counts) == 500
        assert sharded.rounds_processed == 500

    def test_merged_sample_has_reservoir_size(self):
        sharded = ShardedSampler(4, reservoir_site, strategy="random", seed=1)
        sharded.extend(list(range(5)), updates=False)
        assert len(sharded.sample) == 5  # below capacity: everything survives
        sharded.extend(list(range(5, 500)), updates=False)
        assert len(sharded.sample) == 16
        union = Counter()
        for site in range(4):
            union.update(sharded.site_sample(site))
        assert not Counter(sharded.sample) - union

    def test_empty_deployment_has_empty_sample(self):
        sharded = ShardedSampler(3, reservoir_site, seed=0)
        assert sharded.sample == ()
        assert sharded.load_imbalance() == 0.0

    def test_update_batch_reports_global_round_indices(self):
        sharded = ShardedSampler(3, bernoulli_site, strategy="round_robin", seed=2)
        for element in range(1, 11):
            update = sharded.process(element)
            assert update.round_index == element
        batch = sharded.extend(list(range(11, 61)), updates=True)
        assert list(batch.round_indices) == list(range(11, 61))
        assert len(batch) == 50

    @pytest.mark.parametrize(
        "chunks",
        [
            pytest.param(
                [np.random.default_rng(3).integers(1, 300, size=400).tolist()], id="small-ints"
            ),
            pytest.param(_mixed_hash_chunks(), id="mixed"),
        ],
    )
    def test_extend_accept_flags_match_per_element_for_deterministic_routing(self, chunks):
        """Hash routing + bit-identical site kernels => identical games."""
        chunked = ShardedSampler(3, bernoulli_site, strategy="hash", seed=4)
        sequential = ShardedSampler(3, bernoulli_site, strategy="hash", seed=4)
        batches = [chunked.extend(chunk, updates=True) for chunk in chunks]
        singles = [sequential.process(element) for chunk in chunks for element in chunk]
        flags = [view.accepted for batch in batches for view in batch]
        assert flags == [u.accepted for u in singles]
        assert chunked.site_counts == sequential.site_counts
        for site in range(3):
            assert list(chunked.site_sample(site)) == list(sequential.site_sample(site))
        assert list(chunked.sample) == list(sequential.sample)

    def test_reservoir_evictions_are_scattered_to_global_positions(self):
        sharded = ShardedSampler(2, reservoir_site, strategy="round_robin", seed=5)
        sharded.extend(list(range(200)), updates=False)
        batch = sharded.extend(list(range(200, 400)), updates=True)
        assert batch.eviction_count > 0
        for offset, evicted in batch.evictions.items():
            assert bool(batch.accepted[offset])
            assert evicted not in batch.elements[offset:]

    def test_memory_footprint_sums_sites(self):
        sharded = ShardedSampler(4, reservoir_site, seed=6)
        sharded.extend(list(range(300)), updates=False)
        assert sharded.memory_footprint() == sum(
            len(sharded.site_sample(site)) for site in range(4)
        )

    def test_reset_forgets_everything(self):
        sharded = ShardedSampler(4, reservoir_site, seed=7)
        sharded.extend(list(range(100)), updates=False)
        sharded.reset()
        assert sharded.rounds_processed == 0
        assert sharded.site_counts == (0, 0, 0, 0)
        assert sharded.sample == ()

    def test_same_seed_reproduces_the_deployment(self):
        def play():
            sharded = ShardedSampler(4, reservoir_site, strategy="random", seed=11)
            sharded.extend(list(range(400)), updates=False)
            return list(sharded.sample), sharded.site_counts

        assert play() == play()

    def test_sliding_window_shards_merge_by_priority(self):
        sharded = ShardedSampler(3, window_site, strategy="random", seed=8)
        sharded.extend(list(range(400)), updates=False)
        merged = sharded.merged_sampler()
        live_priorities = sorted(
            priority
            for site in sharded.sites
            for _arrival, priority, _element in site._candidates
        )
        merged_priorities = sorted(
            priority for _arrival, priority, _element in merged._current_sample_entries()
        )
        assert merged_priorities == live_priorities[:8]
        assert len(sharded.sample) == 8

    def test_round_robin_reservoir_merge_is_representative(self, rng):
        """The [CTW16] merged view of 4 site reservoirs is a good global sample."""
        sharded = ShardedSampler(
            4,
            lambda site_rng: ReservoirSampler(400, seed=site_rng),
            strategy="round_robin",
            seed=rng,
        )
        stream = uniform_stream(8000, 256, seed=rng)
        sharded.extend(stream, updates=False)
        merged = sharded.sample
        assert len(merged) == 400
        assert PrefixSystem(256).max_discrepancy(stream, merged).error < 0.15

    def test_site_sample_validates_index(self):
        sharded = ShardedSampler(2, reservoir_site, seed=0)
        with pytest.raises(ConfigurationError):
            sharded.site_sample(2)


class TestCoordinatorReadPath:
    """A ``sample`` read serves what a full merge would hold, draw for draw.

    Reservoir reads draw through ``merged_sample`` and build no sampler;
    the other families go through ``merge``.  Either way a twin deployment
    that reads ``merged_sampler().sample`` instead must see the same views,
    the same ledger and — after a reshard that spawns the sibling's
    generator from the merge substream — the same site samples.
    """

    SITES: ClassVar = {
        "reservoir": reservoir_site,
        "bernoulli": bernoulli_site,
        "sliding_window": window_site,
        "dp_aggregate": dp_aggregate_site,
    }
    PLANS: ClassVar = {
        "none": None,
        "crash_replay": FaultPlan(
            crashes=(SiteCrash(site=1, round=150, recovery_rounds=200, loss="replay"),)
        ),
        "stale_window": FaultPlan(stale_windows=(StaleWindow(round=200, duration=120),)),
    }

    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("strategy", ["random", "hash", "skewed"])
    @pytest.mark.parametrize("family", sorted(SITES))
    def test_sample_reads_match_full_merges(self, family, strategy, plan):
        def deploy() -> ShardedSampler:
            return ShardedSampler(
                3, self.SITES[family], strategy=strategy, seed=23,
                fault_plan=self.PLANS[plan],
            )

        served, full = deploy(), deploy()
        stream = uniform_stream(600, 64, seed=5)
        for start in range(0, len(stream), 40):
            for deployment in (served, full):
                deployment.extend(stream[start : start + 40], updates=False)
            assert tuple(served.sample) == tuple(full.merged_sampler().sample)
        assert served.ledger.to_dict() == full.ledger.to_dict()

        more = uniform_stream(400, 64, seed=6)
        for deployment in (served, full):
            deployment.split_site(0)
            deployment.extend(more, updates=False)
        for site in range(served.num_sites):
            assert tuple(served.site_sample(site)) == tuple(full.site_sample(site))


class TestShardedGames:
    def test_adaptive_game_runs_and_reproduces(self):
        def play():
            return run_adaptive_game(
                ShardedSampler(4, reservoir_site, strategy="random", seed=1),
                UniformAdversary(128, seed=2),
                600,
                set_system=PrefixSystem(128),
                epsilon=0.5,
                keep_updates=False,
            )

        first, second = play(), play()
        assert first.error == second.error
        assert first.sample == second.sample
        assert first.sampler_name == "sharded-reservoir"

    def test_continuous_game_checkpoints(self):
        result = run_continuous_game(
            ShardedSampler(4, reservoir_site, strategy="skewed", seed=1),
            UniformAdversary(128, seed=2),
            600,
            set_system=PrefixSystem(128),
            checkpoints=range(100, 601, 100),
            keep_updates=False,
        )
        assert len(result.checkpoint_errors) == 6
        assert all(0.0 <= error <= 1.0 for error in result.checkpoint_errors)


class TestScenarioShardingBlock:
    def test_sharding_block_is_validated(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(name="x", sharding={"strategy": "random"})  # no sites
        with pytest.raises(ConfigurationError):
            ScenarioConfig(name="x", sharding={"sites": 0})
        with pytest.raises(ConfigurationError, match="unknown fields"):
            ScenarioConfig(name="x", sharding={"sites": 2, "bogus": 1})
        with pytest.raises(ConfigurationError):
            ScenarioConfig(name="x", sharding={"sites": 2, "strategy": 3})

    def test_sharding_block_round_trips_through_json(self):
        config = ScenarioConfig(
            name="x", sharding={"sites": 4, "strategy": {"kind": "skewed", "hot_fraction": 0.9}}
        )
        assert ScenarioConfig.from_json(config.to_json()) == config

    def test_non_mergeable_families_cannot_be_sharded(self):
        config = ScenarioConfig(
            name="bad",
            stream_length=64,
            universe_size=32,
            trials=1,
            samplers={"weighted": {"family": "weighted_reservoir", "capacity": 8}},
            sharding={"sites": 2},
        )
        with pytest.raises(ConfigurationError, match="not mergeable"):
            run_config(config)

    def test_ad_hoc_sharded_scenario_runs(self):
        config = ScenarioConfig(
            name="ad_hoc_sharded",
            stream_length=128,
            universe_size=32,
            trials=2,
            samplers={"reservoir-8": {"family": "reservoir", "capacity": 8}},
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.5},
            },
            set_system={"kind": "prefix"},
            sharding={"sites": 3, "strategy": "round_robin"},
        )
        result = run_config(config)
        assert result.cells[0]["mean_sample_size"] == 8.0
        assert 0.0 <= result.peak_discrepancy <= 1.0

    def test_sharded_run_differs_from_unsharded_but_both_reproduce(self):
        base = dict(
            name="compare",
            stream_length=128,
            universe_size=32,
            trials=2,
            samplers={"reservoir-8": {"family": "reservoir", "capacity": 8}},
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.5},
            },
            set_system={"kind": "prefix"},
        )
        unsharded = run_config(ScenarioConfig(**base))
        sharded = run_config(ScenarioConfig(**base, sharding={"sites": 3}))
        assert unsharded.to_dict(include_timing=False) != sharded.to_dict(
            include_timing=False
        )
        again = run_config(ScenarioConfig(**base, sharding={"sites": 3}))
        assert sharded.to_dict(include_timing=False) == again.to_dict(include_timing=False)
