"""Unit tests for the always-on query service layer (single-threaded parts).

The snapshot store's staleness bound, its cache-bypass contract for
exposure-tracked deployments and fault-plan stale windows, the deterministic
ServedSampler wrapper, the pure query kernels, QueryService's ingest
validation, and the ScenarioConfig ``service`` block.  The threaded
QueryService is covered separately in ``test_service_concurrency.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses import SketchSwitchingSampler
from repro.distributed import FaultPlan, ShardedSampler, StaleWindow
from repro.exceptions import ConfigurationError, EmptySampleError
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.scenarios import SamplerFromSpec, ScenarioConfig
from repro.service import (
    QueryService,
    ServedSampler,
    Snapshot,
    SnapshotStore,
    heavy_hitters,
    prefix_discrepancy,
    quantile,
)


def _reservoir_site(rng):
    return ReservoirSampler(16, seed=rng)


class TestSnapshot:
    def test_snapshot_is_immutable_and_sized(self):
        snapshot = Snapshot(version=3, round_index=10, sample=(1, 2, 3))
        assert snapshot.size == 3
        with pytest.raises(AttributeError):
            snapshot.version = 4


class TestSnapshotStore:
    def test_negative_staleness_rejected(self):
        with pytest.raises(ConfigurationError, match="staleness_rounds"):
            SnapshotStore(BernoulliSampler(1.0, seed=0), staleness_rounds=-1)

    def test_zero_staleness_always_reflects_every_round(self):
        sampler = BernoulliSampler(1.0, seed=0)
        store = SnapshotStore(sampler, staleness_rounds=0)
        sampler.extend([1, 2, 3], updates=False)
        assert store.read().round_index == 3
        sampler.process(4)
        snapshot = store.read()
        assert snapshot.round_index == 4
        assert snapshot.sample == (1, 2, 3, 4)

    def test_staleness_bound_serves_held_snapshot(self):
        sampler = BernoulliSampler(1.0, seed=0)
        store = SnapshotStore(sampler, staleness_rounds=5)
        sampler.extend([1, 2, 3], updates=False)
        first = store.read()
        sampler.extend([4, 5], updates=False)  # 2 rounds behind: within bound
        assert store.read() is first
        sampler.extend([6, 7, 8, 9], updates=False)  # 6 behind: beyond bound
        second = store.read()
        assert second.round_index == 9
        stats = store.stats()
        assert stats["refreshes"] == 2
        assert stats["reads"] == 3
        assert stats["max_staleness_served"] == 2

    def test_fresh_read_bypasses_the_bound(self):
        sampler = BernoulliSampler(1.0, seed=0)
        store = SnapshotStore(sampler, staleness_rounds=100)
        sampler.extend([1, 2], updates=False)
        store.read()
        sampler.process(3)
        assert store.read().round_index == 2  # held, within bound
        assert store.read(fresh=True).round_index == 3

    def test_invalidate_forces_refresh(self):
        sampler = BernoulliSampler(1.0, seed=0)
        store = SnapshotStore(sampler, staleness_rounds=100)
        sampler.extend([1, 2], updates=False)
        first = store.read()
        store.invalidate()
        assert store.held is None
        assert store.read() is not first

    def test_snapshot_version_tracks_sharded_version_counter(self):
        sharded = ShardedSampler(2, _reservoir_site, strategy="hash", seed=1)
        store = SnapshotStore(sharded)
        sharded.extend([1, 2, 3, 4], updates=False)
        assert store.read().version == sharded.version

    def test_exposure_tracked_sampler_is_never_cached(self):
        """Every read of a switching defense must fire observe_exposure —
        a cached snapshot would silently absorb the query-flood attack."""
        defended = SketchSwitchingSampler(
            lambda rng: BernoulliSampler(0.5, seed=rng), copies=2, seed=3
        )
        store = SnapshotStore(defended, staleness_rounds=1_000_000)
        defended.extend(range(1, 20), updates=False)
        assert store.must_bypass()
        store.read()
        exposed_after_one = defended._exposed_round
        assert exposed_after_one is not None
        before = store.stats()["refreshes"]
        store.read()
        assert store.stats()["refreshes"] == before + 1, (
            "exposure-tracked reads must reach the sampler, not the cache"
        )

    def test_sharded_site_exposure_also_bypasses(self):
        def defended_site(rng):
            return SketchSwitchingSampler(
                lambda r: BernoulliSampler(0.5, seed=r), copies=2, seed=rng
            )

        sharded = ShardedSampler(2, defended_site, strategy="hash", seed=1)
        store = SnapshotStore(sharded, staleness_rounds=1_000_000)
        sharded.extend(range(1, 10), updates=False)
        assert store.must_bypass()

    def test_stale_window_delegates_to_the_fault_plan(self):
        """During a coordinator stale window the *fault plan* decides what a
        read observes (the pre-window memoised view), not the service knob."""
        plan = FaultPlan(stale_windows=(StaleWindow(round=5, duration=100),))
        sharded = ShardedSampler(
            2, _reservoir_site, strategy="hash", seed=1, fault_plan=plan
        )
        store = SnapshotStore(sharded, staleness_rounds=0)
        sharded.extend([1, 2, 3, 4], updates=False)
        in_cache = tuple(sharded.sample)
        store.read()
        sharded.extend([5, 6, 7, 8], updates=False)  # now inside the window
        assert store.must_bypass()
        snapshot = store.read()
        # The fault layer serves its cached pre-window merge even though the
        # store refreshed: the service must not change what a read observes.
        assert snapshot.sample == in_cache
        assert tuple(sharded.sample) == in_cache

    def test_reset_clears_state_but_not_the_sampler(self):
        sampler = BernoulliSampler(1.0, seed=0)
        store = SnapshotStore(sampler, staleness_rounds=3)
        sampler.extend([1, 2], updates=False)
        store.read()
        store.reset()
        assert store.held is None
        assert store.stats() == {
            "reads": 0, "refreshes": 0, "max_staleness_served": 0,
        }
        assert sampler.rounds_processed == 2


class TestServedSampler:
    def test_knob_validation(self):
        inner = BernoulliSampler(1.0, seed=0)
        with pytest.raises(ConfigurationError, match="clients"):
            ServedSampler(inner, clients=-1)
        with pytest.raises(ConfigurationError, match="query_period"):
            ServedSampler(inner, query_period=0)
        with pytest.raises(ConfigurationError, match="staleness_rounds"):
            ServedSampler(inner, staleness_rounds=-1)

    def test_name_and_delegation(self):
        served = ServedSampler(BernoulliSampler(1.0, seed=0), clients=1)
        assert served.name == "served-bernoulli"
        served.extend([1, 2, 3], updates=False)
        assert served.rounds_processed == 3
        assert served.inner.rounds_processed == 3
        assert "service" in served.degradation_report()
        assert served.memory_footprint() >= served.inner.memory_footprint()

    def test_background_ticks_fire_every_period(self):
        served = ServedSampler(
            BernoulliSampler(1.0, seed=0), clients=3, query_period=8
        )
        served.extend(range(1, 33), updates=False)  # 32 rounds -> 4 ticks
        report = served.service_report()
        assert report["ticks"] == 4
        assert report["reads"] == 4 * 3

    def test_served_sample_lags_within_the_bound(self):
        served = ServedSampler(
            BernoulliSampler(1.0, seed=0), staleness_rounds=10, clients=0
        )
        served.extend([1, 2, 3], updates=False)
        assert served.sample == (1, 2, 3)
        served.extend([4, 5], updates=False)
        # Within the bound: the served view legitimately lags ingestion.
        assert served.sample == (1, 2, 3)
        assert tuple(served.inner.sample) == (1, 2, 3, 4, 5)

    def test_updates_path_matches_process_loop(self):
        stream = list(range(1, 65))
        one = ServedSampler(BernoulliSampler(0.4, seed=9), clients=2, query_period=16)
        batch = one.extend(stream, updates=True)
        two = ServedSampler(BernoulliSampler(0.4, seed=9), clients=2, query_period=16)
        for element in stream:
            two.process(element)
        assert tuple(one.inner.sample) == tuple(two.inner.sample)
        assert one.service_report() == two.service_report()
        assert batch is not None and len(batch.round_indices) == len(stream)

    def test_chunked_equals_per_element_for_chunk_identical_family(self):
        """The wrapper segments extend() at tick rounds, so chunking must not
        change the sample path even though background reads fire mid-batch."""
        rng = np.random.default_rng(2)
        stream = [int(v) for v in rng.integers(1, 100, size=200)]

        def final_state(chunk_size):
            served = ServedSampler(
                BernoulliSampler(0.3, seed=11),
                staleness_rounds=16,
                clients=2,
                query_period=32,
            )
            if chunk_size is None:
                for element in stream:
                    served.process(element)
            else:
                for start in range(0, len(stream), chunk_size):
                    served.extend(stream[start : start + chunk_size], updates=False)
            return tuple(served.inner.sample), served.service_report()

        per_element = final_state(None)
        assert final_state(37) == per_element
        assert final_state(200) == per_element

    def test_query_flood_drains_a_switching_defense_identically(self):
        """Exposure hooks fire at byte-identical rounds on both ingestion
        paths: the served defense switches copies at the same rounds."""
        rng = np.random.default_rng(5)
        stream = [int(v) for v in rng.integers(1, 50, size=128)]

        def final_state(chunked):
            served = ServedSampler(
                SketchSwitchingSampler(
                    lambda r: BernoulliSampler(0.4, seed=r), copies=4, seed=21
                ),
                clients=1,
                query_period=16,
            )
            if chunked:
                served.extend(stream, updates=False)
            else:
                for element in stream:
                    served.process(element)
            inner = served.inner
            return inner._active, tuple(inner.sample), served.service_report()

        assert final_state(True) == final_state(False)

    def test_reset_restores_round_zero(self):
        served = ServedSampler(BernoulliSampler(1.0, seed=0), clients=2)
        served.extend(range(1, 40), updates=False)
        served.reset()
        assert served.rounds_processed == 0
        assert served.service_report()["ticks"] == 0
        assert served.store.held is None


class TestQueryServiceIngest:
    """With a universe, ``ingest`` accepts a chunk completely or not at all."""

    @pytest.mark.parametrize(
        "chunk",
        [
            [4, -1, 5],
            [4, 0, 5],
            [4, 9, 5],
            # An int64 conversion would truncate, parse or coerce these.
            [4, 2.5, 5],
            [4, "7", 5],
            [True, True],
            [4, 2**64, 5],
            [[4, 5], [6, 7]],
        ],
    )
    def test_out_of_universe_chunk_leaves_no_trace(self, chunk):
        service = QueryService(ReservoirSampler(8, seed=0), universe_size=8)
        service.ingest([1, 2, 3])
        published = service.acquire()
        with pytest.raises(ConfigurationError, match=r"\[1, 8\]"):
            service.ingest(chunk)
        service.ingest([])
        assert service.sampler.rounds_processed == 3
        assert list(service.sampler.sample) == [1, 2, 3]
        # No round was ingested, so the published pair still meets the bound.
        assert service.acquire() is published
        assert published[1].tolist() == [0, 1, 1, 1, 0, 0, 0, 0, 0]
        service.ingest([4, 8])
        assert service.acquire()[1].tolist() == [0, 1, 1, 1, 1, 0, 0, 0, 1]
        assert service.query("discrepancy") == 0.0


class TestQueryKernels:
    def test_quantile_basics(self):
        sample = (5, 1, 9, 3, 7)
        assert quantile(sample, 0.0) == 1
        assert quantile(sample, 0.5) == 5  # rank floor(0.5*5)=2 of (1,3,5,7,9)
        assert quantile(sample, 1.0) == 9

    def test_quantile_validation(self):
        with pytest.raises(ConfigurationError):
            quantile((1, 2), 1.5)
        with pytest.raises(EmptySampleError):
            quantile((), 0.5)

    def test_heavy_hitters_breaks_ties_by_element(self):
        sample = (3, 1, 3, 2, 1, 4)
        assert heavy_hitters(sample, k=3) == [(1, 2), (3, 2), (2, 1)]
        with pytest.raises(ConfigurationError):
            heavy_hitters(sample, k=0)

    def test_prefix_discrepancy_exact_small_case(self):
        # Stream: 1,1,2,4 (counts); sample holds only element 4.
        counts = np.array([0, 2, 1, 0, 1])
        # densities: stream cum = (0, .5, .75, .75, 1); sample cum = (0,0,0,0,1)
        assert prefix_discrepancy((4,), counts) == pytest.approx(0.75)
        # A perfectly proportional sample has discrepancy 0.
        assert prefix_discrepancy((1, 1, 2, 4), counts) == pytest.approx(0.0)

    def test_prefix_discrepancy_validation(self):
        with pytest.raises(EmptySampleError):
            prefix_discrepancy((), np.array([0, 1]))
        with pytest.raises(EmptySampleError):
            prefix_discrepancy((1,), np.array([0, 0]))


_BERNOULLI_GRID = {"bernoulli-0.5": {"family": "bernoulli", "probability": 0.5}}


class TestServiceConfigBlock:
    def test_defaults_are_filled_in(self):
        config = ScenarioConfig(
            name="svc", samplers=_BERNOULLI_GRID, service={"clients": 2},
        )
        assert config.service == {
            "staleness_rounds": 0, "clients": 2, "query_period": 32,
        }

    def test_unknown_service_field_rejected(self):
        with pytest.raises(ConfigurationError, match="service"):
            ScenarioConfig(
                name="svc", samplers=_BERNOULLI_GRID, service={"cadence": 3},
            )

    @pytest.mark.parametrize(
        "block",
        [
            {"staleness_rounds": -1},
            {"clients": -2},
            {"query_period": 0},
        ],
    )
    def test_invalid_service_values_rejected(self, block):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(name="svc", samplers=_BERNOULLI_GRID, service=block)

    def test_service_block_round_trips_through_json(self):
        config = ScenarioConfig(
            name="svc", samplers=_BERNOULLI_GRID,
            service={"staleness_rounds": 8, "clients": 3, "query_period": 16},
        )
        assert ScenarioConfig.from_json(config.to_json()) == config

    def test_builder_wraps_the_sampler_outermost(self):
        config = ScenarioConfig(
            name="svc", samplers=_BERNOULLI_GRID,
            defense={"kind": "sketch_switching", "copies": 2},
            service={"clients": 1, "query_period": 8},
        )
        factory = SamplerFromSpec(
            config.samplers["bernoulli-0.5"],
            defense=config.defense,
            service=config.service,
        )
        sampler = factory(np.random.default_rng(0))
        assert isinstance(sampler, ServedSampler)
        assert isinstance(sampler.inner, SketchSwitchingSampler)
        assert sampler.service_report()["query_period"] == 8

    def test_no_service_block_builds_the_bare_sampler(self):
        factory = SamplerFromSpec(_BERNOULLI_GRID["bernoulli-0.5"])
        assert not isinstance(factory(np.random.default_rng(0)), ServedSampler)
