"""Fault injection, crash/recovery and elastic resharding (PR 8).

The elasticity layer's contract, pinned here:

* :class:`FaultPlan` is pure, validated data — overlapping outages and
  topology changes inside an outage are rejected at construction, and
  :func:`compile_fault_spec` rejects malformed ``faults`` specs.
* Fault transitions fire *before* the element of their round on both the
  per-element and the chunked path, so a faulted run is bit-reproducible
  and chunking-independent under deterministic routing.
* ``"drop"`` loses outage traffic permanently (and accounts for it);
  ``"replay"`` buffers it and flushes the buffer through the ordinary
  ``extend`` kernel at the recovery boundary.
* The coordinator's merged view is memoised behind a version counter
  (repeated reads are free), stale windows serve the cached view across
  ingests (the stale-coordinator exploit), and every site↔coordinator
  exchange lands in the :class:`MessageCostLedger`.
* ``split_site`` / ``merge_sites`` implement the [CTW16] hypergeometric
  rule and its reverse: splits and merges preserve exact uniformity of the
  reservoir sample and are deterministic under a fixed seed.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.distributed import (
    FaultPlan,
    MessageCostLedger,
    Reshard,
    ShardedSampler,
    SiteCrash,
    StaleWindow,
)
from repro.distributed.faults import compile_fault_spec
from repro.exceptions import ConfigurationError
from repro.rng import ensure_generator
from repro.samplers import BernoulliSampler, ReservoirSampler

UNIVERSE = 64


def _reservoir_site(rng):
    return ReservoirSampler(8, seed=rng)


def _bernoulli_site(rng):
    return BernoulliSampler(0.4, seed=rng)


def _stream(n: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(1, UNIVERSE + 1, size=n)]


# ----------------------------------------------------------------------
# Plan validation and serialisation
# ----------------------------------------------------------------------
class TestFaultPlanValidation:
    def test_event_field_validation(self):
        with pytest.raises(ConfigurationError, match="loss model"):
            SiteCrash(site=0, round=5, loss="explode")
        with pytest.raises(ConfigurationError, match="round must be >= 1"):
            SiteCrash(site=0, round=0)
        with pytest.raises(ConfigurationError, match="recovery_rounds"):
            SiteCrash(site=0, round=5, recovery_rounds=0)
        with pytest.raises(ConfigurationError, match="duration"):
            StaleWindow(round=3, duration=0)
        with pytest.raises(ConfigurationError, match="needs an 'other'"):
            Reshard(round=5, op="merge", site=0)
        with pytest.raises(ConfigurationError, match="takes no 'other'"):
            Reshard(round=5, op="split", site=0, other=1)
        with pytest.raises(ConfigurationError, match="with itself"):
            Reshard(round=5, op="merge", site=2, other=2)
        with pytest.raises(ConfigurationError, match="unknown reshard op"):
            Reshard(round=5, op="rebalance", site=0)

    def test_overlapping_outages_per_site_are_rejected(self):
        with pytest.raises(ConfigurationError, match="still down"):
            FaultPlan(
                crashes=(
                    SiteCrash(site=1, round=10, recovery_rounds=20),
                    SiteCrash(site=1, round=15, recovery_rounds=5),
                )
            )
        with pytest.raises(ConfigurationError, match="never"):
            FaultPlan(
                crashes=(
                    SiteCrash(site=1, round=10),  # never recovers
                    SiteCrash(site=1, round=40, recovery_rounds=5),
                )
            )
        # Distinct sites may be down simultaneously.
        FaultPlan(
            crashes=(
                SiteCrash(site=0, round=10, recovery_rounds=20),
                SiteCrash(site=1, round=15, recovery_rounds=5),
            )
        )

    def test_reshards_inside_an_outage_are_rejected(self):
        with pytest.raises(ConfigurationError, match="inside the outage"):
            FaultPlan(
                crashes=(SiteCrash(site=0, round=10, recovery_rounds=10),),
                reshards=(Reshard(round=15, op="split", site=1),),
            )
        with pytest.raises(ConfigurationError, match="inside the outage"):
            FaultPlan(
                crashes=(SiteCrash(site=0, round=10),),  # permanent outage
                reshards=(Reshard(round=500, op="split", site=1),),
            )
        # Before the crash, or from the recovery boundary on, is fine.
        FaultPlan(
            crashes=(SiteCrash(site=0, round=10, recovery_rounds=10),),
            reshards=(
                Reshard(round=5, op="split", site=1),
                Reshard(round=21, op="merge", site=1, other=2),
            ),
        )

    def test_transition_fire_order_within_a_round(self):
        plan = FaultPlan(
            crashes=(
                SiteCrash(site=0, round=5, recovery_rounds=15),
                SiteCrash(site=1, round=20, recovery_rounds=5),
            ),
            reshards=(
                Reshard(round=30, op="merge", site=0, other=1),
                Reshard(round=30, op="split", site=2),
            ),
        )
        kinds = [(t.round, t.kind) for t in plan.transitions()]
        # Round 20: site 0's recovery fires before site 1's crash; round 30:
        # the split fires before the merge regardless of declaration order.
        assert kinds == [
            (5, "crash"),
            (20, "recover"),
            (20, "crash"),
            (25, "recover"),
            (30, "split"),
            (30, "merge"),
        ]

    def test_stale_window_coverage_and_truthiness(self):
        plan = FaultPlan(stale_windows=(StaleWindow(round=10, duration=5),))
        assert not plan.is_stale(9)
        assert plan.is_stale(10)
        assert plan.is_stale(14)
        assert not plan.is_stale(15)
        assert bool(plan)
        assert not bool(FaultPlan())


class TestCompileFaultSpec:
    def test_fractions_resolve_against_the_stream_length(self):
        plan = compile_fault_spec(
            {
                "crashes": [
                    {"site": 1, "round_fraction": 0.5, "recovery_fraction": 0.25}
                ],
                "stale_windows": [{"round_fraction": 0.1, "duration_fraction": 0.05}],
                "reshards": [{"round_fraction": 0.9, "op": "split", "site": 0}],
            },
            200,
        )
        assert plan.crashes[0].round == 100
        assert plan.crashes[0].recovery_rounds == 50
        assert plan.stale_windows[0] == StaleWindow(round=20, duration=10)
        assert plan.reshards[0].round == 180

    def test_tiny_fractions_clamp_to_one_round(self):
        plan = compile_fault_spec(
            {"stale_windows": [{"round_fraction": 0.001, "duration_fraction": 0.001}]},
            100,
        )
        assert plan.stale_windows[0] == StaleWindow(round=1, duration=1)

    def test_absolute_rounds_pass_through(self):
        plan = compile_fault_spec(
            {"crashes": [{"site": 0, "round": 17, "recovery_rounds": 4}]}, 100
        )
        assert plan.crashes[0].round == 17
        assert plan.crashes[0].recovery_rounds == 4

    def test_absolute_spec_of_every_event_kind_compiles_to_the_plan(self):
        """The one reader of the ``faults`` schema rebuilds a plan written
        with absolute rounds, every optional field included."""
        plan = FaultPlan(
            crashes=(SiteCrash(site=1, round=7, recovery_rounds=3, loss="replay"),),
            stale_windows=(StaleWindow(round=12, duration=4),),
            reshards=(
                Reshard(round=30, op="split", site=0),
                Reshard(round=40, op="merge", site=0, other=1, strategy="hash"),
            ),
        )
        spec = {
            "crashes": [{"site": 1, "round": 7, "recovery_rounds": 3, "loss": "replay"}],
            "stale_windows": [{"round": 12, "duration": 4}],
            "reshards": [
                {"round": 30, "op": "split", "site": 0},
                {"round": 40, "op": "merge", "site": 0, "other": 1, "strategy": "hash"},
            ],
        }
        assert compile_fault_spec(spec, 100) == plan

    def test_spec_validation_errors(self):
        with pytest.raises(ConfigurationError, match="pick one"):
            compile_fault_spec(
                {"crashes": [{"site": 0, "round": 5, "round_fraction": 0.5}]}, 100
            )
        with pytest.raises(ConfigurationError, match="needs either"):
            compile_fault_spec({"crashes": [{"site": 0}]}, 100)
        with pytest.raises(ConfigurationError, match="must lie in"):
            compile_fault_spec(
                {"crashes": [{"site": 0, "round_fraction": 1.5}]}, 100
            )
        with pytest.raises(ConfigurationError, match="needs a 'site'"):
            compile_fault_spec({"crashes": [{"round": 5}]}, 100)
        with pytest.raises(ConfigurationError, match="needs an 'op'"):
            compile_fault_spec({"reshards": [{"round": 5, "site": 0}]}, 100)
        with pytest.raises(ConfigurationError, match="unknown faults spec fields"):
            compile_fault_spec({"meteors": []}, 100)
        with pytest.raises(ConfigurationError, match="unknown fields in faults spec"):
            compile_fault_spec({"crashes": [{"site": 0, "round": 5, "bogus": 1}]}, 100)
        with pytest.raises(ConfigurationError, match="must be a list"):
            compile_fault_spec({"crashes": {"site": 0}}, 100)
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            compile_fault_spec([], 100)
        # A null or non-numeric number names its field instead of escaping
        # as a TypeError or ValueError.
        for field, spec in [
            ("round", {"crashes": [{"site": 0, "round": None}]}),
            ("round", {"crashes": [{"site": 0, "round": "soon"}]}),
            ("round", {"crashes": [{"site": 0, "round": float("inf")}]}),
            ("site", {"crashes": [{"site": "a", "round": 5}]}),
            ("recovery_rounds", {"crashes": [{"site": 0, "round": 5, "recovery_rounds": None}]}),
            ("round_fraction", {"crashes": [{"site": 0, "round_fraction": None}]}),
            ("recovery_fraction", {"crashes": [{"site": 0, "round": 5, "recovery_fraction": "x"}]}),
            ("duration", {"stale_windows": [{"round": 5, "duration": "long"}]}),
            ("duration_fraction", {"stale_windows": [{"round": 5, "duration_fraction": [0.1]}]}),
            ("round", {"reshards": [{"round": None, "op": "split", "site": 0}]}),
            ("site", {"reshards": [{"round": 5, "op": "split", "site": None}]}),
            ("other", {"reshards": [{"round": 5, "op": "merge", "site": 0, "other": "b"}]}),
        ]:
            with pytest.raises(ConfigurationError, match=f"'{field}' must be a number"):
                compile_fault_spec(spec, 100)

    @pytest.mark.parametrize(
        "spec, message",
        [
            # Integer fields refuse a bool, a fractional float and a string.
            ({"crashes": [{"site": True, "round": 2.7, "recovery_rounds": "3"}]},
             "faults crash #0 'site' must be a number, got True"),
            ({"crashes": [{"site": 1, "round": 2.7}]},
             "faults crash #0 'round' must be an integer, got 2.7"),
            ({"crashes": [{"site": 1, "round": 2, "recovery_rounds": "3"}]},
             "faults crash #0 'recovery_rounds' must be a number, got '3'"),
            ({"crashes": [{"site": 0, "round": False}]},
             "faults crash #0 'round' must be a number, got False"),
            ({"stale_windows": [{"round": 1, "duration": 1.9}]},
             "faults stale window #0 'duration' must be an integer, got 1.9"),
            ({"stale_windows": [{"round": "1", "duration": 2}]},
             "faults stale window #0 'round' must be a number, got '1'"),
            ({"reshards": [{"round": 5, "op": "split", "site": 0.5}]},
             "faults reshard #0 'site' must be an integer, got 0.5"),
            ({"reshards": [{"round": 5, "op": "merge", "site": 0, "other": True}]},
             "faults reshard #0 'other' must be a number, got True"),
            ({"crashes": [{"site": 0, "round": float("nan")}]},
             "faults crash #0 'round' must be a number, got nan"),
            # Fraction fields refuse a bool and a string.
            ({"crashes": [{"site": 0, "round_fraction": True}]},
             "faults crash #0 'round_fraction' must be a number, got True"),
            ({"crashes": [{"site": 0, "round": 5, "recovery_fraction": "0.5"}]},
             "faults crash #0 'recovery_fraction' must be a number, got '0.5'"),
            ({"stale_windows": [{"round_fraction": 0.1, "duration_fraction": False}]},
             "faults stale window #0 'duration_fraction' must be a number, got False"),
        ],
    )
    def test_numbers_are_not_coerced(self, spec, message):
        """A field is never parsed, truncated or coerced: the error names it."""
        with pytest.raises(ConfigurationError) as error:
            compile_fault_spec(spec, 100)
        assert str(error.value) == message

    def test_whole_floats_and_numpy_numbers_compile(self):
        """An integral float is an integer; numpy integers and floats are
        numbers."""
        spec = {
            "crashes": [{"site": 1.0, "round": np.int64(7), "recovery_rounds": 3.0}],
            "stale_windows": [{"round": 2, "duration_fraction": np.float64(0.05)}],
            "reshards": [{"round": 40.0, "op": "merge", "site": np.int32(0), "other": 1}],
        }
        plan = compile_fault_spec(spec, 100)
        assert plan == FaultPlan(
            crashes=(SiteCrash(site=1, round=7, recovery_rounds=3),),
            stale_windows=(StaleWindow(round=2, duration=5),),
            reshards=(Reshard(round=40, op="merge", site=0, other=1),),
        )
        assert type(plan.crashes[0].site) is int and type(plan.reshards[0].round) is int


# ----------------------------------------------------------------------
# Crash and recovery semantics
# ----------------------------------------------------------------------
class TestCrashSemantics:
    """Round-robin routing over two sites makes the per-site timeline exact:
    site 1 receives every even round.  A crash at round 10 recovering at
    round 20 therefore wipes site 1's four pre-crash rounds (2,4,6,8) and
    subjects its five outage rounds (10..18) to the loss model."""

    def _deploy(self, loss: str) -> ShardedSampler:
        plan = FaultPlan(
            crashes=(SiteCrash(site=1, round=10, recovery_rounds=10, loss=loss),)
        )
        return ShardedSampler(
            2, _reservoir_site, strategy="round_robin", seed=3, fault_plan=plan
        )

    def test_drop_loses_outage_traffic_permanently(self):
        sharded = self._deploy("drop")
        sharded.extend(_stream(30), updates=False)
        report = sharded.degradation_report()
        assert sharded.site_counts == (15, 6)  # wiped 4, dropped 5, kept 6
        assert report["total_rounds"] == 30
        assert report["survivor_rounds"] == 21
        assert report["dropped_rounds"] == 5
        assert report["pending_replay"] == 0
        assert report["lost_rounds"] == 9  # 4 wiped + 5 dropped
        assert report["coverage"] == pytest.approx(21 / 30)
        assert report["live_sites"] == 2

    def test_replay_buffers_and_flushes_at_recovery(self):
        sharded = self._deploy("replay")
        data = _stream(30)
        for element in data[:15]:  # stop mid-outage
            sharded.process(element)
        assert sharded.down_sites == (1,)
        mid = sharded.degradation_report()
        assert mid["pending_replay"] == 3  # rounds 10, 12, 14 buffered
        assert mid["dropped_rounds"] == 0
        sharded.extend(data[15:], updates=False)
        assert sharded.down_sites == ()
        report = sharded.degradation_report()
        assert sharded.site_counts == (15, 11)  # 5 replayed + 6 post-recovery
        assert report["pending_replay"] == 0
        assert report["dropped_rounds"] == 0
        assert report["lost_rounds"] == 4  # only the wiped pre-crash state
        assert report["coverage"] == pytest.approx(26 / 30)

    def test_crash_wipes_the_site_state(self):
        sharded = self._deploy("drop")
        data = _stream(30)
        for element in data[:9]:
            sharded.process(element)
        assert len(sharded.site_sample(1)) == 4
        sharded.process(data[9])  # round 10: the crash fires first
        assert sharded.site_sample(1) == ()
        assert sharded.down_sites == (1,)

    def test_down_site_updates_are_not_accepted(self):
        sharded = self._deploy("drop")
        data = _stream(30)
        for element in data[:9]:
            sharded.process(element)
        update = sharded.process(data[9])  # round 10 routes to the down site
        assert update.accepted is False
        assert update.round_index == 10

    def test_permanent_outage_degrades_the_merged_view(self):
        plan = FaultPlan(crashes=(SiteCrash(site=0, round=8),))
        sharded = ShardedSampler(
            2, _reservoir_site, strategy="round_robin", seed=3, fault_plan=plan
        )
        sharded.extend(_stream(40), updates=False)
        assert sharded.down_sites == (0,)
        report = sharded.degradation_report()
        assert report["live_sites"] == 1
        assert 0 < report["coverage"] < 1
        merged = report["merged"]
        assert merged["family"] == "reservoir"
        assert merged["rounds"] == report["survivor_rounds"]
        # The survivors' merged sample is still served.
        assert set(sharded.sample) <= set(_stream(40))

    def test_all_sites_down_serves_an_empty_sample(self):
        plan = FaultPlan(
            crashes=(SiteCrash(site=0, round=5), SiteCrash(site=1, round=5))
        )
        sharded = ShardedSampler(
            2, _reservoir_site, strategy="round_robin", seed=3, fault_plan=plan
        )
        sharded.extend(_stream(10), updates=False)
        assert sharded.sample == ()
        with pytest.raises(ConfigurationError, match="every site is down"):
            sharded.merged_sampler()

    def test_reset_rewinds_the_fault_timeline(self):
        sharded = self._deploy("drop")
        sharded.extend(_stream(30), updates=False)
        assert sharded.degradation_report()["dropped_rounds"] == 5
        sharded.reset()
        assert sharded.down_sites == ()
        assert sharded.rounds_processed == 0
        assert sharded.ledger.total_messages == 0
        sharded.extend(_stream(30, seed=1), updates=False)
        # The plan replays from round 1 after a reset.
        assert sharded.degradation_report()["dropped_rounds"] == 5


class TestChunkingIndependence:
    """Transitions fire before their round's element on both ingestion
    paths, so any chunking of the stream produces the identical faulted
    deployment under deterministic routing and chunk-identical kernels."""

    PLAN = FaultPlan(
        crashes=(SiteCrash(site=1, round=40, recovery_rounds=25, loss="replay"),),
        stale_windows=(StaleWindow(round=70, duration=20),),
        reshards=(
            Reshard(round=100, op="split", site=0),
            Reshard(round=130, op="merge", site=0, other=2),
        ),
    )

    def _ingest(self, chunks: list[int]) -> ShardedSampler:
        sharded = ShardedSampler(
            3, _bernoulli_site, strategy="hash", seed=11, fault_plan=self.PLAN
        )
        data = _stream(150)
        position = 0
        for size in chunks:
            sharded.extend(data[position : position + size], updates=False)
            position += size
        assert position == 150
        return sharded

    def test_chunked_equals_per_element(self):
        whole = self._ingest([150])
        ragged = self._ingest([13] * 11 + [7])
        single = self._ingest([1] * 150)
        for other in (ragged, single):
            assert other.site_counts == whole.site_counts
            assert other.num_sites == whole.num_sites
            assert tuple(other.sample) == tuple(whole.sample)
            assert other.degradation_report() == whole.degradation_report()

    def test_faulted_runs_are_bit_reproducible(self):
        one, two = self._ingest([150]), self._ingest([150])
        assert tuple(one.sample) == tuple(two.sample)
        assert one.ledger.to_dict() == two.ledger.to_dict()


# ----------------------------------------------------------------------
# Memoisation and stale windows
# ----------------------------------------------------------------------
class TestMergedViewMemoisation:
    def test_repeated_reads_cost_one_merge(self):
        sharded = ShardedSampler(3, _reservoir_site, strategy="hash", seed=2)
        sharded.extend(_stream(60), updates=False)
        first = sharded.merged_sampler()
        for _ in range(5):
            assert sharded.merged_sampler() is first
        assert sharded.ledger.events("merge") == 1
        assert sharded.ledger.messages("merge") == 3

    def test_fresh_reads_match_the_ctw16_message_bound(self):
        """Q reads of a K-site deployment, each after fresh ingest, spend Q*K
        messages and at most Q*K*capacity payload; re-reading it unchanged
        spends nothing."""
        sites, reads = 4, 10
        sharded = ShardedSampler(sites, _reservoir_site, strategy="hash", seed=1)
        data = _stream(reads * 200)
        for index in range(reads):
            sharded.extend(data[index * 200 : (index + 1) * 200], updates=False)
            sharded.merged_sampler()
        ledger = sharded.ledger
        assert ledger.events("merge") == reads
        assert ledger.messages("merge") == reads * sites
        assert ledger.payload("merge") <= reads * sites * 8
        for _ in range(reads):
            sharded.merged_sampler()
        assert ledger.messages("merge") == reads * sites

    def test_ingest_invalidates_the_cache(self):
        sharded = ShardedSampler(3, _reservoir_site, strategy="hash", seed=2)
        sharded.extend(_stream(60), updates=False)
        version = sharded.version
        sharded.merged_sampler()
        sharded.process(7)
        assert sharded.version > version
        sharded.merged_sampler()
        assert sharded.ledger.events("merge") == 2

    def test_reshard_and_crash_invalidate_the_cache(self):
        sharded = ShardedSampler(3, _reservoir_site, strategy="hash", seed=2)
        sharded.extend(_stream(60), updates=False)
        sharded.merged_sampler()
        sharded.split_site(0)
        sharded.merged_sampler()
        assert sharded.ledger.events("merge") == 2

    def test_exposure_observing_sites_bypass_the_cache(self):
        """Defense wrappers advance serving state on every read, so their
        merged view must be rebuilt per read (PR 7 semantics preserved)."""
        from repro.defenses import SketchSwitchingSampler

        def site(rng):
            return SketchSwitchingSampler(
                lambda r: BernoulliSampler(0.3, seed=r), copies=2, seed=rng
            )

        sharded = ShardedSampler(2, site, strategy="hash", seed=4)
        sharded.extend(_stream(40), updates=False)
        sharded.merged_sampler()
        sharded.merged_sampler()
        assert sharded.ledger.events("merge") == 2

    # The served path: ``sample`` reads share the memo (reservoir reads
    # draw through ``merged_sample`` and cache no sampler).
    def test_repeated_sample_reads_cost_one_merge(self):
        sharded = ShardedSampler(3, _reservoir_site, strategy="hash", seed=2)
        sharded.extend(_stream(60), updates=False)
        first = sharded.sample
        for _ in range(5):
            assert sharded.sample == first
        assert sharded.ledger.events("merge") == 1
        assert sharded.ledger.messages("merge") == 3

    def test_ingest_invalidates_the_served_sample(self):
        sharded = ShardedSampler(3, _reservoir_site, strategy="hash", seed=2)
        sharded.extend(_stream(60), updates=False)
        assert len(sharded.sample) == 8
        sharded.process(7)
        assert len(sharded.sample) == 8
        assert sharded.ledger.events("merge") == 2

    def test_reshard_invalidates_the_served_sample(self):
        sharded = ShardedSampler(3, _reservoir_site, strategy="hash", seed=2)
        sharded.extend(_stream(60), updates=False)
        assert len(sharded.sample) == 8
        sharded.split_site(0)
        assert len(sharded.sample) == 8
        assert sharded.ledger.events("merge") == 2

    def test_exposure_observing_sites_re_merge_on_every_sample_read(self):
        from repro.defenses import SketchSwitchingSampler

        def site(rng):
            return SketchSwitchingSampler(
                lambda r: BernoulliSampler(0.3, seed=r), copies=2, seed=rng
            )

        sharded = ShardedSampler(2, site, strategy="hash", seed=4)
        sharded.extend(_stream(40), updates=False)
        assert sharded.sample == sharded.sample
        assert sharded.ledger.events("merge") == 2

    def test_full_merge_after_a_sample_read_is_served_from_then_on(self):
        """A reservoir read caches no sampler, so ``merged_sampler()`` at
        the same version draws again; both then serve that second draw."""
        sharded = ShardedSampler(3, _reservoir_site, strategy="hash", seed=2)
        sharded.extend(_stream(60), updates=False)
        assert len(sharded.sample) == 8
        merged = sharded.merged_sampler()
        assert sharded.merged_sampler() is merged
        assert sharded.sample == tuple(merged.sample)
        assert sharded.ledger.events("merge") == 2


class TestStaleWindows:
    PLAN = FaultPlan(stale_windows=(StaleWindow(round=21, duration=20),))

    def _deploy(self) -> ShardedSampler:
        return ShardedSampler(
            2, _reservoir_site, strategy="hash", seed=5, fault_plan=self.PLAN
        )

    def test_window_serves_the_cached_view_across_ingests(self):
        sharded = self._deploy()
        sharded.extend(_stream(20), updates=False)
        before = sharded.merged_sampler()
        sharded.extend(_stream(10, seed=9), updates=False)  # rounds 21..30: stale
        assert sharded.merged_sampler() is before
        assert sharded.ledger.events("merge") == 1, "no messages spent while stale"

    def test_fresh_merge_after_the_window_closes(self):
        sharded = self._deploy()
        sharded.extend(_stream(20), updates=False)
        stale_view = sharded.merged_sampler()
        sharded.extend(_stream(25, seed=9), updates=False)  # round 45 > window end
        fresh = sharded.merged_sampler()
        assert fresh is not stale_view
        assert fresh.rounds_processed == 45
        assert sharded.ledger.events("merge") == 2

    def test_window_serves_the_pre_window_sample_across_ingests(self):
        sharded = self._deploy()
        sharded.extend(_stream(20), updates=False)
        before = sharded.sample
        sharded.extend(_stream(10, seed=9), updates=False)  # rounds 21..30: stale
        assert sharded.sample == before
        assert sharded.ledger.events("merge") == 1, "no messages spent while stale"
        assert sharded.ledger.messages("merge") == 2

    def test_fresh_sample_after_the_window_closes(self):
        sharded = self._deploy()
        sharded.extend(_stream(20), updates=False)
        assert len(sharded.sample) == 8
        sharded.extend(_stream(25, seed=9), updates=False)  # round 45 > window end
        assert len(sharded.sample) == 8
        assert sharded.ledger.events("merge") == 2


# ----------------------------------------------------------------------
# Elastic resharding
# ----------------------------------------------------------------------
class TestReservoirSplitKernel:
    def test_split_partitions_the_stored_sample(self):
        reservoir = ReservoirSampler(8, seed=1)
        reservoir.extend(range(100), updates=False)
        before = Counter(reservoir.sample)
        sibling = reservoir.split(rng=ensure_generator(2))
        assert Counter(reservoir.sample) + Counter(sibling.sample) == before
        assert reservoir.rounds_processed == 50
        assert sibling.rounds_processed == 50
        assert sibling.capacity == 8

    def test_split_is_deterministic_under_a_fixed_generator(self):
        def run():
            reservoir = ReservoirSampler(8, seed=1)
            reservoir.extend(range(100), updates=False)
            sibling = reservoir.split(rng=ensure_generator(2))
            return list(reservoir.sample), list(sibling.sample)

        assert run() == run()

    def test_split_rejects_ablation_evictions(self):
        fifo = ReservoirSampler(4, seed=0, eviction="fifo")
        with pytest.raises(ConfigurationError, match="not splittable"):
            fifo.split()

    def test_split_is_statistically_uniform(self):
        """Marginal membership pin: with capacity 4 over 20 rounds, a stored
        element moves to the sibling with probability take/4 where take ~
        Hypergeometric(10, 10, 4), so any fixed element lands in either
        half's sample with probability (4/20) * (1/2) = 0.1."""
        parent_hits: Counter = Counter()
        sibling_hits: Counter = Counter()
        trials = 600
        for trial in range(trials):
            reservoir = ReservoirSampler(4, seed=trial)
            reservoir.extend(range(20), updates=False)
            sibling = reservoir.split(rng=ensure_generator(10_000 + trial))
            parent_hits.update(reservoir.sample)
            sibling_hits.update(sibling.sample)
        expected = trials * (4 / 20) * 0.5
        for element in range(20):
            for hits in (parent_hits, sibling_hits):
                assert 0.3 * expected < hits[element] < 2.5 * expected, (
                    element,
                    hits[element],
                    expected,
                )

    def test_split_then_merge_stays_uniform(self):
        """The [CTW16] merge of a split pair is again a uniform sample."""
        hits: Counter = Counter()
        trials = 400
        for trial in range(trials):
            reservoir = ReservoirSampler(4, seed=trial)
            reservoir.extend(range(30), updates=False)
            sibling = reservoir.split(rng=ensure_generator(5_000 + trial))
            merged = reservoir.merge([sibling], rng=ensure_generator(9_000 + trial))
            assert merged.rounds_processed == 30
            assert merged.sample_size == 4
            hits.update(merged.sample)
        expected = trials * 4 / 30
        for element in range(30):
            assert 0.3 * expected < hits[element] < 2.5 * expected, (
                element,
                hits[element],
                expected,
            )


class TestShardedResharding:
    def test_split_site_grows_the_topology(self):
        sharded = ShardedSampler(2, _reservoir_site, strategy="hash", seed=6)
        sharded.extend(_stream(80), updates=False)
        rounds_before = sharded.site_counts[0]
        new_site = sharded.split_site(0)
        assert new_site == 2
        assert sharded.num_sites == 3
        assert sharded.site_counts[0] + sharded.site_counts[2] == rounds_before
        assert sharded.rounds_processed == 80
        sharded.extend(_stream(40, seed=1), updates=False)
        assert sharded.rounds_processed == 120
        assert sum(sharded.site_counts) == 120
        assert sharded.site_counts[2] > 0, "routing reaches the new site"

    def test_merge_sites_shrinks_the_topology(self):
        sharded = ShardedSampler(3, _reservoir_site, strategy="hash", seed=6)
        sharded.extend(_stream(90), updates=False)
        counts = sharded.site_counts
        kept = sharded.merge_sites(2, 1)
        assert kept == 1
        assert sharded.num_sites == 2
        assert sharded.site_counts == (counts[0], counts[1] + counts[2])
        assert sharded.rounds_processed == 90

    def test_resharding_validation(self):
        sharded = ShardedSampler(2, _reservoir_site, strategy="hash", seed=6)
        sharded.extend(_stream(20), updates=False)
        with pytest.raises(ConfigurationError):
            sharded.split_site(5)
        with pytest.raises(ConfigurationError):
            sharded.merge_sites(0, 0)
        with pytest.raises(ConfigurationError):
            sharded.merge_sites(0, 7)
        sharded.merge_sites(0, 1)
        with pytest.raises(ConfigurationError):  # only one site remains
            sharded.merge_sites(0, 1)

    def test_strategy_rebind_on_split(self):
        sharded = ShardedSampler(
            2,
            _reservoir_site,
            strategy={"kind": "skewed", "hot_fraction": 0.9},
            seed=6,
        )
        sharded.extend(_stream(50), updates=False)
        sharded.split_site(0, strategy="round_robin")
        sharded.extend(_stream(30, seed=2), updates=False)
        assert min(sharded.site_counts) > 0, "rebound routing spreads the load"

    def test_split_site_ledger_and_determinism(self):
        def run():
            plan = FaultPlan(reshards=(Reshard(round=41, op="split", site=0),))
            sharded = ShardedSampler(
                2, _reservoir_site, strategy="hash", seed=8, fault_plan=plan
            )
            sharded.extend(_stream(80), updates=False)
            return sharded

        one, two = run(), run()
        assert tuple(one.sample) == tuple(two.sample)
        assert one.site_counts == two.site_counts
        assert one.ledger.events("reshard_split") == 1
        assert one.ledger.messages("reshard_split") == 1


# ----------------------------------------------------------------------
# Message-cost ledger
# ----------------------------------------------------------------------
class TestMessageCostLedger:
    def test_record_and_totals(self):
        ledger = MessageCostLedger()
        ledger.record("merge", messages=4, payload=32)
        ledger.record("merge", messages=4, payload=30)
        ledger.record("crash")
        assert ledger.events("merge") == 2
        assert ledger.messages("merge") == 8
        assert ledger.payload("merge") == 62
        assert ledger.events("crash") == 1
        assert ledger.total_messages == 8
        assert ledger.total_payload == 62
        assert ledger.to_dict() == {
            "crash": {"events": 1, "messages": 0, "payload": 0},
            "merge": {"events": 2, "messages": 8, "payload": 62},
        }
        ledger.reset()
        assert ledger.total_messages == 0

    def test_negative_values_are_rejected(self):
        with pytest.raises(ConfigurationError):
            MessageCostLedger().record("merge", messages=-1)

    def test_deployment_ledger_shapes(self):
        plan = FaultPlan(
            crashes=(SiteCrash(site=1, round=20, recovery_rounds=10, loss="replay"),)
        )
        sharded = ShardedSampler(
            2, _reservoir_site, strategy="round_robin", seed=3, fault_plan=plan
        )
        sharded.extend(_stream(40), updates=False)
        ledger = sharded.ledger
        assert ledger.events("crash") == 1
        assert ledger.messages("crash") == 0
        assert ledger.events("recovery") == 1
        assert ledger.messages("recovery") == 1
        assert ledger.payload("recovery") == 5  # rounds 20..28 even, buffered
        sharded.merged_sampler()
        assert ledger.messages("merge") == 2  # one per live site
        assert ledger.payload("merge") <= 2 * 8  # K * capacity


# ----------------------------------------------------------------------
# Scenario integration
# ----------------------------------------------------------------------
class TestScenarioIntegration:
    def _config(self, **overrides):
        from repro.scenarios import ScenarioConfig

        base = dict(
            name="faulted",
            stream_length=120,
            universe_size=32,
            trials=1,
            samplers={"reservoir-8": {"family": "reservoir", "capacity": 8}},
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.5},
            },
            set_system={"kind": "prefix"},
            sharding={"sites": 3, "strategy": "hash"},
            faults={
                "crashes": [
                    {
                        "site": 1,
                        "round_fraction": 0.4,
                        "recovery_fraction": 0.2,
                        "loss": "replay",
                    }
                ]
            },
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    def test_faults_require_a_sharding_block(self):
        with pytest.raises(ConfigurationError, match="requires a 'sharding'"):
            self._config(sharding=None)

    def test_crash_sites_are_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            self._config(
                faults={"crashes": [{"site": 9, "round_fraction": 0.4}]}
            )

    def test_faulted_config_runs_bit_reproducibly(self):
        from repro.scenarios import run_config

        config = self._config()
        first = run_config(config)
        second = run_config(config)
        assert first.to_dict(include_timing=False) == second.to_dict(
            include_timing=False
        )

    def test_fraction_spec_survives_stream_rescaling(self):
        config = self._config()
        smaller = config.replace(stream_length=60)
        assert smaller.faults["crashes"][0]["round_fraction"] == 0.4
        compiled = compile_fault_spec(smaller.faults, smaller.stream_length)
        assert compiled.crashes[0].round == 24

    def test_registered_fault_scenarios_declare_faults(self):
        from repro.scenarios import SCENARIOS

        for name in (
            "recovery_window_strike",
            "hotspot_split_flood",
            "stale_coordinator_probe",
        ):
            config = SCENARIOS[name].base_config
            assert config.faults, f"{name} lost its faults block"
            assert config.sharding is not None
            compile_fault_spec(config.faults, config.stream_length)
