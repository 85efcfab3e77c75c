"""Property-based fuzzing of the scenario configuration space.

``repro.scenarios.fuzz`` samples random valid configs spanning samplers ×
adversaries × campaigns × sharding × knowledge × cadence and checks the four
registry-wide invariants (bit-reproducibility, budget monotonicity, chunking
independence, sharded/unsharded agreement).  This module drives it two ways:

* Hypothesis draws :class:`FuzzChoices` through :func:`choices_strategy` and
  asserts no invariant fails on any drawn config — the example budget comes
  from the ``fuzz-smoke`` / ``fuzz-nightly`` profiles in ``conftest.py``;
* the numpy-based :func:`random_choices` / :func:`fuzz` front door (what
  ``repro-experiments scenario fuzz`` runs) is pinned for distinctness,
  report shape and failure surfacing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given

from repro.scenarios import fuzz as fuzz_module
from repro.scenarios.builders import MERGEABLE_SAMPLER_FAMILIES
from repro.scenarios.fuzz import (
    ADVERSARY_POOL,
    CAMPAIGN_POOL,
    INVARIANTS,
    SAMPLER_POOL,
    FuzzChoices,
    InvariantResult,
    build_fuzz_config,
    check_invariants,
    choices_strategy,
    fuzz,
    random_choices,
)


class TestChoices:
    def test_adversary_and_campaign_are_mutually_exclusive(self):
        kwargs = dict(
            stream_length=64,
            universe_size=16,
            knowledge="full",
            set_system="prefix",
            sampler="bernoulli",
            sites=None,
            strategy=None,
            decision_period=None,
            seed=0,
        )
        with pytest.raises(ValueError, match="exactly one"):
            FuzzChoices(adversary="uniform", campaign="interleaved_pair", **kwargs)
        with pytest.raises(ValueError, match="exactly one"):
            FuzzChoices(adversary=None, campaign=None, **kwargs)

    def test_unmergeable_samplers_cannot_be_sharded(self):
        with pytest.raises(ValueError, match="cannot be sharded"):
            FuzzChoices(
                stream_length=64,
                universe_size=16,
                knowledge="full",
                set_system="prefix",
                sampler="weighted_reservoir",
                sites=2,
                strategy="hash",
                adversary="uniform",
                campaign=None,
                decision_period=None,
                seed=0,
            )

    def test_random_choices_are_always_valid(self):
        rng = np.random.default_rng(11)
        saw_campaign = saw_sharded = False
        for index in range(60):
            choices = random_choices(rng, seed=index)
            config = build_fuzz_config(choices)  # validates via ScenarioConfig
            assert config.trials == 1
            assert config.seed == index
            saw_campaign = saw_campaign or choices.campaign is not None
            saw_sharded = saw_sharded or choices.sites is not None
        assert saw_campaign and saw_sharded, "pools are not being explored"


    def test_random_choices_draws_are_pinned(self):
        """The numpy front door's draws, pinned: the first 200 draws of one
        ``default_rng(0)`` generator hash to a fixed digest, so a change to
        the choice rules (or their draw order) cannot pass unnoticed."""
        rng = np.random.default_rng(0)
        draws = [asdict(random_choices(rng, seed=index)) for index in range(200)]
        digest = hashlib.sha256(json.dumps(draws, sort_keys=True).encode()).hexdigest()
        assert digest == "fa47e7ed96fab84f2e8dc28d04e9fd3304c2c19c9a0909449715ab2bafadbb8c"


class TestHypothesisStrategy:
    @given(choices=choices_strategy())
    def test_drawn_choices_build_valid_configs(self, choices):
        config = build_fuzz_config(choices)
        assert config.samplers and config.trials == 1
        if choices.sites is not None:
            family = SAMPLER_POOL[choices.sampler]["family"]
            assert family in MERGEABLE_SAMPLER_FAMILIES
            assert config.sharding == {
                "sites": choices.sites,
                "strategy": choices.strategy,
            }
        if choices.campaign is not None:
            assert config.campaign is not None
            assert config.adversary_label.startswith("campaign:")
        else:
            assert config.campaign is None

    @given(choices=choices_strategy())
    def test_invariants_hold_on_every_drawn_config(self, choices):
        """The tentpole property: all four registry-wide invariants, on a
        random point of the full scenario knob space."""
        config = build_fuzz_config(choices)
        outcomes = check_invariants(config)
        assert [outcome.name for outcome in outcomes] == list(INVARIANTS)
        failures = [outcome for outcome in outcomes if outcome.status == "failed"]
        assert not failures, [(f.name, f.detail) for f in failures]


class TestFuzzBatch:
    def test_report_shape_and_distinctness(self):
        report = fuzz(6, seed=424242)
        assert report.ok
        assert report.examples == 6
        # Per-config seeds are base + index, so configs are pairwise distinct.
        assert report.distinct_configs == 6
        assert set(report.invariants) == set(INVARIANTS)
        for counts in report.invariants.values():
            assert counts["failed"] == 0
            assert counts["passed"] + counts["skipped"] == 6
        assert "all invariants held" in report.summary()
        data = report.to_dict()
        assert data["ok"] is True and data["failures"] == []

    def test_nightly_budget_yields_200_distinct_configs(self):
        """The acceptance floor: 200 draws, 200 distinct valid configs.

        Build-only (no engine runs), so this is cheap enough for every CI
        run; the nightly workflow executes the invariants on the same draws
        via ``scenario fuzz --count 200``.
        """
        rng = np.random.default_rng(0)
        seen = set()
        for index in range(200):
            config = build_fuzz_config(random_choices(rng, seed=index))
            seen.add(config.to_json(indent=None))
        assert len(seen) == 200

    def test_failures_are_surfaced(self, monkeypatch):
        def broken(config):
            return [
                InvariantResult("bit_reproducibility", "failed", "synthetic break"),
                InvariantResult("budget_monotonicity", "passed"),
                InvariantResult("chunking_independence", "skipped", "gated"),
                InvariantResult("sharded_agreement", "skipped", "unsharded"),
            ]

        monkeypatch.setattr(fuzz_module, "check_invariants", broken)
        report = fuzz_module.fuzz(2, seed=1)
        assert not report.ok
        assert len(report.failures) == 2
        assert report.invariants["bit_reproducibility"]["failed"] == 2
        assert "synthetic break" in report.summary()
        assert report.failures[0]["choices"]["seed"] == 1

    def test_pools_cover_the_documented_space(self):
        """The pool contracts the docs advertise: every campaign mode, both
        solo oblivious and cadenced adversaries, all mergeable families."""
        modes = {spec["mode"] for spec in CAMPAIGN_POOL.values()}
        assert modes == {"phased", "interleaved"}
        families = {spec["family"] for spec in ADVERSARY_POOL.values()}
        assert "uniform" in families and "greedy_density" in families
        sampler_families = {spec["family"] for spec in SAMPLER_POOL.values()}
        assert set(MERGEABLE_SAMPLER_FAMILIES) <= sampler_families
