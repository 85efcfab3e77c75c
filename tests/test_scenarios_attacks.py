"""Attack-scenario suite: every registered scenario runs, reproduces, and
is budget-monotone.

Three properties are pinned for the whole registry (in the style of the
attack-scenario suites this layer is modelled on):

* **runs at small scale** — every scenario executes end to end with reduced
  stream/universe/trials and produces sane, bounded statistics;
* **bit-reproducible** — the same config yields the identical result
  (excluding wall time), and a 2-worker pool reproduces the serial run;
* **budget-monotone** — a larger attack budget never yields a smaller
  *attacked* peak discrepancy.  This is structural, not statistical: the
  budget wrapper never leaks the budget into the attack prefix, per-trial
  substreams are derived from budget-independent labels, and checkpoint
  schedules depend only on the stream length, so a low-budget run observes a
  prefix subset of a high-budget run's attacked checkpoints.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import MixingGreedyDensityAdversary, run_adaptive_game
from repro.adversary.base import SAMPLE_NEEDS
from repro.exceptions import ConfigurationError
from repro.samplers import BernoulliSampler
from repro.scenarios import (
    SCENARIOS,
    AdversaryFromSpec,
    BudgetedAdversary,
    ScenarioConfig,
    get_scenario,
    list_scenarios,
    run_config,
    run_scenario,
    sweep_scenario,
)
from repro.setsystems import Prefix

#: Reduced scale shared by the whole suite: big enough for the attacks to
#: show signal, small enough that the full registry runs in a few seconds.
SMALL = dict(stream_length=192, universe_size=64, trials=2)

ALL_SCENARIOS = list(SCENARIOS)


class TestRegistry:
    def test_at_least_eight_scenarios_registered(self):
        assert len(SCENARIOS) >= 8

    def test_expected_names_present(self):
        expected = {
            "prefix_flood",
            "bisection_probe",
            "reservoir_eviction",
            "heavy_hitter_spoof",
            "quantile_shift",
            "sliding_window_burst",
            "distributed_skew",
            "static_baseline",
        }
        assert expected <= set(SCENARIOS)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("definitely_not_registered")

    def test_listing_is_serialisable_and_complete(self):
        listing = list_scenarios()
        assert [entry["name"] for entry in listing] == ALL_SCENARIOS
        for entry in listing:
            assert entry["description"]
            assert entry["budget_grid"]

    def test_config_json_round_trip(self):
        for scenario in SCENARIOS.values():
            config = scenario.base_config
            assert ScenarioConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize("name", ALL_SCENARIOS)
class TestEveryScenario:
    def test_runs_at_small_scale(self, name):
        result = run_scenario(name, **SMALL)
        assert result.scenario == name
        assert result.cells, "scenario produced no grid cells"
        assert len(result.cells) == len(SCENARIOS[name].base_config.samplers)
        assert result.wall_time_seconds > 0.0
        assert result.peak_discrepancy is not None
        assert 0.0 <= result.peak_discrepancy <= 1.0
        for cell in result.cells:
            assert cell["trials"] == SMALL["trials"]
            assert 0.0 <= cell["mean_error"] <= 1.0
            assert cell["mean_sample_size"] > 0.0
            if cell["violation_rate"] is not None:
                assert 0.0 <= cell["violation_rate"] <= 1.0

    def test_bit_reproducible_under_fixed_seed(self, name):
        first = run_scenario(name, **SMALL)
        second = run_scenario(name, **SMALL)
        assert first.to_dict(include_timing=False) == second.to_dict(include_timing=False)

    def test_budget_monotonicity(self, name):
        """Larger attack budget => no smaller observed (attacked) error."""
        scenario = SCENARIOS[name]
        peaks = [
            run_scenario(name, attack_budget=budget, **SMALL).attacked_peak_discrepancy
            for budget in scenario.budget_grid
        ]
        for lower, higher in zip(peaks, peaks[1:]):
            if lower is None:
                continue  # no checkpoint inside the smaller attack window
            assert higher is not None
            assert lower <= higher + 1e-12, (
                f"{name}: attacked peak shrank when the budget grew: {peaks}"
            )


class TestScenarioSemantics:
    def test_worker_pool_reproduces_serial_run(self):
        serial = run_scenario("prefix_flood", workers=1, **SMALL)
        pooled = run_scenario("prefix_flood", workers=2, **SMALL)
        assert serial.cells == pooled.cells
        assert serial.peak_discrepancy == pooled.peak_discrepancy

    def test_attack_beats_no_attack(self):
        """The bisection probe visibly hurts the Bernoulli sampler.

        The comparison is on the Bernoulli cell's endpoint error: the
        introduction's attack separates stored from unstored elements of a
        *fixed-retention* sampler, so that is where the signal is (the
        reservoir cell recovers via evictions — also visible here).
        """

        def bernoulli_error(result):
            (cell,) = [c for c in result.cells if c["sampler"].startswith("bernoulli")]
            return cell["mean_error"]

        attacked = run_scenario("bisection_probe", attack_budget=1.0, **SMALL)
        benign = run_scenario("bisection_probe", attack_budget=0.0, **SMALL)
        assert bernoulli_error(attacked) > bernoulli_error(benign) + 0.05

    def test_oversampling_defends_against_prefix_flood(self):
        """Theorem 1.2 in scenario form: the ln|R|-sized reservoir survives
        the same greedy flood that breaks the small samplers."""
        defended = run_scenario("oversample_defense", **SMALL)
        assert defended.max_violation_rate == 0.0
        attacked = run_scenario("prefix_flood", **SMALL)
        assert defended.peak_discrepancy <= attacked.peak_discrepancy

    def test_static_baseline_budget_invariant(self):
        """The oblivious baseline's stream is budget-independent by design.

        Everything except the attacked-window bookkeeping (which by
        definition depends on the budget) must be bit-identical.
        """
        low = run_scenario("static_baseline", attack_budget=0.0, **SMALL)
        high = run_scenario("static_baseline", attack_budget=1.0, **SMALL)

        def observable(cells):
            return [
                {k: v for k, v in cell.items() if k != "attacked_peak_discrepancy"}
                for cell in cells
            ]

        assert observable(low.cells) == observable(high.cells)

    def test_different_seeds_differ(self):
        one = run_scenario("prefix_flood", seed=1, **SMALL)
        two = run_scenario("prefix_flood", seed=2, **SMALL)
        assert one.cells != two.cells

    def test_run_config_accepts_ad_hoc_scenarios(self):
        """Unregistered configs run through the same engine."""
        config = ScenarioConfig(
            name="ad_hoc",
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
        result = run_config(config)
        assert result.scenario == "ad_hoc"
        assert result.cells[0]["sampler"] == "reservoir-8"

    def test_sweep_grid_shape_and_determinism(self):
        results = sweep_scenario(
            "reservoir_eviction", budgets=(0.5, 1.0), seeds=(1, 2), **SMALL
        )
        assert len(results) == 4
        grid = {
            (r.config["attack_budget"], r.config["seed"]): r.peak_discrepancy
            for r in results
        }
        assert set(grid) == {(0.5, 1), (0.5, 2), (1.0, 1), (1.0, 2)}
        # A sweep point must equal the equivalent standalone run.
        standalone = run_scenario("reservoir_eviction", attack_budget=0.5, seed=2, **SMALL)
        assert grid[(0.5, 2)] == standalone.peak_discrepancy

    def test_overrides_are_validated(self):
        with pytest.raises(ConfigurationError):
            run_scenario("prefix_flood", attack_budget=1.5)
        with pytest.raises(ConfigurationError):
            run_scenario("prefix_flood", nonsense_field=3)

    def test_result_serialises_to_json(self):
        result = run_scenario("heavy_hitter_spoof", **SMALL)
        import json

        data = json.loads(result.to_json())
        assert data["scenario"] == "heavy_hitter_spoof"
        assert data["config"]["knowledge"] == "updates"
        assert len(data["cells"]) == 2


GREEDY = {"family": "greedy_density", "target": {"kind": "prefix", "bound_fraction": 0.5}}


class TestBudgetWrapper:
    def _build(self, attack_budget, **fields):
        config = ScenarioConfig(
            name="wrapper", **SMALL, attack_budget=attack_budget, adversary=GREEDY, **fields
        )
        return AdversaryFromSpec(config)(np.random.default_rng(3))

    def test_wrapper_only_below_full_budget(self):
        assert type(self._build(1.0)) is MixingGreedyDensityAdversary
        wrapped = self._build(0.5)
        assert isinstance(wrapped, BudgetedAdversary)
        assert type(wrapped.inner) is MixingGreedyDensityAdversary
        assert wrapped.attack_rounds == SMALL["stream_length"] // 2

    @pytest.mark.parametrize("attack_budget", [0.5, 1.0])
    def test_bad_benign_spec_rejected_at_every_budget(self, attack_budget):
        with pytest.raises(ConfigurationError, match="unknown benign spec kind"):
            self._build(attack_budget, benign={"kind": "bogus"})

    @pytest.mark.parametrize("chunk_size", [1, 256])
    def test_benign_tail_reads_no_sample(self, chunk_size):
        """Only attack rounds read the sample view; the benign tail's
        segments must not (on a sharded deployment each read is a fresh
        merge, under sketch switching an exposure)."""
        reads = []

        class CountingSampler(BernoulliSampler):
            @property
            def sample(self):
                reads.append(self.rounds_processed)
                return super().sample

        rng = np.random.default_rng(0)
        adversary = BudgetedAdversary(
            MixingGreedyDensityAdversary(Prefix(32), 1, 64),
            lambda: int(rng.integers(1, 65)),
            attack_rounds=1024,
        )
        run_adaptive_game(
            CountingSampler(0.05, seed=1), adversary, 4096, chunk_size=chunk_size
        )
        # One view per attack round, then the final snapshot.
        assert reads == [*range(1024), 4096]
        adversary.reset()
        assert adversary.decision_needs in SAMPLE_NEEDS
