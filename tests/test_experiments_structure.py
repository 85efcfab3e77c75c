"""Structural smoke tests: every registered experiment runs and reports sane rows.

These run each experiment at a deliberately tiny scale (1 trial, short
streams), so they validate wiring — parameters reach the right components,
rows carry the expected columns, errors stay in [0, 1] — rather than the
statistical shapes, which the integration tests and benchmarks cover at
larger scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, ExperimentConfig
from repro.setsystems import RectangleSystem

#: Tiny configuration: every experiment must complete quickly under it.
TINY = ExperimentConfig(
    trials=1,
    stream_length=300,
    universe_size=128,
    epsilon=0.3,
    delta=0.2,
    extras={
        "multipliers": (0.5, 1.0),
        "reservoir_sizes": (2, 50),
        "bernoulli_rates": (0.01, 0.4),
        "probabilities": (0.2,),
        "reservoir_sizes_bisection": (5,),
        "adversaries": ("figure3", "shift"),
        "grid_side": 16,
        "sample_sizes": (40, 120),
        "server_counts": (4,),
        "hh_universe_size": 2000,
        "quantile_universe_size": 2**16,
        "gap_universe_size": 2**30,
    },
)

EXPECTED_COLUMNS = {
    "E1": {"mechanism", "adversary", "failure_rate"},
    "E1a": {"knowledge", "mean_error"},
    "E2": {"mechanism", "adversary", "failure_rate"},
    "E2a": {"eviction_policy", "workload", "mean_error"},
    "E3": {"mechanism", "below_threshold", "attack_success_rate"},
    "E4": {"sampler", "sample_equals_smallest_rate"},
    "E5": {"sizing", "adversary", "violation_rate"},
    "E6": {"universe", "sizing", "adversary", "robust"},
    "E7": {"mechanism", "adversary", "failure_rate"},
    "E8": {"detector", "workload", "promise_violation_rate"},
    "E9": {"workload", "mean_worst_query_error"},
    "E10": {"sizing", "transfer_success_rate"},
    "E11": {"stream_order", "mean_cost_ratio"},
    "E12": {"num_servers", "workload", "violation_rate"},
    "E13": {"mechanism", "claim", "difference_bound_violations"},
    "E14": {"workload", "method", "mean_memory"},
}

ERROR_COLUMNS = (
    "mean_error",
    "max_error",
    "mean_max_error",
    "mean_worst_quantile_error",
    "mean_worst_query_error",
    "mean_worst_server_error",
)

RATE_COLUMNS = (
    "failure_rate",
    "attack_success_rate",
    "violation_rate",
    "promise_violation_rate",
    "transfer_success_rate",
    "sample_equals_smallest_rate",
)


@pytest.mark.parametrize("identifier", sorted(EXPERIMENTS))
def test_experiment_runs_and_produces_well_formed_rows(identifier):
    result = EXPERIMENTS[identifier](TINY)
    assert result.experiment_id == identifier
    assert result.rows, f"{identifier} produced no rows"
    assert result.parameters, f"{identifier} reported no parameters"

    columns = set()
    for row in result.rows:
        columns.update(row.keys())
    missing = EXPECTED_COLUMNS[identifier] - columns
    assert not missing, f"{identifier} rows are missing columns {missing}"

    for row in result.rows:
        for column in ERROR_COLUMNS:
            if column in row and row[column] == row[column]:  # skip NaN
                assert -1e-9 <= row[column] <= 1.0 + 1e-9, (
                    f"{identifier}: {column}={row[column]} outside [0, 1]"
                )
        for column in RATE_COLUMNS:
            if column in row and row[column] == row[column]:
                assert -1e-9 <= row[column] <= 1.0 + 1e-9, (
                    f"{identifier}: {column}={row[column]} outside [0, 1]"
                )


@pytest.mark.parametrize("identifier", sorted(EXPERIMENTS))
def test_experiment_tables_render(identifier):
    result = EXPERIMENTS[identifier](TINY)
    text = result.to_text()
    assert identifier in text
    markdown = result.table().to_markdown()
    assert markdown.count("|") > 4
    csv = result.table().to_csv()
    assert len(csv.splitlines()) == len(result.rows) + 1


def test_experiments_are_reproducible_given_the_same_config():
    first = EXPERIMENTS["E13"](TINY)
    second = EXPERIMENTS["E13"](TINY)
    assert first.rows == second.rows


def test_e9_sampled_box_sweep_repeats_at_a_fixed_seed(monkeypatch):
    """Above its candidate cap E9's box sweep samples candidate boxes, from
    each trial's own generator, so a seeded run repeats exactly."""
    from repro.experiments import range_query_exp

    sweeps = []

    class RecordingBoxes(RectangleSystem):
        def max_discrepancy(self, stream, sample):
            result = super().max_discrepancy(stream, sample)
            sweeps.append(result.exact)
            return result

    monkeypatch.setattr(range_query_exp, "RectangleSystem", RecordingBoxes)
    monkeypatch.setattr(range_query_exp, "MAX_BOX_CANDIDATES", 500)
    config = ExperimentConfig(
        trials=2, stream_length=1500, epsilon=0.5, delta=0.5, extras={"grid_side": 16}
    )
    first = EXPERIMENTS["E9"](config)
    assert EXPERIMENTS["E9"](config).rows == first.rows
    assert not all(sweeps), "the static workload's sweeps must sample their candidates"


def test_e13_rows_are_pinned():
    """E13 plays its attacks through ``run_adaptive_game`` and replays each
    round's record through the martingale trackers, keeping the reservoir's
    ``|R ∩ S_i|`` from the accept/evict records; these rows pin the seeded
    output, not just its shape."""
    result = EXPERIMENTS["E13"](ExperimentConfig(trials=2, stream_length=200, universe_size=64, seed=3))
    assert result.rows == [
        {
            "mechanism": "bernoulli",
            "claim": "4.2",
            "difference_bound_violations": 0,
            "mean_step_drift": -0.0006,
            "mean_final_deviation": 0.12,
            "exceeds_freedman_10pct_rate": 0.0,
        },
        {
            "mechanism": "reservoir",
            "claim": "4.3",
            "difference_bound_violations": 0,
            "mean_step_drift": -2.5e-05,
            "mean_final_deviation": 0.005,
            "exceeds_freedman_10pct_rate": 0.0,
        },
    ]
