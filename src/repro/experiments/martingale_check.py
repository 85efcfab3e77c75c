"""E13 — empirical verification of the martingale claims (Claims 4.2 and 4.3).

For a fixed range ``R`` (the lower half of the universe) and the Figure-3
attack (the most adaptive opponent available), the experiment plays real
games (:func:`~repro.adversary.run_adaptive_game`), replays each round's
update record through the ``Z^R_i`` trackers and verifies:

* every step difference respects the claimed bound (``1/(np)`` for Bernoulli,
  ``i/k`` for reservoir),
* the empirical mean drift per step is statistically indistinguishable from 0
  (martingale property),
* the final deviation ``|Z_n|`` exceeds the paper's Freedman-based prediction
  far less often than the predicted tail probability.
"""

from __future__ import annotations

import numpy as np

from ..adversary import ThresholdAttackAdversary, run_adaptive_game
from ..core.concentration import freedman_tail
from ..core.martingale import (
    BernoulliMartingaleTracker,
    ReservoirMartingaleTracker,
    empirical_drift,
)
from ..samplers import BernoulliSampler, ReservoirSampler
from ..setsystems import Prefix
from .config import ExperimentConfig
from .metrics import summarize
from .runner import monte_carlo
from .tables import ExperimentResult


def run_martingale_check(config: ExperimentConfig | None = None) -> ExperimentResult:
    """E13: the Z-processes of Claims 4.2/4.3 behave as claimed during real attacks."""
    config = config or ExperimentConfig()
    n = config.stream_length
    universe_size = config.universe_size
    target = Prefix(universe_size // 2)
    probability = float(config.extra("martingale_probability", 0.1))
    reservoir_size = int(config.extra("martingale_reservoir", 50))

    result = ExperimentResult(
        experiment_id="E13",
        title="Claims 4.2 / 4.3 — martingale structure under attack",
        parameters={
            "stream_length": n,
            "universe_size": universe_size,
            "bernoulli_p": probability,
            "reservoir_k": reservoir_size,
            "trials": config.trials,
        },
    )

    # ------------------------------------------------------------------
    # Bernoulli (Claim 4.2)
    # ------------------------------------------------------------------
    def bernoulli_trial(rng: np.random.Generator, _index: int) -> dict:
        game = run_adaptive_game(
            BernoulliSampler(probability, seed=rng),
            ThresholdAttackAdversary.for_bernoulli(probability, n, universe_size=universe_size),
            n,
        )
        tracker = BernoulliMartingaleTracker(n, probability)
        for update in game.updates:
            tracker.record_step(in_range=update.element in target, sampled=update.accepted)
        trace = tracker.trace
        deviation = abs(trace.final_value)
        return {
            "within_difference_bounds": trace.differences_within_bounds(),
            "drift": empirical_drift(trace.values),
            "final_deviation": deviation,
            "freedman_exceeds_10pct": deviation > _freedman_quantile(trace, 0.10),
        }

    bernoulli_outcomes = monte_carlo(bernoulli_trial, config.trials, seed=config.seed)
    result.add_row(mechanism="bernoulli", claim="4.2", **_claim_columns(bernoulli_outcomes))

    # ------------------------------------------------------------------
    # Reservoir (Claim 4.3)
    # ------------------------------------------------------------------
    def reservoir_trial(rng: np.random.Generator, _index: int) -> dict:
        game = run_adaptive_game(
            ReservoirSampler(reservoir_size, seed=rng),
            ThresholdAttackAdversary.for_reservoir(reservoir_size, n, universe_size=universe_size),
            n,
        )
        tracker = ReservoirMartingaleTracker(reservoir_size)
        # |R ∩ S_i| follows each round's record: an accepted element enters
        # the sample and an evicted one leaves it.
        sample_hits = 0
        for update in game.updates:
            in_range = update.element in target
            if update.accepted and in_range:
                sample_hits += 1
            if update.evicted is not None and update.evicted in target:
                sample_hits -= 1
            tracker.record_step(in_range=in_range, sample_hits=sample_hits)
        trace = tracker.trace
        # Claim 4.3's Z is on the "count" scale; normalise by n for reporting.
        deviation = abs(trace.final_value) / n
        return {
            "within_difference_bounds": trace.differences_within_bounds(),
            "drift": empirical_drift(trace.values) / n,
            "final_deviation": deviation,
            "freedman_exceeds_10pct": abs(trace.final_value)
            > _freedman_quantile(trace, 0.10),
        }

    reservoir_outcomes = monte_carlo(reservoir_trial, config.trials, seed=config.seed)
    result.add_row(mechanism="reservoir", claim="4.3", **_claim_columns(reservoir_outcomes))
    result.note(
        "`exceeds_freedman_10pct_rate` should stay at or below 0.10: it counts how "
        "often |Z_n| exceeded the deviation whose Freedman tail probability is 10%"
    )
    return result


def _claim_columns(outcomes: list[dict]) -> dict:
    """One claim's row over its trials' outcomes."""
    return {
        "difference_bound_violations": sum(
            1 for o in outcomes if not o["within_difference_bounds"]
        ),
        "mean_step_drift": summarize([o["drift"] for o in outcomes]).mean,
        "mean_final_deviation": summarize([o["final_deviation"] for o in outcomes]).mean,
        "exceeds_freedman_10pct_rate": sum(1 for o in outcomes if o["freedman_exceeds_10pct"])
        / len(outcomes),
    }


def _freedman_quantile(trace, tail_probability: float) -> float:
    """The deviation whose Freedman tail bound equals ``tail_probability`` for this trace."""
    low, high = 0.0, 1.0
    variance_sum = sum(trace.variance_bounds)
    max_difference = max(trace.difference_bounds, default=0.0)
    # Find an upper bracket first.
    while freedman_tail(high, variance_sum, max_difference) > tail_probability:
        high *= 2.0
        if high > 1e12:
            break
    for _ in range(80):
        mid = (low + high) / 2.0
        if freedman_tail(mid, variance_sum, max_difference) > tail_probability:
            low = mid
        else:
            high = mid
    return high
