"""E13 — empirical verification of the martingale claims (Claims 4.2 and 4.3).

For a fixed range ``R`` (the lower half of the universe) and the Figure-3
attack (the most adaptive opponent available), the experiment tracks the
``Z^R_i`` processes online during real games and verifies:

* every step difference respects the claimed bound (``1/(np)`` for Bernoulli,
  ``i/k`` for reservoir),
* the empirical mean drift per step is statistically indistinguishable from 0
  (martingale property),
* the final deviation ``|Z_n|`` exceeds the paper's Freedman-based prediction
  far less often than the predicted tail probability.
"""

from __future__ import annotations

import numpy as np

from ..adversary import ThresholdAttackAdversary
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
        sampler = BernoulliSampler(probability, seed=rng)
        adversary = ThresholdAttackAdversary.for_bernoulli(
            probability, n, universe_size=universe_size
        )
        tracker = BernoulliMartingaleTracker(n, probability)
        for round_index in range(1, n + 1):
            element = adversary.plan_block(round_index, 1, sampler.sample)[0]
            update = sampler.process(element)
            adversary.observe_block([update])
            tracker.record_step(in_range=element in target, sampled=update.accepted)
        trace = tracker.trace
        deviation = abs(trace.final_value)
        return {
            "within_difference_bounds": trace.differences_within_bounds(),
            "drift": empirical_drift(trace.values),
            "final_deviation": deviation,
            "freedman_exceeds_10pct": deviation > _freedman_quantile(trace, 0.10),
        }

    bernoulli_outcomes = monte_carlo(bernoulli_trial, config.trials, seed=config.seed)
    result.add_row(
        mechanism="bernoulli",
        claim="4.2",
        difference_bound_violations=sum(
            1 for o in bernoulli_outcomes if not o["within_difference_bounds"]
        ),
        mean_step_drift=summarize([o["drift"] for o in bernoulli_outcomes]).mean,
        mean_final_deviation=summarize(
            [o["final_deviation"] for o in bernoulli_outcomes]
        ).mean,
        exceeds_freedman_10pct_rate=sum(
            1 for o in bernoulli_outcomes if o["freedman_exceeds_10pct"]
        )
        / len(bernoulli_outcomes),
    )

    # ------------------------------------------------------------------
    # Reservoir (Claim 4.3)
    # ------------------------------------------------------------------
    def reservoir_trial(rng: np.random.Generator, _index: int) -> dict:
        sampler = ReservoirSampler(reservoir_size, seed=rng)
        adversary = ThresholdAttackAdversary.for_reservoir(
            reservoir_size, n, universe_size=universe_size
        )
        tracker = ReservoirMartingaleTracker(reservoir_size)
        for round_index in range(1, n + 1):
            element = adversary.plan_block(round_index, 1, sampler.sample)[0]
            update = sampler.process(element)
            adversary.observe_block([update])
            sample_hits = sum(1 for value in sampler.sample if value in target)
            tracker.record_step(in_range=element in target, sample_hits=sample_hits)
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
    result.add_row(
        mechanism="reservoir",
        claim="4.3",
        difference_bound_violations=sum(
            1 for o in reservoir_outcomes if not o["within_difference_bounds"]
        ),
        mean_step_drift=summarize([o["drift"] for o in reservoir_outcomes]).mean,
        mean_final_deviation=summarize(
            [o["final_deviation"] for o in reservoir_outcomes]
        ).mean,
        exceeds_freedman_10pct_rate=sum(
            1 for o in reservoir_outcomes if o["freedman_exceeds_10pct"]
        )
        / len(reservoir_outcomes),
    )
    result.note(
        "`exceeds_freedman_10pct_rate` should stay at or below 0.10: it counts how "
        "often |Z_n| exceeded the deviation whose Freedman tail probability is 10%"
    )
    return result


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
