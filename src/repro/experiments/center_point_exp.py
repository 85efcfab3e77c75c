"""E10 — center points from samples (Section 1.2, "Center points").

A 2-D point stream is sampled with a reservoir; the deepest point of the
*sample* (approximate Tukey depth over a direction grid) is then evaluated for
depth within the *full stream*.  The paper's transfer lemma says that with an
``epsilon = beta / 5`` halfspace approximation, a ``(6/5) beta``-center of the
sample is a ``beta``-center of the stream; the experiment reports how often
that transfer holds for the Theorem 1.2 sample size (and an undersized one),
on both clustered and skewed point streams.
"""

from __future__ import annotations

import numpy as np

from ..applications.center_points import center_from_sample
from ..core.bounds import reservoir_adaptive_size
from ..samplers import ReservoirSampler
from ..setsystems import HalfspaceSystem
from ..streams.generators import clustered_points
from .config import ExperimentConfig
from .metrics import summarize
from .runner import monte_carlo
from .tables import ExperimentResult


def run_center_points(config: ExperimentConfig | None = None) -> ExperimentResult:
    """E10: do sample-derived center points remain centers of the full stream?"""
    config = config or ExperimentConfig()
    n = config.stream_length
    side = int(config.extra("grid_side", 64))
    beta = float(config.extra("beta", 0.3))
    dimension = 2
    # Only ln|R| is read, so the system's generator never draws.
    system = HalfspaceSystem(side, dimension, directions=32, seed=0)
    # Sizing from the paper's recipe (epsilon = beta / 5) is very large for a
    # quick experiment; the default uses epsilon = beta / 2 and records the
    # substitution, plus an undersized row for contrast.
    epsilon = float(config.extra("center_epsilon", beta / 2.0))
    full_size = reservoir_adaptive_size(system.log_cardinality(), epsilon, config.delta).size
    sizes = {"theorem-size": min(full_size, max(2, n // 2)), "undersized": max(4, full_size // 20)}

    result = ExperimentResult(
        experiment_id="E10",
        title="Center points computed on the sample, evaluated on the stream",
        parameters={
            "beta": beta,
            "epsilon": epsilon,
            "stream_length": n,
            "grid_side": side,
            "trials": config.trials,
        },
    )
    result.note(
        "sampling epsilon set to beta/2 rather than the paper's beta/5 to keep the "
        "sample sublinear at experiment scale; the transfer inequality still has "
        "slack and the experiment reports whether it held"
    )

    for label, size in sizes.items():
        for clusters in (1, 5):
            def trial(rng: np.random.Generator, _index: int) -> dict:
                points = clustered_points(
                    n, side, dimension, clusters=clusters, spread=0.15, seed=rng
                )
                sampler = ReservoirSampler(size, seed=rng)
                sampler.extend(points, updates=False)
                sample = list(sampler.sample)
                outcome = center_from_sample(sample, points, beta=beta, seed=rng)
                return {
                    "stream_depth": outcome.stream_depth,
                    "sample_depth": outcome.sample_depth,
                    "transfer_held": outcome.valid_for_stream,
                }

            outcomes = monte_carlo(trial, config.trials, seed=config.seed)
            result.add_row(
                sizing=label,
                reservoir_size=size,
                clusters=clusters,
                mean_sample_depth=summarize([o["sample_depth"] for o in outcomes]).mean,
                mean_stream_depth=summarize([o["stream_depth"] for o in outcomes]).mean,
                transfer_success_rate=sum(1 for o in outcomes if o["transfer_held"])
                / len(outcomes),
            )
    return result
