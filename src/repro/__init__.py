"""repro — adversarially robust sampling.

A production-quality reproduction of *"The Adversarial Robustness of
Sampling"* (Omri Ben-Eliezer and Eylon Yogev, PODS 2020).  The library
provides:

* the paper's samplers (:class:`BernoulliSampler`, :class:`ReservoirSampler`)
  plus the wider family a sampling toolkit is expected to ship,
* set systems and epsilon-approximation machinery (Definition 1.1),
* the adaptive adversarial game of Section 2 and the paper's attacks
  (introduction bisection attack, Figure-3 attack of Theorem 1.3),
* sample-size calculators for Theorems 1.2, 1.3 and 1.4,
* the applications of Section 1.2 (quantiles, heavy hitters, range queries,
  center points, clustering, distributed load balancing), and
* an experiment harness that regenerates the behaviour each theorem predicts.

Quickstart
----------
>>> from repro import ReservoirSampler, PrefixSystem, reservoir_adaptive_size
>>> from repro import ThresholdAttackAdversary, run_adaptive_game
>>> system = PrefixSystem(1024)
>>> k = reservoir_adaptive_size(system.log_cardinality(), epsilon=0.2, delta=0.05).size
>>> sampler = ReservoirSampler(k, seed=0)
>>> attack = ThresholdAttackAdversary.for_reservoir(k, stream_length=2000,
...                                                 universe_size=1024)
>>> game = run_adaptive_game(sampler, attack, 2000, set_system=system, epsilon=0.2)
>>> game.succeeded
True
"""

from ._version import __version__
from .adversary import (
    Adversary,
    BatchCellStats,
    BatchGameRunner,
    BisectionAdversary,
    ContinuousGameResult,
    EvictionChaserAdversary,
    GameResult,
    GreedyDensityAdversary,
    MedianAttackAdversary,
    MixingGreedyDensityAdversary,
    ObliviousAdversary,
    SortedAdversary,
    StaticAdversary,
    SwitchingSingletonAdversary,
    ThresholdAttackAdversary,
    TrialOutcome,
    UniformAdversary,
    ZipfAdversary,
    run_adaptive_game,
    run_continuous_game,
)
from .applications import (
    RobustQuantileSketch,
    SampleHeavyHitters,
    SampleRangeCounter,
    center_from_sample,
    compare_sample_clustering,
    evaluate_heavy_hitters,
    exact_heavy_hitters,
    kmeans,
    simulate_load_balancing,
)
from .core import (
    RobustnessCertificate,
    approximation_error,
    bernoulli_adaptive_rate,
    bernoulli_attack_threshold,
    certify_bernoulli,
    certify_reservoir,
    is_epsilon_approximation,
    reservoir_adaptive_size,
    reservoir_attack_threshold,
    reservoir_continuous_size,
)
from .distributed import RandomRouter, ShardedSampler
from .exceptions import (
    ConfigurationError,
    EmptySampleError,
    ExperimentError,
    ReproError,
    StreamExhaustedError,
    UniverseError,
)
from .samplers import (
    BernoulliSampler,
    GreenwaldKhannaSketch,
    KLLSketch,
    MergeReduceSummary,
    MisraGriesSummary,
    PrioritySampler,
    ReservoirSampler,
    SlidingWindowSampler,
    StreamSampler,
    WeightedReservoirSampler,
)
from .setsystems import (
    ContinuousPrefixSystem,
    DiscrepancyTracker,
    ExplicitSetSystem,
    HalfspaceSystem,
    Interval,
    IntervalSystem,
    Prefix,
    PrefixSystem,
    RectangleSystem,
    SetSystem,
    Singleton,
    SingletonSystem,
)
from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
    sweep_scenario,
)
from .streams import GridUniverse, OrderedUniverse

__all__ = [
    "Adversary",
    "BatchCellStats",
    "BatchGameRunner",
    "BernoulliSampler",
    "BisectionAdversary",
    "ConfigurationError",
    "ContinuousGameResult",
    "ContinuousPrefixSystem",
    "DiscrepancyTracker",
    "EmptySampleError",
    "EvictionChaserAdversary",
    "ExperimentError",
    "ExplicitSetSystem",
    "GameResult",
    "GreedyDensityAdversary",
    "GreenwaldKhannaSketch",
    "GridUniverse",
    "HalfspaceSystem",
    "Interval",
    "IntervalSystem",
    "KLLSketch",
    "MedianAttackAdversary",
    "MergeReduceSummary",
    "MixingGreedyDensityAdversary",
    "MisraGriesSummary",
    "ObliviousAdversary",
    "OrderedUniverse",
    "Prefix",
    "PrefixSystem",
    "PrioritySampler",
    "RandomRouter",
    "RectangleSystem",
    "ReproError",
    "ReservoirSampler",
    "RobustQuantileSketch",
    "RobustnessCertificate",
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioResult",
    "SampleHeavyHitters",
    "SampleRangeCounter",
    "SetSystem",
    "ShardedSampler",
    "Singleton",
    "SingletonSystem",
    "SlidingWindowSampler",
    "SortedAdversary",
    "StaticAdversary",
    "StreamExhaustedError",
    "StreamSampler",
    "SwitchingSingletonAdversary",
    "ThresholdAttackAdversary",
    "TrialOutcome",
    "UniformAdversary",
    "UniverseError",
    "WeightedReservoirSampler",
    "ZipfAdversary",
    "__version__",
    "approximation_error",
    "bernoulli_adaptive_rate",
    "bernoulli_attack_threshold",
    "center_from_sample",
    "certify_bernoulli",
    "certify_reservoir",
    "compare_sample_clustering",
    "evaluate_heavy_hitters",
    "exact_heavy_hitters",
    "is_epsilon_approximation",
    "kmeans",
    "reservoir_adaptive_size",
    "reservoir_attack_threshold",
    "reservoir_continuous_size",
    "run_adaptive_game",
    "run_continuous_game",
    "run_scenario",
    "simulate_load_balancing",
    "sweep_scenario",
]
