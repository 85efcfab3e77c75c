"""Adversaries and game runners for the adaptive sampling model (Section 2).

Game runners:

* :func:`run_adaptive_game` — Figure 1's ``AdaptiveGame``,
* :func:`run_continuous_game` — Figure 2's ``ContinuousAdaptiveGame``,
* :class:`BatchGameRunner` — batched ``(sampler × adversary × seed)`` sweeps
  of either game across worker processes.

Adaptive adversaries:

* :class:`BisectionAdversary` — the introduction's attack on ``[0, 1]``,
* :class:`ThresholdAttackAdversary` — the Figure-3 attack (Theorem 1.3),
* :class:`MedianAttackAdversary` — discrete bisection targeting quantiles,
* :class:`GreedyDensityAdversary` — one-step greedy density-gap attack
  (:class:`MixingGreedyDensityAdversary` breaks cold-start ties by mixing),
* :class:`SwitchingSingletonAdversary` — heavy-hitter false-negative attack,
* :class:`EvictionChaserAdversary` — reservoir-schedule-aware attack.

Static (oblivious) adversaries:

* :class:`StaticAdversary`, :class:`GeneratorAdversary`,
  :class:`UniformAdversary`, :class:`SortedAdversary`, :class:`ZipfAdversary`.
"""

from .base import (
    Adversary,
    CadencedAdversary,
    ObliviousAdversary,
    apply_decision_period,
)
from .campaign import CampaignAdversary, phase_start_rounds
from .batch import (
    BatchCellStats,
    BatchGameRunner,
    TrialOutcome,
    run_monte_carlo,
)
from .bisection import BisectionAdversary
from .game import (
    DEFAULT_CHUNK_SIZE,
    ContinuousGameResult,
    GameResult,
    KnowledgeModel,
    normalize_checkpoints,
    run_adaptive_game,
    run_continuous_game,
)
from .heavy_hitter_attack import SwitchingSingletonAdversary
from .prefix_attack import GreedyDensityAdversary, MixingGreedyDensityAdversary
from .quantile_attack import MedianAttackAdversary
from .reservoir_attack import EvictionChaserAdversary
from .static import (
    GeneratorAdversary,
    SortedAdversary,
    StaticAdversary,
    UniformAdversary,
    ZipfAdversary,
)
from .threshold import (
    ThresholdAttackAdversary,
    recommended_universe_size,
    sufficient_universe_size,
)

__all__ = [
    "Adversary",
    "BatchCellStats",
    "BatchGameRunner",
    "CadencedAdversary",
    "CampaignAdversary",
    "DEFAULT_CHUNK_SIZE",
    "BisectionAdversary",
    "ContinuousGameResult",
    "EvictionChaserAdversary",
    "GameResult",
    "GeneratorAdversary",
    "GreedyDensityAdversary",
    "KnowledgeModel",
    "MedianAttackAdversary",
    "MixingGreedyDensityAdversary",
    "ObliviousAdversary",
    "SortedAdversary",
    "StaticAdversary",
    "SwitchingSingletonAdversary",
    "ThresholdAttackAdversary",
    "TrialOutcome",
    "UniformAdversary",
    "ZipfAdversary",
    "apply_decision_period",
    "normalize_checkpoints",
    "phase_start_rounds",
    "recommended_universe_size",
    "run_adaptive_game",
    "run_continuous_game",
    "run_monte_carlo",
    "sufficient_universe_size",
]
