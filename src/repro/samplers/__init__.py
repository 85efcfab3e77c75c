"""Streaming samplers and deterministic baselines.

Randomised samplers (all expose the :class:`StreamSampler` interface, whose
state is fully visible to the adversary, as in the paper's model):

* :class:`BernoulliSampler` — the paper's ``BernoulliSample``,
* :class:`ReservoirSampler` — the paper's ``ReservoirSample`` (Vitter's
  Algorithm R), with optional non-standard eviction policies for ablations,
* :class:`WeightedReservoirSampler` — Efraimidis–Spirakis A-Res, and
  :class:`PrioritySampler` — priority sampling: one key-heap kernel that
  keeps the ``k`` largest keys, ``u^(1/w)`` and ``w/u`` respectively,
* :class:`SlidingWindowSampler` — uniform sampling over a sliding window.

Deterministic / sketching baselines (Section 1.1's comparison targets):

* :class:`GreenwaldKhannaSketch` — deterministic quantile summary,
* :class:`MergeReduceSummary` — deterministic epsilon-approximation,
* :class:`MisraGriesSummary` — deterministic heavy hitters,
* :class:`KLLSketch` — randomised quantile sketch (not covered by the paper's
  guarantees; included for the extension experiments).
"""

from .base import FixedSizeSampler, Mergeable, SampleUpdate, StreamSampler, UpdateBatch
from .bernoulli import BernoulliSampler
from .deterministic import MergeReduceSummary, WeightedPoint
from .kll import KLLSketch
from .misra_gries import MisraGriesSummary
from .quantile_sketch import GreenwaldKhannaSketch
from .reservoir import ReservoirSampler
from .sliding_window import SlidingWindowSampler
from .weighted_reservoir import PrioritySampler, WeightedReservoirSampler

__all__ = [
    "BernoulliSampler",
    "FixedSizeSampler",
    "GreenwaldKhannaSketch",
    "KLLSketch",
    "Mergeable",
    "MergeReduceSummary",
    "MisraGriesSummary",
    "PrioritySampler",
    "ReservoirSampler",
    "SampleUpdate",
    "SlidingWindowSampler",
    "StreamSampler",
    "UpdateBatch",
    "WeightedPoint",
    "WeightedReservoirSampler",
]
