"""Core machinery: checkpoint schedules, sample-size bounds, concentration, martingales.

This package implements the paper's analytical toolkit as executable code:

* :mod:`repro.core.approximation` — the checkpoint schedule of Theorem 1.4's proof,
* :mod:`repro.core.bounds` — Theorems 1.2, 1.3 and 1.4 as calculators,
* :mod:`repro.core.concentration` — Section 3's inequalities (Chernoff,
  Azuma, Freedman/McDiarmid),
* :mod:`repro.core.martingale` — the ``Z^R_i`` martingales of Claims 4.2/4.3,
* :mod:`repro.core.robustness` — end-to-end (epsilon, delta) certificates.
"""

from .approximation import geometric_checkpoints
from .bounds import (
    SampleSizeBound,
    attack_universe_bounds,
    bernoulli_adaptive_rate,
    bernoulli_attack_threshold,
    bernoulli_static_rate,
    epsilon_for_bernoulli,
    epsilon_for_reservoir,
    reservoir_adaptive_size,
    reservoir_attack_threshold,
    reservoir_continuous_size,
    reservoir_continuous_size_static,
    reservoir_continuous_size_union_bound,
    reservoir_static_size,
)
from .concentration import (
    azuma_tail,
    bernoulli_martingale_tail,
    chernoff_lower_tail,
    chernoff_two_sided,
    chernoff_upper_tail,
    freedman_tail,
    hoeffding_tail,
    reservoir_closed_form_tail,
    reservoir_martingale_tail,
)
from .martingale import (
    BernoulliMartingaleTracker,
    MartingaleTrace,
    ReservoirMartingaleTracker,
    empirical_drift,
    normalized_final_deviation,
)
from .robustness import RobustnessCertificate, certify_bernoulli, certify_reservoir

__all__ = [
    "BernoulliMartingaleTracker",
    "MartingaleTrace",
    "ReservoirMartingaleTracker",
    "RobustnessCertificate",
    "SampleSizeBound",
    "attack_universe_bounds",
    "azuma_tail",
    "bernoulli_adaptive_rate",
    "bernoulli_attack_threshold",
    "bernoulli_martingale_tail",
    "bernoulli_static_rate",
    "certify_bernoulli",
    "certify_reservoir",
    "chernoff_lower_tail",
    "chernoff_two_sided",
    "chernoff_upper_tail",
    "empirical_drift",
    "epsilon_for_bernoulli",
    "epsilon_for_reservoir",
    "freedman_tail",
    "geometric_checkpoints",
    "hoeffding_tail",
    "normalized_final_deviation",
    "reservoir_adaptive_size",
    "reservoir_attack_threshold",
    "reservoir_closed_form_tail",
    "reservoir_continuous_size",
    "reservoir_continuous_size_static",
    "reservoir_continuous_size_union_bound",
    "reservoir_martingale_tail",
    "reservoir_static_size",
]
