"""Project-invariant static analysis (``repro-experiments analyze``).

Four rule families encode invariants the repo has already been bitten by:

* **RNG discipline** (``RNG0xx``) — seeded numpy Generators only, no
  ambient randomness, no generator sharing across merged/split copies
  (the PR 9 ``ReplicatedDefenseSampler.merge`` bug).
  Every seedable project class is built with ``seed=`` (the E9
  box-candidate bug).
* **Determinism** (``DET0xx``) — wall-clock reads confined to the timing
  layers; no order-undefined iteration feeding sampler/merge state.
* **Lock discipline** (``LCK0xx``) — the single-writer convention of the
  query service, checked structurally against a ``# guarded-by:`` registry.
* **Protocol contracts** (``PRO0xx``) — extend kernels, the cadence block
  protocol (the PR 7 chunking bug), scenario-registry test coverage.

Suppressions are inline ``# repro: noqa[RULE]: reason`` comments; the
reason is mandatory (``NOQ001``).  See ``docs/architecture.md`` for the
full catalogue and policy.
"""

from __future__ import annotations

from .engine import AnalysisEngine, ClassInfo, Module, ProjectIndex, Rule
from .findings import Finding, NoqaDirective, parse_directives
from .rules_determinism import DETERMINISM_RULES
from .rules_locks import LOCK_RULES
from .rules_protocols import PROTOCOL_RULES
from .rules_rng import RNG_RULES

__all__ = [
    "AnalysisEngine",
    "ClassInfo",
    "DEFAULT_RULES",
    "Finding",
    "Module",
    "NoqaDirective",
    "ProjectIndex",
    "Rule",
    "parse_directives",
]

#: The default rule set ``repro-experiments analyze`` runs (and the one the
#: "live tree is clean" test pins).
DEFAULT_RULES: tuple[Rule, ...] = (
    *RNG_RULES,
    *DETERMINISM_RULES,
    *LOCK_RULES,
    *PROTOCOL_RULES,
)
