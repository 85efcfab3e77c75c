"""Declarative adversarial scenarios on top of the batched game engine.

The experiments layer (E1–E14) reproduces the paper's fixed tables; this
layer serves the ROADMAP's "as many scenarios as you can imagine" goal:

* :class:`ScenarioConfig` — a JSON-serialisable description of one attack
  scenario (budget, knowledge model, sampler grid, adversary, set system,
  scale knobs);
* :mod:`~repro.scenarios.builders` — compiles specs to picklable factories;
* :func:`run_config` / :func:`sweep_config` — execution through
  :class:`~repro.adversary.batch.BatchGameRunner` (worker pools and
  scheduling-independent seeding apply to every scenario for free);
* :data:`SCENARIOS` — the registry of named scenarios (``prefix_flood``,
  ``bisection_probe``, ...), run by name with :func:`run_scenario` and
  exposed on the CLI as ``repro-experiments scenario {list,run,sweep}``.

See ``docs/architecture.md`` ("Scenario layer") for the spec schema.
"""

from .builders import (
    AdversaryFromSpec,
    BudgetedAdversary,
    SamplerFromSpec,
    build_adversary,
    build_benign_supplier,
    build_sampler,
    build_set_system,
    build_target_range,
)
from .config import ScenarioConfig
from .engine import ScenarioResult, run_config, sweep_config, sweep_table
# NOTE: the fuzz() entry point itself is *not* re-exported: binding it here
# would shadow the `repro.scenarios.fuzz` submodule attribute.  Call it as
# `from repro.scenarios.fuzz import fuzz`.
from .fuzz import (
    FuzzChoices,
    FuzzReport,
    InvariantResult,
    build_fuzz_config,
    check_invariants,
    choices_strategy,
    random_choices,
)
from .matrix import DEFENSE_GRID, MatrixCell, MatrixResult, run_matrix
from .registry import (
    SCENARIOS,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    sweep_scenario,
)
from . import library  # registers the built-in scenarios

__all__ = [
    "DEFENSE_GRID",
    "SCENARIOS",
    "AdversaryFromSpec",
    "BudgetedAdversary",
    "FuzzChoices",
    "FuzzReport",
    "InvariantResult",
    "MatrixCell",
    "MatrixResult",
    "SamplerFromSpec",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "build_adversary",
    "build_benign_supplier",
    "build_fuzz_config",
    "build_sampler",
    "build_set_system",
    "build_target_range",
    "check_invariants",
    "choices_strategy",
    "get_scenario",
    "list_scenarios",
    "random_choices",
    "register_scenario",
    "run_config",
    "run_matrix",
    "run_scenario",
    "sweep_config",
    "sweep_scenario",
    "sweep_table",
]
