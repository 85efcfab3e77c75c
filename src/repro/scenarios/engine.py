"""Execute declarative scenarios through the batched game engine.

This is deliberately a thin layer: a :class:`~repro.scenarios.config.ScenarioConfig`
is compiled to picklable factories (:mod:`repro.scenarios.builders`) and
handed to :class:`~repro.adversary.batch.BatchGameRunner`, so worker-pool
scaling, scheduling-independent seeding and the incremental discrepancy
tracker all apply to every scenario for free.  The engine's own work —
spec compilation and result aggregation — is benchmarked to stay under 10%
of a direct ``BatchGameRunner`` call (the ``scenario/engine`` op of
:mod:`repro.bench`).
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import Any

from ..adversary.batch import BatchCellStats, BatchGameRunner
from ..core.approximation import geometric_checkpoints
from ..exceptions import ConfigurationError
from ..experiments.tables import Table
from .builders import AdversaryFromSpec, SamplerFromSpec, build_set_system
from .config import ScenarioConfig

__all__ = ["ScenarioResult", "run_config", "sweep_config", "sweep_table"]

#: Columns of the per-cell table, in presentation order.
_CELL_COLUMNS = [
    "sampler",
    "adversary",
    "trials",
    "mean_error",
    "max_error",
    "failure_rate",
    "violation_rate",
    "peak_discrepancy",
    "attacked_peak_discrepancy",
    "mean_sample_size",
]


def _cell_record(
    stats: BatchCellStats, continuous: bool, attacked_peak: float | None
) -> dict[str, Any]:
    """Flatten one grid cell into a JSON-friendly record.

    ``peak_discrepancy`` is the cell's worst observed error: the worst
    checkpoint error for continuous games (mid-stream violations count), the
    worst endpoint error otherwise.  ``attacked_peak_discrepancy`` restricts
    that maximum to checkpoints inside the attack window (see
    :func:`_attacked_peak`).
    """
    if continuous and stats.worst_checkpoint_error is not None:
        peak = stats.worst_checkpoint_error
    else:
        peak = stats.max_error
    return {
        "attacked_peak_discrepancy": attacked_peak,
        "sampler": stats.sampler,
        "adversary": stats.adversary,
        "trials": stats.trials,
        "mean_error": stats.mean_error,
        "max_error": stats.max_error,
        "std_error": stats.std_error,
        "failure_rate": stats.failure_rate,
        "violation_rate": stats.violation_rate,
        "mean_sample_size": stats.mean_sample_size,
        "mean_max_checkpoint_error": stats.mean_max_checkpoint_error,
        "worst_checkpoint_error": stats.worst_checkpoint_error,
        "peak_discrepancy": peak,
    }


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario execution.

    Attributes
    ----------
    scenario:
        Scenario name (registry key).
    config:
        The fully resolved :class:`ScenarioConfig` as plain data — enough to
        replay the run exactly.
    cells:
        One record per ``(sampler, adversary)`` grid cell with per-cell
        failure/violation rates and error statistics.
    peak_discrepancy:
        Worst observed error across all cells (checkpoint-aware for
        continuous games).
    wall_time_seconds:
        End-to-end execution time of the underlying grid run.
    """

    scenario: str
    config: dict[str, Any]
    cells: list[dict[str, Any]] = field(default_factory=list)
    peak_discrepancy: float | None = None
    #: Worst error observed at checkpoints inside the attack window; monotone
    #: non-decreasing in the attack budget for a fixed seed (see
    #: :func:`_attacked_peak`).
    attacked_peak_discrepancy: float | None = None
    #: Number of grid cells whose attacked peak is undefined (endpoint games
    #: at partial budget, zero-budget defense baselines, continuous games
    #: whose warmup swallows the whole attack window).  The scenario-level
    #: ``attacked_peak_discrepancy`` is the maximum over the *defined* cells
    #: only; this counter makes the mixed case explicit instead of silently
    #: dropping ``None`` cells (a matrix entry of 0 means "every cell
    #: contributed", not "the undefined ones vanished").
    attacked_peak_undefined_cells: int = 0
    wall_time_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def max_failure_rate(self) -> float | None:
        rates = [c["failure_rate"] for c in self.cells if c["failure_rate"] is not None]
        return max(rates) if rates else None

    @property
    def max_violation_rate(self) -> float | None:
        rates = [c["violation_rate"] for c in self.cells if c["violation_rate"] is not None]
        return max(rates) if rates else None

    # ------------------------------------------------------------------
    # Serialisation / rendering
    # ------------------------------------------------------------------
    def to_dict(self, include_timing: bool = True) -> dict[str, Any]:
        """Plain-data form; ``include_timing=False`` drops the wall time so
        two runs of the same config compare bit-for-bit."""
        data: dict[str, Any] = {
            "scenario": self.scenario,
            "config": copy.deepcopy(self.config),
            "cells": copy.deepcopy(self.cells),
            "peak_discrepancy": self.peak_discrepancy,
            "attacked_peak_discrepancy": self.attacked_peak_discrepancy,
            "attacked_peak_undefined_cells": self.attacked_peak_undefined_cells,
            "max_failure_rate": self.max_failure_rate,
            "max_violation_rate": self.max_violation_rate,
        }
        if include_timing:
            data["wall_time_seconds"] = self.wall_time_seconds
        return data

    def to_json(self, indent: int | None = 2, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=indent, sort_keys=True)

    def table(self) -> Table:
        table = Table(
            columns=list(_CELL_COLUMNS),
            title=(
                f"scenario {self.scenario} "
                f"(budget={self.config.get('attack_budget')}, "
                f"n={self.config.get('stream_length')}, "
                f"seed={self.config.get('seed')})"
            ),
        )
        for cell in self.cells:
            table.add_row({column: _blank_none(cell.get(column)) for column in _CELL_COLUMNS})
        return table

    def to_text(self) -> str:
        lines = [self.table().to_text()]
        lines.append(
            f"peak discrepancy {_format_optional(self.peak_discrepancy)}  "
            f"wall time {self.wall_time_seconds:.3f}s"
        )
        return "\n".join(lines)

    def to_markdown(self) -> str:
        header = f"### scenario: {self.scenario}\n\n"
        footer = (
            f"\n\n- peak discrepancy: {_format_optional(self.peak_discrepancy)}"
            f"\n- wall time: {self.wall_time_seconds:.3f}s"
        )
        return header + self.table().to_markdown() + footer


def _blank_none(value: Any) -> Any:
    return "" if value is None else value


def _format_optional(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _checkpoints(config: ScenarioConfig) -> tuple[int, ...] | None:
    """Geometric checkpoint schedule starting after the warmup prefix.

    Budget-independent by construction (it depends only on stream length and
    ratio), so runs at different budgets are judged at identical rounds —
    the alignment the monotonicity property relies on.
    """
    if not config.continuous:
        return None
    ratio = config.checkpoint_ratio
    if ratio is None:
        ratio = config.epsilon / 4.0
    first = max(1, int(round(config.warmup_fraction * config.stream_length)))
    return tuple(geometric_checkpoints(first, config.stream_length, ratio))


def run_config(config: ScenarioConfig) -> ScenarioResult:
    """Execute one fully specified scenario through :class:`BatchGameRunner`."""
    set_system = build_set_system(config.set_system, config.universe_size)
    # One schedule for both the runner and the attacked-peak bookkeeping:
    # _attacked_peak indexes checkpoint_errors by position in this tuple.
    checkpoints = _checkpoints(config)
    runner = BatchGameRunner(
        config.stream_length,
        set_system=set_system,
        epsilon=config.epsilon,
        knowledge=config.knowledge,  # type: ignore[arg-type]
        continuous=config.continuous,
        checkpoints=checkpoints,
        seed=config.seed,
        workers=config.workers,
        chunk_size=config.chunk_size,
    )
    samplers = {
        label: SamplerFromSpec(
            spec,
            sharding=config.sharding,
            defense=config.defense,
            faults=config.faults,
            stream_length=config.stream_length,
            service=config.service,
        )
        for label, spec in config.samplers.items()
    }
    # The adversary label deliberately omits the budget: per-trial substreams
    # derive from (seed, trial, label, role), so runs that differ only in
    # budget share identical randomness over the common attack prefix.
    # Campaign configs get the roster label ("campaign:spam+poison"-style).
    adversaries = {config.adversary_label: AdversaryFromSpec(config)}
    start = time.perf_counter()  # repro: noqa[DET001]: wall-time reporting only; never feeds sampler or adversary state
    by_cell = runner.run_grid_outcomes(samplers, adversaries, config.trials)
    wall_time = time.perf_counter() - start  # repro: noqa[DET001]: wall-time reporting only; never feeds sampler or adversary state
    records = []
    for outcomes in by_cell.values():
        stats = BatchCellStats.from_outcomes(outcomes, config.epsilon)
        attacked = _attacked_peak(outcomes, checkpoints, config)
        records.append(_cell_record(stats, config.continuous, attacked))
    peaks = [r["peak_discrepancy"] for r in records if r["peak_discrepancy"] is not None]
    attacked_peak, undefined_cells = _reduce_attacked_peaks(records)
    return ScenarioResult(
        scenario=config.name,
        config=config.to_dict(),
        cells=records,
        peak_discrepancy=max(peaks) if peaks else None,
        attacked_peak_discrepancy=attacked_peak,
        attacked_peak_undefined_cells=undefined_cells,
        wall_time_seconds=wall_time,
    )


def _reduce_attacked_peaks(
    records: Sequence[dict[str, Any]],
) -> tuple[float | None, int]:
    """Reduce per-cell attacked peaks to ``(max over defined, undefined count)``.

    A cell's ``attacked_peak_discrepancy`` is ``None`` when no checkpoint
    falls inside its attack window (see :func:`_attacked_peak`) — e.g. an
    endpoint game at partial budget, or a zero-budget defense baseline in a
    defense matrix.  Mixing defined and undefined cells is legitimate, but
    must be visible: the maximum is taken over the defined cells and the
    undefined ones are *counted*, never silently discarded.
    """
    defined = [
        r["attacked_peak_discrepancy"]
        for r in records
        if r["attacked_peak_discrepancy"] is not None
    ]
    undefined_cells = len(records) - len(defined)
    return (max(defined) if defined else None, undefined_cells)


def _attacked_peak(
    outcomes: Sequence[Any],
    checkpoints: tuple[int, ...] | None,
    config: ScenarioConfig,
) -> float | None:
    """Worst error observed *while the adversary was active*.

    For continuous games this is the maximum checkpoint error over the
    checkpoints at or before ``attack_rounds``; for endpoint games it is the
    final error when the whole stream was attacked (``None`` otherwise —
    the endpoint of a partially attacked stream measures the benign tail
    too).  Because checkpoint schedules and per-trial substreams are
    budget-independent, a lower-budget run observes a *prefix subset* of a
    higher-budget run's attacked checkpoints with identical errors, which
    makes this quantity monotone non-decreasing in the budget for any fixed
    seed — the invariant ``tests/test_scenarios_attacks.py`` pins.
    """
    attack_rounds = config.attack_rounds
    if not config.continuous:
        if attack_rounds >= config.stream_length:
            errors = [o.error for o in outcomes if o.error is not None]
            return max(errors) if errors else None
        return None
    if checkpoints is None:
        return None
    live = [i for i, checkpoint in enumerate(checkpoints) if checkpoint <= attack_rounds]
    if not live:
        return None
    peak: float | None = None
    for outcome in outcomes:
        errors = outcome.checkpoint_errors
        for index in live:
            if index < len(errors) and (peak is None or errors[index] > peak):
                peak = errors[index]
    return peak


def sweep_config(
    config: ScenarioConfig,
    budgets: Iterable[float] | None = None,
    seeds: Iterable[int] | None = None,
) -> list[ScenarioResult]:
    """Run a ``(budget × seed)`` grid of one scenario (samplers sweep within).

    Each ``(budget, seed)`` point is an independent :func:`run_config` call;
    the sampler grid inside the config is swept by the batch runner itself,
    so the full sweep is ``budget × sampler × seed`` as one composition.
    """
    budget_grid = [config.attack_budget] if budgets is None else [float(b) for b in budgets]
    seed_grid = [config.seed] if seeds is None else [int(s) for s in seeds]
    if not budget_grid or not seed_grid:
        raise ConfigurationError("sweep grids must be non-empty")
    return [
        run_config(config.replace(attack_budget=budget, seed=seed))
        for budget in budget_grid
        for seed in seed_grid
    ]


def sweep_table(results: Sequence[ScenarioResult]) -> Table:
    """Summarise a sweep: one row per (budget, seed, sampler) cell."""
    table = Table(
        columns=["budget", "seed", "sampler", "mean_error", "peak_discrepancy", "violation_rate"],
        title=f"sweep: {results[0].scenario}" if results else "sweep",
    )
    for result in results:
        for cell in result.cells:
            table.add_row(
                [
                    result.config.get("attack_budget"),
                    result.config.get("seed"),
                    cell["sampler"],
                    _blank_none(cell["mean_error"]),
                    _blank_none(cell["peak_discrepancy"]),
                    _blank_none(cell["violation_rate"]),
                ]
            )
    return table
