"""Batched execution of adaptive-game trials across worker processes.

Every robustness experiment in the library boils down to the same shape of
work: play the adaptive game (Figure 1) or the continuous adaptive game
(Figure 2) for a grid of ``(sampler, adversary)`` configurations, many
Monte-Carlo trials each, and aggregate the per-trial errors.  The seed code
ran those trials one ``process()`` call at a time on a single core; this
module is the engine that makes the sweep batchable:

* :class:`BatchGameRunner` — sweeps a ``(sampler × adversary × seed)`` grid,
  optionally across a process pool, and returns per-cell
  :class:`BatchCellStats` aggregates built from slim per-trial
  :class:`TrialOutcome` records (full :class:`~repro.adversary.game.GameResult`
  objects, with their streams and update logs, never cross a process
  boundary);
* :func:`run_monte_carlo` — the generic trial executor behind
  :func:`repro.experiments.runner.monte_carlo`, with the same
  ``spawn_generators`` seeding semantics as the serial seed path so existing
  experiment outputs are unchanged.

Determinism is independent of scheduling: each trial's sampler and adversary
generators are derived via :func:`repro.rng.derive_substream` from the master
seed and the trial's ``(index, label, role)`` coordinates, so a grid run with
``workers=8`` reproduces a ``workers=1`` run bit for bit.

Worker processes require the trial payload to be picklable (module-level
factories rather than closures).  Payloads that cannot be pickled — and
environments where no pool can be spawned — degrade gracefully to in-process
execution with a warning, so callers never have to special-case either.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any, TypeVar

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RandomState, collapse_seed, derive_substream, spawn_generators
from ..samplers.base import StreamSampler
from ..setsystems.base import SetSystem
from .base import Adversary
from .game import (
    KnowledgeModel,
    _check_game_options,
    normalize_checkpoints,
    run_adaptive_game,
    run_continuous_game,
)

T = TypeVar("T")

SamplerFactory = Callable[[np.random.Generator], StreamSampler]
AdversaryFactory = Callable[[np.random.Generator], Adversary]

__all__ = [
    "AdversaryFactory",
    "BatchCellStats",
    "BatchGameRunner",
    "SamplerFactory",
    "TrialOutcome",
    "default_worker_count",
    "run_monte_carlo",
]


def default_worker_count() -> int:
    """Worker count used when callers pass ``workers=None``.

    Reads the ``REPRO_WORKERS`` environment variable (default 1, i.e. serial
    in-process execution — the safe choice for closures and small grids).
    """
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class TrialOutcome:
    """Slim, picklable summary of one played game.

    Carries everything the aggregation layer needs while leaving the stream
    and the per-round update log behind in the worker, which keeps the
    inter-process traffic proportional to the number of trials rather than
    the number of stream elements.
    """

    sampler: str
    adversary: str
    trial_index: int
    stream_length: int
    sample_size: int
    error: float | None
    succeeded: bool | None
    checkpoint_errors: tuple[float, ...] = ()

    @property
    def max_checkpoint_error(self) -> float | None:
        if not self.checkpoint_errors:
            return None
        return max(self.checkpoint_errors)


@dataclass
class BatchCellStats:
    """Aggregate game statistics for one ``(sampler, adversary)`` grid cell."""

    sampler: str
    adversary: str
    trials: int
    errors: list[float] = field(default_factory=list)
    mean_error: float | None = None
    max_error: float | None = None
    std_error: float | None = None
    #: Fraction of trials whose *endpoint* error exceeds epsilon.
    failure_rate: float | None = None
    #: Fraction of trials whose game verdict is failure — for continuous
    #: games this counts mid-stream checkpoint violations the endpoint-based
    #: ``failure_rate`` cannot see.  ``None`` without an epsilon.
    violation_rate: float | None = None
    mean_sample_size: float = 0.0
    mean_max_checkpoint_error: float | None = None
    worst_checkpoint_error: float | None = None

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Sequence[TrialOutcome],
        epsilon: float | None = None,
    ) -> "BatchCellStats":
        if not outcomes:
            raise ConfigurationError("cannot aggregate an empty list of outcomes")
        sampler = outcomes[0].sampler
        adversary = outcomes[0].adversary
        errors = [o.error for o in outcomes if o.error is not None]
        stats = cls(
            sampler=sampler,
            adversary=adversary,
            trials=len(outcomes),
            errors=errors,
            mean_sample_size=float(np.mean([o.sample_size for o in outcomes])),
        )
        if errors:
            stats.mean_error = float(np.mean(errors))
            stats.max_error = float(np.max(errors))
            stats.std_error = float(np.std(errors))
            if epsilon is not None:
                stats.failure_rate = sum(e > epsilon for e in errors) / len(errors)
        verdicts = [o.succeeded for o in outcomes if o.succeeded is not None]
        if verdicts:
            stats.violation_rate = sum(not v for v in verdicts) / len(verdicts)
        maxima = [o.max_checkpoint_error for o in outcomes if o.checkpoint_errors]
        if maxima:
            stats.mean_max_checkpoint_error = float(np.mean(maxima))
            stats.worst_checkpoint_error = float(np.max(maxima))
        return stats


@dataclass(frozen=True)
class _TrialPayload:
    """Everything a worker needs to play one trial, in picklable form."""

    sampler_factory: SamplerFactory
    adversary_factory: AdversaryFactory
    sampler_label: str
    adversary_label: str
    trial_index: int
    base_seed: int
    stream_length: int
    set_system: SetSystem | None
    epsilon: float | None
    knowledge: KnowledgeModel
    continuous: bool
    checkpoints: tuple[int, ...] | None
    checkpoint_ratio: float | None
    chunk_size: int | None


def _execute_trial(payload: _TrialPayload) -> TrialOutcome:
    """Play one trial (runs in a worker process or inline)."""
    sampler_rng = derive_substream(
        payload.base_seed, payload.trial_index, payload.sampler_label, "sampler"
    )
    adversary_rng = derive_substream(
        payload.base_seed, payload.trial_index, payload.adversary_label, "adversary"
    )
    sampler = payload.sampler_factory(sampler_rng)
    adversary = payload.adversary_factory(adversary_rng)
    if payload.continuous:
        assert payload.set_system is not None
        result = run_continuous_game(
            sampler,
            adversary,
            payload.stream_length,
            set_system=payload.set_system,
            epsilon=payload.epsilon,
            checkpoints=payload.checkpoints,
            checkpoint_ratio=payload.checkpoint_ratio,
            knowledge=payload.knowledge,
            # Aggregation reads only the slim TrialOutcome fields, so the
            # per-round record is never materialised in workers.
            keep_updates=False,
            chunk_size=payload.chunk_size,
        )
        checkpoint_errors = tuple(result.checkpoint_errors)
        # The paper's ContinuousAdaptiveGame outputs 1 only when *no*
        # checkpoint is violated; the endpoint verdict would overstate it.
        succeeded = result.continuously_succeeded
    else:
        result = run_adaptive_game(
            sampler,
            adversary,
            payload.stream_length,
            set_system=payload.set_system,
            epsilon=payload.epsilon,
            knowledge=payload.knowledge,
            keep_updates=False,
            chunk_size=payload.chunk_size,
        )
        checkpoint_errors = ()
        succeeded = result.succeeded
    return TrialOutcome(
        sampler=payload.sampler_label,
        adversary=payload.adversary_label,
        trial_index=payload.trial_index,
        stream_length=result.stream_length,
        sample_size=result.sample_size,
        error=result.error,
        succeeded=succeeded,
        checkpoint_errors=checkpoint_errors,
    )


def _is_picklable(item: Any) -> bool:
    try:
        pickle.dumps(item)
        return True
    except Exception:
        return False


def _execute_all(
    task: Callable[[Any], T], payloads: Sequence[Any], workers: int
) -> list[T]:
    """Run ``task`` over ``payloads``, in a process pool when possible.

    Falls back to in-process execution (with a warning) when the payloads
    cannot be pickled or no pool can be spawned; results are always returned
    in payload order.
    """
    if workers > 1 and len(payloads) > 1:
        # Probe only the first payload (cheap, and catches the common
        # all-closures case with a precise message); a grid that mixes
        # picklable and unpicklable payloads surfaces as a pickle failure
        # from the pool itself (PicklingError, or TypeError for objects like
        # locks and sockets) and takes the same fallback.  Trials are pure,
        # so discarding any partial pool results and re-running is safe; a
        # genuine TypeError from a trial simply re-raises on the serial pass.
        if _is_picklable((task, payloads[0])):
            chunksize = max(1, math.ceil(len(payloads) / (workers * 4)))
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(task, payloads, chunksize=chunksize))
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                # PicklingError is unambiguous; TypeError/AttributeError may
                # come from pickling exotic payloads *or* from the trial
                # itself, so the message stays neutral — a genuine trial
                # error re-raises on the serial pass below either way.
                if isinstance(exc, pickle.PicklingError):
                    message = f"trial payload is not picklable ({exc})"
                else:
                    message = f"process-pool execution failed ({exc})"
                warnings.warn(
                    f"{message}; re-running trials in-process",
                    RuntimeWarning,
                    stacklevel=3,
                )
            except (OSError, PermissionError) as exc:  # pragma: no cover - env-specific
                warnings.warn(
                    f"process pool unavailable ({exc}); running trials in-process",
                    RuntimeWarning,
                    stacklevel=3,
                )
        else:
            warnings.warn(
                "trial payload is not picklable (closures cannot cross process "
                "boundaries); running trials in-process",
                RuntimeWarning,
                stacklevel=3,
            )
    return [task(payload) for payload in payloads]


class BatchGameRunner:
    """Sweep ``(sampler × adversary × seed)`` grids of adaptive-game trials.

    Parameters
    ----------
    stream_length:
        Number of rounds ``n`` per game.
    set_system / epsilon / knowledge:
        Passed through to the game runner (see
        :func:`~repro.adversary.game.run_adaptive_game`).
    continuous:
        Play the ContinuousAdaptiveGame of Figure 2 instead of the endpoint
        game; requires ``set_system``.
    checkpoints / checkpoint_ratio:
        Checkpoint schedule for continuous games, which judge through the
        set system's incremental tracker when it has one.
    seed:
        Master seed for the whole sweep.  Each trial derives independent
        sampler and adversary generators from it via
        :func:`repro.rng.derive_substream`, keyed by trial index and grid
        labels, so results do not depend on execution order or worker count.
    workers:
        Number of worker processes (``None`` reads ``REPRO_WORKERS``; 1 runs
        in-process).  Factories must be picklable (module-level callables)
        for the pool to be used; otherwise the runner transparently executes
        in-process.
    chunk_size:
        Maximum segment length for chunked game execution (see
        :func:`~repro.adversary.game.run_adaptive_game`); ``None`` uses the
        default, ``1`` plays every round as its own one-element segment.

    Examples
    --------
    >>> from repro.adversary.batch import BatchGameRunner
    >>> from repro.samplers import ReservoirSampler
    >>> from repro.adversary import UniformAdversary
    >>> from repro.setsystems import PrefixSystem
    >>> runner = BatchGameRunner(500, set_system=PrefixSystem(64), epsilon=0.3, seed=7)
    >>> cells = runner.run_grid(
    ...     samplers={"reservoir-32": lambda rng: ReservoirSampler(32, seed=rng)},
    ...     adversaries={"uniform": lambda rng: UniformAdversary(64, seed=rng)},
    ...     trials=4,
    ... )
    >>> cells[0].trials
    4
    """

    def __init__(
        self,
        stream_length: int,
        *,
        set_system: SetSystem | None = None,
        epsilon: float | None = None,
        knowledge: KnowledgeModel = "full",
        continuous: bool = False,
        checkpoints: Iterable[int] | None = None,
        checkpoint_ratio: float | None = None,
        seed: RandomState = None,
        workers: int | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if stream_length < 1:
            raise ConfigurationError(f"stream length must be >= 1, got {stream_length}")
        _check_game_options(knowledge, epsilon)
        if continuous and set_system is None:
            raise ConfigurationError("the continuous game requires a set system")
        if not continuous and (checkpoints is not None or checkpoint_ratio is not None):
            raise ConfigurationError(
                "checkpoints/checkpoint_ratio only apply to the continuous game; "
                "pass continuous=True"
            )
        if epsilon is not None and set_system is None:
            raise ConfigurationError("judging against epsilon requires a set system")
        self.stream_length = int(stream_length)
        self.set_system = set_system
        self.epsilon = epsilon
        self.knowledge = knowledge
        self.continuous = continuous
        # Normalise the schedule once here instead of per trial: every game
        # of the grid replays the identical schedule, and pre-normalised
        # tuples pass through run_continuous_game untouched.  Invalid
        # checkpoints therefore fail at construction, not inside a worker.
        if continuous:
            self.checkpoints: tuple[int, ...] | None = normalize_checkpoints(
                tuple(int(c) for c in checkpoints) if checkpoints is not None else None,
                self.stream_length,
                epsilon=epsilon,
                checkpoint_ratio=checkpoint_ratio,
            )
        else:
            self.checkpoints = None
        self.checkpoint_ratio = checkpoint_ratio
        self.chunk_size = chunk_size
        self.base_seed = collapse_seed(seed)
        self.workers = default_worker_count() if workers is None else max(1, int(workers))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _payloads(
        self,
        samplers: Mapping[str, SamplerFactory],
        adversaries: Mapping[str, AdversaryFactory],
        trials: int,
    ) -> list[_TrialPayload]:
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        if not samplers or not adversaries:
            raise ConfigurationError("the grid needs at least one sampler and one adversary")
        return [
            _TrialPayload(
                sampler_factory=sampler_factory,
                adversary_factory=adversary_factory,
                sampler_label=sampler_label,
                adversary_label=adversary_label,
                trial_index=trial_index,
                base_seed=self.base_seed,
                stream_length=self.stream_length,
                set_system=self.set_system,
                epsilon=self.epsilon,
                knowledge=self.knowledge,
                continuous=self.continuous,
                checkpoints=self.checkpoints,
                checkpoint_ratio=self.checkpoint_ratio,
                chunk_size=self.chunk_size,
            )
            for sampler_label, sampler_factory in samplers.items()
            for adversary_label, adversary_factory in adversaries.items()
            for trial_index in range(trials)
        ]

    def run_trials(
        self,
        sampler_factory: SamplerFactory,
        adversary_factory: AdversaryFactory,
        trials: int,
        sampler_label: str = "sampler",
        adversary_label: str = "adversary",
    ) -> list[TrialOutcome]:
        """Play ``trials`` games of a single ``(sampler, adversary)`` pair."""
        payloads = self._payloads(
            {sampler_label: sampler_factory}, {adversary_label: adversary_factory}, trials
        )
        return _execute_all(_execute_trial, payloads, self.workers)

    def run_grid_outcomes(
        self,
        samplers: Mapping[str, SamplerFactory],
        adversaries: Mapping[str, AdversaryFactory],
        trials: int,
    ) -> dict[tuple[str, str], list[TrialOutcome]]:
        """Play every cell and return the raw per-trial outcomes by cell.

        The full grid is flattened into one task list before dispatch, so a
        process pool load-balances across cells rather than within one cell
        at a time.  Use this instead of :meth:`run_grid` when the caller
        needs trial-level data (e.g. per-checkpoint error trajectories);
        trials within each cell are in trial-index order.
        """
        payloads = self._payloads(samplers, adversaries, trials)
        outcomes = _execute_all(_execute_trial, payloads, self.workers)
        by_cell: dict[tuple[str, str], list[TrialOutcome]] = {
            (sampler_label, adversary_label): []
            for sampler_label in samplers
            for adversary_label in adversaries
        }
        for outcome in outcomes:
            by_cell[(outcome.sampler, outcome.adversary)].append(outcome)
        return by_cell

    def run_grid(
        self,
        samplers: Mapping[str, SamplerFactory],
        adversaries: Mapping[str, AdversaryFactory],
        trials: int,
    ) -> list[BatchCellStats]:
        """Play every ``(sampler, adversary)`` cell for ``trials`` trials each.

        Cells come back in ``samplers × adversaries`` order; see
        :meth:`run_grid_outcomes` for the trial-level form.
        """
        by_cell = self.run_grid_outcomes(samplers, adversaries, trials)
        return [
            BatchCellStats.from_outcomes(outcomes, self.epsilon)
            for outcomes in by_cell.values()
        ]


# ----------------------------------------------------------------------
# Generic Monte-Carlo execution (the engine behind experiments.runner)
# ----------------------------------------------------------------------
def _call_trial(payload: tuple[Callable[[np.random.Generator, int], T], np.random.Generator, int]) -> T:
    trial, generator, index = payload
    return trial(generator, index)


def run_monte_carlo(
    trial: Callable[[np.random.Generator, int], T],
    trials: int,
    seed: RandomState = None,
    workers: int | None = None,
) -> list[T]:
    """Run ``trial(rng, index)`` for ``trials`` independent generators.

    Seeding is identical to the historical serial runner (one
    :func:`repro.rng.spawn_generators` child per trial), so serial results
    are unchanged and a parallel run returns exactly the serial results in
    the same order.  ``trial`` must be picklable for the pool to engage;
    closures fall back to in-process execution with a ``RuntimeWarning``
    (emitted once per call site under the default warning filter).
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    workers = default_worker_count() if workers is None else max(1, int(workers))
    generators = spawn_generators(seed, trials)
    payloads = [(trial, generator, index) for index, generator in enumerate(generators)]
    return _execute_all(_call_trial, payloads, workers)
