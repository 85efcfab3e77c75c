"""Game runners realising Figures 1 and 2 of the paper.

:func:`run_adaptive_game` plays the ``AdaptiveGame`` of Figure 1: the
adversary submits ``n`` elements one by one, observing the sampler's state
after every round, and the final sample is judged against the full stream.

:func:`run_continuous_game` plays the ``ContinuousAdaptiveGame`` of Figure 2:
the sample is additionally judged against every prefix of the stream (at a
configurable set of checkpoints; evaluating literally every prefix is
supported but quadratic).

Both runners support three *knowledge models* for the ablation experiments:

* ``"full"`` — the paper's model: the adversary sees the entire sample and the
  per-round update;
* ``"updates"`` — the adversary only learns, per round, whether its element
  was accepted and what was evicted (sufficient for the Figure-3 attack);
* ``"oblivious"`` — the adversary learns nothing (the static setting).

Segmented execution
-------------------
The game is sequential only at the adversary's *decision points*; between
them the stream is fixed and the sampler can consume it in bulk.  Both
runners therefore play one loop over segments: each iteration asks the
adversary (via :meth:`~repro.adversary.base.Adversary.next_elements`) for
up to ``chunk_size`` elements it commits to without further feedback, feeds
the segment through the sampler's vectorised ``extend`` kernel, and records
the outcome as a columnar :class:`~repro.samplers.base.UpdateBatch`.
Adaptive adversaries with a declared decision cadence
(:class:`~repro.adversary.base.CadencedAdversary`) emit one block per
decision point, so segments align with the points where the adversary
genuinely observes the sampler; the runner also skips materialising the
sample view for adversaries whose ``decision_needs`` exclude it.  A plain
per-round adversary (one that never overrides ``next_elements``) and a
period-1 attack commit to one element per round, and ``chunk_size=1`` caps
every segment at one element: such segments go through ``process`` and
``observe_update``, a round at a time.  In the continuous game segments
additionally break at checkpoint boundaries, so the sample is judged at
exactly the checkpoint rounds whatever the chunking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import Any, Literal, get_args

from ..core.approximation import geometric_checkpoints
from ..exceptions import ConfigurationError, TrackerUnsupportedError
from ..samplers.base import SampleUpdate, StreamSampler, UpdateBatch
from ..setsystems.base import SetSystem
from .base import Adversary

KnowledgeModel = Literal["full", "updates", "oblivious"]
#: The knowledge models a game accepts (the values of :data:`KnowledgeModel`).
KNOWLEDGE_MODELS: tuple[str, ...] = get_args(KnowledgeModel)

#: Default segment length for chunked execution.  Large enough that numpy
#: kernel launch overhead is negligible, small enough that the sampler state
#: the adversary observes between segments stays reasonably fresh for
#: coarse-grained semi-adaptive strategies.
DEFAULT_CHUNK_SIZE = 4096


@dataclass
class GameResult:
    """Outcome of one play of the adaptive game.

    Attributes
    ----------
    stream:
        The full adversarially chosen stream ``X``.
    sample:
        The sampler's final sample ``S`` (a tuple snapshot).
    error:
        ``sup_R |d_R(X) - d_R(S)|`` when a set system was supplied (``None``
        otherwise); an empty final sample counts as error 1.
    witness:
        A range achieving the error, when available.
    epsilon:
        The target epsilon the game was judged against (``None`` if not set).
    succeeded:
        ``True`` when the final sample is an epsilon-approximation (the
        paper's game outputs 1), ``None`` when no epsilon was supplied.
    updates:
        The per-round update record, a columnar
        :class:`~repro.samplers.base.UpdateBatch` (which behaves as a lazy
        sequence of :class:`SampleUpdate`); empty when the runner was asked
        not to keep it.
    sampler_name / adversary_name:
        Names for reporting.
    """

    stream: list[Any]
    sample: tuple[Any, ...]
    error: float | None
    witness: Any
    epsilon: float | None
    succeeded: bool | None
    updates: Sequence[SampleUpdate] = field(repr=False, default_factory=list)
    sampler_name: str = ""
    adversary_name: str = ""

    @property
    def stream_length(self) -> int:
        return len(self.stream)

    @property
    def sample_size(self) -> int:
        return len(self.sample)

    @property
    def total_accepted(self) -> int:
        """Total number of rounds whose element entered the sample (even if later evicted)."""
        if isinstance(self.updates, UpdateBatch):
            return self.updates.accepted_count
        return sum(1 for update in self.updates if update.accepted)


@dataclass
class ContinuousGameResult(GameResult):
    """Outcome of one play of the continuous adaptive game.

    In addition to the final-sample verdict it records, per checkpoint, the
    worst-range error of the sample against the stream prefix at that point.
    """

    checkpoints: list[int] = field(default_factory=list)
    checkpoint_errors: list[float] = field(default_factory=list)

    @property
    def max_checkpoint_error(self) -> float:
        return max(self.checkpoint_errors) if self.checkpoint_errors else 0.0

    @property
    def first_violation(self) -> int | None:
        """The first checkpoint at which the sample was not an epsilon-approximation."""
        if self.epsilon is None:
            return None
        for checkpoint, error in zip(self.checkpoints, self.checkpoint_errors):
            if error > self.epsilon:
                return checkpoint
        return None

    @property
    def continuously_succeeded(self) -> bool | None:
        """The paper's ContinuousAdaptiveGame output: 1 iff no checkpoint is violated."""
        if self.epsilon is None:
            return None
        return self.first_violation is None


def _is_normalized_checkpoints(checkpoints: Sequence[int]) -> bool:
    """Cheap check for a strictly increasing tuple of ints (no allocation)."""
    previous = 0
    for checkpoint in checkpoints:
        if not isinstance(checkpoint, int) or checkpoint <= previous:
            return False
        previous = checkpoint
    return True


def normalize_checkpoints(
    checkpoints: Iterable[int] | None,
    stream_length: int,
    *,
    epsilon: float | None = None,
    checkpoint_ratio: float | None = None,
) -> tuple[int, ...]:
    """Resolve a checkpoint schedule to a validated, strictly increasing tuple.

    ``None`` yields the geometric schedule used in the proof of Theorem 1.4
    with ratio ``epsilon / 4`` (or ``checkpoint_ratio``).  An already
    normalised tuple passes through untouched, so repeated callers — notably
    :class:`~repro.adversary.batch.BatchGameRunner`, which plays the same
    schedule for every trial of a grid — normalise once and reuse instead of
    re-deriving ``sorted(set(...))`` per game.
    """
    if checkpoints is None:
        ratio = checkpoint_ratio
        if ratio is None:
            ratio = (epsilon / 4.0) if epsilon is not None else 0.1
        checkpoints = geometric_checkpoints(1, stream_length, ratio)
    if isinstance(checkpoints, tuple) and _is_normalized_checkpoints(checkpoints):
        normalized = checkpoints
    else:
        normalized = tuple(sorted(set(int(c) for c in checkpoints)))
    if normalized and not (1 <= normalized[0] and normalized[-1] <= stream_length):
        offender = normalized[0] if normalized[0] < 1 else normalized[-1]
        raise ConfigurationError(
            f"checkpoint {offender} outside the stream range [1, {stream_length}]"
        )
    return normalized


def _resolve_chunk_size(chunk_size: int | None) -> int:
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    chunk = int(chunk_size)
    if chunk < 1:
        raise ConfigurationError(f"chunk size must be >= 1, got {chunk_size}")
    return chunk


def _check_game_options(knowledge: str, epsilon: float | None) -> None:
    """Reject a knowledge model outside :data:`KNOWLEDGE_MODELS` and a given
    epsilon outside (0, 1), before any player moves."""
    if knowledge not in KNOWLEDGE_MODELS:
        raise ConfigurationError(
            f"unknown knowledge model {knowledge!r}; expected one of {KNOWLEDGE_MODELS}"
        )
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must lie in (0, 1), got {epsilon}")


class _UpdateLog:
    """Accumulates per-segment update records into one columnar batch.

    Singleton segments (adaptive decision points) append plain
    :class:`SampleUpdate` records; multi-element segments append whole
    :class:`UpdateBatch` columns.  ``collect`` stitches them into a single
    :class:`UpdateBatch` so downstream consumers see one sequence.
    """

    def __init__(self) -> None:
        self._batches: list[UpdateBatch] = []
        self._pending: list[SampleUpdate] = []

    def append_update(self, update: SampleUpdate) -> None:
        self._pending.append(update)

    def append_batch(self, batch: UpdateBatch) -> None:
        if self._pending:
            self._batches.append(UpdateBatch.from_updates(self._pending))
            self._pending = []
        self._batches.append(batch)

    def collect(self) -> UpdateBatch:
        if self._pending:
            self._batches.append(UpdateBatch.from_updates(self._pending))
            self._pending = []
        return UpdateBatch.concat(self._batches)


class _Judge:
    """Worst-range error of snapshots against the stream played so far.

    Prefers the incremental tracker, which each judgement first feeds every
    element played since the last one (``add`` for one element, ``add_batch``
    otherwise), so the game loop never touches it between checkpoints.  An
    element or snapshot the tracker cannot index deactivates it, and this
    (and every later) judgement recomputes from the stream the runner keeps
    anyway.
    """

    def __init__(self, set_system: SetSystem, stream: list[Any], tracker: Any) -> None:
        self.set_system = set_system
        self.stream = stream
        self.tracker = tracker
        #: How many elements of ``stream`` the tracker has been fed.
        self._tracked = 0

    def error(self, sample: tuple[Any, ...]) -> tuple[float, Any]:
        """The error (and witness) of ``sample``; an empty sample scores 1."""
        if len(sample) == 0:
            return 1.0, None
        if self.tracker is not None:
            stream, start = self.stream, self._tracked
            self._tracked = len(stream)
            try:
                if self._tracked == start + 1:
                    self.tracker.add(stream[start])
                elif self._tracked > start:
                    self.tracker.add_batch(stream[start:])
                report = self.tracker.checkpoint(sample)
                return report.error, report.witness
            except TrackerUnsupportedError:
                self.tracker = None
        report = self.set_system.max_discrepancy(self.stream, sample)
        return report.error, report.witness


def _play(
    sampler: StreamSampler,
    adversary: Adversary,
    stream_length: int,
    chunk: int,
    knowledge: KnowledgeModel,
    keep_updates: bool,
    stream: list[Any],
    checkpoints: Sequence[int] = (),
    judge: _Judge | None = None,
) -> tuple[Sequence[SampleUpdate], list[float]]:
    """The game loop of both runners.

    Each iteration offers the adversary a segment of at most ``chunk``
    rounds, cut at the stream end and at the next checkpoint, so every
    checkpoint is judged on the sampler state right after its round.  A
    one-element segment (every round of a per-round adversary or a
    period-1 attack, and every segment at ``chunk=1``) goes through
    ``process`` and ``observe_update``; a longer one through the sampler's
    vectorised ``extend`` and one columnar ``observe_update_batch``, with
    the update record built only when it is kept or the adversary listens.
    Methods are looked up once, and the adversary's static sample appetite
    read once, since a per-round game runs this loop once per round.
    ``judge`` (required with ``checkpoints``) judges the checkpoints; returns
    the update record and the checkpoint errors.
    """
    log = _UpdateLog()
    errors: list[float] = []
    next_elements = adversary.next_elements
    will_observe = adversary.will_observe_sample
    observes_updates = adversary.observes_updates
    observe_update = adversary.observe_update
    observe_update_batch = adversary.observe_update_batch
    process, extend = sampler.process, sampler.extend
    append_element, extend_stream = stream.append, stream.extend
    append_update, append_batch = log.append_update, log.append_batch
    # will_observe_sample only refines uses_observed_sample, so an adversary
    # that never reads the view is never asked.
    full = knowledge == "full" and adversary.uses_observed_sample
    listens = knowledge != "oblivious"
    next_checkpoint = 0
    stop = checkpoints[0] if checkpoints else stream_length
    round_index = 0
    while round_index < stream_length:
        budget = min(chunk, stop - round_index)
        first = round_index + 1
        # will_observe_sample refines the static declaration per request, so
        # a cadenced adversary mid-way through a block declines the view (a
        # fresh merge on sharded deployments) it is guaranteed to ignore.
        segment = next_elements(first, budget, sampler.sample if full and will_observe() else None)
        size = len(segment)
        if not size:
            raise ConfigurationError(f"{adversary.name!r} returned an empty segment at round {first}")
        if size > budget:
            raise ConfigurationError(
                f"{adversary.name!r} returned {size} elements for a segment "
                f"budget of {budget} at round {first}"
            )
        feed = listens and observes_updates(first, round_index + size)
        if size == 1:
            element = segment[0]
            update = process(element)
            append_element(element)
            if keep_updates:
                append_update(update)
            if feed:
                observe_update(update)
        else:
            batch = extend(segment, updates=keep_updates or feed)
            extend_stream(segment)
            if keep_updates:
                append_batch(batch)
            if feed:
                observe_update_batch(batch)
        round_index += size
        if round_index == stop and next_checkpoint < len(checkpoints):
            errors.append(judge.error(sampler.snapshot())[0])
            next_checkpoint += 1
            stop = checkpoints[next_checkpoint] if next_checkpoint < len(checkpoints) else stream_length
    return (log.collect() if keep_updates else []), errors


def run_adaptive_game(
    sampler: StreamSampler,
    adversary: Adversary,
    stream_length: int,
    set_system: SetSystem | None = None,
    epsilon: float | None = None,
    knowledge: KnowledgeModel = "full",
    keep_updates: bool = True,
    chunk_size: int | None = None,
) -> GameResult:
    """Play the AdaptiveGame of Figure 1 and judge the final sample.

    Parameters
    ----------
    sampler / adversary:
        Freshly constructed (or reset) players.
    stream_length:
        Number of rounds ``n``.
    set_system:
        If supplied, the final sample's worst-range error against the stream
        is computed with respect to it.
    epsilon:
        If supplied together with ``set_system``, the result's ``succeeded``
        flag reports whether the sample is an epsilon-approximation; it
        must lie in (0, 1).
    knowledge:
        How much of the sampler's state the adversary observes, one of
        :data:`KNOWLEDGE_MODELS` (see module docstring).
    keep_updates:
        Set to ``False`` to drop the per-round update log (saves memory on
        very long streams).
    chunk_size:
        Maximum segment length (default :data:`DEFAULT_CHUNK_SIZE`); ``1``
        plays every round as its own one-element segment.
    """
    if stream_length < 1:
        raise ConfigurationError(f"stream length must be >= 1, got {stream_length}")
    _check_game_options(knowledge, epsilon)
    if epsilon is not None and set_system is None:
        raise ConfigurationError("judging against epsilon requires a set system")
    chunk = _resolve_chunk_size(chunk_size)

    stream: list[Any] = []
    updates, _ = _play(sampler, adversary, stream_length, chunk, knowledge, keep_updates, stream)
    sample = sampler.snapshot()
    error: float | None = None
    witness: Any = None
    succeeded: bool | None = None
    if set_system is not None:
        error, witness = _Judge(set_system, stream, None).error(sample)
        if epsilon is not None:
            succeeded = error <= epsilon
    return GameResult(
        stream=stream,
        sample=sample,
        error=error,
        witness=witness,
        epsilon=epsilon,
        succeeded=succeeded,
        updates=updates,
        sampler_name=sampler.name,
        adversary_name=adversary.name,
    )


def run_continuous_game(
    sampler: StreamSampler,
    adversary: Adversary,
    stream_length: int,
    set_system: SetSystem,
    epsilon: float | None = None,
    checkpoints: Iterable[int] | None = None,
    checkpoint_ratio: float | None = None,
    knowledge: KnowledgeModel = "full",
    incremental: bool = True,
    keep_updates: bool = True,
    chunk_size: int | None = None,
) -> ContinuousGameResult:
    """Play the ContinuousAdaptiveGame of Figure 2.

    Checkpoints default to the geometric schedule used in the proof of
    Theorem 1.4 with ratio ``epsilon / 4`` (or ``checkpoint_ratio``); pass an
    explicit iterable (e.g. ``range(1, n + 1)``) to check every prefix.
    Pre-normalised tuples (see :func:`normalize_checkpoints`) are reused
    as-is, so grid sweeps don't re-derive the schedule per trial.
    Unlike the game in the paper, the runner does not halt at the first
    violation — it records the error at every checkpoint so experiments can
    plot complete trajectories — but :attr:`ContinuousGameResult.first_violation`
    recovers the halting behaviour.  ``knowledge`` and ``epsilon`` are
    validated as in :func:`run_adaptive_game`.

    When ``incremental`` is true (the default) and the set system provides an
    incremental tracker (:meth:`~repro.setsystems.base.SetSystem.make_tracker`),
    checkpoint errors are answered from the tracker's online state instead of
    re-sorting the stream prefix at every checkpoint; the reported errors are
    identical to the batch recomputation.  Systems without a tracker — or
    streams whose elements a tracker cannot index, such as the huge-integer
    universes of the Figure-3 attack — silently use the batch path.

    Segments (see module docstring) additionally break at checkpoint
    boundaries, so every checkpoint observes the sampler state right after
    its round whatever ``chunk_size`` is.
    """
    if stream_length < 1:
        raise ConfigurationError(f"stream length must be >= 1, got {stream_length}")
    _check_game_options(knowledge, epsilon)
    checkpoint_list = normalize_checkpoints(
        checkpoints, stream_length, epsilon=epsilon, checkpoint_ratio=checkpoint_ratio
    )
    chunk = _resolve_chunk_size(chunk_size)

    stream: list[Any] = []
    judge = _Judge(
        set_system, stream, set_system.make_tracker(stream_length) if incremental else None
    )
    updates, errors = _play(
        sampler, adversary, stream_length, chunk, knowledge, keep_updates, stream,
        checkpoint_list, judge,
    )
    sample = sampler.snapshot()
    final_error, witness = judge.error(sample)
    succeeded = None if epsilon is None else final_error <= epsilon
    return ContinuousGameResult(
        stream=stream,
        sample=sample,
        error=final_error,
        witness=witness,
        epsilon=epsilon,
        succeeded=succeeded,
        updates=updates,
        sampler_name=sampler.name,
        adversary_name=adversary.name,
        checkpoints=list(checkpoint_list),
        checkpoint_errors=errors,
    )
