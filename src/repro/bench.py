"""Machine-readable performance benchmarks: one op registry, one timer.

Every benchmark is an :class:`Op` in :data:`OPS`: a *baseline* path and a
*candidate* path over the same prepared input (the per-element loop vs the
vectorised kernel, the bare sampler vs its defended or elastic deployment),
an optional gate ``bound`` on candidate time over baseline time, and a
``check`` that the two results agree.  :func:`measure` times both sides in
:data:`REPEATS` interleaved runs and judges a gate on the two minimums, so
both sides see the same host state and one slow shot cannot fail a gate.

Two consumers share the registry:

* ``repro-experiments bench`` (:func:`run_suite`) writes one
  ``{op, n, seconds, throughput, speedup}`` record per op to
  :data:`BENCH_FILENAME`: ``seconds`` is the candidate's minimum,
  ``throughput`` is ``n`` over it and ``speedup`` is the baseline's minimum
  over the candidate's.  The README's performance table is rendered from
  that file.  ``--mode smoke`` runs every op at a fiftieth of its size; CI
  runs it on every push together with :func:`check_report` against the
  committed baseline, which must keep its record schema and op set.
* ``benchmarks/bench_perf_gates.py`` asserts every bounded op at full size.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from ._version import __version__
from .adversary import (
    MixingGreedyDensityAdversary,
    ThresholdAttackAdversary,
    UniformAdversary,
    run_adaptive_game,
    run_continuous_game,
)
from .adversary.batch import BatchGameRunner
from .defenses import DifferenceEstimatorSampler, DPAggregateSampler, SketchSwitchingSampler
from .distributed import FaultPlan, Reshard, ShardedSampler, SiteCrash
from .exceptions import ConfigurationError
from .samplers import (
    BernoulliSampler,
    GreenwaldKhannaSketch,
    KLLSketch,
    MergeReduceSummary,
    MisraGriesSummary,
    PrioritySampler,
    ReservoirSampler,
    SlidingWindowSampler,
    WeightedReservoirSampler,
)
from .scenarios import get_scenario, run_scenario
from .scenarios.builders import AdversaryFromSpec, SamplerFromSpec, build_set_system
from .scenarios.engine import _checkpoints
from .service import QueryService, heavy_hitters, prefix_discrepancy, quantile
from .setsystems import Prefix, PrefixSystem

__all__ = [
    "BENCH_FILENAME",
    "OPS",
    "REPEATS",
    "Op",
    "Timing",
    "check_report",
    "load_baseline",
    "measure",
    "render_markdown_table",
    "resolve_output",
    "run_suite",
    "write_report",
]

#: Canonical report file name for this PR's benchmark artefact.  CI derives
#: its output/artifact name from this constant instead of hardcoding it.
BENCH_FILENAME = "BENCH_PR27.json"

#: Fields every benchmark record must carry (the report schema).
RECORD_FIELDS = ("op", "n", "seconds", "throughput", "speedup")

#: Top-level fields every report must carry.
REPORT_FIELDS = ("version", "mode", "python", "numpy", "results")

#: Interleaved runs per side; gates judge the minimum of each side's runs.
REPEATS = 5

#: Divisor applied to every op's size, per mode.
_MODES = {"smoke": 50, "full": 1}

#: Universe shared by every generated stream and set system.
_UNIVERSE = 4_096

#: Reservoir capacity of the games, sites and service deployments.
_CAPACITY = 200

Sides = tuple[Callable[[], Any], Callable[[], Any]]


@dataclass(frozen=True)
class Op:
    """A baseline and a candidate path on one input size.

    ``build(n)`` prepares the input for size ``n`` outside the timed region
    and returns the ``(baseline, candidate)`` sides, each a zero-argument
    call returning its result.  A gated op passes when the candidate's
    minimum time is at most ``bound`` times the baseline's plus ``floor``
    seconds; ``check(baseline_result, candidate_result)`` raises
    ``AssertionError`` when the two results disagree.
    """

    name: str
    n: int
    build: Callable[[int], Sides]
    check: Callable[[Any, Any], None]
    bound: float | None = None
    floor: float = 0.0

    def size(self, mode: str) -> int:
        """The op's input size in ``mode`` (``"smoke"`` or ``"full"``)."""
        return max(1, self.n // _MODES[mode])


@dataclass(frozen=True)
class Timing:
    """Both sides' run times for one op at one size, in run order."""

    op: Op
    n: int
    baseline: list[float]
    candidate: list[float]

    @property
    def ratio(self) -> float:
        """Candidate over baseline time, minimum over minimum."""
        return min(self.candidate) / min(self.baseline)

    @property
    def median_ratio(self) -> float:
        return statistics.median(self.candidate) / statistics.median(self.baseline)

    @property
    def paired_ratio(self) -> float:
        """Median of the per-repeat candidate/baseline ratios.  A repeat runs
        its two sides back to back, so each ratio comes from one phase of
        the host's speed, where the minimums may come from two."""
        return statistics.median([c / b for c, b in zip(self.candidate, self.baseline)])

    @property
    def passes(self) -> bool:
        """Whether the op's gate (if any) holds at the minimums."""
        if self.op.bound is None:
            return True
        return min(self.candidate) <= self.op.bound * min(self.baseline) + self.op.floor

    def summary(self) -> str:
        gate = "" if self.op.bound is None else f", bound {self.op.bound:.3g} + {self.op.floor}s"
        return (
            f"{self.op.name} (n={self.n:,}): candidate/baseline {self.ratio:.3f} at the min, "
            f"{self.median_ratio:.3f} at the median, {self.paired_ratio:.3f} per repeat "
            f"(median; min {min(self.candidate):.4f}s vs {min(self.baseline):.4f}s{gate})"
        )

    def record(self) -> dict[str, Any]:
        seconds = min(self.candidate)
        return {
            "op": self.op.name,
            "n": self.n,
            "seconds": round(seconds, 6),
            "throughput": round(self.n / seconds, 1) if seconds > 0 else None,
            "speedup": round(min(self.baseline) / seconds, 2),
        }


def measure(op: Op, n: int | None = None) -> Timing:
    """Time both sides of ``op`` in :data:`REPEATS` interleaved runs.

    The side that runs first alternates between repeats.  The last results
    of the two sides go through ``op.check`` before the timing is returned.
    """
    n = op.n if n is None else n
    sides = op.build(n)
    seconds: tuple[list[float], list[float]] = ([], [])
    results: list[Any] = [None, None]
    for repeat in range(REPEATS):
        for side in (0, 1) if repeat % 2 == 0 else (1, 0):
            start = time.perf_counter()
            results[side] = sides[side]()
            seconds[side].append(time.perf_counter() - start)
    op.check(*results)
    return Timing(op, n, *seconds)


# ----------------------------------------------------------------------
# Inputs and sides shared by the ops
# ----------------------------------------------------------------------
def _stream(n: int) -> list[int]:
    rng = np.random.default_rng(0)
    return [int(value) for value in rng.integers(1, _UNIVERSE + 1, size=n)]


def _floats(n: int) -> list[float]:
    return [float(value) for value in _stream(n)]


def _heavy(n: int) -> list[int]:
    # Misra–Gries gets the workload it exists for: a heavy-hitter stream
    # (uniform noise over a large universe never re-hits its counters).
    rng = np.random.default_rng(0)
    return [int(value) for value in np.minimum(rng.zipf(1.5, size=n), _UNIVERSE)]


def _loop(make: Callable[[], Any], data: list[Any]) -> Callable[[], Any]:
    """Feed ``data`` to a fresh ``make()`` one element at a time."""

    def run() -> Any:
        sampler = make()
        step = sampler.process if hasattr(sampler, "process") else sampler.update
        for element in data:
            step(element)
        return sampler

    return run


def _ingest(make: Callable[[], Any], data: list[Any]) -> Callable[[], Any]:
    """Feed ``data`` to a fresh ``make()`` in one ``extend`` call."""

    def run() -> Any:
        sampler = make()
        if hasattr(sampler, "process"):  # StreamSampler: suppress update records
            sampler.extend(data, updates=False)
        else:  # sketches
            sampler.extend(data)
        return sampler

    return run


def _ingested(sampler: Any) -> int:
    return int(sampler.rounds_processed if hasattr(sampler, "process") else sampler.count)


def _same_ingest(baseline: Any, candidate: Any) -> None:
    assert _ingested(baseline) == _ingested(candidate), (_ingested(baseline), _ingested(candidate))


def _equal(baseline: Any, candidate: Any) -> None:
    assert baseline == candidate, (baseline, candidate)


# ----------------------------------------------------------------------
# Sampler kernels: per-element ingestion vs one vectorised extend call
# ----------------------------------------------------------------------
def _extend_op(name: str, n: int, make: Callable[[], Any], data: Callable[[int], list[Any]]) -> Op:
    def build(size: int) -> Sides:
        values = data(size)
        return _loop(make, values), _ingest(make, values)

    return Op(f"extend/{name}", n, build, _same_ingest)


def _reservoir_extend(n: int) -> Sides:
    """A 1000-slot reservoir: ``n`` elements through ``extend`` vs a
    per-element ``process`` loop over the first tenth of them."""
    data = list(range(1, n + 1))
    make = partial(ReservoirSampler, 1_000, seed=0)
    return _loop(make, data[: n // 10]), _ingest(make, data)


def _full_reservoirs(loop: ReservoirSampler, extend: ReservoirSampler) -> None:
    assert loop.sample_size == extend.sample_size == 1_000, (loop.sample_size, extend.sample_size)


def _window_geometries(n: int) -> Sides:
    """A per-element ``process`` loop over one stream at a short and at a
    long window: about 140 vs 380 candidates at the end, so the ratio is
    how per-element cost grows with the candidate count."""
    data = _stream(n)
    return (
        _loop(partial(SlidingWindowSampler, 64, 256, seed=1), data),
        _loop(partial(SlidingWindowSampler, 64, 8_192, seed=1), data),
    )


def _full_windows(short: SlidingWindowSampler, long: SlidingWindowSampler) -> None:
    assert short.rounds_processed == long.rounds_processed
    for window in (short, long):
        assert window.sample_size == min(64, window.rounds_processed), window


def _window_reads(n: int) -> Sides:
    """A per-element ``process`` loop on a (64, 8192) window, without and
    with a ``sample`` read after every round, as a fully adaptive game
    reads it.  The sample changes in few rounds and reads in between are
    O(1), so the reads should cost little next to the kernel."""
    data = _stream(n)

    def play(read: bool) -> SlidingWindowSampler:
        window = SlidingWindowSampler(64, 8_192, seed=1)
        for element in data:
            window.process(element)
            if read:
                _ = window.sample
        return window

    return partial(play, False), partial(play, True)


def _window_vs_reservoir(n: int) -> Sides:
    """A per-element ``process`` loop on a 32-slot reservoir and on a
    (32, 256) window: what one window arrival costs in reservoir arrivals,
    where fixed overhead per arrival, such as a numpy call, shows."""
    data = _stream(n)
    return (
        _loop(partial(ReservoirSampler, 32, seed=1), data),
        _loop(partial(SlidingWindowSampler, 32, 256, seed=1), data),
    )


def _same_windows(bare: SlidingWindowSampler, read: SlidingWindowSampler) -> None:
    assert bare.rounds_processed == read.rounds_processed
    assert bare.sample == read.sample


# ----------------------------------------------------------------------
# Games: one-element segments (chunk_size=1) vs the default chunking
# ----------------------------------------------------------------------
def _uniform() -> UniformAdversary:
    return UniformAdversary(_UNIVERSE, seed=1)


def _greedy() -> MixingGreedyDensityAdversary:
    return MixingGreedyDensityAdversary(Prefix(_UNIVERSE // 4), 1, _UNIVERSE, decision_period=256)


def _play(n: int, adversary: Callable[[], Any], every: int | None, **options: Any) -> Any:
    """A reservoir game on the prefix system: endpoint when ``every`` is
    ``None``, else continuous with a checkpoint every ``every`` rounds."""
    sampler = ReservoirSampler(_CAPACITY, seed=0)
    if every is None:
        return run_adaptive_game(
            sampler, adversary(), n, set_system=PrefixSystem(_UNIVERSE), epsilon=0.5, **options
        )
    return run_continuous_game(
        sampler,
        adversary(),
        n,
        set_system=PrefixSystem(_UNIVERSE),
        checkpoints=range(every, n + 1, every),
        **options,
    )


def _chunking(adversary: Callable[[], Any], every: int | None = None) -> Callable[[int], Sides]:
    def build(n: int) -> Sides:
        play = partial(_play, n, adversary, every, keep_updates=False)
        return partial(play, chunk_size=1), partial(play, chunk_size=None)

    return build


def _same_game(one_element: Any, chunked: Any) -> None:
    assert one_element.stream_length == chunked.stream_length
    assert getattr(one_element, "checkpoints", None) == getattr(chunked, "checkpoints", None)


def _figure3(n: int) -> Sides:
    """The Figure-3 threshold attack on a Bernoulli sampler: update-driven
    cadence (``decision_needs="updates"``), no sample reads."""
    probability = min(1.0, 100 / n)

    def play(chunk_size: int | None) -> Any:
        return run_adaptive_game(
            BernoulliSampler(probability, seed=0),
            ThresholdAttackAdversary.for_bernoulli(probability, n, decision_period=128),
            n,
            keep_updates=False,
            chunk_size=chunk_size,
        )

    return partial(play, 1), partial(play, None)


def _greedy_per_decision(n: int) -> Sides:
    """A period-1 greedy game against a 16- and a 512-slot reservoir.  A
    reservoir's sample changes in O(k ln n) rounds and the attack counts
    each sample once, so a decision costs about the same at both sizes."""

    def play(capacity: int) -> Any:
        adversary = MixingGreedyDensityAdversary(Prefix(_UNIVERSE // 4), 1, _UNIVERSE)
        sampler = ReservoirSampler(capacity, seed=0)
        return run_adaptive_game(sampler, adversary, n, keep_updates=False)

    return partial(play, 16), partial(play, 512)


def _bit_identical_game(one_element: Any, chunked: Any) -> None:
    # Bernoulli's kernel is bit-identical to per-element processing and the
    # attack's decisions are chunking-independent, so the games must match.
    assert one_element.stream == chunked.stream
    assert one_element.sample == chunked.sample


def _tracker(n: int) -> Sides:
    """Dense checkpoints: a full recomputation at each vs the incremental tracker."""
    play = partial(_play, n, _uniform, 250)
    return partial(play, incremental=False), partial(play, incremental=True)


def _same_errors(recomputed: Any, tracked: Any) -> None:
    assert recomputed.checkpoint_errors == tracked.checkpoint_errors


# ----------------------------------------------------------------------
# Deployments: defenses, sharding, faults, scenarios and the query service
# ----------------------------------------------------------------------
def _bernoulli_copy(rng: Any) -> BernoulliSampler:
    return BernoulliSampler(0.02, seed=rng)


def _window_copy(rng: Any) -> SlidingWindowSampler:
    return SlidingWindowSampler(64, 4_096, seed=rng)


def _defended(
    wrapper: Callable[..., Any],
    copy_factory: Callable[[Any], Any] = _bernoulli_copy,
    feed: Callable[[Callable[[], Any], list[Any]], Callable[[], Any]] = _ingest,
) -> Callable[[int], Sides]:
    """A 2-copy defense vs its undefended sampler, both fed by ``feed``:
    one ``extend`` call (:func:`_ingest`) or a ``process`` loop (:func:`_loop`)."""

    def build(n: int) -> Sides:
        data = _stream(n)
        return (
            feed(partial(copy_factory, 1), data),
            feed(partial(wrapper, copy_factory, copies=2, seed=1), data),
        )

    return build


def _site(rng: np.random.Generator) -> ReservoirSampler:
    return ReservoirSampler(_CAPACITY, seed=rng)


def _sharded(strategy: str, fault_plan: FaultPlan | None = None) -> ShardedSampler:
    return ShardedSampler(4, _site, strategy=strategy, seed=1, fault_plan=fault_plan)


def _sharded_ingest(n: int) -> Sides:
    """4 random-routed sites: per-element routing vs one chunked extend."""
    data = _stream(n)
    return _loop(partial(_sharded, "random"), data), _ingest(partial(_sharded, "random"), data)


def _same_sites(baseline: ShardedSampler, candidate: ShardedSampler) -> None:
    _same_ingest(baseline, candidate)
    assert sum(baseline.site_counts) == sum(candidate.site_counts) == candidate.rounds_processed


def _hash_routing(n: int) -> Sides:
    """1024-element chunks into 4 sites: random vs value-hashed routing."""
    data = _stream(n)

    def ingest(strategy: str) -> ShardedSampler:
        sharded = _sharded(strategy)
        for offset in range(0, n, 1024):
            sharded.extend(data[offset : offset + 1024], updates=False)
        return sharded

    return partial(ingest, "random"), partial(ingest, "hash")


def _elastic(plan: Callable[[int], FaultPlan]) -> Callable[[int], Sides]:
    """4 hash-routed sites through one extend: static vs a fault plan."""

    def build(n: int) -> Sides:
        data = _stream(n)
        return (
            _ingest(partial(_sharded, "hash"), data),
            _ingest(partial(_sharded, "hash", plan(n)), data),
        )

    return build


def _split_merge(n: int) -> FaultPlan:
    return FaultPlan(
        reshards=(
            Reshard(round=(2 * n) // 5, op="split", site=0),
            Reshard(round=(7 * n) // 10, op="merge", site=0, other=4),
        )
    )


def _crash(n: int) -> FaultPlan:
    return FaultPlan(crashes=(SiteCrash(site=1, round=n // 3, recovery_rounds=n // 4, loss="replay"),))


def _replayed(clean: ShardedSampler, faulted: ShardedSampler) -> None:
    _same_ingest(clean, faulted)
    report = faulted.degradation_report()
    # Replay re-admits every buffered element at recovery; what stays lost
    # is exactly the crashed site's wiped pre-crash state.
    assert report["pending_replay"] == 0 and report["dropped_rounds"] == 0, report
    assert 0 < report["lost_rounds"] < faulted.rounds_processed // 3, report


def _scenario_engine(n: int) -> Sides:
    """``prefix_flood`` at stream length ``n``: a hand-written
    ``BatchGameRunner`` call vs the same games through ``run_scenario``."""
    scale = {"stream_length": n, "universe_size": 256, "trials": 4}
    config = get_scenario("prefix_flood").base_config.replace(workers=1, **scale)

    def direct() -> Any:
        runner = BatchGameRunner(
            config.stream_length,
            set_system=build_set_system(config.set_system, config.universe_size),
            epsilon=config.epsilon,
            knowledge=config.knowledge,  # type: ignore[arg-type]
            continuous=config.continuous,
            checkpoints=_checkpoints(config),
            seed=config.seed,
            workers=1,
        )
        samplers = {label: SamplerFromSpec(spec) for label, spec in config.samplers.items()}
        adversaries = {str(config.adversary["family"]): AdversaryFromSpec(config)}
        return runner.run_grid(samplers, adversaries, config.trials)

    return direct, partial(run_scenario, "prefix_flood", workers=1, **scale)


def _same_cells(direct_cells: Any, result: Any) -> None:
    assert len(result.cells) == len(direct_cells)
    for cell, stats in zip(result.cells, direct_cells):
        assert (cell["sampler"], cell["mean_error"]) == (stats.sampler, stats.mean_error)


def _service_retention(n: int) -> Sides:
    """``QueryService.serve`` over 4 hash-routed sites: no readers vs
    4 benign readers plus 1 fresh-forcing adversarial reader."""
    data = _stream(n)

    def quiet() -> Any:
        service = QueryService(_sharded("hash"), universe_size=_UNIVERSE)
        return service.serve(data, chunk_size=1024, clients=0, adversarial_clients=0)

    def loaded() -> Any:
        service = QueryService(_sharded("hash"), staleness_rounds=2_048, universe_size=_UNIVERSE)
        return service.serve(data, chunk_size=1024, clients=4, adversarial_clients=1)

    return quiet, loaded


def _same_service_rounds(quiet: Any, loaded: Any) -> None:
    assert quiet.rounds == loaded.rounds, (quiet.rounds, loaded.rounds)


def _indexed_queries(n: int) -> Sides:
    """``n`` rounds of {quantile, heavy hitters, discrepancy} on one 512-value
    sample: a list (the reference kernels) vs a new tuple (the snapshot index,
    built once per run)."""
    data = _stream(100_000)
    values = data[:512]
    counts = np.bincount(np.asarray(data, dtype=np.int64), minlength=_UNIVERSE + 1)

    def rounds(snapshot_type: Callable[[list[int]], Any]) -> Any:
        snapshot = snapshot_type(values)
        answers: Any = None
        for _ in range(n):
            answers = (
                quantile(snapshot, 0.5),
                heavy_hitters(snapshot, 8),
                prefix_discrepancy(snapshot, counts),
            )
        return answers

    return partial(rounds, list), partial(rounds, tuple)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
OPS: tuple[Op, ...] = (
    _extend_op("bernoulli", 100_000, partial(BernoulliSampler, 0.02, seed=1), _stream),
    Op("extend/reservoir", 1_000_000, _reservoir_extend, _full_reservoirs, bound=10.0),
    _extend_op("weighted-reservoir", 100_000, partial(WeightedReservoirSampler, 200, seed=1), _stream),
    _extend_op("priority", 100_000, partial(PrioritySampler, 200, seed=1), _stream),
    # 20,000 elements overrun the 8,192-element window, so both sides expire.
    _extend_op("sliding-window", 20_000, partial(SlidingWindowSampler, 64, 8192, seed=1), _stream),
    Op("window/per-element", 20_000, _window_geometries, _full_windows, bound=1.5),
    Op("window/read-per-round", 20_000, _window_reads, _same_windows, bound=1.5),
    Op("window/per-element-vs-reservoir", 20_000, _window_vs_reservoir, _same_ingest, bound=4.5),
    _extend_op("misra-gries", 100_000, partial(MisraGriesSummary, 200), _heavy),
    _extend_op("kll", 100_000, partial(KLLSketch, 128, seed=1), _floats),
    _extend_op("greenwald-khanna", 100_000, partial(GreenwaldKhannaSketch, 0.02), _floats),
    _extend_op("merge-reduce", 100_000, partial(MergeReduceSummary, 0.02), _floats),
    Op("defended/sketch-switching", 100_000, _defended(SketchSwitchingSampler), _same_ingest, bound=2.4),
    Op("defended/dp-aggregate", 100_000, _defended(DPAggregateSampler), _same_ingest, bound=2.4),
    Op(
        "defended/difference-estimator",
        50_000,
        _defended(DifferenceEstimatorSampler, _window_copy),
        _same_ingest,
        bound=2.4,
    ),
    # Fully adaptive games feed a defense one round at a time: picking the
    # serving copy must cost little next to the second copy's own work.
    # Short sides keep one measurement within one phase of the host's speed;
    # the window op runs past a rotation.
    Op(
        "defended/per-round/sketch-switching",
        5_000,
        _defended(SketchSwitchingSampler, feed=_loop),
        _same_ingest,
        bound=3.0,
    ),
    Op(
        "defended/per-round/dp-aggregate",
        5_000,
        _defended(DPAggregateSampler, feed=_loop),
        _same_ingest,
        bound=3.0,
    ),
    Op(
        "defended/per-round/difference-estimator",
        10_000,
        _defended(DifferenceEstimatorSampler, _window_copy, _loop),
        _same_ingest,
        bound=3.0,
    ),
    Op("sharded/ingest", 100_000, _sharded_ingest, _same_sites, bound=0.5),
    Op("sharded/hash-routing", 100_000, _hash_routing, _same_sites, bound=2.0),
    Op("elastic/resharding", 100_000, _elastic(_split_merge), _same_sites, bound=1.5),
    Op("elastic/faults", 100_000, _elastic(_crash), _replayed, bound=1.5),
    Op("service/ingest-retention", 100_000, _service_retention, _same_service_rounds, bound=1 / 0.7),
    Op("service/indexed-queries", 200, _indexed_queries, _equal, bound=0.5),
    Op("scenario/engine", 4_096, _scenario_engine, _same_cells, bound=1.10, floor=0.020),
    Op("game/adaptive", 100_000, _chunking(_uniform), _same_game, bound=1 / 3),
    Op("game/adaptive-cadence", 100_000, _chunking(_greedy), _same_game, bound=1 / 3),
    Op("game/adaptive-cadence-updates", 100_000, _figure3, _bit_identical_game, bound=1 / 3),
    Op("game/continuous", 100_000, _chunking(_uniform, every=250), _same_game, bound=1 / 3),
    Op("game/continuous-cadence", 100_000, _chunking(_greedy, every=1_000), _same_game, bound=1 / 3),
    Op("game/continuous-tracker", 100_000, _tracker, _same_errors, bound=0.2),
    Op("game/greedy-per-decision", 20_000, _greedy_per_decision, _same_game, bound=2.0),
)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def run_suite(mode: str = "full") -> dict[str, Any]:
    """Measure every op of :data:`OPS` and return the machine-readable report."""
    if mode not in _MODES:
        raise ValueError(f"unknown benchmark mode {mode!r}; expected one of {sorted(_MODES)}")
    return {
        "version": __version__,
        "mode": mode,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": [measure(op, op.size(mode)).record() for op in OPS],
    }


def check_report(report: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Validate a fresh report against the committed baseline's shape.

    Returns a list of human-readable problems (empty when the report is
    sound).  The check is deliberately about *shape*, not speed: every
    top-level field and per-record field of the schema must be present with
    a sane type, and every operation the baseline measured must still be
    measured — a benchmark that silently disappears breaks the perf
    trajectory even when every remaining number looks great.  New
    operations are allowed (that is how the op-set grows PR over PR).
    """
    problems: list[str] = []
    for field in REPORT_FIELDS:
        if field not in report:
            problems.append(f"report is missing the top-level field {field!r}")
    records = report.get("results")
    if not isinstance(records, list) or not records:
        problems.append("report has no results")
        return problems
    fresh_ops: set[str] = set()
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            problems.append(f"record #{index} is not an object")
            continue
        missing = [field for field in RECORD_FIELDS if field not in record]
        extra = [field for field in record if field not in RECORD_FIELDS]
        if missing:
            problems.append(f"record {record.get('op', f'#{index}')!r} is missing {missing}")
        if extra:
            problems.append(f"record {record.get('op', f'#{index}')!r} has unknown fields {extra}")
        op = record.get("op")
        if not isinstance(op, str) or not op:
            problems.append(f"record #{index} has no operation name")
            continue
        if op in fresh_ops:
            problems.append(f"operation {op!r} is reported twice")
        fresh_ops.add(op)
        if not isinstance(record.get("n"), int) or record.get("n", 0) <= 0:
            problems.append(f"operation {op!r} has a non-positive n")
        seconds = record.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            problems.append(f"operation {op!r} has an invalid seconds value")
    baseline_ops = {
        record.get("op") for record in baseline.get("results", []) if isinstance(record, dict)
    }
    missing_ops = sorted(op for op in baseline_ops - fresh_ops if op)
    if missing_ops:
        problems.append(
            "operations measured by the baseline are missing from the fresh "
            f"report: {', '.join(missing_ops)}"
        )
    return problems


def load_baseline(path: Path | None = None) -> tuple[Path, dict[str, Any]]:
    """Read the committed baseline report for ``--check`` comparisons.

    Defaults to :data:`BENCH_FILENAME` in the current directory.  The
    baseline must be read *before* any fresh suite runs so a missing or
    corrupt baseline fails fast instead of after minutes of benchmarking.
    Raises :class:`~repro.exceptions.ConfigurationError` with a message the
    CLI surfaces verbatim (``error: ...``, exit 2).
    """
    path = Path(path) if path is not None else Path(BENCH_FILENAME)
    if not path.exists():
        raise ConfigurationError(f"baseline report {path} not found")
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"baseline report {path} is not valid JSON: {exc}") from exc
    if not isinstance(baseline, dict):
        raise ConfigurationError(f"baseline report {path} is not a JSON object")
    return path, baseline


def resolve_output(output: Path | None = None, checking: bool = False) -> Path:
    """Where a fresh report should be written.

    An explicit ``output`` always wins.  Otherwise plain runs refresh the
    canonical :data:`BENCH_FILENAME`, while ``--check`` runs write next to
    it with a ``.fresh.json`` suffix — the committed baseline is the thing
    being checked against and must never be clobbered by the check itself.
    """
    if output is not None:
        return Path(output)
    canonical = Path(BENCH_FILENAME)
    return canonical.with_suffix(".fresh.json") if checking else canonical


def write_report(report: dict[str, Any], path: Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def render_markdown_table(report: dict[str, Any]) -> str:
    """The README performance table, one row per record of ``report``."""
    lines = [
        "| op | n | seconds | throughput (elem/s) | speedup |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for record in report["results"]:
        speedup = f"{record['speedup']:.1f}x" if record["speedup"] is not None else "—"
        throughput = f"{record['throughput']:,.0f}" if record["throughput"] else "—"
        lines.append(
            f"| `{record['op']}` | {record['n']:,} | {record['seconds']:.3f} "
            f"| {throughput} | {speedup} |"
        )
    return "\n".join(lines)
