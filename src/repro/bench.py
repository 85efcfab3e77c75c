"""Machine-readable performance benchmark suite.

Every record produced here is a plain dict with the same five fields —
``op``, ``n``, ``seconds``, ``throughput`` (elements or rounds per second)
and ``speedup`` (vs the op's named per-element baseline, ``None`` for
baselines themselves) — so the perf trajectory of the project can finally be
tracked across PRs: :func:`run_suite` writes :data:`BENCH_FILENAME` and the
README's performance table is refreshed from it.

Two scales are built in:

* ``smoke`` — a few seconds end to end; run by CI on every push, where only
  the *shape* of the output matters (the JSON artifact is uploaded for
  inspection, not gated on speedups, which would be noisy on shared runners);
* ``full`` — the scale the gates in ``benchmarks/bench_perf_game_chunked.py``
  and ``benchmarks/bench_perf_sharded.py`` reason about (10^5-element games).

CI additionally runs :func:`check_report` (``repro-experiments bench
--check``) against the committed baseline report: the fresh smoke run must
keep the baseline's record schema and cover every operation the baseline
covers, so an accidentally dropped benchmark or a silent schema drift fails
the push instead of corrupting the perf trajectory.  Speedups themselves
stay informational on shared runners.

Entry points: ``repro-experiments bench`` (CLI) and
``benchmarks/run_benchmarks.py`` (script wrapper).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from collections.abc import Callable
from typing import Any

import numpy as np

from ._version import __version__
from .exceptions import ConfigurationError
from .adversary import (
    MixingGreedyDensityAdversary,
    ThresholdAttackAdversary,
    UniformAdversary,
    run_adaptive_game,
    run_continuous_game,
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
    WeightedReservoirSampler,
)
from .setsystems import Prefix, PrefixSystem

__all__ = [
    "BENCH_FILENAME",
    "check_report",
    "load_baseline",
    "render_markdown_table",
    "resolve_output",
    "run_suite",
    "write_report",
]

#: Canonical report file name for this PR's benchmark artefact.  CI derives
#: its output/artifact name from this constant instead of hardcoding it.
BENCH_FILENAME = "BENCH_PR9.json"

#: Fields every benchmark record must carry (the report schema).
RECORD_FIELDS = ("op", "n", "seconds", "throughput", "speedup")

#: Top-level fields every report must carry.
REPORT_FIELDS = ("version", "mode", "python", "numpy", "results")

#: Universe shared by all game benchmarks (matches the tracker benchmarks).
_UNIVERSE = 4_096


def _time(function: Callable[[], Any]) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _record(
    op: str, n: int, seconds: float, speedup: float | None = None
) -> dict[str, Any]:
    return {
        "op": op,
        "n": n,
        "seconds": round(seconds, 6),
        "throughput": round(n / seconds, 1) if seconds > 0 else None,
        "speedup": round(speedup, 2) if speedup is not None else None,
    }


# ----------------------------------------------------------------------
# Individual benchmarks
# ----------------------------------------------------------------------
def _sampler_factories(n: int) -> dict[str, Callable[[], Any]]:
    """Per-sampler constructors at sizes that scale sensibly with ``n``."""
    capacity = min(512, max(32, n // 500))
    return {
        "bernoulli": lambda: BernoulliSampler(min(1.0, 2000 / n), seed=1),
        "reservoir": lambda: ReservoirSampler(capacity, seed=1),
        "weighted-reservoir": lambda: WeightedReservoirSampler(capacity, seed=1),
        "priority": lambda: PrioritySampler(capacity, seed=1),
        "sliding-window": lambda: SlidingWindowSampler(64, 8192, seed=1),
        "misra-gries": lambda: MisraGriesSummary(capacity),
        "kll": lambda: KLLSketch(128, seed=1),
        "greenwald-khanna": lambda: GreenwaldKhannaSketch(0.02),
        "merge-reduce": lambda: MergeReduceSummary(0.02),
    }


def _ingest_sequential(sampler: Any, data: list[Any]) -> None:
    step = sampler.process if hasattr(sampler, "process") else sampler.update
    for element in data:
        step(element)


def _ingest_batched(sampler: Any, data: list[Any]) -> None:
    if hasattr(sampler, "process"):  # StreamSampler: suppress update records
        sampler.extend(data, updates=False)
    else:  # sketches
        sampler.extend(data)


#: Caps on the stream fed to a sampler's *sequential* baseline, where the
#: per-element path is the very bottleneck being replaced and would dominate
#: the whole suite (the sliding window re-scans its ``O(k log w)`` candidates
#: every element, ~0.1 ms per element at the benchmarked configuration).  Capped
#: baselines still compare like for like: the speedup is measured with both
#: paths at the baseline length, and each record's ``n`` reports what was
#: actually measured.
_SEQUENTIAL_BASELINE_CAPS = {"sliding-window": 4_000}


def bench_sampler_extend(n: int) -> list[dict[str, Any]]:
    """Vectorised ``extend`` vs per-element ingestion, for every sampler.

    Per-element and batched ingestion are compared **at the same stream
    length** (per-element cost is not n-independent — sketch hierarchies
    deepen with the stream), so the reported speedup is a genuine
    like-for-like ratio even where the per-element baseline is capped below
    the headline ``n``; the batched path is additionally measured at the
    headline ``n`` for the throughput record.
    """
    rng = np.random.default_rng(0)
    integer_data = [int(value) for value in rng.integers(1, _UNIVERSE + 1, size=n)]
    float_data = [float(value) for value in integer_data]
    # Misra–Gries gets the workload it exists for: a heavy-hitter stream
    # (uniform noise over a large universe never re-hits its counters, which
    # benchmarks the novel-key fallback rather than the summary's use case).
    heavy_data = [int(value) for value in np.minimum(rng.zipf(1.5, size=n), _UNIVERSE)]
    records = []
    for name, factory in _sampler_factories(n).items():
        if name in ("kll", "greenwald-khanna", "merge-reduce"):
            data = float_data
        elif name == "misra-gries":
            data = heavy_data
        else:
            data = integer_data
        baseline_n = min(n, _SEQUENTIAL_BASELINE_CAPS.get(name, n))
        sequential_seconds = _time(lambda: _ingest_sequential(factory(), data[:baseline_n]))
        batched_baseline_seconds = _time(lambda: _ingest_batched(factory(), data[:baseline_n]))
        if baseline_n == n:
            batched_seconds = batched_baseline_seconds
        else:
            batched_seconds = _time(lambda: _ingest_batched(factory(), data))
        records.append(_record(f"extend/{name}/sequential", baseline_n, sequential_seconds))
        records.append(
            _record(
                f"extend/{name}/batched",
                n,
                batched_seconds,
                speedup=sequential_seconds / batched_baseline_seconds,
            )
        )
    return records


def bench_adaptive_game(n: int) -> list[dict[str, Any]]:
    """Endpoint adaptive game: chunked vs per-element path."""

    def play(chunk_size: int | None) -> None:
        run_adaptive_game(
            ReservoirSampler(max(32, n // 500), seed=0),
            UniformAdversary(_UNIVERSE, seed=1),
            n,
            set_system=PrefixSystem(_UNIVERSE),
            epsilon=0.5,
            keep_updates=False,
            chunk_size=chunk_size,
        )

    per_element = _time(lambda: play(1))
    chunked = _time(lambda: play(None))
    return [
        _record("game/adaptive/per-element", n, per_element),
        _record("game/adaptive/chunked", n, chunked, speedup=per_element / chunked),
    ]


def bench_adaptive_cadence_game(n: int) -> list[dict[str, Any]]:
    """Endpoint game against cadence-declaring *adaptive* attacks.

    Two feedback shapes, both at a 256/128-round reaction cadence:

    * ``game/adaptive-cadence/*`` — the greedy density attack
      (``decision_needs="sample"``: re-reads the sample at every decision
      point, ignores update records);
    * ``game/adaptive-cadence-updates/*`` — the Figure-3 threshold attack
      (``decision_needs="updates"``: digests columnar ``UpdateBatch``
      feedback, never reads the sample).

    The chunked path segments the stream at the declared decision points and
    runs the sampler's vectorised kernels in between; ``chunk_size=1`` is
    the per-element baseline with the identical decision sequence.
    """

    def play_greedy(chunk_size: int | None) -> None:
        run_adaptive_game(
            ReservoirSampler(max(32, n // 500), seed=0),
            MixingGreedyDensityAdversary(
                Prefix(_UNIVERSE // 4), 1, _UNIVERSE, decision_period=256
            ),
            n,
            set_system=PrefixSystem(_UNIVERSE),
            epsilon=0.5,
            keep_updates=False,
            chunk_size=chunk_size,
        )

    def play_figure3(chunk_size: int | None) -> None:
        run_adaptive_game(
            BernoulliSampler(min(1.0, 100 / n), seed=0),
            ThresholdAttackAdversary.for_bernoulli(
                min(1.0, 100 / n), n, decision_period=128
            ),
            n,
            keep_updates=False,
            chunk_size=chunk_size,
        )

    records = []
    for op, play in (
        ("game/adaptive-cadence", play_greedy),
        ("game/adaptive-cadence-updates", play_figure3),
    ):
        per_element = _time(lambda: play(1))
        chunked = _time(lambda: play(None))
        records.append(_record(f"{op}/per-element", n, per_element))
        records.append(
            _record(f"{op}/chunked", n, chunked, speedup=per_element / chunked)
        )
    return records


def bench_continuous_game(n: int) -> list[dict[str, Any]]:
    """Continuous game with dense checkpoints: chunked vs per-element path."""
    checkpoints = tuple(range(max(1, n // 400), n + 1, max(1, n // 400)))

    def play(chunk_size: int | None) -> None:
        run_continuous_game(
            ReservoirSampler(max(32, n // 500), seed=0),
            UniformAdversary(_UNIVERSE, seed=1),
            n,
            set_system=PrefixSystem(_UNIVERSE),
            checkpoints=checkpoints,
            keep_updates=False,
            chunk_size=chunk_size,
        )

    per_element = _time(lambda: play(1))
    chunked = _time(lambda: play(None))
    return [
        _record("game/continuous/per-element", n, per_element),
        _record("game/continuous/chunked", n, chunked, speedup=per_element / chunked),
    ]


def bench_sharded_ingest(n: int) -> list[dict[str, Any]]:
    """Sharded deployment ingestion: chunked per-site routing vs per-element.

    A 4-site :class:`~repro.distributed.sharded.ShardedSampler` over
    reservoir shards, random routing.  The chunked path assigns the whole
    batch in one vectorised call and feeds each site one ``extend`` kernel
    call; the baseline routes and processes one element at a time.  Gated at
    >= 2x in ``benchmarks/bench_perf_sharded.py``; here the ratio is
    recorded for the trajectory.
    """
    from .distributed import ShardedSampler
    from .samplers.reservoir import ReservoirSampler

    capacity = min(512, max(32, n // 500))

    def site_factory(rng: np.random.Generator) -> ReservoirSampler:
        return ReservoirSampler(capacity, seed=rng)

    rng = np.random.default_rng(0)
    data = [int(value) for value in rng.integers(1, _UNIVERSE + 1, size=n)]

    def per_element() -> None:
        sharded = ShardedSampler(4, site_factory, strategy="random", seed=1)
        for element in data:
            sharded.process(element)

    def chunked() -> None:
        sharded = ShardedSampler(4, site_factory, strategy="random", seed=1)
        sharded.extend(data, updates=False)

    per_element_seconds = _time(per_element)
    chunked_seconds = _time(chunked)
    return [
        _record("sharded/ingest/per-element", n, per_element_seconds),
        _record(
            "sharded/ingest/chunked",
            n,
            chunked_seconds,
            speedup=per_element_seconds / chunked_seconds,
        ),
    ]


def bench_defended_ingest(n: int) -> list[dict[str, Any]]:
    """Replicated-defense ingestion overhead vs the undefended sampler.

    A 2-copy :class:`~repro.defenses.SketchSwitchingSampler` over Bernoulli
    copies ingests the same stream as the bare sampler, both through one
    ``extend`` kernel call.  The wrapper runs one kernel call per copy per
    segment, so the cost target is *linear in the copy count*: defended
    ingestion must stay within ``copies x undefended + 20%`` bookkeeping
    (gated in ``benchmarks/bench_perf_defenses.py``; recorded here for the
    trajectory — the ``speedup`` of the defended record reads as the
    fraction of undefended throughput retained, ~``1/copies``).
    """
    from .defenses import SketchSwitchingSampler

    copies = 2
    probability = min(1.0, 2000 / n)

    rng = np.random.default_rng(0)
    data = [int(value) for value in rng.integers(1, _UNIVERSE + 1, size=n)]

    def undefended() -> None:
        BernoulliSampler(probability, seed=1).extend(data, updates=False)

    def defended() -> None:
        SketchSwitchingSampler(
            lambda r: BernoulliSampler(probability, seed=r), copies=copies, seed=1
        ).extend(data, updates=False)

    undefended_seconds = _time(undefended)
    defended_seconds = _time(defended)
    return [
        _record("defended/ingest/undefended", n, undefended_seconds),
        _record(
            "defended/ingest/sketch-switching-2x",
            n,
            defended_seconds,
            speedup=undefended_seconds / defended_seconds,
        ),
    ]


def bench_resharding_ingest(n: int) -> list[dict[str, Any]]:
    """Elastic resharding overhead: a mid-stream split + merge vs static.

    Both deployments ingest the same stream through the chunked path; the
    elastic one splits site 0 at 40% of the stream ([CTW16] hypergeometric
    redistribution) and merges the sibling back at 70%.  The ``speedup`` of
    the elastic record reads as the fraction of static throughput retained —
    the reshard work is O(capacity) against an O(n) stream, so it must stay
    near 1 (gated in ``benchmarks/bench_perf_elastic.py``).
    """
    from .distributed import FaultPlan, Reshard, ShardedSampler
    from .samplers.reservoir import ReservoirSampler

    capacity = min(512, max(32, n // 500))

    def site_factory(rng: np.random.Generator) -> ReservoirSampler:
        return ReservoirSampler(capacity, seed=rng)

    rng = np.random.default_rng(0)
    data = [int(value) for value in rng.integers(1, _UNIVERSE + 1, size=n)]
    plan = FaultPlan(
        reshards=(
            Reshard(round=max(1, (2 * n) // 5), op="split", site=0),
            Reshard(round=max(2, (7 * n) // 10), op="merge", site=0, other=4),
        )
    )

    def static() -> None:
        ShardedSampler(4, site_factory, strategy="hash", seed=1).extend(
            data, updates=False
        )

    def elastic() -> None:
        ShardedSampler(
            4, site_factory, strategy="hash", seed=1, fault_plan=plan
        ).extend(data, updates=False)

    static_seconds = _time(static)
    elastic_seconds = _time(elastic)
    return [
        _record("elastic/resharding/static", n, static_seconds),
        _record(
            "elastic/resharding/split-merge",
            n,
            elastic_seconds,
            speedup=static_seconds / elastic_seconds,
        ),
    ]


def bench_fault_recovery(n: int) -> list[dict[str, Any]]:
    """Crash/recovery overhead: a replay-buffered outage vs a clean run.

    One of four hash-routed reservoir sites is down for a quarter of the
    stream with replay-buffered ingestion; the buffered elements are
    re-ingested in one kernel call at recovery.  The elastic record's
    ``speedup`` reads as the fraction of clean throughput retained — the
    outage trades per-site kernel work for buffering plus one replay flush,
    so it must stay near 1 (gated in ``benchmarks/bench_perf_elastic.py``).
    """
    from .distributed import FaultPlan, ShardedSampler, SiteCrash
    from .samplers.reservoir import ReservoirSampler

    capacity = min(512, max(32, n // 500))

    def site_factory(rng: np.random.Generator) -> ReservoirSampler:
        return ReservoirSampler(capacity, seed=rng)

    rng = np.random.default_rng(0)
    data = [int(value) for value in rng.integers(1, _UNIVERSE + 1, size=n)]
    plan = FaultPlan(
        crashes=(
            SiteCrash(
                site=1,
                round=max(1, n // 3),
                recovery_rounds=max(1, n // 4),
                loss="replay",
            ),
        )
    )

    def clean() -> None:
        ShardedSampler(4, site_factory, strategy="hash", seed=1).extend(
            data, updates=False
        )

    def faulted() -> None:
        ShardedSampler(
            4, site_factory, strategy="hash", seed=1, fault_plan=plan
        ).extend(data, updates=False)

    clean_seconds = _time(clean)
    faulted_seconds = _time(faulted)
    return [
        _record("elastic/faults/clean", n, clean_seconds),
        _record(
            "elastic/faults/crash-replay",
            n,
            faulted_seconds,
            speedup=clean_seconds / faulted_seconds,
        ),
    ]


def bench_service_mixed(n: int) -> list[dict[str, Any]]:
    """Always-on query service: ingest throughput and query latency under load.

    A :class:`~repro.service.QueryService` over a 4-site hash-routed
    reservoir deployment ingests the stream in chunks while concurrent
    client threads read quantiles/heavy-hitters/discrepancy from published
    snapshots (plus one adversarial client forcing fresh reads).  Four
    records:

    * ``service/ingest/no-readers`` — the reader-free chunked baseline;
    * ``service/ingest/4-readers`` — the same ingest with 4 benign + 1
      adversarial clients attached; its ``speedup`` reads as the fraction
      of reader-free throughput retained (gated at >= 0.7 in
      ``benchmarks/bench_perf_service.py``);
    * ``service/query/p50`` and ``service/query/p99`` — per-query latency
      quantiles across every client read of the loaded run (``n`` is the
      query count; ``seconds`` is the latency, floored at 1 microsecond so
      the record schema's positivity holds on fast machines).
    """
    from .distributed import ShardedSampler
    from .samplers.reservoir import ReservoirSampler
    from .service import QueryService

    capacity = min(512, max(32, n // 500))

    def site_factory(rng: np.random.Generator) -> ReservoirSampler:
        return ReservoirSampler(capacity, seed=rng)

    rng = np.random.default_rng(0)
    data = [int(value) for value in rng.integers(1, _UNIVERSE + 1, size=n)]

    def deployment() -> ShardedSampler:
        return ShardedSampler(4, site_factory, strategy="hash", seed=1)

    def no_readers() -> None:
        QueryService(deployment(), universe_size=_UNIVERSE).serve(
            data, chunk_size=1024, clients=0, adversarial_clients=0
        )

    loaded_report: list[Any] = []

    def with_readers() -> None:
        service = QueryService(
            deployment(), staleness_rounds=2048, universe_size=_UNIVERSE
        )
        loaded_report.append(
            service.serve(data, chunk_size=1024, clients=4, adversarial_clients=1)
        )

    no_reader_seconds = _time(no_readers)
    loaded_seconds = _time(with_readers)
    report = loaded_report[0]
    records = [
        _record("service/ingest/no-readers", n, no_reader_seconds),
        _record(
            "service/ingest/4-readers",
            n,
            loaded_seconds,
            speedup=no_reader_seconds / loaded_seconds,
        ),
    ]
    for label, latency in (("p50", report.query_p50), ("p99", report.query_p99)):
        records.append(
            _record(
                f"service/query/{label}",
                max(1, report.queries),
                max(latency or 0.0, 1e-6),
            )
        )
    return records


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------
#: (stream length for extend benchmarks, stream length for game benchmarks).
_MODES = {"smoke": (20_000, 10_000), "full": (1_000_000, 100_000)}


def run_suite(mode: str = "full") -> dict[str, Any]:
    """Run the ``bench_perf_*`` suite and return the machine-readable report."""
    if mode not in _MODES:
        raise ValueError(f"unknown benchmark mode {mode!r}; expected one of {sorted(_MODES)}")
    extend_n, game_n = _MODES[mode]
    records = (
        bench_sampler_extend(extend_n)
        + bench_defended_ingest(extend_n)
        + bench_sharded_ingest(game_n)
        + bench_resharding_ingest(game_n)
        + bench_fault_recovery(game_n)
        + bench_service_mixed(game_n)
        + bench_adaptive_game(game_n)
        + bench_adaptive_cadence_game(game_n)
        + bench_continuous_game(game_n)
    )
    return {
        "version": __version__,
        "mode": mode,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": records,
    }


def check_report(
    report: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
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
            problems.append(
                f"record {record.get('op', f'#{index}')!r} is missing {missing}"
            )
        if extra:
            problems.append(
                f"record {record.get('op', f'#{index}')!r} has unknown fields {extra}"
            )
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
        record.get("op")
        for record in baseline.get("results", [])
        if isinstance(record, dict)
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
        raise ConfigurationError(
            f"baseline report {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(baseline, dict):
        raise ConfigurationError(f"baseline report {path} is not a JSON object")
    return path, baseline


def resolve_output(
    output: Path | None = None, checking: bool = False
) -> Path:
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


def render_markdown_table(report: dict[str, Any], include_baselines: bool = False) -> str:
    """The README performance table, straight from a benchmark report.

    By default only the batched/chunked rows appear — the per-element
    baselines carry no information the ``speedup`` column doesn't already
    encode — so the rendered table is exactly what the README embeds; pass
    ``include_baselines=True`` for the full record set.
    """
    lines = [
        "| op | n | seconds | throughput (elem/s) | speedup |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for record in report["results"]:
        if not include_baselines and record["speedup"] is None:
            continue
        speedup = f"{record['speedup']:.1f}x" if record["speedup"] is not None else "—"
        throughput = f"{record['throughput']:,.0f}" if record["throughput"] else "—"
        lines.append(
            f"| `{record['op']}` | {record['n']:,} | {record['seconds']:.3f} "
            f"| {throughput} | {speedup} |"
        )
    return "\n".join(lines)
