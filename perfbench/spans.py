"""Outside-in span tracing of the package's layer boundaries.

:class:`Tracer` wraps the public boundary of each ``src/repro`` layer — the
functions and methods named in :data:`LAYER_METRICS` — from the
benchmark's own files; no file of the package changes.  Wrappers are
installed only around a traced pass and removed after it, so untraced passes
(and every end-to-end figure) run the package's code untouched.

A :class:`SpanRecorder` keeps each span in memory as one row of five
columns: name, start, end, parent span and a work count (elements ingested,
segment length).  :func:`layer_metrics` turns one pass's spans into the
per-layer figures: a ``_s`` metric is *self* time — the span's duration
minus the part covered by its child spans — summed over the pass; counts
are numbers of calls or elements and repeat exactly for a fixed seed.

Two rules keep the attribution honest:

* a call that re-enters the boundary it is already inside (a subclass
  method calling ``super()``, a defense merge merging its copies) is not a
  new span — its time stays with the outer one;
* inside a merge or a reshard no nested span is recorded, so the samplers a
  merge builds and fills count as merge time, not as ingest time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

#: Per-layer metrics with their units, in report order.
LAYER_METRICS = {
    "scenarios.self_s": "s",
    "adversary.plan_s": "s",
    "adversary.observe_s": "s",
    "adversary.decisions": "count",
    "adversary.rounds_per_decision": "rounds",
    "game.self_s": "s",
    "game.trials": "count",
    "samplers.process_s": "s",
    "samplers.process_calls": "count",
    "samplers.extend_s": "s",
    "samplers.extend_elements": "count",
    "defenses.self_s": "s",
    "distributed.route_s": "s",
    "distributed.ingest_s": "s",
    "distributed.merge_s": "s",
    "distributed.read_s": "s",
    "distributed.merges": "count",
    "distributed.sample_reads": "count",
    "distributed.merges_per_read": "ratio",
    "distributed.reshard_s": "s",
    "rng.spawns": "count",
    "setsystems.track_s": "s",
    "setsystems.checkpoint_s": "s",
    "setsystems.checkpoints": "count",
    "service.ingest_s": "s",
    "service.publish_s": "s",
    "service.refreshes": "count",
    "service.fresh_read_s": "s",
    "service.query_kernel_s": "s",
    "service.lockfree_read_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: The deterministic counters: identical on every traced pass of one seed.
COUNTERS = tuple(name for name, unit in LAYER_METRICS.items() if unit == "count")

#: Spans inside which no nested span is recorded (see module docstring).
OPAQUE = ("distributed.merge", "distributed.reshard")


class SpanRecorder:
    """Spans of one traced pass, kept in memory as columns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._open_names: list[int] = []
        self._opaque = {self.intern(name) for name in OPAQUE}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(
        self,
        fn: Callable[..., Any],
        name_of: Callable[[Any], int | None],
        before: Callable[[tuple[Any, ...]], int] | None = None,
        after: Callable[[tuple[Any, ...], Any, int], int] | None = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call records one span.

        ``name_of(args)`` gives the span's name id, or ``None`` to call
        through untraced; ``before``/``after`` compute the span's work
        count from the arguments and the result.
        """
        names, starts, ends, parents, works = (
            self.name, self.start, self.end, self.parent, self.work
        )
        open_spans, open_names, opaque = self._open, self._open_names, self._opaque
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nid = name_of(args)
            if nid is None:
                return fn(*args, **kwargs)
            if open_names:
                top = open_names[-1]
                if top == nid or top in opaque:
                    return fn(*args, **kwargs)
                parent = open_spans[-1]
            else:
                parent = -1
            index = len(names)
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            works.append(0)
            open_spans.append(index)
            open_names.append(nid)
            pre = before(args) if before is not None else 0
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
                open_names.pop()
            if after is not None:
                works[index] = after(args, result, pre)
            return result

        return wrapper

    def counter(self, fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        """Wrap ``fn`` so each call bumps ``counts[key]`` (no span)."""
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }


def _subclasses(base: type) -> list[type]:
    """``base`` and every class below it."""
    seen: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _sampler_layer(cls: type, verb: str) -> str | None:
    """Span name for a sampler method, by the layer that defines the class."""
    module = cls.__module__
    if module.startswith("repro.samplers."):
        return f"samplers.{verb}"
    if module.startswith("repro.defenses."):
        return f"defenses.{verb}"
    if module.startswith("repro.distributed."):
        return "distributed.ingest"
    return None


def _rounds(args: tuple[Any, ...]) -> int:
    return int(args[0].rounds_processed)


def _rounds_since(args: tuple[Any, ...], result: Any, before: int) -> int:
    return int(args[0].rounds_processed) - before


def _segment_length(args: tuple[Any, ...], result: Any, before: int) -> int:
    return len(result)


def _one(args: tuple[Any, ...], result: Any, before: int) -> int:
    return 1


class Tracer:
    """Installs span wrappers on the layer boundaries and removes them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    # -- patching helpers ------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _fixed(self, name: str) -> Callable[[Any], int]:
        nid = self.recorder.intern(name)
        return lambda args: nid

    def method(self, cls: type, attr: str, name: str, **work: Any) -> None:
        if attr in vars(cls):
            self._set(cls, attr, self.recorder.span(vars(cls)[attr], self._fixed(name), **work))

    def sampler_method(self, cls: type, verb: str, **work: Any) -> None:
        """Wrap a sampler method whose span name depends on ``type(self)``."""
        if verb not in vars(cls):
            return
        recorder = self.recorder
        cache: dict[type, int | None] = {}

        def name_of(args: tuple[Any, ...]) -> int | None:
            kind = type(args[0])
            if kind not in cache:
                layer = _sampler_layer(kind, verb)
                cache[kind] = None if layer is None else recorder.intern(layer)
            return cache[kind]

        self._set(cls, verb, recorder.span(vars(cls)[verb], name_of, **work))

    def function(self, fn: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        """Replace ``fn`` in every ``repro`` module namespace that holds it,
        so callers that imported it by name see the wrapper too."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    # -- install / remove --------------------------------------------------
    def install(self) -> None:
        from repro import rng
        from repro.adversary import game
        from repro.distributed.sharded import ShardedSampler, ShardingStrategy
        from repro.samplers.base import StreamSampler
        from repro.scenarios import engine
        from repro.scenarios.builders import BudgetedAdversary
        from repro.service import queries
        from repro.service.live import QueryService
        from repro.service.snapshots import SnapshotStore
        from repro.setsystems.base import SetSystem
        from repro.setsystems.tracker import DiscrepancyTracker

        r = self.recorder
        self.function(engine.run_config, r.span(engine.run_config, self._fixed("scenarios.run")))
        for runner in (game.run_adaptive_game, game.run_continuous_game):
            self.function(runner, r.span(runner, self._fixed("game.run")))
        self.method(BudgetedAdversary, "next_elements", "adversary.plan", after=_segment_length)
        self.method(BudgetedAdversary, "next_element", "adversary.plan", after=_one)
        self.method(BudgetedAdversary, "observe_update", "adversary.observe")
        self.method(BudgetedAdversary, "observe_update_batch", "adversary.observe")
        for cls in _subclasses(StreamSampler):
            self.sampler_method(cls, "process", after=_one)
            self.sampler_method(cls, "extend", before=_rounds, after=_rounds_since)
            self.method(cls, "merge", "distributed.merge")
        read = vars(ShardedSampler)["sample"]
        self._set(ShardedSampler, "sample",
                  property(r.span(read.fget, self._fixed("distributed.read"))))
        self.method(ShardedSampler, "split_site", "distributed.reshard")
        self.method(ShardedSampler, "merge_sites", "distributed.reshard")
        for cls in _subclasses(ShardingStrategy):
            self.method(cls, "assign", "distributed.route")
            self.method(cls, "assign_one", "distributed.route")
        for cls in _subclasses(DiscrepancyTracker):
            self.method(cls, "add", "setsystems.track")
            self.method(cls, "add_batch", "setsystems.track")
            self.method(cls, "checkpoint", "setsystems.checkpoint")
        for cls in _subclasses(SetSystem):
            self.method(cls, "max_discrepancy", "setsystems.checkpoint")
        self.method(QueryService, "ingest", "service.ingest")
        self.method(QueryService, "acquire", "service.acquire")
        self.method(SnapshotStore, "read", "service.fresh_read")
        self.method(SnapshotStore, "refresh", "service.publish")
        for kernel in (queries.quantile, queries.heavy_hitters, queries.prefix_discrepancy):
            self.function(kernel, r.span(kernel, self._fixed("service.query_kernel")))
        self.function(rng.spawn_generators, r.counter(rng.spawn_generators, "rng.spawns"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def per_name(recorder: SpanRecorder) -> dict[str, tuple[float, int, int]]:
    """``(self time, calls, work)`` of every span name of one pass."""
    cols = recorder.columns()
    size = len(recorder.names)
    duration = cols["end"] - cols["start"]
    nested = cols["parent"] >= 0
    children = np.bincount(
        cols["parent"][nested], weights=duration[nested], minlength=len(duration)
    )
    self_time = np.bincount(cols["name"], weights=duration - children, minlength=size)
    calls = np.bincount(cols["name"], minlength=size)
    work = np.bincount(cols["name"], weights=cols["work"], minlength=size)
    return {
        name: (float(self_time[i]), int(calls[i]), int(work[i]))
        for i, name in enumerate(recorder.names)
    }


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer figures of one traced pass (``trace.overhead_ratio`` aside)."""
    table = per_name(recorder)
    self_time, calls, work = 0, 1, 2

    def pick(column: int, *names: str) -> float:
        total = sum(table[n][column] for n in names if n in table)
        return total if column != self_time else float(total)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    decisions = pick(calls, "adversary.plan")
    merges = pick(calls, "distributed.merge")
    reads = pick(calls, "distributed.read")
    acquires = pick(calls, "service.acquire")
    return {
        "scenarios.self_s": pick(self_time, "scenarios.run"),
        "adversary.plan_s": pick(self_time, "adversary.plan"),
        "adversary.observe_s": pick(self_time, "adversary.observe"),
        "adversary.decisions": decisions,
        "adversary.rounds_per_decision": ratio(pick(work, "adversary.plan"), decisions),
        "game.self_s": pick(self_time, "game.run"),
        "game.trials": pick(calls, "game.run"),
        "samplers.process_s": pick(self_time, "samplers.process"),
        "samplers.process_calls": pick(calls, "samplers.process"),
        "samplers.extend_s": pick(self_time, "samplers.extend"),
        "samplers.extend_elements": pick(work, "samplers.extend"),
        "defenses.self_s": pick(self_time, "defenses.process", "defenses.extend"),
        "distributed.route_s": pick(self_time, "distributed.route"),
        "distributed.ingest_s": pick(self_time, "distributed.ingest"),
        "distributed.merge_s": pick(self_time, "distributed.merge"),
        "distributed.read_s": pick(self_time, "distributed.read"),
        "distributed.merges": merges,
        "distributed.sample_reads": reads,
        "distributed.merges_per_read": ratio(merges, reads),
        "distributed.reshard_s": pick(self_time, "distributed.reshard"),
        "rng.spawns": recorder.counts.get("rng.spawns", 0),
        "setsystems.track_s": pick(self_time, "setsystems.track"),
        "setsystems.checkpoint_s": pick(self_time, "setsystems.checkpoint"),
        "setsystems.checkpoints": pick(calls, "setsystems.checkpoint"),
        "service.ingest_s": pick(self_time, "service.ingest"),
        "service.publish_s": pick(self_time, "service.publish"),
        "service.refreshes": pick(calls, "service.publish"),
        "service.fresh_read_s": pick(self_time, "service.fresh_read"),
        "service.query_kernel_s": pick(self_time, "service.query_kernel"),
        "service.lockfree_read_ratio": ratio(
            acquires - pick(calls, "service.fresh_read"), acquires
        ),
    }


def write_spans(path: Path, recorders: list[SpanRecorder]) -> None:
    """Write every traced pass's spans to one ``.npz`` file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, Any] = {}
    for index, recorder in enumerate(recorders):
        arrays[f"pass{index}_names"] = np.array(recorder.names)
        for column, values in recorder.columns().items():
            arrays[f"pass{index}_{column}"] = values
    np.savez(path, **arrays)
