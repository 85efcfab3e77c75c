"""Fault plans and message-cost accounting for elastic sharded deployments.

The paper's adversarial model assumes the sampler *infrastructure* is
reliable; production deployments are not.  This module makes infrastructure
failure a first-class, reproducible experiment axis:

* :class:`FaultPlan` is a seed-independent schedule of infrastructure
  events — site crashes with optional recovery, coordinator cache-staleness
  windows, and mid-stream resharding (site split / merge).  A scenario's
  JSON ``faults`` spec compiles into one with :func:`compile_fault_spec`.
  Every event fires at a declared **global round**, never in response to
  load or timing, so a faulted game is bit-reproducible under a fixed seed
  and independent of how the stream is chunked.
* :class:`MessageCostLedger` counts every site↔coordinator exchange
  (merge pulls, recovery replays, resharding state transfers) in messages
  and payload elements, so benches can compare a deployment's realised
  communication against the [CTW16] coordinator bound: one message per
  live site per merge, payload at most ``K * capacity`` per merge.

Crash semantics follow the coordinator model of [CTW16]-style systems: a
crashed site loses its in-memory summary (the coordinator re-merges from
survivors — graceful degradation, quantified by
:meth:`~repro.distributed.sharded.ShardedSampler.degradation_report`), and
elements routed to it while down follow the crash's declared loss model:

``"drop"``
    Lost permanently.  The merged view stays valid for the survivors'
    union; the dropped rounds are reported as degradation.
``"replay"``
    Buffered upstream (as by a durable ingestion log) and replayed into the
    site at the recovery boundary, before any post-recovery element.

Recovery re-admits the site through the ordinary streaming interface, so
the existing :class:`~repro.samplers.base.Mergeable` kernels pick its state
up again with no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping
from typing import Any

from ..exceptions import ConfigurationError
from ..schema import (
    OPTIONAL,
    REQUIRED,
    Block,
    Field,
    ListOf,
    either,
    one_of,
    read,
    read_float,
    read_int,
    read_name_or_mapping,
)

__all__ = [
    "FAULTS",
    "FaultPlan",
    "FaultTransition",
    "MessageCostLedger",
    "Reshard",
    "SiteCrash",
    "StaleWindow",
    "compile_fault_spec",
]

LOSS_MODELS = ("drop", "replay")
RESHARD_OPS = ("split", "merge")

#: Fire order for transitions scheduled on the same round: recoveries first
#: (a site comes back before anything else happens that round), then crashes,
#: then topology changes.
_KIND_ORDER = {"recover": 0, "crash": 1, "split": 2, "merge": 3}


@dataclass(frozen=True)
class SiteCrash:
    """A site crash at ``round`` (1-based, global), optionally recovering.

    The crash fires *before* the element of ``round`` is processed: the
    site's local summary is wiped and elements routed to it during rounds
    ``[round, round + recovery_rounds)`` follow the ``loss`` model.  With
    ``recovery_rounds=None`` the site never returns.
    """

    site: int
    round: int
    recovery_rounds: int | None = None
    loss: str = "drop"

    def __post_init__(self) -> None:
        if self.site < 0:
            raise ConfigurationError(f"crash site must be >= 0, got {self.site}")
        if self.round < 1:
            raise ConfigurationError(f"crash round must be >= 1, got {self.round}")
        if self.recovery_rounds is not None and self.recovery_rounds < 1:
            raise ConfigurationError(
                f"recovery_rounds must be >= 1 (or None), got {self.recovery_rounds}"
            )
        if self.loss not in LOSS_MODELS:
            raise ConfigurationError(
                f"unknown loss model {self.loss!r}; expected one of {LOSS_MODELS}"
            )

    @property
    def recovery_round(self) -> int | None:
        """Round before which the site is live again (None = never)."""
        if self.recovery_rounds is None:
            return None
        return self.round + self.recovery_rounds


@dataclass(frozen=True)
class StaleWindow:
    """Rounds during which the coordinator serves its cached merged view.

    While the current round lies in ``[round, round + duration)`` every
    coordinator read returns the most recent cached merge instead of
    pulling fresh site states — the stale-cache failure mode a probing
    adversary can exploit (no merge messages are spent during the window,
    which is visible in the :class:`MessageCostLedger`).
    """

    round: int
    duration: int

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ConfigurationError(f"stale window round must be >= 1, got {self.round}")
        if self.duration < 1:
            raise ConfigurationError(
                f"stale window duration must be >= 1, got {self.duration}"
            )

    def covers(self, round_index: int) -> bool:
        return self.round <= round_index < self.round + self.duration


@dataclass(frozen=True)
class Reshard:
    """A topology change at ``round``: split one site or merge two.

    ``"split"`` spawns a new site from ``site`` (exact hypergeometric state
    split for reservoirs, fresh empty sibling for union-mergeable
    families); ``"merge"`` absorbs ``other`` into ``site`` through the
    family's merge kernel.  ``strategy`` optionally rebinds the routing
    strategy at the same instant (e.g. retargeting a hotspot after a
    split).  Site indices refer to the deployment topology *at fire time*.
    """

    round: int
    op: str
    site: int
    other: int | None = None
    strategy: str | Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ConfigurationError(f"reshard round must be >= 1, got {self.round}")
        if self.op not in RESHARD_OPS:
            raise ConfigurationError(
                f"unknown reshard op {self.op!r}; expected one of {RESHARD_OPS}"
            )
        if self.site < 0:
            raise ConfigurationError(f"reshard site must be >= 0, got {self.site}")
        if self.op == "merge":
            if self.other is None:
                raise ConfigurationError("reshard op 'merge' needs an 'other' site")
            if self.other < 0:
                raise ConfigurationError(
                    f"reshard other site must be >= 0, got {self.other}"
                )
            if self.other == self.site:
                raise ConfigurationError(
                    f"cannot merge site {self.site} with itself"
                )
        elif self.other is not None:
            raise ConfigurationError("reshard op 'split' takes no 'other' site")


@dataclass(frozen=True)
class FaultTransition:
    """One compiled state change: fires before the element of ``round``."""

    round: int
    kind: str  # "crash" | "recover" | "split" | "merge"
    site: int
    other: int | None = None
    loss: str | None = None
    strategy: str | Mapping[str, Any] | None = None


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of infrastructure events for a sharded run.

    All rounds are 1-based global stream rounds; an event at round ``r``
    fires before the ``r``-th element is processed.  The plan is pure data
    (:func:`compile_fault_spec` builds one from a JSON ``faults`` spec) and
    carries no randomness of its own — all stochasticity in a faulted run
    still comes from the deployment's seeded substreams.
    """

    crashes: tuple[SiteCrash, ...] = ()
    stale_windows: tuple[StaleWindow, ...] = ()
    reshards: tuple[Reshard, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stale_windows", tuple(self.stale_windows))
        object.__setattr__(self, "reshards", tuple(self.reshards))
        self._validate_outages()

    def _validate_outages(self) -> None:
        by_site: dict[int, list[SiteCrash]] = {}
        for crash in self.crashes:
            by_site.setdefault(crash.site, []).append(crash)
        for site, crashes in by_site.items():
            crashes = sorted(crashes, key=lambda crash: crash.round)
            for previous, current in zip(crashes, crashes[1:]):
                if previous.recovery_round is None:
                    raise ConfigurationError(
                        f"site {site} crashes at round {current.round} but never "
                        f"recovered from its crash at round {previous.round}"
                    )
                if current.round < previous.recovery_round:
                    raise ConfigurationError(
                        f"site {site} crashes at round {current.round} while "
                        f"still down from round {previous.round}"
                    )
        # Resharding shifts site indices, which would desynchronise a pending
        # recovery's stored index — forbid topology changes during an outage.
        for crash in self.crashes:
            end = crash.recovery_round
            for reshard in self.reshards:
                if crash.round < reshard.round and (end is None or reshard.round <= end):
                    raise ConfigurationError(
                        f"reshard at round {reshard.round} falls inside the outage "
                        f"of site {crash.site} (rounds {crash.round}.."
                        f"{'inf' if end is None else end}); reshard outside outages"
                    )

    # ------------------------------------------------------------------
    # Compilation / queries
    # ------------------------------------------------------------------
    def transitions(self) -> list[FaultTransition]:
        """All state changes, sorted by (round, recover < crash < reshard)."""
        compiled: list[tuple[int, int, int, FaultTransition]] = []
        for order, crash in enumerate(self.crashes):
            compiled.append(
                (
                    crash.round,
                    _KIND_ORDER["crash"],
                    order,
                    FaultTransition(crash.round, "crash", crash.site, loss=crash.loss),
                )
            )
            if crash.recovery_round is not None:
                compiled.append(
                    (
                        crash.recovery_round,
                        _KIND_ORDER["recover"],
                        order,
                        FaultTransition(crash.recovery_round, "recover", crash.site),
                    )
                )
        for order, reshard in enumerate(self.reshards):
            compiled.append(
                (
                    reshard.round,
                    _KIND_ORDER[reshard.op],
                    order,
                    FaultTransition(
                        reshard.round,
                        reshard.op,
                        reshard.site,
                        other=reshard.other,
                        strategy=reshard.strategy,
                    ),
                )
            )
        compiled.sort(key=lambda item: item[:3])
        return [transition for *_, transition in compiled]

    def is_stale(self, round_index: int) -> bool:
        """Whether coordinator reads at this round serve the cached view."""
        return any(window.covers(round_index) for window in self.stale_windows)

    def __bool__(self) -> bool:
        return bool(self.crashes or self.stale_windows or self.reshards)


#: Each round knob of an event spec and its stream-length fraction form.
_FRACTIONS = {
    "round": "round_fraction",
    "recovery_rounds": "recovery_fraction",
    "duration": "duration_fraction",
}


def _rounds(key: str, default: Any = REQUIRED) -> tuple[Field, Field]:
    """A round knob: an absolute count or a fraction of the stream length."""
    return either(
        Field(key, read_int, default), Field(_FRACTIONS[key], read_float, OPTIONAL, "(0, 1]")
    )


#: The ``faults`` spec: one event list per :class:`FaultPlan` field, each
#: event spelled like its dataclass.
FAULTS = Block(
    Field("crashes", ListOf(Block(
        Field("site", read_int),
        *_rounds("round"),
        *_rounds("recovery_rounds", OPTIONAL),
        Field("loss", one_of(*LOSS_MODELS), "drop"),
    ), "faults crash #{}"), ()),
    Field("stale_windows", ListOf(Block(
        *_rounds("round"), *_rounds("duration"),
    ), "faults stale window #{}"), ()),
    Field("reshards", ListOf(Block(
        *_rounds("round"),
        Field("op", one_of(*RESHARD_OPS)),
        Field("site", read_int),
        Field("other", read_int, OPTIONAL),
        Field("strategy", read_name_or_mapping, None),
    ), "faults reshard #{}"), ()),
)


def compile_fault_spec(
    spec: Mapping[str, Any], stream_length: int
) -> FaultPlan:
    """Compile a scenario ``faults`` spec into an absolute-round :class:`FaultPlan`.

    The spec (:data:`FAULTS`) mirrors the plan's structure but may give any
    round knob as a stream-length fraction instead of an absolute round
    (``round_fraction``, ``recovery_fraction``, ``duration_fraction``),
    exactly like the other fraction-or-absolute scenario knobs.  A fraction
    resolves to ``max(1, round(fraction * stream_length))``, so the fault
    schedule depends only on the stream length — never on the attack budget
    or the realised stream — which is what keeps faulted scenarios
    budget-monotone.
    """
    fields = read(FAULTS, spec, "faults spec")

    def events(event: Callable[..., Any], entries: list[dict[str, Any]]) -> list[Any]:
        compiled = []
        for entry in entries:
            for key, fraction_key in _FRACTIONS.items():
                if fraction_key in entry:
                    entry[key] = max(1, round(entry.pop(fraction_key) * stream_length))
            compiled.append(event(**entry))
        return compiled

    return FaultPlan(
        crashes=events(SiteCrash, fields["crashes"]),
        stale_windows=events(StaleWindow, fields["stale_windows"]),
        reshards=events(Reshard, fields["reshards"]),
    )


@dataclass
class MessageCostLedger:
    """Message/payload accounting for site↔coordinator exchanges.

    Every exchange is recorded under a ``kind`` (``"merge"`` — coordinator
    pulling site states for a rebuild; ``"recovery"`` — replay-buffer flush
    into a re-admitted site; ``"reshard_split"`` / ``"reshard_merge"`` —
    state transfer during a topology change; ``"crash"`` — a zero-message
    marker event) with its message count and payload in stored elements.

    The [CTW16] coordinator shape this lets benches assert: each merge
    rebuild costs exactly one message per live site, with payload bounded
    by the sites' summary capacities — so a deployment answering ``Q``
    distinct-state queries over ``K`` sites of capacity ``k`` spends
    ``Q * K`` messages and at most ``Q * K * k`` payload, and a memoised
    coordinator spends strictly less when queries repeat between advances.
    """

    _events: dict[str, list[int]] = field(default_factory=dict)

    def record(self, kind: str, *, messages: int = 0, payload: int = 0) -> None:
        """Record one exchange of ``messages`` messages carrying ``payload`` elements."""
        if messages < 0 or payload < 0:
            raise ConfigurationError(
                f"messages and payload must be >= 0, got {messages}/{payload}"
            )
        entry = self._events.setdefault(kind, [0, 0, 0])
        entry[0] += 1
        entry[1] += int(messages)
        entry[2] += int(payload)

    def events(self, kind: str) -> int:
        """Number of recorded exchanges of this kind."""
        return self._events.get(kind, [0, 0, 0])[0]

    def messages(self, kind: str) -> int:
        """Total messages recorded under this kind."""
        return self._events.get(kind, [0, 0, 0])[1]

    def payload(self, kind: str) -> int:
        """Total payload elements recorded under this kind."""
        return self._events.get(kind, [0, 0, 0])[2]

    @property
    def total_messages(self) -> int:
        return sum(entry[1] for entry in self._events.values())

    @property
    def total_payload(self) -> int:
        return sum(entry[2] for entry in self._events.values())

    def to_dict(self) -> dict[str, dict[str, int]]:
        return {
            kind: {"events": entry[0], "messages": entry[1], "payload": entry[2]}
            for kind, entry in sorted(self._events.items())
        }

    def reset(self) -> None:
        self._events = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MessageCostLedger(messages={self.total_messages}, "
            f"payload={self.total_payload})"
        )
