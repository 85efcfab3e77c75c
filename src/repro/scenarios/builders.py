"""Turn declarative scenario specs into live game objects.

Every builder here consumes the plain-data specs of
:class:`~repro.scenarios.config.ScenarioConfig` and produces the objects the
game layer expects.  Each spec block is declared once below (``SAMPLER``,
``ADVERSARY`` and so on) and read through :func:`repro.schema.read`; the
builders construct from the typed values it returns.  Two design
constraints shape the module:

* **Picklability** — the factories handed to
  :class:`~repro.adversary.batch.BatchGameRunner` must cross process
  boundaries, so they are module-level classes carrying only plain data
  (:class:`SamplerFromSpec`, :class:`AdversaryFromSpec`), never closures.
* **Budget-independent attack prefixes** — :class:`BudgetedAdversary` is a
  two-phase campaign (the attack, then benign filler): the attack never
  learns the budget and sees feedback only for its own rounds, so two runs
  that differ only in budget play byte-identical games up to the smaller
  attack horizon.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, Any, get_args

import numpy as np

from ..adversary import (
    Adversary,
    CampaignAdversary,
    ObliviousAdversary,
    apply_decision_period,
    phase_start_rounds,
    BisectionAdversary,
    EvictionChaserAdversary,
    GreedyDensityAdversary,
    MedianAttackAdversary,
    MixingGreedyDensityAdversary,
    SortedAdversary,
    SwitchingSingletonAdversary,
    ThresholdAttackAdversary,
    UniformAdversary,
    ZipfAdversary,
)
from ..distributed import ShardedSampler
from ..distributed.faults import compile_fault_spec
from ..exceptions import ConfigurationError
from ..samplers import (
    BernoulliSampler,
    ReservoirSampler,
    SlidingWindowSampler,
    StreamSampler,
    WeightedReservoirSampler,
)
from ..samplers.reservoir import EvictionPolicy
from ..schema import (
    OPTIONAL,
    REQUIRED,
    Block,
    Field,
    ListOf,
    Union,
    either,
    one_of,
    read,
    read_bool,
    read_float,
    read_int,
    read_name_or_mapping,
    read_number,
    read_str,
)
from ..setsystems import (
    ContinuousPrefixSystem,
    HalfspaceSystem,
    Interval,
    IntervalSystem,
    PrefixSystem,
    RectangleSystem,
    SetSystem,
    Singleton,
    SingletonSystem,
)
from ..setsystems.base import Range
from ..setsystems.intervals import Prefix

if TYPE_CHECKING:
    from .config import ScenarioConfig

__all__ = [
    "AdversaryFromSpec",
    "BudgetedAdversary",
    "CADENCED_ADVERSARY_FAMILIES",
    "MERGEABLE_SAMPLER_FAMILIES",
    "SamplerFromSpec",
    "build_adversary",
    "build_benign_supplier",
    "build_campaign_adversary",
    "build_defended_sampler",
    "build_sampler",
    "build_set_system",
    "build_target_range",
    "matched_space_spec",
    "oversampled_spec",
]


# ----------------------------------------------------------------------
# The spec blocks
# ----------------------------------------------------------------------
_CAPACITY = Field("capacity", read_int, bounds=">= 1")


def _universe(minimum: int, default: Any = OPTIONAL, **options: Any) -> Field:
    """An optional ``universe_size``; left out, it is the scenario's."""
    return Field("universe_size", read_int, default, f">= {minimum}", **options)


SAMPLER = Union("family", "sampler", {
    "bernoulli": Block(Field("probability", read_float, bounds="(0, 1]")),
    "reservoir": Block(
        _CAPACITY, Field("eviction", one_of(*get_args(EvictionPolicy)), "uniform")
    ),
    "sliding_window": Block(_CAPACITY, Field("window", read_int, bounds=">= 1")),
    "weighted_reservoir": Block(_CAPACITY),
})


def _point(name: str, default: Any = REQUIRED) -> tuple[Field, Field]:
    """A target endpoint: absolute, or ``<name>_fraction`` of the universe."""
    return either(
        Field(name, read_int, default), Field(f"{name}_fraction", read_float, OPTIONAL, "(0, 1]")
    )


def _target_block(*points: tuple[Field, Field]) -> Block:
    elements = (Field("in_element", read_number, None), Field("out_element", read_number, None))
    return Block(*(field for pair in points for field in pair), *elements)


TARGET = Union("kind", "target range", {
    "prefix": _target_block(_point("bound")),
    "interval": _target_block(_point("low", 1), _point("high")),
    "singleton": _target_block(_point("value")),
})

#: Each target kind's range and endpoints; the first endpoint is where a
#: range-directed attack's default in-range element sits.
_RANGES = {
    "prefix": (Prefix, "bound"),
    "interval": (Interval, "low", "high"),
    "singleton": (Singleton, "value"),
}


_PERIOD = Field("decision_period", read_int, None, ">= 1")
#: A real interval ``[low, high]``, by default the unit interval.
_UNIT = (Field("low", read_float, 0.0), Field("high", read_float, 1.0))


def _adversary(*fields: Field) -> Block:
    return Block(*fields, _PERIOD)


ADVERSARY = Union("family", "adversary", {
    "uniform": _adversary(_universe(1)),
    # An explicit null universe opts into an unbounded stream.
    "sorted": _adversary(_universe(1, nullable=True)),
    "zipf": _adversary(_universe(1), Field("exponent", read_float, 1.2, "> 1")),
    "greedy_density": _adversary(
        Field("target", TARGET),
        Field("mixing", read_bool, True),
        Field("widen", read_bool, True),
    ),
    "eviction_chaser": _adversary(
        Field("target", TARGET),
        Field("reservoir_size", read_int, bounds=">= 1"),
        Field("switch_threshold", read_float, 0.5, "(0, 1]"),
    ),
    "median_attack": _adversary(_universe(3)),
    "bisection": Block(*_UNIT, _PERIOD, increasing=("low", "high")),
    "switching_singleton": _adversary(
        _universe(2), Field("revisit_evicted", read_bool, False)
    ),
    "figure3": Union("mode", "figure3", {
        "reservoir": _adversary(_CAPACITY, _universe(3, None)),
        "bernoulli": _adversary(
            Field("probability", read_float, bounds="(0, 1]"), _universe(3, None)
        ),
    }, default="reservoir"),
})

BENIGN = Union("kind", "benign spec", {
    # ``high`` left out is the scenario's universe size.
    "uniform_int": Block(Field("low", read_int, 1), Field("high", read_int, OPTIONAL)),
    "uniform_float": Block(*_UNIT, increasing=("low", "high")),
    "constant": Block(Field("value", read_number)),
})


def _grid(*fields: Field) -> Block:
    side, dimension = (Field(name, read_int, bounds=">= 1") for name in ("side", "dimension"))
    return Block(side, dimension, *fields, Field("seed", read_int, 0))


SET_SYSTEM = Union("kind", "set system", {
    "prefix": Block(_universe(1)),
    "interval": Block(_universe(1)),
    "singleton": Block(_universe(1)),
    "continuous_prefix": Block(*_UNIT, increasing=("low", "high")),
    "rectangle": _grid(),
    "halfspace": _grid(Field("directions", read_int, 32, ">= 1")),
})


def _members(*fields: Field) -> Field:
    member = Block(Field("adversary", ADVERSARY), Field("label", read_str, OPTIONAL), *fields)
    return Field("members", ListOf(member, "campaign member #{}", nonempty=True))


CAMPAIGN = Union("mode", "campaign", {
    # Phases start at per-member fractions of the stream (see phase_starts).
    "phased": Block(_members(Field("start", read_float, OPTIONAL, "[0, 1)"))),
    "interleaved": Block(_members(), Field("stride", read_int, 16, ">= 1")),
}, default="phased")


def _replicated(field: Field) -> Block:
    return Block(
        Field("copies", read_int, 4, ">= 2"), Field("matched_space", read_bool, False), field
    )


#: ``oversample`` is Theorem 1.2's k -> factor*k capacity scaling (a spec
#: rewrite, no wrapper); the other kinds are the copy-replication wrappers of
#: :mod:`repro.defenses`.
DEFENSE = Union("kind", "defense", {
    "oversample": Block(Field("factor", read_float, 4.0, ">= 1")),
    "sketch_switching": _replicated(Field("growth", read_float, 2.0, "> 1")),
    "dp_aggregate": _replicated(Field("dp_epsilon", read_float, 1.0, "> 0")),
    "difference_estimator": _replicated(Field("rotation_fraction", read_float, 1.0, "(0, 4]")),
})

#: ``strategy`` is a :func:`~repro.distributed.sharded.build_sharding_strategy`
#: name or spec mapping (null: random routing).
SHARDING = Block(Field("sites", read_int, bounds=">= 1"), Field("strategy", read_name_or_mapping, None))

#: Knobs of :class:`~repro.service.served.ServedSampler`.
SERVICE = Block(
    Field("staleness_rounds", read_int, 0, ">= 0"),
    Field("clients", read_int, 0, ">= 0"),
    Field("query_period", read_int, 32, ">= 1"),
)


# ----------------------------------------------------------------------
# Cross-field rules (the ones a declaration cannot state)
# ----------------------------------------------------------------------
def _resolve_point(target: Mapping[str, Any], name: str, universe_size: int) -> int:
    """An endpoint: ``{"bound": 64}`` is absolute, ``{"bound_fraction":
    0.25}`` scales with the universe (so registered scenarios stay
    meaningful when tests or sweeps shrink ``universe_size``)."""
    fraction = target.get(f"{name}_fraction")
    return target[name] if fraction is None else max(1, int(universe_size * fraction))


def resolve_target(target: Mapping[str, Any], universe_size: int) -> tuple[Range, Any, Any]:
    """A read ``target`` spec as (range, in-range element, out-of-range
    element); the elements default to the range's first endpoint and to the
    top of the universe."""
    range_cls, *names = _RANGES[target["kind"]]
    points = [_resolve_point(target, name, universe_size) for name in names]
    resolved = range_cls(*points)
    in_element = points[0] if target["in_element"] is None else target["in_element"]
    out_element = universe_size if target["out_element"] is None else target["out_element"]
    if in_element not in resolved:
        raise ConfigurationError(f"in_element {in_element!r} lies outside the target range")
    if out_element in resolved:
        raise ConfigurationError(f"out_element {out_element!r} lies inside the target range")
    return resolved, in_element, out_element


def phase_starts(members: Sequence[Mapping[str, Any]]) -> list[float]:
    """A phased campaign's start fractions, one per read member: the first
    member defaults to 0.0, every later one names its own."""
    for index, member in enumerate(members[1:], start=1):
        if "start" not in member:
            raise ConfigurationError(
                f"campaign member #{index} needs a 'start' fraction in phased mode "
                "(the first member defaults to 0.0)"
            )
    return [member.get("start", 0.0) for member in members]


def _check_defense(kind: str, family: str) -> None:
    if kind == "difference_estimator" and family != "sliding_window":
        raise ConfigurationError(
            "the difference-estimator defense only applies to the "
            f"sliding_window family, got {family!r}"
        )


# ----------------------------------------------------------------------
# Set systems
# ----------------------------------------------------------------------
def build_set_system(spec: Mapping[str, Any], universe_size: int) -> SetSystem:
    """Instantiate the set system named by ``spec`` (``kind`` + parameters).

    ``universe_size`` is the scenario-level default for the discrete ordered
    systems; a spec may override it with its own ``universe_size`` field.
    """
    fields = read(SET_SYSTEM, spec, "set_system")
    kind = fields["kind"]
    discrete = {"prefix": PrefixSystem, "interval": IntervalSystem, "singleton": SingletonSystem}
    if kind in discrete:
        return discrete[kind](fields.get("universe_size", universe_size))
    if kind == "continuous_prefix":
        return ContinuousPrefixSystem(fields["low"], fields["high"])
    if kind == "rectangle":
        return RectangleSystem(fields["side"], fields["dimension"], seed=fields["seed"])
    return HalfspaceSystem(
        fields["side"],
        fields["dimension"],
        directions=fields["directions"],
        seed=fields["seed"],
    )


def build_target_range(spec: Mapping[str, Any], universe_size: int) -> Range:
    """Instantiate the range named by a ``target`` spec.

    Endpoints may be absolute (``bound``, ``low``, ``high``, ``value``) or
    universe-relative (``bound_fraction`` etc.), one form per endpoint.
    """
    return resolve_target(read(TARGET, spec, "target"), universe_size)[0]


# ----------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------
def build_sampler(
    spec: Mapping[str, Any], rng: np.random.Generator
) -> StreamSampler:
    """Instantiate the sampler named by ``spec`` (``family`` + parameters)."""
    fields = read(SAMPLER, spec, "sampler")
    family = fields["family"]
    if family == "bernoulli":
        return BernoulliSampler(fields["probability"], seed=rng)
    if family == "reservoir":
        return ReservoirSampler(fields["capacity"], seed=rng, eviction=fields["eviction"])
    if family == "sliding_window":
        return SlidingWindowSampler(fields["capacity"], fields["window"], seed=rng)
    return WeightedReservoirSampler(fields["capacity"], seed=rng)


#: Sampler families whose summaries implement
#: :class:`~repro.samplers.base.Mergeable` and can therefore be sharded.
MERGEABLE_SAMPLER_FAMILIES = ("bernoulli", "reservoir", "sliding_window")

#: Spec field each family scales when a defense trades space: the knob
#: oversampling multiplies and ``matched_space`` divides.
_SPACE_FIELDS = {
    "bernoulli": "probability",
    "reservoir": "capacity",
    "sliding_window": "capacity",
    "weighted_reservoir": "capacity",
}


def oversampled_spec(spec: Mapping[str, Any], factor: float) -> dict[str, Any]:
    """Theorem 1.2's defense as a spec rewrite: scale the space knob up.

    ``k -> round(factor * k)`` for capacity families,
    ``p -> min(1, factor * p)`` for Bernoulli.  The result builds the exact
    sampler an explicitly oversized spec would — the defense axis merely
    *names* the space trade so the matrix can compare it against the
    wrapper defenses at equal budget.
    """
    fields = read(SAMPLER, spec, "sampler")
    knob = _SPACE_FIELDS[fields["family"]]
    value = fields[knob] * factor
    return {**spec, knob: min(1.0, value) if knob == "probability" else round(value)}


def matched_space_spec(spec: Mapping[str, Any], copies: int) -> dict[str, Any]:
    """Per-copy spec occupying a ``copies``-th of the original space.

    ``k -> max(1, k // copies)`` / ``p -> p / copies``, so ``copies``
    replicas together match the undefended sampler's footprint — the honest
    baseline for "does the defense help at equal total space?".
    """
    fields = read(SAMPLER, spec, "sampler")
    knob = _SPACE_FIELDS[fields["family"]]
    value = fields[knob]
    return {**spec, knob: value / copies if knob == "probability" else max(1, value // copies)}


def build_defended_sampler(
    spec: Mapping[str, Any], defense: Mapping[str, Any], rng: np.random.Generator
) -> StreamSampler:
    """Build the sampler family under the defense named by ``defense``:
    ``oversample`` as its spec rewrite, the replicated kinds as their
    :mod:`repro.defenses` wrapper."""
    from ..defenses import (
        DifferenceEstimatorSampler,
        DPAggregateSampler,
        SketchSwitchingSampler,
    )

    fields = read(DEFENSE, defense, "defense")
    kind = fields["kind"]
    if kind == "oversample":
        return build_sampler(oversampled_spec(spec, fields["factor"]), rng)
    sampler = read(SAMPLER, spec, "sampler")
    _check_defense(kind, sampler["family"])
    copies = fields["copies"]
    factory = SamplerFromSpec(matched_space_spec(spec, copies) if fields["matched_space"] else spec)
    if kind == "sketch_switching":
        return SketchSwitchingSampler(factory, copies=copies, growth=fields["growth"], seed=rng)
    if kind == "dp_aggregate":
        return DPAggregateSampler(
            factory, copies=copies, dp_epsilon=fields["dp_epsilon"], seed=rng
        )
    return DifferenceEstimatorSampler(
        factory,
        copies=copies,
        rotation_period=max(1, round(fields["rotation_fraction"] * sampler["window"])),
        seed=rng,
    )


class SamplerFromSpec:
    """Picklable ``SamplerFactory`` closing over nothing but plain data.

    With a ``sharding`` spec (the scenario-level ``sharding`` block) the
    factory wraps the sampler family in a
    :class:`~repro.distributed.sharded.ShardedSampler`: ``sites`` per-site
    copies of the same spec, routed by the named strategy, observed through
    the merged view.  Only mergeable families can be sharded; the reservoir
    ablation evictions are rejected by the merge itself.

    With a ``defense`` spec (the scenario-level ``defense`` block) the
    sampler is robustified through :func:`build_defended_sampler`:
    ``oversample`` builds its spec rewrite (byte-identical to an explicitly
    oversized spec), the replicated kinds wrap the built sampler.  Defense
    composes *inside* sharding —
    each site is an independently defended sampler, so the coordinator's
    copy-wise merge sees ``sites`` defended views, exactly the deployment
    the [BJWY20]/[HKMMS20] wrappers are meant for.

    With a ``faults`` spec (the scenario-level ``faults`` block, requires
    ``sharding``) the deployment is built with a
    :class:`~repro.distributed.faults.FaultPlan` compiled against the
    scenario's ``stream_length`` — fraction-based round knobs are resolved
    here, at build time, so the factory stays plain data and the schedule
    rescales with the stream.

    With a ``service`` spec (the scenario-level ``service`` block) the
    fully built sampler — sharded, defended, faulted or plain — is placed
    behind the always-on query service facade
    (:class:`~repro.service.served.ServedSampler`): the game observes the
    bounded-stale served snapshot, and the configured background clients
    read on their round-indexed schedule.  Service wraps *outermost*, which
    is the deployment the ROADMAP describes: one service endpoint in front
    of the whole coordinator.

    Every block is read when the factory is made, so a bad one fails at
    configuration time, not inside a worker process.
    """

    def __init__(
        self,
        spec: Mapping[str, Any],
        sharding: Mapping[str, Any] | None = None,
        defense: Mapping[str, Any] | None = None,
        faults: Mapping[str, Any] | None = None,
        stream_length: int | None = None,
        service: Mapping[str, Any] | None = None,
    ) -> None:
        family = read(SAMPLER, spec, "sampler")["family"]
        self.spec = dict(spec)
        self.sharding = None if sharding is None else read(SHARDING, sharding, "sharding")
        self.defense = None if defense is None else read(DEFENSE, defense, "defense")
        self.faults = None if faults is None else copy.deepcopy(dict(faults))
        self.stream_length = stream_length
        self.service = None if service is None else read(SERVICE, service, "service")
        if self.defense is not None:
            _check_defense(self.defense["kind"], family)
        if self.sharding is not None:
            if family not in MERGEABLE_SAMPLER_FAMILIES:
                raise ConfigurationError(
                    f"sampler family {family!r} is not mergeable and cannot be "
                    f"sharded; mergeable families: {', '.join(MERGEABLE_SAMPLER_FAMILIES)}"
                )
        if self.faults is not None:
            if self.sharding is None:
                raise ConfigurationError(
                    "a faults spec requires a sharding spec"
                )
            if self.stream_length is None:
                raise ConfigurationError(
                    "a faults spec needs the scenario stream_length to resolve "
                    "its round fractions"
                )
            compile_fault_spec(self.faults, self.stream_length)

    def __call__(self, rng: np.random.Generator) -> StreamSampler:
        sampler = self._build_inner(rng)
        if self.service is not None:
            from ..service.served import ServedSampler

            sampler = ServedSampler(sampler, **self.service)
        return sampler

    def _build_inner(self, rng: np.random.Generator) -> StreamSampler:
        if self.sharding is not None:
            fault_plan = None
            if self.faults is not None:
                fault_plan = compile_fault_spec(self.faults, self.stream_length)
            return ShardedSampler(
                self.sharding["sites"],
                SamplerFromSpec(self.spec, defense=self.defense),
                strategy=self.sharding["strategy"],
                seed=rng,
                fault_plan=fault_plan,
            )
        if self.defense is not None:
            return build_defended_sampler(self.spec, self.defense, rng)
        return build_sampler(self.spec, rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        blocks = ("sharding", "defense", "faults", "service")
        parts = [repr(self.spec)] + [
            f"{name}={getattr(self, name)!r}" for name in blocks if getattr(self, name) is not None
        ]
        return f"SamplerFromSpec({', '.join(parts)})"


# ----------------------------------------------------------------------
# Adversaries
# ----------------------------------------------------------------------
#: Adversary families that implement the decision-cadence protocol and
#: therefore accept a spec-level ``decision_period``.  The remaining
#: families (``uniform``, ``sorted``, ``zipf``) are oblivious: they have no
#: decision points to space out, so only the lenient scenario-level knob may
#: be applied to them (and is ignored).
CADENCED_ADVERSARY_FAMILIES = (
    "bisection",
    "eviction_chaser",
    "figure3",
    "greedy_density",
    "median_attack",
    "switching_singleton",
)


def build_adversary(
    spec: Mapping[str, Any],
    rng: np.random.Generator,
    stream_length: int,
    universe_size: int,
    decision_period: int | None = None,
    context: str | None = None,
) -> Adversary:
    """Instantiate the attack adversary named by ``spec``.

    ``decision_period`` is the scenario-level cadence default
    (:attr:`~repro.scenarios.config.ScenarioConfig.decision_period`); a
    ``decision_period`` field inside the spec overrides it.  A spec-level
    cadence on a family that declares none (the oblivious families) is a
    configuration error; the scenario-level knob is lenient — oblivious
    adversaries have no decision points to space out and simply ignore it.
    ``context`` names the spec's position in error messages (a campaign
    passes ``"campaign member #i (<label>)"`` so a mixed oblivious/cadenced
    roster pinpoints the offending member).
    """
    fields = read(ADVERSARY, spec, "adversary")
    spec_period = fields["decision_period"]
    period = spec_period if spec_period is not None else decision_period
    adversary = _build_adversary_inner(fields, rng, stream_length, universe_size)
    if period is not None:
        applied = apply_decision_period(adversary, period)
        if not applied and spec_period is not None:
            where = f"{context}: " if context else ""
            shown = {key: value for key, value in spec.items() if key != "decision_period"}
            raise ConfigurationError(
                f"{where}adversary family {fields['family']!r} (spec {shown!r}) "
                "declares no decision cadence, so its spec-level "
                f"'decision_period': {spec_period} cannot apply; remove "
                "'decision_period' from this spec (the scenario-level knob is "
                "ignored by oblivious families) or switch to a cadence-aware "
                f"family: {', '.join(CADENCED_ADVERSARY_FAMILIES)}"
            )
    return adversary


def build_campaign_adversary(
    campaign: Mapping[str, Any],
    rng: np.random.Generator,
    stream_length: int,
    universe_size: int,
    decision_period: int | None = None,
) -> CampaignAdversary:
    """Compile a ``campaign`` block into a :class:`CampaignAdversary`.

    Members are built in roster order through :func:`build_adversary`
    (sharing ``rng``, so construction-time draws are deterministic), each
    with the lenient scenario-level ``decision_period`` and an error context
    naming its position and label.  Phased start fractions resolve to round
    boundaries via the same :func:`~repro.adversary.campaign.phase_start_rounds`
    the config validation uses, so compilation cannot disagree with what was
    validated.
    """
    fields = read(CAMPAIGN, campaign, "campaign")
    members = []
    for index, (given, member) in enumerate(zip(campaign["members"], fields["members"])):
        label = member.get("label") or member["adversary"]["family"]
        members.append(
            build_adversary(
                given["adversary"],
                rng,
                stream_length,
                universe_size,
                decision_period=decision_period,
                context=f"campaign member #{index} ({label})",
            )
        )
    if fields["mode"] == "phased":
        return CampaignAdversary(
            members,
            mode="phased",
            phase_starts=phase_start_rounds(phase_starts(fields["members"]), stream_length),
        )
    return CampaignAdversary(members, mode="interleaved", stride=fields["stride"])


def _build_adversary_inner(
    fields: Mapping[str, Any],
    rng: np.random.Generator,
    stream_length: int,
    universe_size: int,
) -> Adversary:
    family = fields["family"]
    # Families with a universe default to the scenario's; a stream longer
    # than it then fails loudly (StreamExhaustedError) instead of silently
    # leaving the declared universe.  A ``sorted`` spec's explicit null opts
    # into the unbounded stream.
    size = fields.get("universe_size", universe_size)
    if family == "uniform":
        return UniformAdversary(size, seed=rng)
    if family == "sorted":
        return SortedAdversary(size)
    if family == "zipf":
        return ZipfAdversary(size, exponent=fields["exponent"], seed=rng)
    if family == "greedy_density":
        # The mixing variant is the scenario default: the plain greedy
        # strategy is degenerate from a cold start (gap pinned at zero).
        adversary_cls = (
            MixingGreedyDensityAdversary if fields["mixing"] else GreedyDensityAdversary
        )
        return adversary_cls(*resolve_target(fields["target"], universe_size), widen=fields["widen"])
    if family == "eviction_chaser":
        return EvictionChaserAdversary(
            *resolve_target(fields["target"], universe_size),
            reservoir_size=fields["reservoir_size"],
            switch_threshold=fields["switch_threshold"],
        )
    if family == "median_attack":
        return MedianAttackAdversary(stream_length, universe_size=size)
    if family == "bisection":
        return BisectionAdversary(fields["low"], fields["high"])
    if family == "switching_singleton":
        return SwitchingSingletonAdversary(size, revisit_evicted=fields["revisit_evicted"])
    if fields["mode"] == "bernoulli":
        return ThresholdAttackAdversary.for_bernoulli(
            fields["probability"], stream_length, universe_size=fields["universe_size"]
        )
    return ThresholdAttackAdversary.for_reservoir(
        fields["capacity"], stream_length, universe_size=fields["universe_size"]
    )


def build_benign_supplier(
    spec: Mapping[str, Any] | None,
    rng: np.random.Generator,
    universe_size: int,
) -> Callable[[], Any]:
    """Return a zero-argument supplier of benign filler elements.

    ``None`` defaults to uniform integers over the scenario universe, the
    neutral workload every discrete system accepts.
    """
    if spec is None:
        spec = {"kind": "uniform_int"}
    fields = read(BENIGN, spec, "benign")
    kind = fields["kind"]
    if kind == "constant":
        value = fields["value"]
        return lambda: value
    low, high = fields["low"], fields.get("high", universe_size)
    if kind == "uniform_float":
        return lambda: float(rng.uniform(low, high))
    if low > high:
        raise ConfigurationError(f"benign range [{low}, {high}] is empty")
    return lambda: int(rng.integers(low, high + 1))


class _BenignFiller(ObliviousAdversary):
    """Benign filler: one supplier call per round, in round order."""

    name = "benign"

    def __init__(self, benign: Callable[[], Any]) -> None:
        self._benign = benign

    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        benign = self._benign
        return [benign() for _ in range(count)]


class BudgetedAdversary(CampaignAdversary):
    """Play an attack for the first ``attack_rounds`` rounds, then go benign.

    A two-phase campaign: ``inner`` owns rounds ``1..attack_rounds`` and a
    benign filler every later round (``attack_rounds=0`` plays the filler
    alone).  The attack never learns the budget and sees feedback only for
    its own rounds, so its decisions over the shared prefix are identical
    across budgets — the property the scenario monotonicity checks rely on.
    The filler reads nothing, so the benign tail builds no sample view.
    :class:`AdversaryFromSpec` builds one only below full budget.
    """

    def __init__(
        self,
        inner: Adversary,
        benign: Callable[[], Any],
        attack_rounds: int,
    ) -> None:
        if attack_rounds < 0:
            raise ConfigurationError(f"attack rounds must be >= 0, got {attack_rounds}")
        self.inner = inner
        self.attack_rounds = int(attack_rounds)
        filler = _BenignFiller(benign)
        if self.attack_rounds == 0:
            super().__init__([filler], phase_starts=[1], name=inner.name)
        else:
            super().__init__(
                [inner, filler], phase_starts=[1, self.attack_rounds + 1], name=inner.name
            )


class AdversaryFromSpec:
    """Picklable ``AdversaryFactory``: an attack spec under its budget.

    With a ``campaign`` block on the config the attack is the compiled
    :class:`~repro.adversary.campaign.CampaignAdversary` instead of a single
    family; the budget is the same two-phase campaign either way, so
    campaigns inherit the budget-independent attack prefix (and with it
    budget monotonicity) for free.  At full budget (``attack_rounds >=
    stream_length``) the bare attack is returned: it plays exactly as the
    budgeted one, without the routing.  The benign supplier is built either
    way, so a bad ``benign`` spec is rejected at every budget.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.attack_spec = dict(config.adversary)
        self.campaign_spec = (
            None if config.campaign is None else copy.deepcopy(config.campaign)
        )
        self.benign_spec = None if config.benign is None else dict(config.benign)
        self.attack_rounds = config.attack_rounds
        self.stream_length = config.stream_length
        self.universe_size = config.universe_size
        self.decision_period = config.decision_period

    def __call__(self, rng: np.random.Generator) -> Adversary:
        if self.campaign_spec is not None:
            inner: Adversary = build_campaign_adversary(
                self.campaign_spec,
                rng,
                self.stream_length,
                self.universe_size,
                decision_period=self.decision_period,
            )
        else:
            inner = build_adversary(
                self.attack_spec,
                rng,
                self.stream_length,
                self.universe_size,
                decision_period=self.decision_period,
            )
        benign = build_benign_supplier(self.benign_spec, rng, self.universe_size)
        if self.attack_rounds >= self.stream_length:
            return inner
        return BudgetedAdversary(inner, benign, self.attack_rounds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.campaign_spec is not None:
            return (
                f"AdversaryFromSpec(campaign={self.campaign_spec!r}, "
                f"attack_rounds={self.attack_rounds})"
            )
        return (
            f"AdversaryFromSpec({self.attack_spec!r}, "
            f"attack_rounds={self.attack_rounds})"
        )
