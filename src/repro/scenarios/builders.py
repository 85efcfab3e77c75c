"""Turn declarative scenario specs into live game objects.

Every builder here consumes the plain-data specs of
:class:`~repro.scenarios.config.ScenarioConfig` and produces the objects the
game layer expects.  Two design constraints shape the module:

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
from typing import Any

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


def _require(spec: Mapping[str, Any], field: str, context: str) -> Any:
    if field not in spec:
        raise ConfigurationError(f"{context} spec {dict(spec)!r} needs a {field!r} field")
    return spec[field]


def _reject_unknown(spec: Mapping[str, Any], allowed: set[str], context: str) -> None:
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown fields in {context} spec: {', '.join(sorted(unknown))}"
        )


# ----------------------------------------------------------------------
# Set systems
# ----------------------------------------------------------------------
def build_set_system(spec: Mapping[str, Any], universe_size: int) -> SetSystem:
    """Instantiate the set system named by ``spec`` (``kind`` + parameters).

    ``universe_size`` is the scenario-level default for the discrete ordered
    systems; a spec may override it with its own ``universe_size`` field.
    """
    kind = _require(spec, "kind", "set_system")
    size = int(spec.get("universe_size", universe_size))
    if kind == "prefix":
        _reject_unknown(spec, {"kind", "universe_size"}, "set_system")
        return PrefixSystem(size)
    if kind == "interval":
        _reject_unknown(spec, {"kind", "universe_size"}, "set_system")
        return IntervalSystem(size)
    if kind == "singleton":
        _reject_unknown(spec, {"kind", "universe_size"}, "set_system")
        return SingletonSystem(size)
    if kind == "continuous_prefix":
        _reject_unknown(spec, {"kind", "low", "high"}, "set_system")
        return ContinuousPrefixSystem(float(spec.get("low", 0.0)), float(spec.get("high", 1.0)))
    if kind == "rectangle":
        _reject_unknown(spec, {"kind", "side", "dimension", "seed"}, "set_system")
        return RectangleSystem(
            int(_require(spec, "side", "set_system")),
            int(_require(spec, "dimension", "set_system")),
            seed=int(spec.get("seed", 0)),
        )
    if kind == "halfspace":
        _reject_unknown(spec, {"kind", "side", "dimension", "directions", "seed"}, "set_system")
        return HalfspaceSystem(
            int(_require(spec, "side", "set_system")),
            int(_require(spec, "dimension", "set_system")),
            directions=int(spec.get("directions", 32)),
            seed=int(spec.get("seed", 0)),
        )
    raise ConfigurationError(f"unknown set system kind {kind!r}")


# ----------------------------------------------------------------------
# Target ranges (for the range-directed attacks)
# ----------------------------------------------------------------------
def _resolve_point(
    spec: Mapping[str, Any], field: str, universe_size: int, default: Any = None
) -> Any:
    """Resolve an endpoint given either absolutely or as a universe fraction.

    ``{"bound": 64}`` is absolute; ``{"bound_fraction": 0.25}`` scales with
    the scenario universe, which keeps registered scenarios meaningful when
    tests (or sweeps) shrink ``universe_size``.
    """
    if field in spec:
        return spec[field]
    fraction_field = f"{field}_fraction"
    if fraction_field in spec:
        fraction = float(spec[fraction_field])
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"target {fraction_field} must lie in (0, 1], got {fraction}"
            )
        return max(1, int(universe_size * fraction))
    if default is not None:
        return default
    raise ConfigurationError(
        f"target spec {dict(spec)!r} needs {field!r} or {fraction_field!r}"
    )


def build_target_range(spec: Mapping[str, Any], universe_size: int) -> Range:
    """Instantiate the range named by a ``target`` spec.

    Endpoints may be absolute (``bound``, ``low``, ``high``, ``value``) or
    universe-relative (``bound_fraction`` etc.; see :func:`_resolve_point`).
    """
    kind = _require(spec, "kind", "target")
    if kind == "prefix":
        return Prefix(_resolve_point(spec, "bound", universe_size))
    if kind == "interval":
        return Interval(
            _resolve_point(spec, "low", universe_size, default=1),
            _resolve_point(spec, "high", universe_size),
        )
    if kind == "singleton":
        return Singleton(_resolve_point(spec, "value", universe_size))
    raise ConfigurationError(f"unknown target range kind {kind!r}")


def _target_elements(
    spec: Mapping[str, Any], target: Range, universe_size: int
) -> tuple[Any, Any]:
    """Derive (in-range, out-of-range) elements for a range-directed attack."""
    in_element = spec.get("in_element")
    out_element = spec.get("out_element")
    kind = _require(spec, "kind", "target")
    if in_element is None:
        if kind == "prefix":
            in_element = int(_resolve_point(spec, "bound", universe_size))
        elif kind == "interval":
            in_element = int(_resolve_point(spec, "low", universe_size, default=1))
        else:
            in_element = int(_resolve_point(spec, "value", universe_size))
    if out_element is None:
        out_element = int(universe_size)
    if in_element not in target:
        raise ConfigurationError(f"in_element {in_element!r} lies outside the target range")
    if out_element in target:
        raise ConfigurationError(f"out_element {out_element!r} lies inside the target range")
    return in_element, out_element


# ----------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------
def build_sampler(
    spec: Mapping[str, Any], rng: np.random.Generator
) -> StreamSampler:
    """Instantiate the sampler named by ``spec`` (``family`` + parameters)."""
    family = _require(spec, "family", "sampler")
    if family == "bernoulli":
        _reject_unknown(spec, {"family", "probability"}, "sampler")
        return BernoulliSampler(float(_require(spec, "probability", "sampler")), seed=rng)
    if family == "reservoir":
        _reject_unknown(spec, {"family", "capacity", "eviction"}, "sampler")
        return ReservoirSampler(
            int(_require(spec, "capacity", "sampler")),
            seed=rng,
            eviction=spec.get("eviction", "uniform"),
        )
    if family == "sliding_window":
        _reject_unknown(spec, {"family", "capacity", "window"}, "sampler")
        return SlidingWindowSampler(
            int(_require(spec, "capacity", "sampler")),
            int(_require(spec, "window", "sampler")),
            seed=rng,
        )
    if family == "weighted_reservoir":
        _reject_unknown(spec, {"family", "capacity"}, "sampler")
        return WeightedReservoirSampler(int(_require(spec, "capacity", "sampler")), seed=rng)
    raise ConfigurationError(f"unknown sampler family {family!r}")


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


def _space_field(spec: Mapping[str, Any], context: str) -> str:
    family = _require(spec, "family", "sampler")
    try:
        return _SPACE_FIELDS[family]
    except KeyError:
        raise ConfigurationError(
            f"sampler family {family!r} declares no space knob; {context} "
            f"applies to: {', '.join(sorted(_SPACE_FIELDS))}"
        ) from None


def oversampled_spec(spec: Mapping[str, Any], factor: float) -> dict[str, Any]:
    """Theorem 1.2's defense as a spec rewrite: scale the space knob up.

    ``k -> round(factor * k)`` for capacity families,
    ``p -> min(1, factor * p)`` for Bernoulli.  The result builds the exact
    sampler an explicitly oversized spec would — the defense axis merely
    *names* the space trade so the matrix can compare it against the
    wrapper defenses at equal budget.
    """
    spec = dict(spec)
    field = _space_field(spec, "oversampling")
    value = _require(spec, field, "sampler")
    if field == "probability":
        spec[field] = min(1.0, float(value) * factor)
    else:
        spec[field] = int(round(int(value) * factor))
    return spec


def matched_space_spec(spec: Mapping[str, Any], copies: int) -> dict[str, Any]:
    """Per-copy spec occupying a ``copies``-th of the original space.

    ``k -> max(1, k // copies)`` / ``p -> p / copies``, so ``copies``
    replicas together match the undefended sampler's footprint — the honest
    baseline for "does the defense help at equal total space?".
    """
    spec = dict(spec)
    field = _space_field(spec, "matched_space")
    value = _require(spec, field, "sampler")
    if field == "probability":
        spec[field] = float(value) / copies
    else:
        spec[field] = max(1, int(value) // copies)
    return spec


def build_defended_sampler(
    spec: Mapping[str, Any], defense: Mapping[str, Any], rng: np.random.Generator
) -> StreamSampler:
    """Wrap the sampler family in the replicated defense named by ``defense``.

    The block is assumed validated (``ScenarioConfig`` runs
    ``_validate_defense``); ``oversample`` never reaches here — it is a spec
    rewrite handled in :class:`SamplerFromSpec`.
    """
    from ..defenses import (
        DifferenceEstimatorSampler,
        DPAggregateSampler,
        SketchSwitchingSampler,
    )

    kind = _require(defense, "kind", "defense")
    copies = int(defense.get("copies", 4))
    inner = dict(spec)
    if defense.get("matched_space"):
        inner = matched_space_spec(inner, copies)
    factory = SamplerFromSpec(inner)
    if kind == "sketch_switching":
        return SketchSwitchingSampler(
            factory, copies=copies, growth=float(defense.get("growth", 2.0)), seed=rng
        )
    if kind == "dp_aggregate":
        return DPAggregateSampler(
            factory,
            copies=copies,
            dp_epsilon=float(defense.get("dp_epsilon", 1.0)),
            seed=rng,
        )
    if kind == "difference_estimator":
        window = int(_require(spec, "window", "sampler"))
        rotation_fraction = float(defense.get("rotation_fraction", 1.0))
        return DifferenceEstimatorSampler(
            factory,
            copies=copies,
            rotation_period=max(1, int(round(rotation_fraction * window))),
            seed=rng,
        )
    raise ConfigurationError(f"unknown defense kind {kind!r}")


class SamplerFromSpec:
    """Picklable ``SamplerFactory`` closing over nothing but plain data.

    With a ``sharding`` spec (the scenario-level ``sharding`` block) the
    factory wraps the sampler family in a
    :class:`~repro.distributed.sharded.ShardedSampler`: ``sites`` per-site
    copies of the same spec, routed by the named strategy, observed through
    the merged view.  Only mergeable families can be sharded; the reservoir
    ablation evictions are rejected by the merge itself.

    With a ``defense`` spec (the scenario-level ``defense`` block) the
    sampler is robustified: ``oversample`` is resolved immediately as a spec
    rewrite (the built sampler is byte-identical to an explicitly oversized
    spec), the replicated kinds wrap the built sampler via
    :func:`build_defended_sampler`.  Defense composes *inside* sharding —
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
        self.spec = dict(spec)
        self.sharding = None if sharding is None else dict(sharding)
        self.defense = None if defense is None else copy.deepcopy(dict(defense))
        self.faults = None if faults is None else copy.deepcopy(dict(faults))
        self.stream_length = None if stream_length is None else int(stream_length)
        self.service = None if service is None else copy.deepcopy(dict(service))
        family = _require(self.spec, "family", "sampler")
        if self.defense is not None:
            kind = _require(self.defense, "kind", "defense")
            if kind == "oversample":
                self.spec = oversampled_spec(self.spec, float(self.defense.get("factor", 4)))
                self.defense = None
            else:
                # Fail at configuration time, not inside a worker process.
                _space_field(self.spec, f"the {kind} defense")
                if kind == "difference_estimator" and family != "sliding_window":
                    raise ConfigurationError(
                        "the difference-estimator defense only applies to the "
                        f"sliding_window family, got {family!r}"
                    )
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
            # Fail at configuration time, not inside a worker process.
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
                int(self.sharding["sites"]),
                SamplerFromSpec(self.spec, defense=self.defense),
                strategy=self.sharding.get("strategy"),
                seed=rng,
                fault_plan=fault_plan,
            )
        if self.defense is not None:
            return build_defended_sampler(self.spec, self.defense, rng)
        return build_sampler(self.spec, rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [repr(self.spec)]
        if self.sharding is not None:
            parts.append(f"sharding={self.sharding!r}")
        if self.defense is not None:
            parts.append(f"defense={self.defense!r}")
        if self.faults is not None:
            parts.append(f"faults={self.faults!r}")
        if self.service is not None:
            parts.append(f"service={self.service!r}")
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
    spec = dict(spec)
    spec_period = spec.pop("decision_period", None)
    period = spec_period if spec_period is not None else decision_period
    adversary = _build_adversary_inner(spec, rng, stream_length, universe_size)
    if period is not None:
        applied = apply_decision_period(adversary, int(period))
        if not applied and spec_period is not None:
            where = f"{context}: " if context else ""
            raise ConfigurationError(
                f"{where}adversary family {spec.get('family')!r} (spec {spec!r}) "
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
    """Compile a validated ``campaign`` block into a :class:`CampaignAdversary`.

    Members are built in roster order through :func:`build_adversary`
    (sharing ``rng``, so construction-time draws are deterministic), each
    with the lenient scenario-level ``decision_period`` and an error context
    naming its position and label.  Phased start fractions resolve to round
    boundaries via the same :func:`~repro.adversary.campaign.phase_start_rounds`
    the config validation uses, so compilation cannot disagree with what was
    validated.
    """
    members = []
    for index, member in enumerate(campaign["members"]):
        label = member.get("label") or str(member["adversary"].get("family"))
        members.append(
            build_adversary(
                member["adversary"],
                rng,
                stream_length,
                universe_size,
                decision_period=decision_period,
                context=f"campaign member #{index} ({label})",
            )
        )
    mode = campaign.get("mode", "phased")
    if mode == "phased":
        starts = [float(member.get("start", 0.0)) for member in campaign["members"]]
        return CampaignAdversary(
            members,
            mode="phased",
            phase_starts=phase_start_rounds(starts, stream_length),
        )
    return CampaignAdversary(
        members, mode="interleaved", stride=int(campaign.get("stride", 16))
    )


def _build_adversary_inner(
    spec: Mapping[str, Any],
    rng: np.random.Generator,
    stream_length: int,
    universe_size: int,
) -> Adversary:
    family = _require(spec, "family", "adversary")
    if family == "uniform":
        return UniformAdversary(int(spec.get("universe_size", universe_size)), seed=rng)
    if family == "sorted":
        # Defaults to the scenario universe like the sibling families; a
        # stream longer than the universe then fails loudly
        # (StreamExhaustedError) instead of silently leaving the declared
        # universe.  Pass an explicit null to opt into the unbounded stream.
        if "universe_size" in spec:
            return SortedAdversary(spec["universe_size"])
        return SortedAdversary(universe_size)
    if family == "zipf":
        return ZipfAdversary(
            int(spec.get("universe_size", universe_size)),
            exponent=float(spec.get("exponent", 1.2)),
            seed=rng,
        )
    if family == "greedy_density":
        target_spec = _require(spec, "target", "adversary")
        target = build_target_range(target_spec, universe_size)
        in_element, out_element = _target_elements(target_spec, target, universe_size)
        # The mixing variant is the scenario default: the plain greedy
        # strategy is degenerate from a cold start (gap pinned at zero).
        adversary_cls = (
            MixingGreedyDensityAdversary
            if bool(spec.get("mixing", True))
            else GreedyDensityAdversary
        )
        return adversary_cls(
            target, in_element, out_element, widen=bool(spec.get("widen", True))
        )
    if family == "eviction_chaser":
        target_spec = _require(spec, "target", "adversary")
        target = build_target_range(target_spec, universe_size)
        in_element, out_element = _target_elements(target_spec, target, universe_size)
        return EvictionChaserAdversary(
            target,
            in_element,
            out_element,
            reservoir_size=int(_require(spec, "reservoir_size", "adversary")),
            switch_threshold=float(spec.get("switch_threshold", 0.5)),
        )
    if family == "median_attack":
        return MedianAttackAdversary(
            stream_length, universe_size=int(spec.get("universe_size", universe_size))
        )
    if family == "bisection":
        return BisectionAdversary(float(spec.get("low", 0.0)), float(spec.get("high", 1.0)))
    if family == "switching_singleton":
        return SwitchingSingletonAdversary(
            int(spec.get("universe_size", universe_size)),
            revisit_evicted=bool(spec.get("revisit_evicted", False)),
        )
    if family == "figure3":
        mode = spec.get("mode", "reservoir")
        if mode == "bernoulli":
            return ThresholdAttackAdversary.for_bernoulli(
                float(_require(spec, "probability", "adversary")),
                stream_length,
                universe_size=spec.get("universe_size"),
            )
        if mode == "reservoir":
            return ThresholdAttackAdversary.for_reservoir(
                int(_require(spec, "capacity", "adversary")),
                stream_length,
                universe_size=spec.get("universe_size"),
            )
        raise ConfigurationError(f"unknown figure3 mode {mode!r}")
    raise ConfigurationError(f"unknown adversary family {family!r}")


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
    kind = _require(spec, "kind", "benign")
    if kind == "uniform_int":
        low = int(spec.get("low", 1))
        high = int(spec.get("high", universe_size))
        if low > high:
            raise ConfigurationError(f"benign range [{low}, {high}] is empty")
        return lambda: int(rng.integers(low, high + 1))
    if kind == "uniform_float":
        low = float(spec.get("low", 0.0))
        high = float(spec.get("high", 1.0))
        if not low < high:
            raise ConfigurationError(f"benign range [{low}, {high}] is empty")
        return lambda: float(rng.uniform(low, high))
    if kind == "constant":
        value = _require(spec, "value", "benign")
        return lambda: value
    raise ConfigurationError(f"unknown benign spec kind {kind!r}")


class _BenignFiller(ObliviousAdversary):
    """Benign filler: one supplier call per round, in round order."""

    name = "benign"

    def __init__(self, benign: Callable[[], Any]) -> None:
        self._benign = benign

    def next_element(
        self, round_index: int, observed_sample: Sequence[Any] | None
    ) -> Any:
        return self._benign()


class BudgetedAdversary(CampaignAdversary):
    """Play an attack for the first ``attack_rounds`` rounds, then go benign.

    A two-phase campaign: ``inner`` owns rounds ``1..attack_rounds`` and a
    benign filler every later round (``attack_rounds=0`` plays the filler
    alone).  The attack never learns the budget and sees feedback only for
    its own rounds, so its decisions over the shared prefix are identical
    across budgets — the property the scenario monotonicity checks rely on.
    The filler reads nothing, so the benign tail declines the sample view.
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
