"""Declarative, JSON-serializable scenario configurations.

A :class:`ScenarioConfig` captures *everything* needed to replay an attack
scenario — the game scale (stream length, universe, epsilon), the attack
budget, the knowledge model, the sampler grid, the adversary, the benign
filler distribution and the set system — as plain data.  Nothing in it is a
live object: samplers, adversaries and set systems are described by small
spec mappings (``{"family": ...}`` / ``{"kind": ...}``) that
:mod:`repro.scenarios.builders` turns into picklable factories at execution
time.  That makes every scenario serialisable to JSON, diffable, and safe to
ship across the :class:`~repro.adversary.batch.BatchGameRunner` process pool.

The **attack budget** is the scenario layer's universal scale knob: a value
``b`` in ``[0, 1]`` meaning "the adversary attacks for the first
``round(b * n)`` rounds and then submits benign filler".  Because the attack
prefix of a low-budget run is identical to that of a high-budget run (the
adversary does not know the budget, and per-trial substreams are derived
from budget-independent labels), raising the budget can only extend an
attack, never alter its beginning — which is what makes per-scenario
monotonicity checks (*larger budget ⇒ no smaller observed error*)
structurally meaningful rather than merely statistical.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, replace as dataclass_replace
from collections.abc import Mapping
from typing import Any

from ..adversary.campaign import phase_start_rounds
from ..adversary.game import KNOWLEDGE_MODELS
from ..distributed.faults import FAULTS, compile_fault_spec
from ..distributed.sharded import build_sharding_strategy
from ..exceptions import ConfigurationError
from ..schema import Block, Field, MapOf, one_of, read, read_bool, read_float, read_int, read_str
from .builders import (
    ADVERSARY,
    BENIGN,
    CAMPAIGN,
    DEFENSE,
    SAMPLER,
    SERVICE,
    SET_SYSTEM,
    SHARDING,
    oversampled_spec,
    phase_starts,
    resolve_target,
)

#: The adversary field's default spec; a scenario that sets a ``campaign``
#: must leave ``adversary`` at this default (the campaign members define the
#: attack).
DEFAULT_ADVERSARY_SPEC = {"family": "uniform"}

#: The scenario schema: every :class:`ScenarioConfig` field with its kind and
#: bounds (the dataclass holds the defaults; a null one admits null).
SCENARIO = Block(
    Field("name", read_str),
    Field("description", read_str),
    Field("stream_length", read_int, bounds=">= 2"),
    Field("universe_size", read_int, bounds=">= 2"),
    Field("epsilon", read_float, bounds="(0, 1)"),
    Field("attack_budget", read_float, bounds="[0, 1]"),
    Field("trials", read_int, bounds=">= 1"),
    Field("seed", read_int),
    Field("knowledge", one_of(*KNOWLEDGE_MODELS)),
    Field("continuous", read_bool),
    Field("checkpoint_ratio", read_float, None, "> 0"),
    Field("warmup_fraction", read_float, bounds="[0, 1)"),
    Field("samplers", MapOf(SAMPLER)),
    Field("adversary", ADVERSARY),
    Field("benign", BENIGN, None),
    Field("set_system", SET_SYSTEM),
    Field("workers", read_int, None, ">= 0"),
    Field("chunk_size", read_int, None, ">= 1"),
    Field("decision_period", read_int, None, ">= 1"),
    Field("sharding", SHARDING, None),
    Field("campaign", CAMPAIGN, None),
    Field("defense", DEFENSE, None),
    Field("faults", FAULTS, None),
    Field("service", SERVICE, None),
)

#: Spec blocks stored as given, like ``samplers``: the builders read them
#: again.  The rest is stored as read, ``defense`` and ``service`` with defaults.
_KEPT_AS_GIVEN = ("adversary", "benign", "set_system", "faults")


def _copy(value: Any) -> Any:
    return copy.deepcopy(dict(value)) if isinstance(value, Mapping) else value


def _check_cross_fields(given: Mapping[str, Any], typed: Mapping[str, Any]) -> None:
    """The rules no single field states; ``typed`` has passed the schema."""
    if not typed["name"]:
        raise ConfigurationError("a scenario needs a non-empty name")
    campaign = typed["campaign"]
    if campaign is not None:
        if given["adversary"] != DEFAULT_ADVERSARY_SPEC:
            raise ConfigurationError(
                "a scenario cannot set both 'campaign' and a non-default 'adversary' "
                f"(got adversary {dict(given['adversary'])!r}); the campaign's members "
                "define the attack"
            )
        if campaign["mode"] == "phased":
            # Raises when the fractions collapse or escape at this length.
            phase_start_rounds(phase_starts(campaign["members"]), typed["stream_length"])
    members = [{"adversary": typed["adversary"]}] if campaign is None else campaign["members"]
    for index, member in enumerate(members):
        adversary = member["adversary"]
        if "target" in adversary:
            resolve_target(adversary["target"], typed["universe_size"])
        variant = ADVERSARY.variants[adversary["family"]]
        declared = variant.fields.get("universe_size") if isinstance(variant, Block) else None
        if declared is not None and "universe_size" not in adversary:
            # Left out, the family's universe is the scenario's, which must
            # still meet the family's own minimum.
            where = "adversary" if campaign is None else f"campaign member #{index} adversary"
            declared.read(typed["universe_size"], f"{where} (the scenario's universe_size)")
    defense = typed["defense"]
    for label, sampler in typed["samplers"].items():
        if sampler["family"] != "sliding_window":
            continue
        capacity, scaled = sampler["capacity"], ""
        if defense is not None and defense["kind"] == "oversample":
            capacity = oversampled_spec(sampler, defense["factor"])["capacity"]
            scaled = f": the oversample defense scales {sampler['capacity']} by {defense['factor']}"
        if sampler["window"] < capacity:
            raise ConfigurationError(
                f"window ({sampler['window']}) must be at least the capacity "
                f"({capacity}{scaled}) in samplers[{label!r}]"
            )
    sharding = typed["sharding"]
    if sharding is not None:
        build_sharding_strategy(sharding["strategy"])
    if typed["faults"] is not None:
        if sharding is None:
            raise ConfigurationError(
                "a 'faults' block requires a 'sharding' block: faults describe "
                "site crashes, coordinator staleness and resharding of a sharded "
                "deployment"
            )
        plan = compile_fault_spec(given["faults"], typed["stream_length"])
        if not plan.reshards:
            # Without resharding the topology is static, so site references
            # can be bounds-checked now instead of failing mid-game.
            for crash in plan.crashes:
                if crash.site >= sharding["sites"]:
                    raise ConfigurationError(
                        f"faults crash targets site {crash.site}, but the "
                        f"deployment has {sharding['sites']} sites"
                    )
        for reshard in plan.reshards:
            build_sharding_strategy(reshard.strategy)


def _stored_campaign(given: Mapping[str, Any], typed: Mapping[str, Any]) -> dict[str, Any]:
    """The campaign as given, with its schedule resolved: ``mode``, and the
    interleaved ``stride`` or every phased member's ``start``."""
    if typed["mode"] == "interleaved":
        return {**_copy(given), "mode": "interleaved", "stride": typed["stride"]}
    starts = phase_starts(typed["members"])
    members = [{**_copy(member), "start": start} for member, start in zip(given["members"], starts)]
    return {**_copy(given), "mode": "phased", "members": members}


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified attack scenario, as plain JSON-compatible data.

    Attributes
    ----------
    name / description:
        Identity, for registries and reports.
    stream_length / universe_size / epsilon:
        Scale knobs shared with :class:`~repro.experiments.config.ExperimentConfig`.
    attack_budget:
        Fraction of rounds (a prefix of the stream) played by the attack
        adversary; the rest is benign filler.  See the module docstring.
    trials / seed / workers:
        Monte-Carlo width and reproducibility knobs, passed straight to
        :class:`~repro.adversary.batch.BatchGameRunner`.
    knowledge:
        How much sampler state the adversary observes (``"full"``,
        ``"updates"`` or ``"oblivious"``).
    continuous / checkpoint_ratio:
        Play Figure 2's continuous game (with its geometric checkpoint
        schedule) instead of the endpoint game of Figure 1.
    samplers:
        Mapping of grid label to sampler spec, e.g.
        ``{"reservoir-32": {"family": "reservoir", "capacity": 32}}``.
    adversary:
        Attack spec, e.g. ``{"family": "greedy_density", "target": {...}}``.
    benign:
        Filler-element spec for post-budget rounds (defaults to uniform
        integers over the universe).
    set_system:
        Set-system spec, e.g. ``{"kind": "prefix"}`` (universe size defaults
        to ``universe_size``).
    """

    name: str
    description: str = ""
    stream_length: int = 2048
    universe_size: int = 256
    epsilon: float = 0.25
    attack_budget: float = 1.0
    trials: int = 5
    seed: int = 20200614
    knowledge: str = "full"
    continuous: bool = True
    checkpoint_ratio: float | None = None
    #: Fraction of the stream skipped before the first checkpoint.  Very
    #: early checkpoints mostly measure empty/tiny samples (an empty sample
    #: counts as error 1 by Definition 1.1), which would saturate every
    #: scenario's peak discrepancy with warmup noise instead of attack signal.
    warmup_fraction: float = 0.1
    samplers: dict[str, dict[str, Any]] = field(
        default_factory=lambda: {"reservoir-32": {"family": "reservoir", "capacity": 32}}
    )
    adversary: dict[str, Any] = field(default_factory=lambda: dict(DEFAULT_ADVERSARY_SPEC))
    benign: dict[str, Any] | None = None
    set_system: dict[str, Any] = field(default_factory=lambda: {"kind": "prefix"})
    workers: int | None = None
    #: Maximum segment length for chunked game execution (``None`` = runner
    #: default, ``1`` = one-element segments).  Chunking never changes *which*
    #: rounds the adversary controls or where checkpoints fall, so budget
    #: monotonicity is unaffected.
    chunk_size: int | None = None
    #: Decision cadence for the attack adversary (``None`` keeps the attack's
    #: own default, usually per-round): the adversary observes the sampler
    #: once every ``decision_period`` rounds and commits whole blocks in
    #: between, which is what lets chunked execution accelerate adaptive
    #: attacks.  A ``decision_period`` field inside the adversary spec
    #: overrides this scenario-level knob; oblivious adversary families
    #: ignore it (they have no decision points).  Cadence is part of the
    #: strategy — it changes the realised stream for periods > 1 — but never
    #: the attack/benign boundary or the checkpoint schedule, so budget
    #: monotonicity is preserved.
    decision_period: int | None = None
    #: Optional sharded deployment (``SHARDING``): every sampler in the grid
    #: becomes a :class:`~repro.distributed.sharded.ShardedSampler` of ``sites``
    #: copies under the routing ``strategy`` (random by default; a mapping such
    #: as ``{"kind": "skewed", "hot_fraction": 0.9}`` passes parameters).  Only
    #: :data:`repro.scenarios.builders.MERGEABLE_SAMPLER_FAMILIES` can be sharded.
    sharding: dict[str, Any] | None = None
    #: Optional multi-adversary campaign: several attack specs composed over
    #: one stream instead of the single ``adversary`` (which must then stay
    #: at its default).  ``{"mode": "phased", "members": [{"adversary": ...,
    #: "start": 0.0}, ...]}`` cuts the stream into consecutive phases at the
    #: ``start`` fractions; ``{"mode": "interleaved", "stride": 16,
    #: "members": [...]}`` round-robins fixed-length slots between the
    #: members (colluding adversaries splitting the round budget).  Compiled
    #: to a :class:`~repro.adversary.campaign.CampaignAdversary`; the
    #: round -> member schedule depends only on the stream length, so budget
    #: monotonicity holds exactly as for single-adversary scenarios.
    campaign: dict[str, Any] | None = None
    #: Optional defense (``DEFENSE``) applied to **every** sampler in the grid,
    #: e.g. ``{"kind": "sketch_switching", "copies": 4, "matched_space": True}``:
    #: ``oversample`` rewrites the sampler specs (Theorem 1.2), the other kinds
    #: wrap each sampler in a :mod:`repro.defenses` wrapper.  ``matched_space``
    #: divides the per-copy space by ``copies``, the honest comparison at equal
    #: total space.  Composes with ``sharding``: each site is defended.
    defense: dict[str, Any] | None = None
    #: Optional fault injection for a sharded deployment
    #: (:data:`~repro.distributed.faults.FAULTS`): site crashes, coordinator
    #: staleness windows and resharding, compiled to a ``FaultPlan`` against the
    #: stream length at build time, so faulted scenarios stay budget-monotone
    #: and bit-reproducible.
    faults: dict[str, Any] | None = None
    #: Optional service block (``SERVICE``): observe the sampler through
    #: :class:`~repro.service.served.ServedSampler`, whose reads come from a
    #: snapshot at most ``staleness_rounds`` behind ingestion while ``clients``
    #: background clients read every ``query_period`` rounds (a query flood
    #: spends an exposure-tracked defense's budget).  The read schedule is a
    #: pure function of the round index, so serviced scenarios stay
    #: bit-reproducible, budget-monotone and chunking-independent.
    service: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        # Every block is read here, so a field error surfaces at from_dict
        # or replace, before any factory or worker exists.
        given = {name: getattr(self, name) for name in SCENARIO.fields}
        typed = read(SCENARIO, given, "")
        _check_cross_fields(given, typed)
        stored = dict(typed)
        for name in _KEPT_AS_GIVEN:
            stored[name] = _copy(given[name])
        stored["samplers"] = {label: _copy(spec) for label, spec in given["samplers"].items()}
        if given["sharding"] is not None:
            stored["sharding"] = {**_copy(given["sharding"]), "sites": typed["sharding"]["sites"]}
        if given["campaign"] is not None:
            stored["campaign"] = _stored_campaign(given["campaign"], typed["campaign"])
        # A frozen dataclass still allows object.__setattr__; used only here,
        # to store the read values.
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def attack_rounds(self) -> int:
        """Number of leading rounds played by the attack adversary."""
        return round(self.attack_budget * self.stream_length)

    @property
    def adversary_label(self) -> str:
        """Grid label of the attack: the family name, or the campaign roster.

        The label deliberately omits the budget (see
        :mod:`repro.scenarios.engine`); for campaigns it is
        ``campaign:<family>+<family>+...`` in schedule order.
        """
        if self.campaign is None:
            return self.adversary["family"]
        families = [member["adversary"]["family"] for member in self.campaign["members"]]
        return "campaign:" + "+".join(families)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def replace(self, **overrides: Any) -> "ScenarioConfig":
        """Return a copy with the given fields replaced (validated again)."""
        unknown = set(overrides) - {f for f in self.__dataclass_fields__}
        if unknown:
            raise ConfigurationError(
                f"unknown scenario config fields: {', '.join(sorted(unknown))}"
            )
        return dataclass_replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (``asdict`` already deep-copies every nested spec)."""
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario config fields: {', '.join(sorted(unknown))}"
            )
        if "name" not in data:
            raise ConfigurationError("scenario config is missing the 'name' field")
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("scenario JSON must encode an object")
        return cls.from_dict(data)
