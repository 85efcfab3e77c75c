"""Property-based fuzzing over the scenario configuration space.

The scenario layer is a grid of independent knobs — sampler family,
adversary family or campaign roster, knowledge model, set system, sharding,
fault plan, decision cadence — and most of the engine's correctness
arguments are
*invariants over that whole grid*, not facts about individual registered
scenarios.  This module samples random valid :class:`ScenarioConfig` points
and checks four such invariants on each:

``bit_reproducibility``
    Two runs of the same config produce byte-identical results
    (``to_dict(include_timing=False)``): all randomness flows from the seed.
``budget_monotonicity``
    ``attacked_peak_discrepancy`` is monotone non-decreasing in the attack
    budget for a fixed seed (budget-independent attack prefixes plus
    budget-independent checkpoint schedules).
``chunking_independence``
    The default segmentation equals ``chunk_size=1`` (one-element segments
    through the same game loop) bit-for-bit, for sampler kernels that are
    chunk-invariant and deterministic routing.
``sharded_agreement``
    A sharded deployment equals per-site standalone samplers fed the same
    routed substreams — per-site states and the merged coordinator view —
    reconstructed through twin generators.

Two front doors sample the space through one statement of the choice
rules (``_draw_choices``, over a ``pick`` and a ``coin`` primitive):
:func:`random_choices` backs them with a plain numpy generator (used by
``repro-experiments scenario fuzz`` so the CLI has no optional
dependencies), and :func:`choices_strategy` with Hypothesis for the
property-based test suite (``tests/test_scenario_fuzz.py``).  Hypothesis
is imported lazily, only inside :func:`choices_strategy`.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from ..adversary.game import KNOWLEDGE_MODELS
from ..distributed.sharded import ShardedSampler, build_sharding_strategy
from ..rng import ensure_generator, spawn_generators
from .builders import MERGEABLE_SAMPLER_FAMILIES, SamplerFromSpec
from .config import ScenarioConfig
from .engine import ScenarioResult, run_config

__all__ = [
    "ADVERSARY_POOL",
    "CAMPAIGN_POOL",
    "CHUNK_IDENTICAL_SAMPLER_FAMILIES",
    "DEFENSE_POOL",
    "DETERMINISTIC_ROUTING_STRATEGIES",
    "EXACT_MERGE_FAMILIES",
    "FAULT_POOL",
    "FuzzChoices",
    "FuzzReport",
    "INVARIANTS",
    "InvariantResult",
    "SAMPLER_POOL",
    "SERVICE_POOL",
    "build_fuzz_config",
    "check_invariants",
    "choices_strategy",
    "fuzz",
    "random_choices",
]


# ----------------------------------------------------------------------
# Choice pools
# ----------------------------------------------------------------------
#: Sampler specs the fuzzer draws from, keyed by pool name.  Capacities are
#: small relative to the fuzz stream lengths so eviction paths get exercised.
SAMPLER_POOL: dict[str, dict[str, Any]] = {
    "bernoulli": {"family": "bernoulli", "probability": 0.2},
    "reservoir": {"family": "reservoir", "capacity": 12},
    "sliding_window": {"family": "sliding_window", "capacity": 8, "window": 48},
    "weighted_reservoir": {"family": "weighted_reservoir", "capacity": 12},
}

#: Solo adversary specs.  ``sorted`` (exhausts when the stream outgrows the
#: universe), ``bisection`` (float streams need a continuous set system) and
#: ``figure3`` (wants sampler-matched parameters) are deliberately absent:
#: they constrain other knobs and the registered scenarios already pin them.
ADVERSARY_POOL: dict[str, dict[str, Any]] = {
    "uniform": {"family": "uniform"},
    "zipf": {"family": "zipf", "exponent": 1.3},
    "greedy_density": {
        "family": "greedy_density",
        "target": {"kind": "prefix", "bound_fraction": 0.5},
    },
    "eviction_chaser": {
        "family": "eviction_chaser",
        "target": {"kind": "prefix", "bound_fraction": 0.5},
        "reservoir_size": 12,
    },
    "median_attack": {"family": "median_attack"},
    "switching_singleton": {"family": "switching_singleton"},
}

#: Campaign blocks covering both modes, two- and three-member rosters, and
#: mixed oblivious/cadenced phases.  Phased starts are chosen so the phase
#: boundaries stay distinct at every fuzz stream length.
CAMPAIGN_POOL: dict[str, dict[str, Any]] = {
    "phased_spam_poison": {
        "mode": "phased",
        "members": [
            {"label": "spam", "adversary": {"family": "zipf", "exponent": 1.5}},
            {
                "label": "poison",
                "start": 0.5,
                "adversary": {
                    "family": "greedy_density",
                    "target": {"kind": "prefix", "bound_fraction": 0.5},
                },
            },
        ],
    },
    "phased_probe_strike": {
        "mode": "phased",
        "members": [
            {"label": "probe", "adversary": {"family": "median_attack"}},
            {
                "label": "strike",
                "start": 0.4,
                "adversary": {
                    "family": "greedy_density",
                    "target": {"kind": "prefix", "bound_fraction": 0.5},
                },
            },
        ],
    },
    "phased_three_act": {
        "mode": "phased",
        "members": [
            {"label": "noise", "adversary": {"family": "uniform"}},
            {
                "label": "skew",
                "start": 0.3,
                "adversary": {"family": "zipf", "exponent": 1.5},
            },
            {
                "label": "strike",
                "start": 0.7,
                "adversary": {
                    "family": "greedy_density",
                    "target": {"kind": "prefix", "bound_fraction": 0.5},
                },
            },
        ],
    },
    "interleaved_pair": {
        "mode": "interleaved",
        "stride": 8,
        "members": [
            {
                "label": "striker",
                "adversary": {
                    "family": "greedy_density",
                    "target": {"kind": "prefix", "bound_fraction": 0.5},
                },
            },
            {"label": "noise", "adversary": {"family": "uniform"}},
        ],
    },
}

#: Defense blocks the fuzzer layers over the sampler axis.  Two copies keep
#: the fuzz configs cheap; the difference estimator is gated to
#: sliding-window samplers (see :class:`FuzzChoices`).  The invariants must
#: hold for defended configs exactly as for undefended ones: the wrappers'
#: serving policies are pure functions of exposure history and round count,
#: so they preserve bit-reproducibility, budget monotonicity, chunking
#: independence and sharded agreement by construction — this pool is what
#: continuously checks that claim.
DEFENSE_POOL: dict[str, dict[str, Any]] = {
    "oversample": {"kind": "oversample", "factor": 2},
    "sketch_switching": {"kind": "sketch_switching", "copies": 2},
    "dp_aggregate": {"kind": "dp_aggregate", "copies": 2},
    "difference_estimator": {"kind": "difference_estimator", "copies": 2},
}

#: Fault blocks the fuzzer layers over sharded deployments (PR 8).  All
#: rounds are stream fractions so every fuzz stream length gets the same
#: relative timeline; crash/merge site indices stay below the smallest
#: ``_SITE_CHOICES`` entry so every sharded draw is valid.  Fault plans are
#: functions of the stream length alone — never of the budget or the chunk
#: size — so the invariants below must keep holding for faulted configs.
FAULT_POOL: dict[str, dict[str, Any]] = {
    "crash_drop": {
        "crashes": [
            {
                "site": 0,
                "round_fraction": 0.3,
                "recovery_fraction": 0.25,
                "loss": "drop",
            }
        ]
    },
    "crash_replay": {
        "crashes": [
            {
                "site": 1,
                "round_fraction": 0.4,
                "recovery_fraction": 0.2,
                "loss": "replay",
            }
        ]
    },
    "stale_cache": {
        "stale_windows": [{"round_fraction": 0.5, "duration_fraction": 0.2}]
    },
    "split_then_merge": {
        "reshards": [
            {"round_fraction": 0.4, "op": "split", "site": 0},
            {"round_fraction": 0.7, "op": "merge", "site": 0, "other": 1},
        ]
    },
}

#: Service blocks the fuzzer layers over any config (PR 9): the always-on
#: query-service facade with its three knobs — snapshot staleness bound,
#: background client count and query cadence.  The background read schedule
#: is a pure function of the round index (never of the budget or the chunk
#: size), so all four invariants below must keep holding for serviced
#: configs — including exposure-tracked defended ones, where background
#: reads genuinely advance the defense's serving state.
SERVICE_POOL: dict[str, dict[str, Any]] = {
    "fresh_reads": {"staleness_rounds": 0, "clients": 2, "query_period": 8},
    "stale_snapshots": {"staleness_rounds": 24, "clients": 1, "query_period": 8},
    "query_storm": {"staleness_rounds": 8, "clients": 4, "query_period": 4},
}

#: Sampler families whose batched kernels are bit-identical to per-element
#: processing (the reservoir batch kernel draws its coins in a different,
#: equally distributed order, so it is excluded).
CHUNK_IDENTICAL_SAMPLER_FAMILIES = ("bernoulli", "sliding_window", "weighted_reservoir")

#: Routing strategies that assign sites identically on the batched and
#: per-element paths (random/skewed draw batched coins, so chunking changes
#: the realisation).
DETERMINISTIC_ROUTING_STRATEGIES = ("hash", "round_robin")

#: Mergeable families whose coordinator merge is exact (deterministic given
#: the merge generator's state); the reservoir coordinator redraws
#: hypergeometrically, so its merged view is checked per-site only.
EXACT_MERGE_FAMILIES = ("bernoulli", "sliding_window")

#: Invariant names, in reporting order.
INVARIANTS = (
    "bit_reproducibility",
    "budget_monotonicity",
    "chunking_independence",
    "sharded_agreement",
)

_SITE_CHOICES = (2, 3, 4)
_STRATEGY_CHOICES = ("random", "hash", "round_robin", "skewed")
_STREAM_CHOICES = (64, 96, 128, 160)
_UNIVERSE_CHOICES = (16, 32, 48)
_SET_SYSTEM_CHOICES = ("prefix", "interval")
_PERIOD_CHOICES = (None, 4, 8)
_BUDGET_TOLERANCE = 1e-12


# ----------------------------------------------------------------------
# Choices
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzChoices:
    """One sampled point of the scenario knob space (pool keys, not specs).

    ``adversary`` and ``campaign`` are mutually exclusive (exactly one is
    set); ``sites``/``strategy`` are ``None`` for unsharded configs and only
    valid for mergeable sampler families.  :func:`build_fuzz_config` turns a
    ``FuzzChoices`` into a runnable :class:`ScenarioConfig`.
    """

    stream_length: int
    universe_size: int
    knowledge: str
    set_system: str
    sampler: str
    sites: int | None
    strategy: str | None
    adversary: str | None
    campaign: str | None
    decision_period: int | None
    seed: int
    #: Defense pool key, or ``None`` for an undefended config.
    defense: str | None = None
    #: Fault pool key, or ``None``; only valid for sharded configs.
    faults: str | None = None
    #: Service pool key, or ``None`` to observe the sampler directly; valid
    #: for every config (the facade is sampler-agnostic).
    service: str | None = None

    def __post_init__(self) -> None:
        if (self.adversary is None) == (self.campaign is None):
            raise ValueError("exactly one of 'adversary' and 'campaign' must be set")
        if self.sites is not None:
            family = SAMPLER_POOL[self.sampler]["family"]
            if family not in MERGEABLE_SAMPLER_FAMILIES:
                raise ValueError(f"sampler {self.sampler!r} cannot be sharded")
        if self.faults is not None and self.sites is None:
            raise ValueError("a fault plan requires a sharded config")
        if self.defense is not None:
            family = SAMPLER_POOL[self.sampler]["family"]
            if (
                self.defense == "difference_estimator"
                and family != "sliding_window"
            ):
                raise ValueError(
                    "the difference estimator only defends sliding-window samplers"
                )


def _draw_choices(
    pick: Callable[[Sequence[Any]], Any], coin: Callable[[float], bool], seed: int
) -> FuzzChoices:
    """The choice rules, stated once: ``pick(options)`` draws one option and
    ``coin(p)`` a flip that comes up ``True`` with probability ``p``.  A knob
    that needs another (strategy and faults need sites) is drawn only once
    that one is set."""
    sampler = pick(sorted(SAMPLER_POOL))
    campaign = pick(sorted(CAMPAIGN_POOL)) if coin(0.4) else None
    adversary = None if campaign is not None else pick(sorted(ADVERSARY_POOL))
    family = SAMPLER_POOL[sampler]["family"]
    sites = pick(_SITE_CHOICES) if family in MERGEABLE_SAMPLER_FAMILIES and coin(0.5) else None
    strategy = pick(_STRATEGY_CHOICES) if sites is not None else None
    period = pick(_PERIOD_CHOICES)
    # The difference estimator defends sliding windows only (see FuzzChoices).
    defenses = [
        key
        for key in sorted(DEFENSE_POOL)
        if key != "difference_estimator" or family == "sliding_window"
    ]
    defense = pick(defenses) if coin(0.35) else None
    faults = pick(sorted(FAULT_POOL)) if sites is not None and coin(0.3) else None
    service = pick(sorted(SERVICE_POOL)) if coin(0.3) else None
    return FuzzChoices(
        stream_length=pick(_STREAM_CHOICES),
        universe_size=pick(_UNIVERSE_CHOICES),
        knowledge=pick(KNOWLEDGE_MODELS),
        set_system=pick(_SET_SYSTEM_CHOICES),
        sampler=sampler,
        sites=sites,
        strategy=strategy,
        adversary=adversary,
        campaign=campaign,
        decision_period=period,
        seed=seed,
        defense=defense,
        faults=faults,
        service=service,
    )


def random_choices(rng: Any, seed: int = 0) -> FuzzChoices:
    """Draw one valid :class:`FuzzChoices` from a numpy generator.

    ``seed`` becomes the config seed verbatim — callers iterate it to make
    every drawn config distinct even when the categorical draws collide.
    """
    rng = ensure_generator(rng)
    return _draw_choices(
        lambda options: options[int(rng.integers(len(options)))],
        lambda p: bool(rng.random() < p),
        int(seed),
    )


def choices_strategy() -> Any:
    """A Hypothesis strategy over valid :class:`FuzzChoices`: the same rules
    with Hypothesis choosing every option and flip (each flip's side is left
    to Hypothesis, whatever its probability in :func:`random_choices`).

    Hypothesis is imported here, not at module level, so the fuzzing CLI
    (which uses :func:`random_choices`) works without it installed.
    """
    import hypothesis.strategies as st

    @st.composite
    def choices(draw: Any) -> FuzzChoices:
        return _draw_choices(
            lambda options: draw(st.sampled_from(options)),
            lambda _p: draw(st.booleans()),
            draw(st.integers(min_value=0, max_value=2**20)),
        )

    return choices()


def build_fuzz_config(choices: FuzzChoices) -> ScenarioConfig:
    """Compile a :class:`FuzzChoices` into a runnable single-trial config."""
    sharding = (
        None
        if choices.sites is None
        else {"sites": choices.sites, "strategy": choices.strategy}
    )
    kwargs: dict[str, Any] = {}
    if choices.campaign is not None:
        kwargs["campaign"] = copy.deepcopy(CAMPAIGN_POOL[choices.campaign])
    else:
        kwargs["adversary"] = copy.deepcopy(ADVERSARY_POOL[choices.adversary])
    return ScenarioConfig(
        name="fuzz",
        description="property-based fuzz point",
        stream_length=choices.stream_length,
        universe_size=choices.universe_size,
        epsilon=0.25,
        trials=1,
        seed=choices.seed,
        knowledge=choices.knowledge,
        decision_period=choices.decision_period,
        samplers={choices.sampler: copy.deepcopy(SAMPLER_POOL[choices.sampler])},
        set_system={"kind": choices.set_system},
        sharding=sharding,
        defense=(
            None
            if choices.defense is None
            else copy.deepcopy(DEFENSE_POOL[choices.defense])
        ),
        faults=(
            None
            if choices.faults is None
            else copy.deepcopy(FAULT_POOL[choices.faults])
        ),
        service=(
            None
            if choices.service is None
            else copy.deepcopy(SERVICE_POOL[choices.service])
        ),
        **kwargs,
    )


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant on one config: passed, failed, or skipped
    (with ``detail`` naming the gate or the observed disagreement)."""

    name: str
    status: str
    detail: str = ""


def _result(name: str, passed: bool, detail: str = "") -> InvariantResult:
    return InvariantResult(name, "passed" if passed else "failed", detail if not passed else "")


def _skip(name: str, detail: str) -> InvariantResult:
    return InvariantResult(name, "skipped", detail)


def _comparable(result: ScenarioResult) -> dict[str, Any]:
    data = result.to_dict(include_timing=False)
    # chunk_size is an execution knob, not an outcome; drop it so the
    # chunking invariant can compare runs that differ only in it.
    data["config"].pop("chunk_size", None)
    return data


def _bit_reproducibility(config: ScenarioConfig, base: ScenarioResult) -> InvariantResult:
    rerun = run_config(config)
    same = _comparable(rerun) == _comparable(base)
    return _result("bit_reproducibility", same, "re-run produced a different result")


def _budget_monotonicity(config: ScenarioConfig, base: ScenarioResult) -> InvariantResult:
    name = "budget_monotonicity"
    lower = run_config(config.replace(attack_budget=config.attack_budget / 2.0))
    low = lower.attacked_peak_discrepancy
    high = base.attacked_peak_discrepancy
    if low is None or high is None:
        return _skip(name, "attacked peak undefined at one budget")
    return _result(
        name,
        low <= high + _BUDGET_TOLERANCE,
        f"attacked peak decreased with budget: {low} at "
        f"{config.attack_budget / 2.0} vs {high} at {config.attack_budget}",
    )


def _chunking_independence(config: ScenarioConfig, base: ScenarioResult) -> InvariantResult:
    name = "chunking_independence"
    family = next(iter(config.samplers.values()))["family"]
    if family not in CHUNK_IDENTICAL_SAMPLER_FAMILIES:
        return _skip(name, f"sampler family {family!r} has no bit-identical batch kernel")
    if config.sharding is not None:
        strategy = config.sharding.get("strategy")
        if strategy not in DETERMINISTIC_ROUTING_STRATEGIES:
            return _skip(name, f"routing strategy {strategy!r} draws batched coins")
    one_element = run_config(config.replace(chunk_size=1))
    same = _comparable(one_element) == _comparable(base)
    return _result(name, same, "chunk_size=1 produced a different result")


def _sharded_agreement(config: ScenarioConfig) -> InvariantResult:
    """Replay the sharded deployment against twin standalone sites.

    Twin-generator trick: ``ensure_generator`` of the same integer seed
    yields identical states, so spawning ``sites + 2`` children reproduces
    the deployment's internal route/merge/site generators exactly.  Feeding
    the whole synthetic stream in one ``extend`` call makes the comparison
    exact for *every* strategy (the batched routing coins are drawn once,
    identically, on both sides).
    """
    name = "sharded_agreement"
    if config.sharding is None:
        return _skip(name, "config is unsharded")
    if config.faults is not None:
        # The twin reconstruction models routing + merging only; crashes,
        # replay buffers and reshards live in the deployment layer.  The
        # fault semantics have their own suite (tests/test_faults.py).
        return _skip(name, "faulted deployments have no standalone twin")
    spec = dict(next(iter(config.samplers.values())))
    family = spec["family"]
    sites = config.sharding["sites"]
    strategy_spec = config.sharding.get("strategy")
    seed = config.seed + 104729
    stream = [
        int(value)
        for value in np.random.default_rng(config.seed + 1).integers(
            1, config.universe_size + 1, size=config.stream_length
        )
    ]

    # Defense composes inside sharding (each site is independently
    # defended), so the twin sites are built through the same defended
    # factory the deployment uses.
    site_factory = SamplerFromSpec(spec, defense=config.defense)
    sharded = ShardedSampler(sites, site_factory, strategy=strategy_spec, seed=seed)
    twin = ensure_generator(seed)
    route_rng, merge_rng, *site_rngs = spawn_generators(twin, sites + 2)
    assignment = build_sharding_strategy(strategy_spec).assign(
        stream, 1, sites, route_rng
    )
    sharded.extend(stream, updates=False)

    standalone = [site_factory(site_rng) for site_rng in site_rngs]
    for index, site_sampler in enumerate(standalone):
        substream = [stream[int(pos)] for pos in np.flatnonzero(assignment == index)]
        if substream:
            site_sampler.extend(substream, updates=False)

    for index in range(sites):
        if tuple(sharded.site_sample(index)) != tuple(standalone[index].sample):
            return _result(name, False, f"site {index} diverged from its standalone twin")
    if family not in EXACT_MERGE_FAMILIES:
        return _result(
            "sharded_agreement", True, ""
        )  # per-site agreement only; merge is randomised
    primary, rest = standalone[0], standalone[1:]
    if getattr(primary, "merge_wants_offsets", False):
        offsets = [len(stream) - site.rounds_processed for site in standalone]
        reference = primary.merge(rest, rng=merge_rng, offsets=offsets)
    else:
        reference = primary.merge(rest, rng=merge_rng)
    # Check the view games read before calling merged_sampler(): these
    # families have no merged_sample, so the read caches the full merge and
    # merged_sampler() returns that same sampler.
    served = tuple(sharded.sample)
    expected = tuple(reference.sample)
    if served != expected:
        return _result(name, False, "served coordinator sample diverged from reference merge")
    same = expected == tuple(sharded.merged_sampler().sample)
    return _result(name, same, "merged coordinator view diverged from reference merge")


def check_invariants(config: ScenarioConfig) -> list[InvariantResult]:
    """Check all four registry-wide invariants on one config.

    The base run is shared: reproducibility re-runs it, monotonicity
    compares a half-budget run against it, chunking compares a
    ``chunk_size=1`` run against it; sharded agreement replays the
    deployment directly against standalone twins.
    """
    base = run_config(config)
    return [
        _bit_reproducibility(config, base),
        _budget_monotonicity(config, base),
        _chunking_independence(config, base),
        _sharded_agreement(config),
    ]


# ----------------------------------------------------------------------
# Batch fuzzing (the CLI entry point)
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzzing batch."""

    examples: int
    distinct_configs: int
    #: Per-invariant counters: ``{invariant: {"passed": n, "failed": n,
    #: "skipped": n}}``.
    invariants: dict[str, dict[str, int]] = field(default_factory=dict)
    #: One record per failed check: the choices, the invariant and its detail.
    failures: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "examples": self.examples,
            "distinct_configs": self.distinct_configs,
            "invariants": copy.deepcopy(self.invariants),
            "failures": copy.deepcopy(self.failures),
            "ok": self.ok,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"fuzzed {self.examples} configs ({self.distinct_configs} distinct): "
            + ("all invariants held" if self.ok else f"{len(self.failures)} failure(s)")
        ]
        for invariant in INVARIANTS:
            counts = self.invariants.get(invariant, {})
            lines.append(
                f"  {invariant}: {counts.get('passed', 0)} passed, "
                f"{counts.get('failed', 0)} failed, {counts.get('skipped', 0)} skipped"
            )
        for failure in self.failures:
            lines.append(
                f"  FAILED {failure['invariant']} on seed {failure['choices']['seed']}: "
                f"{failure['detail']}"
            )
        return "\n".join(lines)


def fuzz(count: int, seed: int = 0) -> FuzzReport:
    """Draw ``count`` random configs and check every invariant on each.

    The categorical knobs are drawn from one generator seeded with ``seed``;
    the ``index``-th config gets seed ``seed + index``, so all ``count``
    configs are pairwise distinct by construction (distinctness is still
    measured, over the serialised configs, and reported).
    """
    rng = np.random.default_rng(seed)
    report = FuzzReport(examples=0, distinct_configs=0)
    report.invariants = {
        invariant: {"passed": 0, "failed": 0, "skipped": 0} for invariant in INVARIANTS
    }
    seen: set[str] = set()
    for index in range(count):
        choices = random_choices(rng, seed=seed + index)
        config = build_fuzz_config(choices)
        seen.add(config.to_json(indent=None))
        for outcome in check_invariants(config):
            report.invariants[outcome.name][outcome.status] += 1
            if outcome.status == "failed":
                report.failures.append(
                    {
                        "choices": asdict(choices),
                        "invariant": outcome.name,
                        "detail": outcome.detail,
                    }
                )
        report.examples += 1
    report.distinct_configs = len(seen)
    return report
