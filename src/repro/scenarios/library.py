"""The built-in attack scenarios.

Each scenario is a declarative :class:`~repro.scenarios.config.ScenarioConfig`
registered under a stable name; ``run_scenario(name, **overrides)`` runs any
of them.  They cover the attack surface the paper maps out — prefix
flooding, adaptive bisection, eviction chasing, heavy-hitter spoofing,
quantile shifting — and the deployment shapes of Section 1.2 (sliding
windows, distributed sites), with a static baseline for contrast.  All of them execute through
:class:`~repro.adversary.batch.BatchGameRunner`, so worker pools and
scheduling-independent seeding apply uniformly.

Scale notes: the default configs are sized for interactive CLI use (a few
seconds each); the scenario test suite re-runs every entry at a much smaller
scale via ``run_scenario(name, stream_length=..., ...)`` overrides.
"""

from __future__ import annotations

from .config import ScenarioConfig
from .registry import Scenario, register_scenario

_UNIVERSE = 256
_STREAM = 2048


register_scenario(
    Scenario(
        name="prefix_flood",
        description=(
            "Greedy density-gap adversary floods a target prefix so the "
            "maintained sample misstates its mass (the moderate-universe "
            "analogue of the Figure-3 attack)."
        ),
        base_config=ScenarioConfig(
            name="prefix_flood",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            samplers={
                "bernoulli-0.1": {"family": "bernoulli", "probability": 0.1},
                "reservoir-32": {"family": "reservoir", "capacity": 32},
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            set_system={"kind": "prefix"},
        ),
    )
)

register_scenario(
    Scenario(
        name="bisection_probe",
        description=(
            "The introduction's bisection attack on [0, 1]: every stored "
            "element ends up below every unstored one, so the worst prefix "
            "is maximally misrepresented despite the infinite-VC universe."
        ),
        base_config=ScenarioConfig(
            name="bisection_probe",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            samplers={
                "bernoulli-0.05": {"family": "bernoulli", "probability": 0.05},
                "reservoir-24": {"family": "reservoir", "capacity": 24},
            },
            adversary={"family": "bisection", "low": 0.0, "high": 1.0},
            benign={"kind": "uniform_float", "low": 0.0, "high": 1.0},
            set_system={"kind": "continuous_prefix", "low": 0.0, "high": 1.0},
        ),
    )
)

register_scenario(
    Scenario(
        name="reservoir_eviction",
        description=(
            "Eviction-chaser adversary exploits the reservoir's visible "
            "acceptance schedule to starve a target prefix of "
            "representation."
        ),
        base_config=ScenarioConfig(
            name="reservoir_eviction",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            samplers={"reservoir-32": {"family": "reservoir", "capacity": 32}},
            adversary={
                "family": "eviction_chaser",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
                "reservoir_size": 32,
            },
            set_system={"kind": "prefix"},
        ),
    )
)

register_scenario(
    Scenario(
        name="heavy_hitter_spoof",
        description=(
            "Switching-singleton adversary manufactures a false heavy "
            "hitter by abandoning every value the sampler stores; runs "
            "under the update-only knowledge model."
        ),
        base_config=ScenarioConfig(
            name="heavy_hitter_spoof",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            knowledge="updates",
            samplers={
                "reservoir-48": {"family": "reservoir", "capacity": 48},
                "bernoulli-0.1": {"family": "bernoulli", "probability": 0.1},
            },
            adversary={"family": "switching_singleton"},
            set_system={"kind": "singleton"},
        ),
    )
)

register_scenario(
    Scenario(
        name="quantile_shift",
        description=(
            "Discrete median attack walks the stream's quantiles away from "
            "what the maintained sample reports (Corollary 1.5's failure "
            "mode for under-sized samples)."
        ),
        base_config=ScenarioConfig(
            name="quantile_shift",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            samplers={
                "reservoir-32": {"family": "reservoir", "capacity": 32},
                "bernoulli-0.1": {"family": "bernoulli", "probability": 0.1},
            },
            adversary={"family": "median_attack"},
            set_system={"kind": "prefix"},
        ),
    )
)

register_scenario(
    Scenario(
        name="sliding_window_burst",
        description=(
            "Burst attack against a sliding-window sampler: a flooded "
            "narrow interval dominates the window while the full-stream "
            "densities say otherwise."
        ),
        base_config=ScenarioConfig(
            name="sliding_window_burst",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            samplers={
                "window-32/256": {
                    "family": "sliding_window",
                    "capacity": 32,
                    "window": 256,
                }
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "interval", "low": 1, "high_fraction": 0.125},
            },
            set_system={"kind": "interval"},
        ),
    )
)

register_scenario(
    Scenario(
        name="distributed_skew",
        description=(
            "Adaptive prefix skew against a 4-site randomly routed "
            "reservoir deployment: the adversary only ever observes the "
            "coordinator's merged sample, as a real probing client would."
        ),
        base_config=ScenarioConfig(
            name="distributed_skew",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={"distributed-4x32": {"family": "reservoir", "capacity": 32}},
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            set_system={"kind": "prefix"},
            sharding={"sites": 4, "strategy": "random"},
        ),
    )
)

register_scenario(
    Scenario(
        name="shard_hotspot",
        description=(
            "Greedy prefix flood against a 4-site sharded reservoir behind "
            "adversarially skewed routing: one hotspot site absorbs ~85% of "
            "the traffic, so the merged [CTW16]-style coordinator sample is "
            "dominated by a single shard's local reservoir."
        ),
        base_config=ScenarioConfig(
            name="shard_hotspot",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={
                "sharded-reservoir-4x32": {"family": "reservoir", "capacity": 32}
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            set_system={"kind": "prefix"},
            sharding={
                "sites": 4,
                "strategy": {"kind": "skewed", "hot_fraction": 0.85},
            },
        ),
    )
)

register_scenario(
    Scenario(
        name="cross_shard_skew",
        description=(
            "Greedy interval flood under value-affinity (hash) routing: the "
            "flooded values always land on the same shard, so the attack "
            "concentrates on one site's reservoir while the merged view is "
            "judged against the global stream."
        ),
        base_config=ScenarioConfig(
            name="cross_shard_skew",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={
                "sharded-reservoir-4x32": {"family": "reservoir", "capacity": 32}
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "interval", "low": 1, "high_fraction": 0.25},
            },
            set_system={"kind": "interval"},
            sharding={"sites": 4, "strategy": "hash"},
        ),
    )
)

register_scenario(
    Scenario(
        name="sharded_heavy_hitter_spoof",
        description=(
            "The switching-singleton heavy-hitter spoof replayed against a "
            "4-site sharded reservoir under the update-only knowledge model "
            "— the probing client sees merged acceptances, never which site "
            "stored its element."
        ),
        base_config=ScenarioConfig(
            name="sharded_heavy_hitter_spoof",
            stream_length=1024,
            universe_size=_UNIVERSE,
            knowledge="updates",
            samplers={
                "sharded-reservoir-4x48": {"family": "reservoir", "capacity": 48}
            },
            adversary={"family": "switching_singleton"},
            set_system={"kind": "singleton"},
            sharding={"sites": 4, "strategy": "random"},
        ),
    )
)

register_scenario(
    Scenario(
        name="sharded_prefix_flood",
        description=(
            "The prefix_flood scenario run as a sharded deployment (the "
            "`sharding` block applied to the same sampler grid): 4 sites, "
            "random routing, the adversary probing the merged sample."
        ),
        base_config=ScenarioConfig(
            name="sharded_prefix_flood",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={
                "bernoulli-0.1": {"family": "bernoulli", "probability": 0.1},
                "reservoir-32": {"family": "reservoir", "capacity": 32},
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            set_system={"kind": "prefix"},
            sharding={"sites": 4, "strategy": "random"},
        ),
    )
)

register_scenario(
    Scenario(
        name="sharded_sliding_window_burst",
        description=(
            "The sliding-window burst attack against sharded per-site "
            "windows: each site keeps a recency window of its own substream "
            "and the merged sample is the k smallest priorities among all "
            "live candidates."
        ),
        base_config=ScenarioConfig(
            name="sharded_sliding_window_burst",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={
                "window-32/256": {
                    "family": "sliding_window",
                    "capacity": 32,
                    "window": 256,
                }
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "interval", "low": 1, "high_fraction": 0.125},
            },
            set_system={"kind": "interval"},
            sharding={"sites": 4, "strategy": "random"},
        ),
    )
)

register_scenario(
    Scenario(
        name="reactive_prefix_flood",
        description=(
            "The greedy prefix flood at a declared reaction cadence: the "
            "adversary re-reads the sample once every 16 rounds and commits "
            "whole decision blocks in between, so the chunked engine "
            "accelerates the attack instead of falling back to per-element "
            "play.  The cadence divides every budget grid point's attack "
            "window, keeping segmentation — and hence budget monotonicity — "
            "identical across budgets."
        ),
        base_config=ScenarioConfig(
            name="reactive_prefix_flood",
            stream_length=4096,
            universe_size=_UNIVERSE,
            decision_period=16,
            samplers={
                "bernoulli-0.1": {"family": "bernoulli", "probability": 0.1},
                "reservoir-32": {"family": "reservoir", "capacity": 32},
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            set_system={"kind": "prefix"},
        ),
    )
)

register_scenario(
    Scenario(
        name="cadence_probe",
        description=(
            "The switching-singleton heavy-hitter probe rate-limited to one "
            "observation per 16 rounds (a prober whose feedback — e.g. a "
            "published top-k report — refreshes on a cadence): each block "
            "floods one target, caught targets are abandoned only at block "
            "boundaries."
        ),
        base_config=ScenarioConfig(
            name="cadence_probe",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            knowledge="updates",
            decision_period=16,
            samplers={
                "reservoir-48": {"family": "reservoir", "capacity": 48},
                "bernoulli-0.1": {"family": "bernoulli", "probability": 0.1},
            },
            adversary={"family": "switching_singleton"},
            set_system={"kind": "singleton"},
        ),
    )
)

register_scenario(
    Scenario(
        name="sharded_reactive_skew",
        description=(
            "Cadence-limited greedy interval flood against a 4-site sharded "
            "reservoir behind skewed (hotspot) routing: the adversary probes "
            "the merged coordinator view once every 16 rounds — each probe a "
            "fresh coordinator merge — and floods whole blocks in between."
        ),
        base_config=ScenarioConfig(
            name="sharded_reactive_skew",
            stream_length=1024,
            universe_size=_UNIVERSE,
            decision_period=16,
            samplers={
                "sharded-reservoir-4x32": {"family": "reservoir", "capacity": 32}
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "interval", "low": 1, "high_fraction": 0.25},
            },
            set_system={"kind": "interval"},
            sharding={
                "sites": 4,
                "strategy": {"kind": "skewed", "hot_fraction": 0.85},
            },
        ),
    )
)

register_scenario(
    Scenario(
        name="spam_then_poison",
        description=(
            "Phased campaign: a Zipf spammer floods the first half of the "
            "stream (filling the sample with heavy-hitter mass), then a "
            "greedy density-gap poisoner takes over and drives the target "
            "prefix's misrepresentation from the spam-shaped sample."
        ),
        base_config=ScenarioConfig(
            name="spam_then_poison",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            samplers={
                "bernoulli-0.1": {"family": "bernoulli", "probability": 0.1},
                "reservoir-32": {"family": "reservoir", "capacity": 32},
            },
            campaign={
                "mode": "phased",
                "members": [
                    {
                        "label": "spam",
                        "start": 0.0,
                        "adversary": {"family": "zipf", "exponent": 1.5},
                    },
                    {
                        "label": "poison",
                        "start": 0.5,
                        "adversary": {
                            "family": "greedy_density",
                            "target": {"kind": "prefix", "bound_fraction": 0.25},
                        },
                    },
                ],
            },
            set_system={"kind": "prefix"},
        ),
    )
)

register_scenario(
    Scenario(
        name="probe_then_strike",
        description=(
            "Phased campaign: the discrete median attack probes the "
            "sampler's quantile behaviour for the opening 40% of the "
            "stream, then a greedy density-gap strike exploits the probed "
            "state against a wide prefix target."
        ),
        base_config=ScenarioConfig(
            name="probe_then_strike",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            samplers={
                "reservoir-32": {"family": "reservoir", "capacity": 32},
                "bernoulli-0.1": {"family": "bernoulli", "probability": 0.1},
            },
            campaign={
                "mode": "phased",
                "members": [
                    {
                        "label": "probe",
                        "start": 0.0,
                        "adversary": {"family": "median_attack"},
                    },
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
            set_system={"kind": "prefix"},
        ),
    )
)

register_scenario(
    Scenario(
        name="colluding_split_budget",
        description=(
            "Interleaved campaign against a 4-site sharded reservoir under "
            "value-affinity (hash) routing: two greedy density-gap "
            "adversaries split the round budget in 16-round slots, one "
            "flooding the low band, the other the high band, so the attack "
            "pressure lands on different shards while the merged "
            "coordinator view is judged against the combined stream."
        ),
        base_config=ScenarioConfig(
            name="colluding_split_budget",
            stream_length=1024,
            universe_size=_UNIVERSE,
            decision_period=8,
            samplers={
                "sharded-reservoir-4x32": {"family": "reservoir", "capacity": 32}
            },
            campaign={
                "mode": "interleaved",
                "stride": 16,
                "members": [
                    {
                        "label": "low-band",
                        "adversary": {
                            "family": "greedy_density",
                            "target": {
                                "kind": "interval",
                                "low": 1,
                                "high_fraction": 0.25,
                            },
                        },
                    },
                    {
                        "label": "high-band",
                        "adversary": {
                            "family": "greedy_density",
                            "target": {
                                "kind": "interval",
                                "low_fraction": 0.75,
                                "high_fraction": 1.0,
                                "out_element": 1,
                            },
                        },
                    },
                ],
            },
            set_system={"kind": "interval"},
            sharding={"sites": 4, "strategy": "hash"},
        ),
    )
)

register_scenario(
    Scenario(
        name="static_baseline",
        description=(
            "Oblivious uniform stream — the static setting in which "
            "VC-sized samples suffice; the control against which every "
            "attack scenario is compared."
        ),
        base_config=ScenarioConfig(
            name="static_baseline",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            knowledge="oblivious",
            samplers={
                "bernoulli-0.1": {"family": "bernoulli", "probability": 0.1},
                "reservoir-32": {"family": "reservoir", "capacity": 32},
            },
            adversary={"family": "uniform"},
            set_system={"kind": "prefix"},
        ),
        # The attack and the benign filler are the same uniform draw from the
        # same generator, so the budget knob cannot change the stream; the
        # grid just documents (and the suite verifies) that invariance.
        budget_grid=(0.0, 1.0),
    )
)

register_scenario(
    Scenario(
        name="oversample_defense",
        description=(
            "The prefix flood replayed against a Theorem-1.2-oversampled "
            "reservoir: the same adversary, a sample sized for ln|R| "
            "instead of VC, and the violations disappear.  Expressed "
            "through the defense axis (factor-4 oversampling of a VC-sized "
            "reservoir resolves to the same capacity-192 sampler)."
        ),
        base_config=ScenarioConfig(
            name="oversample_defense",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            samplers={"reservoir-192": {"family": "reservoir", "capacity": 48}},
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            set_system={"kind": "prefix"},
            defense={"kind": "oversample", "factor": 4},
        ),
    )
)

# ----------------------------------------------------------------------
# Replication defenses at matched total space (PR 7).  All three are
# endpoint games: ``attacked_peak_discrepancy`` is the final-state error,
# i.e. the conditioning the adversary accumulated over the whole stream,
# free of the small-sample noise that dominates early-checkpoint peaks.
# ----------------------------------------------------------------------

register_scenario(
    Scenario(
        name="sketch_switching_defense",
        description=(
            "The heavy-hitter spoof against a sketch-switching pair of "
            "half-rate Bernoulli copies [BJWY20]: the switch retires the "
            "copy the spoofer conditioned, flattening the attack's excess "
            "at matched total space."
        ),
        base_config=ScenarioConfig(
            name="sketch_switching_defense",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            continuous=False,
            samplers={"bernoulli-0.2": {"family": "bernoulli", "probability": 0.2}},
            adversary={"family": "switching_singleton"},
            set_system={"kind": "singleton"},
            defense={"kind": "sketch_switching", "copies": 2, "matched_space": True},
        ),
    )
)

register_scenario(
    Scenario(
        name="dp_aggregate_defense",
        description=(
            "The continuous bisection attack against a DP-aggregated pair "
            "of Bernoulli copies [HKMMS20]: round-hashed copy rotation "
            "denies the bisection a consistent view, beating the undefended "
            "sampler outright at matched total space."
        ),
        base_config=ScenarioConfig(
            name="dp_aggregate_defense",
            stream_length=_STREAM,
            universe_size=_UNIVERSE,
            continuous=False,
            samplers={"bernoulli-0.2": {"family": "bernoulli", "probability": 0.2}},
            adversary={"family": "bisection", "low": 0.0, "high": 1.0},
            benign={"kind": "uniform_float", "low": 0.0, "high": 1.0},
            set_system={"kind": "continuous_prefix", "low": 0.0, "high": 1.0},
            defense={"kind": "dp_aggregate", "copies": 2, "matched_space": True},
        ),
    )
)

register_scenario(
    Scenario(
        name="difference_estimator_defense",
        description=(
            "The greedy interval flood against a sliding-window sampler "
            "defended by window-rotation difference estimators [WZ21]: "
            "each copy's conditioning expires with its window, flattening "
            "the attack's excess at matched total space."
        ),
        base_config=ScenarioConfig(
            name="difference_estimator_defense",
            stream_length=2 * _STREAM,
            universe_size=_UNIVERSE,
            continuous=False,
            samplers={
                "sliding-window-48": {
                    "family": "sliding_window",
                    "capacity": 48,
                    "window": 256,
                }
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "interval", "low": 1, "high_fraction": 0.125},
            },
            set_system={"kind": "interval"},
            defense={
                "kind": "difference_estimator",
                "copies": 2,
                "matched_space": True,
            },
        ),
    )
)


# ----------------------------------------------------------------------
# Elastic-deployment fault scenarios (PR 8).  Fault rounds are declared as
# stream fractions so the suite's reduced-scale reruns (and the budget
# grid's fixed stream) keep the same relative timeline.  The fault plan is
# a function of the stream length alone, never of the attack budget, so
# budget monotonicity holds for the same structural reason as elsewhere.
# ----------------------------------------------------------------------

register_scenario(
    Scenario(
        name="recovery_window_strike",
        description=(
            "Greedy prefix flood timed against a crash/recovery window: one "
            "of four hash-routed reservoir sites goes down mid-stream with "
            "replay-buffered ingestion, so the coordinator merges survivors "
            "only while the adversary conditions the degraded view, then "
            "absorbs the buffered outage traffic wholesale at recovery."
        ),
        base_config=ScenarioConfig(
            name="recovery_window_strike",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={
                "sharded-reservoir-4x32": {"family": "reservoir", "capacity": 32}
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            set_system={"kind": "prefix"},
            sharding={"sites": 4, "strategy": "hash"},
            faults={
                "crashes": [
                    {
                        "site": 1,
                        "round_fraction": 0.35,
                        "recovery_fraction": 0.25,
                        "loss": "replay",
                    }
                ]
            },
        ),
    )
)

register_scenario(
    Scenario(
        name="hotspot_split_flood",
        description=(
            "Greedy prefix flood against skewed (hotspot) routing that "
            "triggers a mid-stream reshard: the hot site absorbing ~85% of "
            "the traffic is split at half-stream by the [CTW16] "
            "hypergeometric rule, and the adversary keeps flooding the "
            "rebalanced deployment through the merged coordinator view."
        ),
        base_config=ScenarioConfig(
            name="hotspot_split_flood",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={
                "sharded-reservoir-4x32": {"family": "reservoir", "capacity": 32}
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            set_system={"kind": "prefix"},
            sharding={
                "sites": 4,
                "strategy": {"kind": "skewed", "hot_fraction": 0.85},
            },
            faults={
                "reshards": [{"round_fraction": 0.5, "op": "split", "site": 0}]
            },
        ),
    )
)

register_scenario(
    Scenario(
        name="stale_coordinator_probe",
        description=(
            "Greedy prefix flood against a coordinator whose merged view "
            "goes stale twice mid-stream: during each staleness window the "
            "coordinator serves its memoised pre-window sample (spending no "
            "merge messages), so the adversary's feedback lags the true "
            "sharded state and its conditioning lands on the cached view."
        ),
        base_config=ScenarioConfig(
            name="stale_coordinator_probe",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={
                "sharded-reservoir-4x32": {"family": "reservoir", "capacity": 32}
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            set_system={"kind": "prefix"},
            sharding={"sites": 4, "strategy": "hash"},
            faults={
                "stale_windows": [
                    {"round_fraction": 0.3, "duration_fraction": 0.15},
                    {"round_fraction": 0.65, "duration_fraction": 0.15},
                ]
            },
        ),
    )
)


register_scenario(
    Scenario(
        name="stale_snapshot_strike",
        description=(
            "Query-timing attack on the always-on service's staleness knob: "
            "a greedy prefix flood conditions on the *served* snapshot of a "
            "sharded deployment whose service may lag ingestion by up to 64 "
            "rounds.  The adversary's cadenced decisions land exactly when "
            "the served view is maximally stale, so its feedback describes "
            "a deployment state up to a full snapshot window old — the "
            "service-layer analogue of the stale-coordinator fault, induced "
            "by read scheduling instead of a fault plan."
        ),
        base_config=ScenarioConfig(
            name="stale_snapshot_strike",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={
                "sharded-reservoir-4x32": {"family": "reservoir", "capacity": 32}
            },
            adversary={
                "family": "greedy_density",
                "target": {"kind": "prefix", "bound_fraction": 0.25},
            },
            decision_period=8,
            set_system={"kind": "prefix"},
            sharding={"sites": 4, "strategy": "hash"},
            service={"staleness_rounds": 64, "clients": 2, "query_period": 32},
        ),
    )
)

register_scenario(
    Scenario(
        name="query_flood_exposure",
        description=(
            "Query-timing attack on an exposure-tracked defense: a "
            "switching-singleton strike against a sketch-switching sampler "
            "served through the query service with an aggressive background "
            "client population (4 clients reading every 4 rounds).  "
            "Exposure-tracked deployments bypass every snapshot cache, so "
            "each background read reaches the observe_exposure hook and "
            "genuinely spends the defense's switching budget — the query "
            "flood drains the defense far faster than the stream alone "
            "would, exactly the over-exposure failure mode the sketch-"
            "switching analysis warns about."
        ),
        base_config=ScenarioConfig(
            name="query_flood_exposure",
            stream_length=1024,
            universe_size=_UNIVERSE,
            samplers={"reservoir-32": {"family": "reservoir", "capacity": 32}},
            adversary={"family": "switching_singleton"},
            set_system={"kind": "prefix"},
            defense={"kind": "sketch_switching", "copies": 4},
            service={"staleness_rounds": 0, "clients": 4, "query_period": 4},
        ),
    )
)

