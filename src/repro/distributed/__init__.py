"""Distributed substrates: query routing, sharded samplers, faults."""

from .faults import (
    FaultPlan,
    MessageCostLedger,
    Reshard,
    SiteCrash,
    StaleWindow,
)
from .partitioned import RandomRouter, ServerState
from .sharded import (
    HashSharding,
    RandomSharding,
    RoundRobinSharding,
    ShardedSampler,
    ShardingStrategy,
    SkewedSharding,
    build_sharding_strategy,
)

__all__ = [
    "FaultPlan",
    "HashSharding",
    "MessageCostLedger",
    "RandomRouter",
    "RandomSharding",
    "Reshard",
    "RoundRobinSharding",
    "ServerState",
    "ShardedSampler",
    "ShardingStrategy",
    "SiteCrash",
    "SkewedSharding",
    "StaleWindow",
    "build_sharding_strategy",
]
