"""Distributed substrates: sharded samplers, their routing strategies, faults."""

from .faults import (
    FaultPlan,
    MessageCostLedger,
    Reshard,
    SiteCrash,
    StaleWindow,
)
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
    "RandomSharding",
    "Reshard",
    "RoundRobinSharding",
    "ShardedSampler",
    "ShardingStrategy",
    "SiteCrash",
    "SkewedSharding",
    "StaleWindow",
    "build_sharding_strategy",
]
