"""Synthetic workload generators."""

from .generators import (
    clustered_points,
    planted_heavy_hitter_stream,
    query_workload,
    sorted_stream,
    two_phase_stream,
    uniform_stream,
    zipf_stream,
)

__all__ = [
    "clustered_points",
    "planted_heavy_hitter_stream",
    "query_workload",
    "sorted_stream",
    "two_phase_stream",
    "uniform_stream",
    "zipf_stream",
]
