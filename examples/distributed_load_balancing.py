"""Distributed-database load balancing (Section 1.2 of the paper).

A query router assigns each incoming query to one of ``K`` query-processing
servers uniformly at random, so each server's substream is a Bernoulli(1/K)
sample of the global workload.  Each server later uses its substream for
query optimisation, so it had better be representative — even if the client
workload drifts or adapts.  This script:

1. sizes the stream length from the theory (Theorem 1.2 + union bound over
   servers),
2. routes a skewed query workload, a drifting workload and an adaptive
   client, and
3. reports the worst per-server discrepancy, plus a sharded-reservoir
   merge as a bonus (the coordinator view of [CTW16]).

Run with ``python examples/distributed_load_balancing.py``.
"""

from __future__ import annotations

from repro import PrefixSystem, ReservoirSampler, ShardedSampler
from repro.adversary import GreedyDensityAdversary
from repro.applications import required_stream_length, simulate_load_balancing
from repro.setsystems import Prefix
from repro.streams import query_workload, two_phase_stream

NUM_SERVERS = 8
UNIVERSE_SIZE = 2_000       # distinct query keys
EPSILON = 0.1
DELTA = 0.05


def main() -> None:
    system = PrefixSystem(UNIVERSE_SIZE)
    needed = required_stream_length(NUM_SERVERS, system.log_cardinality(), EPSILON, DELTA)
    print(f"{NUM_SERVERS} servers, epsilon = {EPSILON}: theory asks for n >= {needed} queries")

    workloads = {
        "skewed keys": query_workload(needed, UNIVERSE_SIZE, seed=1),
        "drifting distribution": two_phase_stream(needed, UNIVERSE_SIZE, seed=2),
    }
    for name, stream in workloads.items():
        report = simulate_load_balancing(stream, NUM_SERVERS, system, seed=3)
        print(f"\nworkload: {name}")
        print(f"  per-server loads: min={min(report.per_server_loads)}, "
              f"max={max(report.per_server_loads)} (imbalance {report.load_imbalance:.4f})")
        print(f"  worst server discrepancy: {report.worst_error:.4f} "
              f"({report.servers_within(EPSILON)}/{NUM_SERVERS} servers within epsilon)")

    # An adaptive client that watches which server answers each query and
    # tries to skew one server's view of the key distribution.
    adversary = GreedyDensityAdversary(
        Prefix(UNIVERSE_SIZE // 2), in_range_element=1, out_range_element=UNIVERSE_SIZE
    )
    adaptive_report = simulate_load_balancing(
        None, NUM_SERVERS, system, adversary=adversary, stream_length=6_000, seed=4
    )
    print("\nworkload: adaptive client (6000 queries)")
    print(f"  worst server discrepancy: {adaptive_report.worst_error:.4f} "
          f"({adaptive_report.servers_within(EPSILON)}/{NUM_SERVERS} servers within epsilon)")

    # Bonus: with a reservoir at every server, the coordinator produces one
    # global uniform sample of everything the servers saw, on demand.
    deployment = ShardedSampler(
        NUM_SERVERS,
        lambda rng: ReservoirSampler(500, seed=rng),
        strategy="round_robin",
        seed=5,
    )
    stream = query_workload(needed, UNIVERSE_SIZE, seed=6)
    deployment.extend(stream, updates=False)
    merged = deployment.sample
    merged_error = system.max_discrepancy(stream, merged).error
    print(f"\nsharded reservoir: merged sample of {len(merged)} queries, "
          f"global discrepancy {merged_error:.4f}")


if __name__ == "__main__":
    main()
