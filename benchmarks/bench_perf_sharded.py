"""Benchmarks and acceptance gates for the sharded-sampler substrate.

The headline measurement: ingesting a 10^5-element stream into a 4-site
:class:`~repro.distributed.sharded.ShardedSampler` via the chunked path
(one vectorised routing assignment + one ``extend`` kernel call per site)
vs per-element routing (``process`` one element at a time).  The gate
requires **>= 2x** end to end; deterministic strategies must additionally
produce identical site substreams on both paths, and merged reads must be
seed-reproducible.

A second gate keeps value-hashed routing on the vectorised path: chunked
ingest of the same stream in 1024-element chunks under ``hash`` routing
may cost at most **2x** the same ingest under ``random`` routing (min of
3 interleaved repeats each, so both sides see the same host).
"""

from __future__ import annotations

import time

import numpy as np

from repro.adversary import UniformAdversary, run_adaptive_game
from repro.distributed import ShardedSampler
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.setsystems import PrefixSystem

UNIVERSE = 4_096


def _reservoir_site(rng):
    return ReservoirSampler(200, seed=rng)


def _bernoulli_site(rng):
    return BernoulliSampler(0.01, seed=rng)


def _data(n: int) -> list[int]:
    rng = np.random.default_rng(0)
    return [int(value) for value in rng.integers(1, UNIVERSE + 1, size=n)]


def _ingest_per_element(sharded: ShardedSampler, data: list[int]) -> None:
    for element in data:
        sharded.process(element)


def test_perf_sharded_chunked_ingest(benchmark):
    """Chunked per-site ingestion at moderate scale."""
    data = _data(20_000)

    def run():
        sharded = ShardedSampler(4, _reservoir_site, strategy="random", seed=1)
        sharded.extend(data, updates=False)
        return sharded

    sharded = benchmark(run)
    assert sharded.rounds_processed == 20_000


def test_sharded_chunked_routing_speedup_on_1e5_stream():
    """Acceptance gate: >= 2x over per-element routing at n = 10^5."""
    n = 100_000
    data = _data(n)

    start = time.perf_counter()
    fast = ShardedSampler(4, _reservoir_site, strategy="random", seed=1)
    fast.extend(data, updates=False)
    fast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    slow = ShardedSampler(4, _reservoir_site, strategy="random", seed=1)
    _ingest_per_element(slow, data)
    slow_seconds = time.perf_counter() - start

    assert fast.rounds_processed == slow.rounds_processed == n
    assert sum(fast.site_counts) == sum(slow.site_counts) == n
    speedup = slow_seconds / fast_seconds
    assert speedup >= 2.0, (
        f"chunked sharded ingestion is only {speedup:.1f}x faster "
        f"({fast_seconds:.2f}s vs {slow_seconds:.2f}s)"
    )


def _chunked_ingest_seconds(strategy: str, data: list[int], chunk: int = 1024) -> float:
    start = time.perf_counter()
    sharded = ShardedSampler(4, _reservoir_site, strategy=strategy, seed=1)
    for offset in range(0, len(data), chunk):
        sharded.extend(data[offset : offset + chunk], updates=False)
    seconds = time.perf_counter() - start
    assert sharded.rounds_processed == len(data)
    return seconds


def test_hash_routing_costs_at_most_twice_random_routing():
    """Gate: 1024-element chunks under hash routing <= 2x random routing at n = 10^5."""
    data = _data(100_000)
    seconds: dict[str, list[float]] = {"hash": [], "random": []}
    for _ in range(3):
        for strategy, runs in seconds.items():
            runs.append(_chunked_ingest_seconds(strategy, data))
    ratio = min(seconds["hash"]) / min(seconds["random"])
    assert ratio <= 2.0, (
        f"hash-routed chunked ingest costs {ratio:.2f}x random routing "
        f"({min(seconds['hash']):.3f}s vs {min(seconds['random']):.3f}s)"
    )


def test_sharded_deterministic_routing_is_path_independent():
    """Hash routing must feed every site the identical substream on both paths."""
    data = _data(20_000)
    chunked = ShardedSampler(4, _bernoulli_site, strategy="hash", seed=3)
    chunked.extend(data, updates=False)
    sequential = ShardedSampler(4, _bernoulli_site, strategy="hash", seed=3)
    _ingest_per_element(sequential, data)
    assert chunked.site_counts == sequential.site_counts
    # Bernoulli kernels are bit-identical, so the merged samples must be too.
    assert list(chunked.sample) == list(sequential.sample)


def test_sharded_game_end_to_end_reproducible():
    """The sharded deployment plays the adaptive game reproducibly."""

    def play():
        return run_adaptive_game(
            ShardedSampler(4, _reservoir_site, strategy="random", seed=5),
            UniformAdversary(UNIVERSE, seed=6),
            20_000,
            set_system=PrefixSystem(UNIVERSE),
            epsilon=0.5,
            keep_updates=False,
        )

    first, second = play(), play()
    assert first.error == second.error
    assert first.sample == second.sample
