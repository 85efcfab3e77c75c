"""Perf gates: every bounded op of :mod:`repro.bench`, timed at full size.

Each gate times its op's baseline and candidate paths in ``REPEATS``
interleaved runs (:func:`repro.bench.measure`) and requires the candidate's
minimum time to stay within the op's bound of the baseline's minimum.  Each
gate prints its min and median ratio (shown with ``-s``, and on failure).
Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_gates.py -q
    PYTHONPATH=src python -m pytest benchmarks/bench_perf_gates.py -q -k service

Bench files sit outside pytest's default glob, so name the file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import OPS, measure
from repro.distributed import ShardedSampler
from repro.samplers import ReservoirSampler
from repro.service import QueryService

GATES = [op for op in OPS if op.bound is not None]


@pytest.mark.parametrize("op", GATES, ids=[op.name for op in GATES])
def test_gate(op):
    timing = measure(op)
    print(timing.summary())
    assert timing.passes, timing.summary()


def test_service_query_latency_p99_under_250ms():
    """Absolute gate: query p99 stays under 250 ms with 4 benign and 1
    fresh-forcing reader on a 10^5-element hash-routed ingest."""
    n, universe = 100_000, 4_096
    deployment = ShardedSampler(4, lambda rng: ReservoirSampler(200, seed=rng), strategy="hash", seed=1)
    data = [int(value) for value in np.random.default_rng(0).integers(1, universe + 1, size=n)]
    service = QueryService(deployment, staleness_rounds=2_048, universe_size=universe)
    report = service.serve(data, chunk_size=1024, clients=4, adversarial_clients=1)

    assert report.queries > 0
    assert report.query_p50 is not None and report.query_p99 is not None
    assert report.query_p50 <= report.query_p99
    assert report.query_p99 <= 0.25, (
        f"query p99 is {report.query_p99 * 1e3:.1f}ms under mixed load "
        f"({report.queries} queries, {report.clients} clients)"
    )
    # Benign clients may be served held snapshots, but never beyond the bound.
    assert report.max_staleness_served <= 2_048
