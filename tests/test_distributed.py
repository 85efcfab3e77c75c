"""Tests for random query routing (the Section 1.2 load-balancing substrate)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.distributed import RandomRouter
from repro.exceptions import ConfigurationError
from repro.setsystems import PrefixSystem
from repro.streams import uniform_stream


class TestRandomRouter:
    def test_requires_at_least_two_servers(self):
        with pytest.raises(ConfigurationError):
            RandomRouter(1)

    def test_every_query_lands_somewhere(self, rng):
        router = RandomRouter(4, seed=rng)
        router.route_all(range(100))
        assert sum(router.loads()) == 100
        assert len(router.stream) == 100

    def test_route_returns_valid_server_index(self, rng):
        router = RandomRouter(5, seed=rng)
        indices = router.route_all(range(200))
        assert all(0 <= index < 5 for index in indices)

    def test_loads_roughly_balanced(self, rng):
        router = RandomRouter(4, seed=rng)
        router.route_all(range(8000))
        assert router.load_imbalance() < 0.05

    def test_server_substreams_partition_the_stream(self, rng):
        router = RandomRouter(3, seed=rng)
        stream = uniform_stream(500, 100, seed=rng)
        router.route_all(stream)
        combined = Counter()
        for server in router.servers:
            combined.update(server.received)
        assert combined == Counter(stream)

    def test_worst_server_discrepancy_small_for_uniform_workload(self, rng):
        router = RandomRouter(4, seed=rng)
        router.route_all(uniform_stream(6000, 128, seed=rng))
        assert router.worst_server_discrepancy(PrefixSystem(128)) < 0.15

    def test_empty_router_scores_zero(self):
        router = RandomRouter(2, seed=0)
        assert router.load_imbalance() == 0.0
        assert router.worst_server_discrepancy(PrefixSystem(8)) == 0.0
