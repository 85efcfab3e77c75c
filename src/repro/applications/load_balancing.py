"""Distributed-database load-balancing scenario (Section 1.2).

A front-end receives a stream of queries and routes each to one of ``K``
query-processing servers uniformly at random.  Each server later uses its
received substream for query optimisation, so each substream should represent
the global workload.  Because each substream is a Bernoulli(1/K) sample of
the stream, Theorem 1.2 says the representation survives even an adaptive
client, provided ``n / K >= 10 (ln|R| + ln(4 K / delta)) / epsilon^2`` (the
extra ``ln K`` comes from union-bounding over the servers).

:func:`simulate_load_balancing` runs the scenario end to end and reports, per
server, the worst-range discrepancy between its substream and the global
stream; experiment E12 sweeps the number of servers and the workload type.
Each query is routed by :class:`~repro.distributed.sharded.RandomSharding`,
the rule a ``ShardedSampler(strategy="random")`` deployment routes by, one
scalar draw per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable
from typing import Any

from ..adversary.base import Adversary
from ..distributed.sharded import RandomSharding
from ..exceptions import ConfigurationError
from ..rng import RandomState, ensure_generator
from ..setsystems.base import SetSystem


@dataclass(frozen=True)
class LoadBalancingReport:
    """Result of one load-balancing simulation.

    Attributes
    ----------
    num_servers:
        Number of servers ``K``.
    stream_length:
        Total number of routed queries.
    per_server_errors:
        Worst-range discrepancy of each server's substream vs the global stream
        (servers that received nothing score 1.0).
    per_server_loads:
        Number of queries each server received.
    load_imbalance:
        Max deviation of any server's load share from ``1 / K``.
    """

    num_servers: int
    stream_length: int
    per_server_errors: tuple[float, ...]
    per_server_loads: tuple[int, ...]
    load_imbalance: float

    @property
    def worst_error(self) -> float:
        return max(self.per_server_errors) if self.per_server_errors else 0.0

    @property
    def mean_error(self) -> float:
        if not self.per_server_errors:
            return 0.0
        return sum(self.per_server_errors) / len(self.per_server_errors)

    def servers_within(self, epsilon: float) -> int:
        """Number of servers whose substream is an epsilon-approximation."""
        return sum(1 for error in self.per_server_errors if error <= epsilon)


def required_stream_length(
    num_servers: int, log_cardinality: float, epsilon: float, delta: float
) -> int:
    """Stream length after which every server's substream should be representative.

    Derived from Theorem 1.2's Bernoulli bound with rate ``1 / K`` and a union
    bound over the ``K`` servers.
    """
    if num_servers < 2:
        raise ConfigurationError(f"need at least 2 servers, got {num_servers}")
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise ConfigurationError("epsilon and delta must lie in (0, 1)")
    per_server = 10.0 * (log_cardinality + math.log(4.0 * num_servers / delta)) / epsilon**2
    return int(math.ceil(per_server * num_servers))


def simulate_load_balancing(
    queries: Iterable[Any] | None,
    num_servers: int,
    set_system: SetSystem,
    adversary: Adversary | None = None,
    stream_length: int | None = None,
    seed: RandomState = None,
) -> LoadBalancingReport:
    """Route a query stream across servers and measure per-server representativeness.

    Exactly one of ``queries`` (a static workload) or ``adversary`` +
    ``stream_length`` (an adaptive client) must be provided.  The adaptive
    client learns, after each query, which server received it and observes
    that server's accumulated substream before choosing its next query — the
    natural analogue of full-state knowledge in the sampling game (observing
    the union of all servers is information-equivalent to remembering one's
    own stream, so showing the receiving server is the interesting part).
    """
    if (queries is None) == (adversary is None):
        raise ConfigurationError("provide exactly one of `queries` or `adversary`")
    if num_servers < 2:
        raise ConfigurationError(f"need at least 2 servers, got {num_servers}")
    # The routing coins are private to the system: the client sees which
    # server answered, never the coins.
    rng = ensure_generator(seed)
    router = RandomSharding()
    stream: list[Any] = []
    servers: list[list[Any]] = [[] for _ in range(num_servers)]

    def route(query: Any) -> int:
        server = router.assign_one(query, len(stream) + 1, num_servers, rng)
        servers[server].append(query)
        stream.append(query)
        return server

    if queries is not None:
        for query in queries:
            route(query)
    else:
        assert adversary is not None
        if stream_length is None or stream_length < 1:
            raise ConfigurationError("an adversarial client needs a positive stream_length")
        observed_server = 0
        for round_index in range(1, stream_length + 1):
            query = adversary.plan_block(round_index, 1, servers[observed_server])[0]
            observed_server = route(query)
    errors = [
        set_system.max_discrepancy(stream, received).error if received else 1.0
        for received in servers
    ]
    imbalance = 0.0
    if stream:
        target = 1.0 / num_servers
        imbalance = max(abs(len(received) / len(stream) - target) for received in servers)
    return LoadBalancingReport(
        num_servers=num_servers,
        stream_length=len(stream),
        per_server_errors=tuple(errors),
        per_server_loads=tuple(len(received) for received in servers),
        load_imbalance=imbalance,
    )
