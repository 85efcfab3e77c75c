"""Sharded batch ingest against a reference router and list gather.

``ShardedSampler.extend`` routes a batch in one vectorised call, gathers one
sub-batch per site and scatters the sites' acceptance flags and evictions
back to the batch's positions.  Under hash routing a batch of exact ``int``
elements is converted to ``int64`` once, and the sub-batches are gathered
from that array.  Random chunkings of streams mixing exact ints (negatives,
0 and the ``int64`` extremes among them), bools, ``np.int64``, floats,
strings and ints beyond ``int64`` go through ``extend`` with and without
update records, under hash, round-robin, random and skewed routing, with
and without a site crash (replay or drop loss, recovering or not).  After
every chunk each site must have received exactly the sub-batches of a
reference that routes element by element and gathers by list
comprehension, equal in value, type and order, so no numpy scalar reaches a
site unless the caller sent it; the replay buffers must match, and the
flags and evictions scattered back must equal the reference's scatter over
twin sites.

``QueryService`` hands a chunk's ``int64`` keys in through the private
``ShardedSampler._extend``, which slices them at each segment boundary and
drops them wherever a reshard has rebound routing away from ``hash``.  A
deployment fed that way must stay equal to a deep-copied twin fed through
``extend``, across two crashes and across a split-then-merge reshard that
rebinds hash routing to random and back inside a chunk.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sample_views import EXAMPLES

from repro.distributed import FaultPlan, Reshard, ShardedSampler, SiteCrash
from repro.distributed.sharded import _exact_int64
from repro.rng import _stable_string_key
from repro.samplers import ReservoirSampler

_SITES = 3
_CAPACITY = 4
_INT64 = (-(2**63), 2**63 - 1)
#: Skewed routing's knobs; a middle hot site exercises both sides of the
#: draw's shift past it.
_HOT_FRACTION = 0.6
_HOT_SITE = 1
_STRATEGIES = {
    "hash": "hash",
    "round_robin": "round_robin",
    "random": "random",
    "skewed": {"kind": "skewed", "hot_fraction": _HOT_FRACTION, "hot_site": _HOT_SITE},
}


class _RecordingReservoir(ReservoirSampler):
    """A reservoir site that logs every batch its ``extend`` receives."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(_CAPACITY, seed=rng)
        self.received: list[list[Any]] = []

    def extend(self, elements, updates=True):
        elements = list(elements)
        self.received.append(elements)
        return super().extend(elements, updates)


def _reference_site(element: Any, round_index: int, strategy: str) -> int:
    """Hash routing keys an integer (not a bool) by Knuth's multiplicative
    mix and anything else by the stable hash of its ``repr``; round robin
    goes by the 1-based global round."""
    if strategy == "round_robin":
        return (round_index - 1) % _SITES
    if isinstance(element, (int, np.integer)) and not isinstance(element, bool):
        key = (int(element) * 2654435761) & 0xFFFFFFFF
    else:
        key = _stable_string_key(repr(element))
    return key % _SITES


def _typed(elements: list[Any]) -> list[tuple[type, str]]:
    """Each element's type and ``repr``: equal values of other types (``1``,
    ``True``, ``np.int64(1)``, ``1.0``) and ``0.0`` vs ``-0.0`` differ."""
    return [(type(element), repr(element)) for element in elements]


class _Reference:
    """The deployment's routing, gather, fault handling and scatter, written
    out per element over twin sites built from the same generators."""

    def __init__(self, deployment: ShardedSampler, strategy: str, plan: FaultPlan | None) -> None:
        self.strategy = strategy
        self.sites = copy.deepcopy(deployment._sites)
        self.route = copy.deepcopy(deployment._route_rng)
        self.transitions = plan.transitions() if plan is not None else []
        self.down: list[str | None] = [None] * _SITES
        self.buffers: list[list[Any]] = [[] for _ in range(_SITES)]
        self.round = 0

    def _fire(self, round_index: int) -> None:
        while self.transitions and self.transitions[0].round <= round_index:
            transition = self.transitions.pop(0)
            site = transition.site
            if transition.kind == "crash":
                self.sites[site].reset()
                self.down[site] = transition.loss
            else:
                self.down[site] = None
                buffer, self.buffers[site] = self.buffers[site], []
                if buffer:
                    self.sites[site].extend(buffer, updates=False)

    def extend(self, chunk: list[Any], updates: bool) -> tuple[list[bool], dict[int, Any]]:
        """Ingest ``chunk``; the scattered flags and evictions."""
        accepted = [False] * len(chunk)
        evictions: dict[int, Any] = {}
        position = 0
        while position < len(chunk):
            self._fire(self.round + position + 1)
            end = len(chunk)
            if self.transitions:
                end = min(end, self.transitions[0].round - 1 - self.round)
            segment = range(position, end)
            if self.strategy == "random":
                sites = self.route.integers(0, _SITES, size=len(segment)).tolist()
            elif self.strategy == "skewed":
                coins = self.route.random(len(segment)).tolist()
                draws = self.route.integers(0, _SITES - 1, size=len(segment)).tolist()
                sites = [
                    _HOT_SITE if coin < _HOT_FRACTION else draw if draw < _HOT_SITE else draw + 1
                    for coin, draw in zip(coins, draws)
                ]
            else:
                sites = [_reference_site(chunk[p], self.round + p + 1, self.strategy) for p in segment]
            for site_index in range(_SITES):
                positions = [p for p, site in zip(segment, sites) if site == site_index]
                sub_batch = [chunk[p] for p in positions]
                if not positions:
                    continue
                if self.down[site_index] == "replay":
                    self.buffers[site_index].extend(sub_batch)
                    continue
                if self.down[site_index] == "drop":
                    continue
                batch = self.sites[site_index].extend(sub_batch, updates=updates)
                if updates:
                    for offset, position_in_chunk in enumerate(positions):
                        accepted[position_in_chunk] = bool(batch.accepted[offset])
                    for offset, evicted in batch.evictions.items():
                        evictions[positions[offset]] = evicted
            position = end
        self.round += len(chunk)
        return accepted, evictions


def _check(deployment: ShardedSampler, reference: _Reference) -> None:
    """Every site received the reference's sub-batches, and holds its twin's
    state; the replay buffers match."""
    for site, twin in zip(deployment._sites, reference.sites):
        assert [_typed(batch) for batch in site.received] == [_typed(batch) for batch in twin.received]
        assert _typed(site._sample) == _typed(twin._sample)
        assert site._insertion_order == twin._insertion_order
        assert site.rounds_processed == twin.rounds_processed
        assert site._rng.bit_generator.state == twin._rng.bit_generator.state
        site.received.clear()
        twin.received.clear()
    assert [_typed(buffer) for buffer in deployment._replay_buffers] == [
        _typed(buffer) for buffer in reference.buffers
    ]
    assert deployment.rounds_processed == reference.round


def _play(strategy: str, plan: FaultPlan | None, chunks: list[tuple[list[Any], bool]], seed: int) -> None:
    deployment = ShardedSampler(
        _SITES, _RecordingReservoir, strategy=_STRATEGIES[strategy], seed=seed, fault_plan=plan
    )
    reference = _Reference(deployment, strategy, plan)
    for chunk, updates in chunks:
        batch = deployment.extend(chunk, updates=updates)
        accepted, evictions = reference.extend(chunk, updates)
        if not updates:
            assert batch is None
        else:
            assert _typed(list(batch.elements)) == _typed(chunk)
            assert batch.accepted.tolist() == accepted
            assert sorted(batch.evictions) == sorted(evictions)
            assert _typed([batch.evictions[k] for k in sorted(evictions)]) == _typed(
                [evictions[k] for k in sorted(evictions)]
            )
        _check(deployment, reference)


_EXACT_INTS = st.one_of(
    st.sampled_from([*_INT64, 0, -1, 1]),
    st.integers(-(2**40), 2**40),
    st.integers(*_INT64),
)
_ANY_ELEMENT = st.one_of(
    _EXACT_INTS,
    st.booleans(),
    st.integers(*_INT64).map(np.int64),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63) - 1),
)
#: A chunk is all exact ints (the gather from ``int64`` keys) or mixed.
_CHUNKS = st.lists(
    st.tuples(
        st.one_of(st.lists(_EXACT_INTS, max_size=40), st.lists(_ANY_ELEMENT, max_size=40)),
        st.booleans(),
    ),
    max_size=8,
)
_CRASHES = st.one_of(
    st.none(),
    st.builds(
        SiteCrash,
        site=st.integers(0, _SITES - 1),
        round=st.integers(1, 200),
        recovery_rounds=st.one_of(st.none(), st.integers(1, 120)),
        loss=st.sampled_from(["replay", "drop"]),
    ),
)


@pytest.mark.parametrize("strategy", list(_STRATEGIES))
@settings(max_examples=EXAMPLES, deadline=None)
@given(chunks=_CHUNKS, crash=_CRASHES, seed=st.integers(0, 2**16))
def test_batch_ingest_matches_the_reference(strategy, chunks, crash, seed):
    plan = None if crash is None else FaultPlan(crashes=(crash,))
    _play(strategy, plan, chunks, seed)


@pytest.mark.parametrize("strategy", list(_STRATEGIES))
@pytest.mark.parametrize("loss", ["replay", "drop"])
def test_every_path_is_reached(strategy, loss):
    """All-int chunks (the ``int64`` gather) and mixed ones, with and without
    records, across a crash and its recovery inside chunks, with the
    ``int64`` extremes and ints one past them."""
    ints = [*_INT64, 0, -1, *range(-20, 20)]
    mixed = [3, True, np.int64(3), 3.0, "3", 2**63, -(2**63) - 1, -0.0, *range(8)]
    chunks = [(ints, True), (mixed, False), (ints, False), (mixed, True)] * 2
    plan = FaultPlan(crashes=(SiteCrash(site=1, round=30, recovery_rounds=100, loss=loss),))
    _play(strategy, plan, chunks, seed=5)


def _twin_state(deployment: ShardedSampler) -> dict[str, Any]:
    """Everything of a deployment that a keyed ingest could make differ."""
    return {
        "sites": [
            (
                _typed(site._sample),
                site._insertion_order,
                site.rounds_processed,
                site._rng.bit_generator.state,
                # A reshard's merged or split-off site is a plain reservoir.
                [_typed(batch) for batch in getattr(site, "received", ())],
            )
            for site in deployment._sites
        ],
        "buffers": [_typed(buffer) for buffer in deployment._replay_buffers],
        "dropped": list(deployment._dropped),
        "strategy": type(deployment.strategy),
        "num_sites": deployment.num_sites,
        "ledger": deployment.ledger.to_dict(),
        "route": deployment._route_rng.bit_generator.state,
        "merge": deployment._merge_rng.bit_generator.state,
        "round": deployment.rounds_processed,
    }


def _play_keyed(plan: FaultPlan, chunks: list[tuple[list[int], bool]], seed: int) -> None:
    """One deployment takes every chunk with its ``int64`` keys through
    ``_extend``; a deep copy takes it through ``extend``."""
    keyed = ShardedSampler(_SITES, _RecordingReservoir, strategy="hash", seed=seed, fault_plan=plan)
    public = copy.deepcopy(keyed)
    for chunk, updates in chunks:
        keys = _exact_int64(chunk)
        assert keys is not None
        batch = keyed._extend(chunk, keys, updates)
        twin = public.extend(chunk, updates=updates)
        if updates:
            assert batch.round_indices.tolist() == twin.round_indices.tolist()
            assert _typed(list(batch.elements)) == _typed(list(twin.elements))
            assert batch.accepted.tolist() == twin.accepted.tolist()
            assert sorted(batch.evictions) == sorted(twin.evictions)
            assert _typed(list(batch.evictions.values())) == _typed(list(twin.evictions.values()))
        else:
            assert batch is None and twin is None
        assert _twin_state(keyed) == _twin_state(public)


#: Two crashes of distinct sites, each recovering or not.
_TWO_CRASHES = st.lists(
    st.builds(
        SiteCrash,
        site=st.integers(0, _SITES - 1),
        round=st.integers(1, 200),
        recovery_rounds=st.one_of(st.none(), st.integers(1, 120)),
        loss=st.sampled_from(["replay", "drop"]),
    ),
    min_size=2,
    max_size=2,
    unique_by=lambda crash: crash.site,
).map(lambda crashes: FaultPlan(crashes=tuple(crashes)))


def _split_then_merge(site: int, split_round: int, gap: int) -> FaultPlan:
    """Split ``site`` rebinding routing to random, then merge it back with
    its sibling rebinding routing to hash."""
    return FaultPlan(
        reshards=(
            Reshard(round=split_round, op="split", site=site, strategy="random"),
            Reshard(round=split_round + gap, op="merge", site=site, other=_SITES, strategy="hash"),
        )
    )


_RESHARDS = st.builds(
    _split_then_merge,
    site=st.integers(0, _SITES - 1),
    split_round=st.integers(1, 150),
    gap=st.integers(1, 100),
)
_INT_CHUNKS = st.lists(st.tuples(st.lists(_EXACT_INTS, max_size=40), st.booleans()), max_size=8)


@settings(max_examples=EXAMPLES, deadline=None)
@given(chunks=_INT_CHUNKS, plan=st.one_of(_TWO_CRASHES, _RESHARDS), seed=st.integers(0, 2**16))
def test_keyed_ingest_matches_public_extend(chunks, plan, seed):
    _play_keyed(plan, chunks, seed)


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(
            crashes=(
                SiteCrash(site=0, round=20, recovery_rounds=50, loss="replay"),
                SiteCrash(site=2, round=45, loss="drop"),
            )
        ),
        _split_then_merge(site=1, split_round=30, gap=30),
    ],
    ids=["two-crashes", "split-then-merge"],
)
def test_keyed_ingest_splits_a_chunk_at_every_transition(plan):
    """Every transition falls inside the first chunk, and the reshard's
    random stretch lies wholly inside it."""
    ints = [*_INT64, 0, -1, *range(-48, 48)]
    _play_keyed(plan, [(ints, True), (ints[::-1], False), (ints, True)], seed=11)
