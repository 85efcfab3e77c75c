"""The sample-view contract of the samplers that keep their sample in memory.

The ``sample`` of Bernoulli, reservoir, sliding-window, priority and
weighted-reservoir samplers is a tuple cached until the sample next changes
(``CachedView``).  Random sequences of every operation that applies to a
sampler (``process``, ``extend`` with and without update records,
``split``, ``merge``, ``merged_sample`` and ``reset``) check that every view
equals an oracle of the sampler's state, that reads with no change in
between return the same object and that a view handed out earlier never
changes.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_samplers_extend import _TiedPriorities

from repro.distributed import ShardedSampler
from repro.samplers import (
    BernoulliSampler,
    PrioritySampler,
    ReservoirSampler,
    SlidingWindowSampler,
    WeightedReservoirSampler,
)

#: The operations each sampler kind supports.
_KINDS = {
    "bernoulli": ("process", "extend", "merge", "reset"),
    "uniform": ("process", "extend", "split", "merge", "merged_sample", "reset"),
    "fifo": ("process", "extend", "reset"),
    "min-value": ("process", "extend", "reset"),
}

_elements = st.integers(0, 40)

#: Examples per property test: five times the loaded profile's budget (60
#: per push, 375 under the nightly profile).
EXAMPLES = 5 * settings.default.max_examples


def _make(kind: str, capacity: int, seed: Any) -> Any:
    if kind == "bernoulli":
        return BernoulliSampler(0.5, seed=seed)
    return ReservoirSampler(capacity, seed=seed, eviction=kind)


def _stores(sampler: Any) -> int:
    """How many elements the sampler has stored so far (a store, unlike an
    equal sample, always resets the view)."""
    if isinstance(sampler, ReservoirSampler):
        return sampler.total_accepted
    return sampler.sample_size


def _stored(sampler: Any) -> tuple[Any, ...]:
    return tuple(sampler._sample)


class _Views:
    """Every view handed out so far, with the contents it had then."""

    def __init__(self, oracle: Callable[[Any], tuple[Any, ...]] = _stored) -> None:
        self.oracle = oracle
        self.taken: list[tuple[tuple[Any, ...], list[Any]]] = []

    def read(self, sampler: Any) -> tuple[Any, ...]:
        view = sampler.sample
        assert type(view) is tuple
        assert view == self.oracle(sampler)
        assert sampler.sample is view
        self.taken.append((view, list(view)))
        return view

    def check_unchanged(self) -> None:
        for view, contents in self.taken:
            assert list(view) == contents


def _operations(kind: str) -> st.SearchStrategy[list[tuple[Any, ...]]]:
    choices = []
    for name in _KINDS[kind]:
        if name == "process":
            choices.append(st.tuples(st.just(name), _elements))
        elif name == "extend":
            choices.append(
                st.tuples(st.just(name), st.lists(_elements, max_size=24), st.booleans())
            )
        else:
            choices.append(st.tuples(st.just(name)))
    return st.lists(st.one_of(choices), max_size=30)


def _play(kind: str, capacity: int, seed: int, operations: list[tuple[Any, ...]]) -> None:
    sampler = _make(kind, capacity, seed)
    views = _Views()
    before = views.read(sampler)
    for step, (name, *args) in enumerate(operations):
        stores = _stores(sampler)
        if name == "process":
            sampler.process(args[0])
        elif name == "extend":
            sampler.extend(args[0], updates=args[1])
        elif name == "split":
            sibling = sampler.split()
            views.read(sibling)
        elif name in ("merge", "merged_sample"):
            other = _make(kind, capacity, seed + step + 1)
            other.extend(list(range(step % 7, 20)), updates=False)
            other_view = views.read(other)
            if name == "merge":
                sampler = sampler.merge([other])
            else:
                drawn = sampler.merged_sample([other])
                assert type(drawn) is list
                assert sampler.sample is before  # the parts are not mutated
            assert other.sample is other_view
        else:
            sampler.reset()
        after = views.read(sampler)
        if name in ("process", "extend") and _stores(sampler) == stores:
            assert after is before, (name, args)
        views.check_unchanged()
        before = after
    views.check_unchanged()


class TestStoredSampleViews:
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data(), capacity=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_random_operation_sequences_keep_the_view_contract(self, kind, data, capacity, seed):
        _play(kind, capacity, seed, data.draw(_operations(kind)))

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_every_mutating_path_is_reached(self, kind):
        """A fixed sequence through each path that stores: the fill, the
        eviction branch of ``process``, ``extend``'s fill and replacement
        loop, and (uniform reservoir) both sides of ``split``."""
        sampler = _make(kind, 3, 7)
        views = _Views()
        first = views.read(sampler)
        sampler.extend([], updates=True)
        assert views.read(sampler) is first
        sampler.extend([1, 2], updates=True)
        views.read(sampler)
        for element in range(3, 40):
            sampler.process(element)
            views.read(sampler)
        for updates in (True, False):
            sampler.extend(list(range(100, 400)), updates=updates)
            views.read(sampler)
        if "split" in _KINDS[kind]:
            views.read(sampler.split())
            views.read(sampler)
        sampler.reset()
        assert views.read(sampler) == ()
        views.check_unchanged()

    def test_a_held_view_keeps_the_old_sample(self):
        reservoir = ReservoirSampler(2, seed=0)
        reservoir.extend([1, 2])
        held = reservoir.sample
        reservoir.process(3)
        reservoir.reset()
        assert held == (1, 2)
        assert reservoir.sample == ()

    @pytest.mark.parametrize("kind", ["bernoulli", "uniform"])
    def test_size_reads_build_no_view(self, kind):
        sampler = _make(kind, 4, 3)
        sampler.extend(list(range(50)), updates=False)
        assert sampler._view is None
        assert sampler.sample_size == len(sampler._sample)
        assert sampler.memory_footprint() == len(sampler._sample)
        assert sampler._view is None

    def test_sharded_reads_build_no_site_view(self):
        """The ledger's per-read payload is the sites' footprints: a
        coordinator read never builds a view of a site's sample."""
        sharded = ShardedSampler(
            3, lambda rng: ReservoirSampler(4, seed=rng), strategy="round_robin", seed=2
        )
        sharded.extend(list(range(60)), updates=False)
        assert len(sharded.sample) == 4
        assert all(sharded._sites[site]._view is None for site in range(3))


# ----------------------------------------------------------------------
# Views derived from other state: sliding windows and heap samplers
# ----------------------------------------------------------------------
#: Window geometries ``(capacity, window)``.
_GEOMETRIES = [(1, 1), (3, 8), (8, 48)]

_HEAPS = {"priority": PrioritySampler, "weighted-reservoir": WeightedReservoirSampler}


def _window_oracle(window: SlidingWindowSampler) -> tuple[Any, ...]:
    """The stable priority sort of the live candidates, cut at ``capacity``."""
    cutoff = window.rounds_processed - window.window
    live = [candidate for candidate in window._candidates if candidate[0] > cutoff]
    ranked = sorted(live, key=lambda candidate: candidate[1])
    return tuple(element for _arrival, _priority, element in ranked[: window.capacity])


def _heap_oracle(sampler: Any) -> tuple[Any, ...]:
    """The heap's elements in heap order."""
    return tuple(element for _key, _tiebreak, element in sampler._heap)


#: The most elements one operation feeds a sampler.
_BATCH = 30


def _derived_operations(merges: bool) -> st.SearchStrategy[list[tuple[Any, ...]]]:
    choices = [
        st.tuples(st.just("process")),
        st.tuples(st.just("extend"), st.integers(0, _BATCH), st.booleans()),
        st.tuples(st.just("reset")),
    ]
    if merges:
        choices.append(st.tuples(st.just("merge"), st.integers(0, _BATCH)))
    return st.lists(st.one_of(choices), max_size=40)


def _play_derived(
    sampler: Any,
    oracle: Callable[[Any], tuple[Any, ...]],
    operations: list[tuple[Any, ...]],
    tied: _TiedPriorities | None = None,
) -> None:
    """Run ``operations`` on ``sampler``, reading after each.  Elements are a
    running count, so every element is distinct and a stale view never
    equals the oracle.

    The view must stay the same object when nothing changed: a heap
    sampler's heap is equal, or a window accepted no arrival and expired no
    candidate (candidates expire oldest first) on its per-round path.
    """
    views = _Views(oracle)
    fresh = itertools.count()
    is_window = isinstance(sampler, SlidingWindowSampler)
    before = views.read(sampler)
    for step, (name, *args) in enumerate(operations):
        unchanged = False
        if name in ("process", "extend"):
            heap = list(getattr(sampler, "_heap", ()))
            oldest = sampler._candidates[0][0] if is_window and sampler._candidates else np.inf
            elements = [next(fresh) for _ in range(1 if name == "process" else args[0])]
            if name == "process":
                updates = [sampler.process(elements[0])]
            else:
                updates = sampler.extend(elements, updates=args[1])
            if not is_window:
                unchanged = sampler._heap == heap
            elif updates is None:  # the batch kernel installs a new candidate set
                unchanged = not elements
            else:
                cutoff = sampler.rounds_processed - sampler.window
                unchanged = oldest > cutoff and not any(update.accepted for update in updates)
        elif name == "merge":
            other = SlidingWindowSampler(sampler.capacity, sampler.window, seed=step)
            if tied is not None:
                other._rng = _TiedPriorities(step, args[0])
            other.extend([next(fresh) for _ in range(args[0])], updates=False)
            other_view = views.read(other)
            merged = sampler.merge([other], rng=np.random.default_rng(step))
            assert sampler.sample is before and other.sample is other_view
            sampler = merged
            if tied is not None:
                sampler._rng = tied
        else:
            sampler.reset()
        after = views.read(sampler)
        if unchanged:
            assert after is before, (name, args)
        views.check_unchanged()
        before = after


class TestDerivedViews:
    @pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
    @pytest.mark.parametrize("capacity,window", _GEOMETRIES)
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(operations=_derived_operations(merges=True), seed=st.integers(0, 2**16))
    def test_window_operation_sequences_keep_the_view_contract(
        self, capacity, window, tied, operations, seed
    ):
        sampler = SlidingWindowSampler(capacity, window, seed=seed)
        stub = None
        if tied:
            sampler._rng = stub = _TiedPriorities(seed, _BATCH * len(operations))
        _play_derived(sampler, _window_oracle, operations, stub)

    @pytest.mark.parametrize("capacity", [1, 5])
    @pytest.mark.parametrize("kind", sorted(_HEAPS))
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(operations=_derived_operations(merges=False), seed=st.integers(0, 2**16))
    def test_heap_operation_sequences_keep_the_view_contract(self, kind, capacity, operations, seed):
        _play_derived(_HEAPS[kind](capacity, seed=seed), _heap_oracle, operations)

    @pytest.mark.parametrize("capacity,window", _GEOMETRIES)
    def test_every_window_path_is_reached(self, capacity, window):
        """A fixed sequence through acceptances, rejections, expiries,
        both ``extend`` kernels, a merge and ``reset``."""
        operations = [("process",)] * 150 + [("extend", 20, True), ("extend", 20, False)]
        operations += [("merge", 10), ("process",), ("extend", 0, False), ("reset",)]
        _play_derived(SlidingWindowSampler(capacity, window, seed=3), _window_oracle, operations)

    @pytest.mark.parametrize("capacity", [1, 5])
    @pytest.mark.parametrize("kind", sorted(_HEAPS))
    def test_every_heap_path_is_reached(self, kind, capacity):
        """The fill, evictions and rejections of ``process``, both fill
        and replacement in ``extend``, an empty ``extend`` and ``reset``."""
        operations = [("process",)] * 3 + [("extend", 10, True), ("extend", 0, False)]
        operations += [("process",)] * 40 + [("extend", 200, False), ("reset",), ("process",)]
        _play_derived(_HEAPS[kind](capacity, seed=4), _heap_oracle, operations)

    @pytest.mark.parametrize(
        "make",
        [lambda: SlidingWindowSampler(2, 4, seed=0), lambda: PrioritySampler(2, seed=0)],
        ids=["sliding-window", "priority"],
    )
    def test_a_held_view_keeps_the_old_sample(self, make):
        sampler = make()
        sampler.extend([1, 2])
        held = sampler.sample
        sampler.extend(list(range(3, 30)))
        sampler.reset()
        assert sorted(held) == [1, 2]
        assert sampler.sample == ()
