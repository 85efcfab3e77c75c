"""The sample-view contract of the samplers that store their sample.

``BernoulliSampler.sample`` and ``ReservoirSampler.sample`` are tuples
cached until the sample next changes (``StoredSample``).  Random sequences
of every operation that applies to a sampler (``process``, ``extend`` with
and without update records, ``split``, ``merge``, ``merged_sample`` and
``reset``) check that every view equals the stored sample, that reads with
no store in between return the same object and that a view handed out
earlier never changes.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import ShardedSampler
from repro.samplers import BernoulliSampler, ReservoirSampler

#: The operations each sampler kind supports.
_KINDS = {
    "bernoulli": ("process", "extend", "merge", "reset"),
    "uniform": ("process", "extend", "split", "merge", "merged_sample", "reset"),
    "fifo": ("process", "extend", "reset"),
    "min-value": ("process", "extend", "reset"),
}

_elements = st.integers(0, 40)


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


class _Views:
    """Every view handed out so far, with the contents it had then."""

    def __init__(self) -> None:
        self.taken: list[tuple[tuple[Any, ...], list[Any]]] = []

    def read(self, sampler: Any) -> tuple[Any, ...]:
        view = sampler.sample
        assert type(view) is tuple
        assert list(view) == sampler._sample
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
    @settings(max_examples=60, deadline=None)
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
