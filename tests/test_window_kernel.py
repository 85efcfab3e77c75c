"""The sliding-window kernel against a brute-force window model.

``SlidingWindowSampler`` keeps its candidates twice: in arrival order, and
ranked (a stable priority sort) with each one's priority and domination
count.  Random sequences of ``process``, ``extend`` with and without update
records, consecutive and trailing-offset merges (each followed by more
streaming) and ``reset`` check after every step that both lists, the counts
and the sample equal a model that keeps every live arrival and recomputes
everything from the definitions, with random priorities and with forced
ties.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sample_views import EXAMPLES
from test_samplers_extend import _assert_counts, _TiedPriorities

from repro.samplers import SlidingWindowSampler

#: Window geometries ``(capacity, window)``.
_GEOMETRIES = [(1, 1), (3, 8), (8, 48)]

#: The most elements one operation feeds a sampler.
_BATCH = 24


class _WindowModel:
    """Every live arrival ``(arrival, priority, element)``, later ones after
    earlier ones, with priorities drawn from a twin of the sampler's
    generator.  A merge of parts whose arrival indices interleave keeps the
    merged parts' order among equal indices, as the sampler's merge does."""

    def __init__(self, capacity: int, window: int, draws: Any) -> None:
        self.capacity, self.window, self.draws = capacity, window, draws
        self.stream: list[tuple[int, float, Any]] = []
        self.round = 0

    def arrive(self, element: Any) -> None:
        self.round += 1
        self.stream.append((self.round, float(self.draws.random()), element))
        self._expire()

    def merge(self, other: _WindowModel, offsets: list[int] | None) -> None:
        if offsets is None:
            offsets = [0, self.round]
        shifted = [
            (arrival + offset, priority, element)
            for model, offset in zip((self, other), offsets)
            for arrival, priority, element in model.stream
        ]
        self.stream = sorted(shifted, key=lambda entry: entry[0])
        self.round = max(offset + model.round for model, offset in zip((self, other), offsets))
        self._expire()

    def reset(self) -> None:
        self.stream, self.round = [], 0

    def _expire(self) -> None:
        cutoff = self.round - self.window
        self.stream = [entry for entry in self.stream if entry[0] > cutoff]

    def sample(self) -> list[tuple[int, float, Any]]:
        """The ``capacity`` smallest live priorities, ties broken by arrival."""
        return sorted(self.stream, key=lambda entry: entry[1])[: self.capacity]

    def candidates(self) -> list[tuple[tuple[int, float, Any], int]]:
        """The live arrivals with fewer than ``capacity`` later live arrivals
        of strictly smaller priority, each with that number."""
        counted = [
            (entry, sum(later[1] < entry[1] for later in self.stream[i + 1 :]))
            for i, entry in enumerate(self.stream)
        ]
        return [(entry, count) for entry, count in counted if count < self.capacity]


def _check(sampler: SlidingWindowSampler, model: _WindowModel) -> None:
    """The candidates, their stored counts and the sample equal the model's,
    and the ranked lists are a stable priority sort of the candidates."""
    expected = model.candidates()
    assert sampler.rounds_processed == model.round
    assert sampler._candidates == [entry for entry, _count in expected]
    _assert_counts(sampler)
    stored = dict(zip(map(id, sampler._ranked), sampler._counts))
    assert [stored[id(entry)] for entry in sampler._candidates] == [count for _entry, count in expected]
    ranked = tuple(element for _arrival, _priority, element in sampler._ranked[: sampler.capacity])
    assert sampler.sample == ranked
    assert list(ranked) == [element for _arrival, _priority, element in model.sample()]


def _twin(seed: int, tied: bool, draws: int) -> Any:
    """A priority source and a twin handing out the same priorities."""
    if tied:
        return _TiedPriorities(seed, draws), _TiedPriorities(seed, draws)
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _operations() -> st.SearchStrategy[list[tuple[Any, ...]]]:
    return st.lists(
        st.one_of(
            st.tuples(st.just("process"), st.integers(1, _BATCH)),
            st.tuples(st.just("extend"), st.integers(0, _BATCH), st.booleans()),
            st.tuples(
                st.just("merge"),
                st.sampled_from(["consecutive", "trailing"]),
                st.integers(0, _BATCH),
                st.integers(1, _BATCH),
            ),
            st.tuples(st.just("reset")),
        ),
        max_size=25,
    )


def _stream_through(sampler, model, elements, record) -> None:
    """Feed ``elements`` one at a time through ``process`` (or, with
    ``record``, one ``extend(updates=True)``), checking each acceptance."""
    if record:
        updates = list(sampler.extend(elements, updates=True))
    else:
        updates = [sampler.process(element) for element in elements]
    assert len(updates) == len(elements)
    for update, element in zip(updates, elements):
        model.arrive(element)
        newest = model.stream[-1]
        assert (update.round_index, update.element) == (newest[0], element)
        assert update.accepted == (newest in model.sample())


def _play(capacity: int, window: int, tied: bool, seed: int, operations) -> None:
    draws = 2 * _BATCH * len(operations) + 1
    source, twin = _twin(seed, tied, draws)
    sampler = SlidingWindowSampler(capacity, window, seed=0)
    sampler._rng = source
    model = _WindowModel(capacity, window, twin)
    fresh = itertools.count()
    for step, (name, *args) in enumerate(operations):
        if name == "process":
            _stream_through(sampler, model, [next(fresh) for _ in range(args[0])], False)
        elif name == "extend":
            elements = [next(fresh) for _ in range(args[0])]
            if args[1]:
                _stream_through(sampler, model, elements, True)
            else:
                assert sampler.extend(elements, updates=False) is None
                for element in elements:
                    model.arrive(element)
        elif name == "merge":
            kind, size, after = args
            other_source, other_twin = _twin(seed + step + 1, tied, size)
            other = SlidingWindowSampler(capacity, window, seed=0)
            other._rng = other_source
            other_model = _WindowModel(capacity, window, other_twin)
            elements = [next(fresh) for _ in range(size)]
            other.extend(elements, updates=False)
            for element in elements:
                other_model.arrive(element)
            offsets = None
            if kind == "trailing":  # as a sharded coordinator merges its sites
                total = sampler.rounds_processed + other.rounds_processed
                offsets = [total - sampler.rounds_processed, total - other.rounds_processed]
            merged = sampler.merge([other], rng=np.random.default_rng(step), offsets=offsets)
            model.merge(other_model, offsets)
            _check(merged, model)
            # The merged window keeps drawing from the source the model's twin follows.
            merged._rng, sampler = sampler._rng, merged
            _stream_through(sampler, model, [next(fresh) for _ in range(after)], False)
        else:
            sampler.reset()
            model.reset()
        _check(sampler, model)


@pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
@pytest.mark.parametrize("capacity,window", _GEOMETRIES)
@settings(max_examples=EXAMPLES, deadline=None)
@given(operations=_operations(), seed=st.integers(0, 2**16))
def test_window_kernel_matches_the_model(capacity, window, tied, operations, seed):
    _play(capacity, window, tied, seed, operations)


@pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
@pytest.mark.parametrize("capacity,window", _GEOMETRIES)
def test_every_path_is_reached(capacity, window, tied):
    """A fixed sequence through expiries and prunes on both ``extend``
    kernels and ``process``, both merge kinds with streaming after each,
    and ``reset``."""
    operations = [("process", 24)] * 4 + [("extend", 24, True), ("extend", 24, False)]
    operations += [("merge", "consecutive", 24, 24), ("merge", "trailing", 20, 24)]
    operations += [("extend", 0, False), ("reset",), ("process", 5)]
    _play(capacity, window, tied, 5, operations)
