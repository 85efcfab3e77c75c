"""The key-heap kernel against a first-principles model.

``WeightedReservoirSampler`` (A-Res) and ``PrioritySampler`` share one heap
kernel, per element and batched, and differ only in their key.  Random
sequences of ``process``, ``extend`` with and without update records,
``reset`` and rejected inputs check after every step that the records, the
round counter and the heap's ``(key, element)`` multiset equal a model that
draws the same uniforms from a twin generator, computes each key from its
textbook formula (``u^(1/w)`` and ``w/u``) and keeps the ``capacity``
largest.  Keys are assumed distinct: with ties the kept set depends on
arrival order, which the ``_heap``-equality tests of
``tests/test_samplers_extend.py`` pin instead.
"""

from __future__ import annotations

import itertools
import math
from typing import Any

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from test_sample_views import EXAMPLES

from repro.exceptions import ConfigurationError
from repro.samplers import PrioritySampler, WeightedReservoirSampler

#: Each family's key from its textbook formula, given ``(u, w)``.
_KEYS = {
    WeightedReservoirSampler: lambda uniform, weight: uniform ** (1.0 / weight),
    PrioritySampler: lambda uniform, weight: weight / uniform,
}

#: The most elements one operation feeds a sampler.
_BATCH = 24

#: Invalid weights; ``"raise"`` makes the weight callable raise instead.
_BAD = [0.0, -2.0, math.nan, "raise"]

#: How a batch goes in: one element at a time through ``process`` (``None``)
#: or one ``extend(updates=...)``.
_PATHS = [None, True, False]


class _Refused(Exception):
    """What the weight callable raises for an element marked ``"raise"``."""


class _Tied(Exception):
    """Two keys drawn in one sequence are equal."""


class _Weights:
    """Spread weights in [0.5, 8], so no A-Res key underflows, and the
    invalid weights of the elements marked bad."""

    def __init__(self, seed: int) -> None:
        self.table = np.random.default_rng(seed).uniform(0.5, 8.0, size=64 * _BATCH)
        self.bad: dict[int, Any] = {}

    def __call__(self, element: int) -> float:
        if element in self.bad:
            if self.bad[element] == "raise":
                raise _Refused(element)
            return self.bad[element]
        return float(self.table[element % len(self.table)])


class _KeyHeapModel:
    """Every arrival's key from the textbook formula over a twin generator's
    uniforms; the ``capacity`` largest ``(key, element)`` pairs are kept."""

    def __init__(self, family: type, capacity: int, weight: Any, draws: np.random.Generator) -> None:
        self.key, self.capacity, self.weight, self.draws = _KEYS[family], capacity, weight, draws
        self.kept: list[tuple[float, Any]] = []
        self.round = 0
        self.seen: set[float] = set()

    def arrive(self, element: Any) -> tuple[bool, Any]:
        """Take one arrival; return whether it was kept and whom it evicted."""
        self.round += 1
        weight = 1.0 if self.weight is None else self.weight(element)
        key = self.key(float(self.draws.random()), weight)
        if key in self.seen:
            raise _Tied
        self.seen.add(key)
        if len(self.kept) < self.capacity:
            self.kept.append((key, element))
            return True, None
        lowest = min(self.kept)
        if key > lowest[0]:
            self.kept.remove(lowest)
            self.kept.append((key, element))
            return True, lowest[1]
        return False, None

    def reset(self) -> None:
        self.kept, self.round = [], 0


def _check(sampler, model) -> None:
    assert sampler.rounds_processed == model.round
    heap = [(key, element) for key, _tiebreak, element in sampler._heap]
    assert sorted(heap) == sorted(model.kept)
    assert sampler.smallest_key == (min(model.kept)[0] if model.kept else None)


def _stream_through(sampler, model, elements, record) -> None:
    """Feed ``elements`` along the path ``record`` names (see :data:`_PATHS`),
    checking every record against the model."""
    if record is None:
        updates = [sampler.process(element) for element in elements]
    elif record:
        updates = list(sampler.extend(elements, updates=True))
    else:
        assert sampler.extend(elements, updates=False) is None
        updates = None
    start = model.round
    expected = [
        (start + 1 + offset, element, *model.arrive(element)) for offset, element in enumerate(elements)
    ]
    if updates is not None:
        assert [tuple(update) for update in updates] == expected


def _reject(sampler, elements, bad, record) -> None:
    """A batch holding the invalid element ``elements[-1]`` (alone when
    ``record`` is ``None``, through ``process``) changes nothing."""
    before = (list(sampler._heap), sampler._tiebreak, sampler._rng.bit_generator.state)
    with pytest.raises(_Refused if bad == "raise" else ConfigurationError):
        if record is None:
            sampler.process(elements[-1])
        else:
            sampler.extend(elements, updates=record)
    assert (list(sampler._heap), sampler._tiebreak, sampler._rng.bit_generator.state) == before


def _play(family, capacity, spread, seed, operations) -> None:
    weight = _Weights(seed) if spread else None
    sampler = family(capacity, weight=weight, seed=np.random.default_rng(seed))
    model = _KeyHeapModel(family, capacity, weight, np.random.default_rng(seed))
    fresh = itertools.count()
    for name, *args in operations:
        if name == "feed":
            _stream_through(sampler, model, [next(fresh) for _ in range(args[0])], args[1])
        elif name == "reject":
            bad, size, record = args
            elements = [next(fresh) for _ in range(size + 1)]
            weight.bad[elements[-1]] = bad
            _reject(sampler, elements, bad, record)
        else:
            sampler.reset()
            model.reset()
        _check(sampler, model)


def _play_distinct(*args) -> None:
    """:func:`_play`, discarding a sequence whose keys tie."""
    try:
        _play(*args)
    except _Tied:
        reject()


def _operations(spread: bool) -> st.SearchStrategy[list[tuple[Any, ...]]]:
    choices = [
        st.tuples(st.just("feed"), st.integers(0, _BATCH), st.sampled_from(_PATHS)),
        st.tuples(st.just("reset")),
    ]
    if spread:
        size, path = st.integers(0, _BATCH), st.sampled_from(_PATHS)
        choices.append(st.tuples(st.just("reject"), st.sampled_from(_BAD), size, path))
    return st.lists(st.one_of(choices), max_size=25)


_CASES = pytest.mark.parametrize("capacity", [1, 5])
_FAMILIES = pytest.mark.parametrize("family", list(_KEYS), ids=lambda family: family.name)


@_FAMILIES
@_CASES
@settings(max_examples=EXAMPLES, deadline=None)
@given(operations=_operations(spread=False), seed=st.integers(0, 2**16))
def test_unit_weights_match_the_model(family, capacity, operations, seed):
    _play_distinct(family, capacity, False, seed, operations)


@_FAMILIES
@_CASES
@settings(max_examples=EXAMPLES, deadline=None)
@given(operations=_operations(spread=True), seed=st.integers(0, 2**16))
def test_spread_weights_match_the_model(family, capacity, operations, seed):
    _play_distinct(family, capacity, True, seed, operations)


@_FAMILIES
@_CASES
@pytest.mark.parametrize("spread", [False, True], ids=["unit", "spread"])
def test_every_path_is_reached(family, capacity, spread):
    """A fixed sequence through the fill, evictions on ``process`` and on
    both ``extend`` record modes, a ``reset``, and (with a weight callable)
    every kind of rejection on every path."""
    operations = [("feed", 3, None), ("feed", 24, True), ("feed", 24, False), ("feed", 24, None)]
    operations += [("feed", 0, True), ("reset",), ("feed", 24, True)]
    if spread:
        operations += [("reject", bad, 5, path) for bad in _BAD for path in _PATHS]
        operations += [("feed", 24, None), ("feed", 24, False)]
    _play(family, capacity, spread, 7, operations)
