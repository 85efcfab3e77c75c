"""The reservoir's batch kernel against its earlier form.

``ReservoirSampler.extend`` (uniform eviction) copies a batch once, iterates
its acceptances as Python ints and makes no victim draw for a batch that
accepts nothing.  None of that may move a draw: ``_reference_extend`` below
is the kernel as it stood before, which copied the batch twice and always
drew the victim slots, a size-0 draw when nothing was accepted.  Random
sequences of batches, crossing the fill boundary, accepting nothing at
large round counts, with and without update records and with per-element
``process`` rounds between them, run on twin samplers; after every step
the stored sample, insertion rounds, acceptance count, round counter,
generator state and update records must be equal, and so must the next
``random()`` and ``integers()`` draws at the end.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sample_views import EXAMPLES

from repro.samplers import ReservoirSampler
from repro.samplers.base import UpdateBatch


def _reference_extend(sampler: ReservoirSampler, elements: Any, updates: bool = True) -> UpdateBatch | None:
    """The uniform-eviction batch kernel as it was, verbatim but for ``self``."""
    self = sampler
    elements = list(elements)
    fill_batch: UpdateBatch | None = None
    position = 0
    # Fill phase (and any rounds before it): sequential, at most k steps.
    if elements and len(self._sample) < self.capacity:
        position = min(len(elements), self.capacity - len(self._sample))
        fill = elements[:position]
        start_round = self._round
        self._sample.extend(fill)
        self._view = None
        self._insertion_order.extend(
            range(start_round + 1, start_round + len(fill) + 1)
        )
        self._total_accepted += len(fill)
        self._round += len(fill)
        if updates:
            fill_batch = UpdateBatch(
                np.arange(start_round + 1, start_round + len(fill) + 1, dtype=np.int64),
                fill,
                np.ones(len(fill), dtype=bool),
            )
    rest = elements[position:]
    if not rest:
        return (fill_batch or UpdateBatch.empty()) if updates else None
    start_round = self._round
    round_indices = np.arange(start_round + 1, start_round + len(rest) + 1)
    coins = self._rng.random(len(rest))
    accepted = coins < (self.capacity / round_indices)
    accepted_positions = np.flatnonzero(accepted)
    slots = self._rng.integers(0, self.capacity, size=len(accepted_positions))
    self._round = start_round + len(rest)
    self._total_accepted += len(accepted_positions)
    if len(accepted_positions):
        self._view = None
    evictions: dict[int, Any] | None = {} if updates else None
    for offset, slot in zip(accepted_positions, slots):
        slot = int(slot)
        if evictions is not None:
            evictions[int(offset)] = self._sample[slot]
        self._sample[slot] = rest[offset]
        self._insertion_order[slot] = start_round + int(offset) + 1
    if not updates:
        return None
    batch = UpdateBatch(round_indices, rest, accepted, evictions)
    if fill_batch is not None and len(fill_batch):
        return UpdateBatch.concat([fill_batch, batch])
    return batch


def _state(sampler: ReservoirSampler) -> tuple[Any, ...]:
    return (
        sampler._sample,
        sampler._insertion_order,
        sampler.total_accepted,
        sampler.rounds_processed,
        sampler.sample,
        sampler._rng.bit_generator.state,
    )


def _records(batch: UpdateBatch | None) -> Any:
    if batch is None:
        return None
    return (
        batch.round_indices.tolist(),
        list(batch.elements),
        batch.accepted.tolist(),
        batch.evictions,
        [type(key) for key in batch.evictions],
    )


def _play(capacity: int, seed: int, operations: list[tuple[Any, ...]]) -> int:
    """Run ``operations`` on twin samplers; the number of batches past the
    fill that accepted nothing."""
    kernel = ReservoirSampler(capacity, seed=seed)
    reference = ReservoirSampler(capacity, seed=seed)
    fresh = itertools.count()
    idle = 0
    for name, size, updates in operations:
        elements = [next(fresh) for _ in range(size)]
        if name == "process":
            assert [kernel.process(e) for e in elements] == [reference.process(e) for e in elements]
        else:
            filled = len(kernel._sample) == capacity
            before = kernel.total_accepted
            assert _records(kernel.extend(elements, updates=updates)) == _records(
                _reference_extend(reference, elements, updates=updates)
            )
            idle += bool(size and filled and kernel.total_accepted == before)
        assert _state(kernel) == _state(reference)
    assert kernel._rng.random() == reference._rng.random()
    assert kernel._rng.integers(0, 2**31) == reference._rng.integers(0, 2**31)
    assert kernel._rng.integers(0, capacity, size=3).tolist() == reference._rng.integers(
        0, capacity, size=3
    ).tolist()
    return idle


def _operations() -> st.SearchStrategy[list[tuple[Any, ...]]]:
    # Sizes up to 3000 push the round count far enough past the capacity
    # that short batches usually accept nothing.
    size = st.one_of(st.integers(0, 12), st.integers(0, 3_000))
    return st.lists(
        st.tuples(st.sampled_from(["extend", "extend", "process"]), size, st.booleans()),
        max_size=12,
    ).map(lambda ops: [(n, s if n == "extend" else min(s, 12), u) for n, s, u in ops])


@pytest.mark.parametrize("capacity", [1, 3, 16])
@settings(max_examples=EXAMPLES, deadline=None)
@given(operations=_operations(), seed=st.integers(0, 2**16))
def test_batch_kernel_matches_the_reference(capacity, operations, seed):
    _play(capacity, seed, operations)


@pytest.mark.parametrize("capacity", [1, 3, 16])
def test_every_path_is_reached(capacity):
    """A fill that ends inside a batch, per-element rounds after it, a long
    batch that accepts, and short batches past it that accept nothing."""
    operations = [("extend", capacity + 2, True), ("process", 3, True), ("extend", 2_000, False)]
    operations += [("extend", 2, updates) for updates in (True, False)] * 4
    operations += [("extend", 0, True), ("extend", 50, True)]
    assert _play(capacity, 11, operations) >= 4
