"""Reservoir sampling (the ``ReservoirSample`` algorithm of the paper).

Vitter's Algorithm R [Vit85]: the first ``k`` elements fill the reservoir;
the ``i``-th element (``i > k``) replaces a uniformly random reservoir slot
with probability ``k / i``.  At every point the reservoir is a uniform sample
(without replacement, order-of-arrival semantics) of the stream so far, and
Theorem 1.2 shows that ``k >= 2 (ln|R| + ln(2/delta)) / eps^2`` makes it an
epsilon-approximation with probability ``1 - delta`` against any adaptive
adversary; Theorem 1.4 gives the slightly larger ``k`` needed for the sample
to be representative at *every* prefix simultaneously.

The class also supports two deliberately *wrong* eviction policies ("fifo" and
"oldest-value") used by the ablation experiments: they keep the sample size at
``k`` but break the uniformity that the paper's martingale analysis relies on,
and the benchmarks show how their adversarial error deteriorates.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any, Literal

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RandomState, ensure_generator, spawn_generators
from .base import FixedSizeSampler, SampleUpdate, StoredSample, UpdateBatch

EvictionPolicy = Literal["uniform", "fifo", "min-value"]


class ReservoirSampler(StoredSample, FixedSizeSampler):
    """Maintain a uniform fixed-size sample of the stream seen so far.

    Parameters
    ----------
    capacity:
        The reservoir size ``k``.
    seed:
        Seed or generator for the sampler's private coin flips.
    eviction:
        Which element to overwrite when an element is accepted after the
        reservoir is full.  ``"uniform"`` is Vitter's algorithm (and the only
        policy the paper's guarantees cover); ``"fifo"`` always overwrites the
        oldest surviving element and ``"min-value"`` overwrites the smallest
        element — both are provided solely for the ablation experiments.

    :attr:`sample` is a cached tuple view (:class:`~repro.samplers.base.StoredSample`).
    """

    name = "reservoir"

    def __init__(
        self,
        capacity: int,
        seed: RandomState = None,
        eviction: EvictionPolicy = "uniform",
    ) -> None:
        super().__init__(capacity)
        if eviction not in ("uniform", "fifo", "min-value"):
            raise ConfigurationError(f"unknown eviction policy: {eviction!r}")
        self.eviction = eviction
        self._rng = ensure_generator(seed)
        self._sample: list[Any] = []
        self._view: tuple[Any, ...] | None = None
        self._insertion_order: list[int] = []
        self._total_accepted = 0

    # ------------------------------------------------------------------
    # StreamSampler interface
    # ------------------------------------------------------------------
    def _process(self, element: Any) -> SampleUpdate:
        i = self._round
        if len(self._sample) < self.capacity:
            self._sample.append(element)
            self._view = None
            self._insertion_order.append(i)
            self._total_accepted += 1
            return SampleUpdate(i, element, True)

        accept_probability = self.capacity / i
        if self._rng.random() >= accept_probability:
            return SampleUpdate(i, element, False)

        slot = self._choose_victim_slot()
        evicted = self._sample[slot]
        self._sample[slot] = element
        self._view = None
        self._insertion_order[slot] = i
        self._total_accepted += 1
        return SampleUpdate(i, element, True, evicted)

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        """Vectorised batch ingestion for the uniform eviction policy.

        All acceptance coins for the batch are drawn in one numpy call
        (element ``i`` is accepted with Vitter's probability ``k / i``), and
        victim slots are drawn in one call for the accepted rounds only, so
        the Python-level loop touches just the ``O(k log n)`` expected
        acceptances instead of every element.  A batch that accepts nothing
        makes no victim draw (a size-0 draw would consume no bits anyway),
        and the batch is copied once, into the list the record shares.
        The realised reservoir is a different (equally distributed) draw
        from the sequential path, since the batch consumes the bit stream in
        a different order; seeded runs are reproducible as long as the
        chunking is reproducible.

        The ablation eviction policies ("fifo", "min-value") depend on the
        evolving reservoir state per round and fall back to the sequential
        path.
        """
        if self.eviction != "uniform":
            return super().extend(elements, updates)
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
        rest = elements[position:] if position else elements
        if not rest:
            return (fill_batch or UpdateBatch.empty()) if updates else None
        start_round = self._round
        round_indices = np.arange(start_round + 1, start_round + len(rest) + 1)
        coins = self._rng.random(len(rest))
        accepted = coins < (self.capacity / round_indices)
        accepted_positions = np.flatnonzero(accepted)
        self._round = start_round + len(rest)
        evictions: dict[int, Any] | None = {} if updates else None
        # A size-0 bounded draw consumes no bits, so skipping it when
        # nothing was accepted leaves every later draw as it was.
        if len(accepted_positions):
            slots = self._rng.integers(0, self.capacity, size=len(accepted_positions))
            self._total_accepted += len(accepted_positions)
            self._view = None
            for offset, slot in zip(accepted_positions.tolist(), slots.tolist()):
                if evictions is not None:
                    evictions[offset] = self._sample[slot]
                self._sample[slot] = rest[offset]
                self._insertion_order[slot] = start_round + offset + 1
        if not updates:
            return None
        batch = UpdateBatch(round_indices, rest, accepted, evictions)
        if fill_batch is not None and len(fill_batch):
            return UpdateBatch.concat([fill_batch, batch])
        return batch

    def merge(
        self,
        others: Sequence["ReservoirSampler"],
        *,
        rng: np.random.Generator | None = None,
    ) -> "ReservoirSampler":
        """Merge sharded reservoirs into one uniform sample of the union.

        The [CTW16] coordinator rule: a multivariate-hypergeometric draw
        over the parts' stream counts decides how many of the merged slots
        each part contributes, and those slots are filled by sampling the
        part's reservoir without replacement (``_coordinator_draw``).  The
        merged reservoir is therefore distributed exactly as a uniform
        ``min(capacity, total)``-subset of the union of all substreams, and
        — because Vitter's rule only needs the current round — it can keep
        streaming from round ``total`` onwards without losing uniformity.

        Merge randomness comes from ``rng`` (default: ``self``'s generator,
        which the draw then advances); the parts' samples are not mutated.
        Only the ``"uniform"`` eviction policy is mergeable — the ablation
        policies break the uniformity the hypergeometric rule relies on.

        The merged reservoir is the :meth:`merged_sample` draw plus a
        sampler around it, seeded by one child spawned from ``rng``;
        callers that only read the merged sample use :meth:`merged_sample`.
        """
        merge_rng = self._rng if rng is None else rng
        sample = self._coordinator_draw(others, merge_rng)
        merged = ReservoirSampler(
            self.capacity, seed=spawn_generators(merge_rng, 1)[0]
        )
        merged._sample = sample
        merged._insertion_order = [0] * len(sample)
        merged._total_accepted = len(sample)
        merged._round = self.rounds_processed + sum(
            other.rounds_processed for other in others
        )
        return merged

    def merged_sample(
        self,
        others: Sequence["ReservoirSampler"],
        *,
        rng: np.random.Generator | None = None,
    ) -> list[Any]:
        """The sample :meth:`merge` would hold, without building the sampler.

        The same [CTW16] draw, for coordinators that only serve the merged
        sample.  It advances ``rng`` exactly as :meth:`merge` does: the same
        bits, and one child spawned from its seed sequence, the child
        :meth:`merge` seeds its reservoir with.  Later spawns from ``rng``
        (a reshard's sibling generator) therefore match whichever form the
        caller used, and twin generators give
        ``merged_sample(others, rng=a) == merge(others, rng=b).sample``.
        The child is dropped, so on a stream that spawns lazily
        (:func:`~repro.rng.with_lazy_spawns`, as a sharded deployment's merge
        stream does) it costs one small object.
        """
        merge_rng = self._rng if rng is None else rng
        sample = self._coordinator_draw(others, merge_rng)
        merge_rng.bit_generator.seed_seq.spawn(1)  # type: ignore[attr-defined]
        return sample

    def _coordinator_draw(
        self, others: Sequence["ReservoirSampler"], rng: np.random.Generator
    ) -> list[Any]:
        """The [CTW16] draw: how many merged slots each part fills, then a
        uniform subset of each part's reservoir of that size.

        The allocation is multivariate hypergeometric over the parts' stream
        counts, drawn part by part: one conditional ``hypergeometric`` per
        part, capped at the part's stored sample.  Slack left by the caps
        goes greedily to the first parts with spare stored elements.  Then
        one ``choice(replace=False)`` per part that fills fewer slots than
        it stores.  This call sequence is kept from the first coordinator,
        so seeded merges reproduce across releases.
        """
        parts = self._validate_merge_parts(others)
        total = sum([part._round for part in parts])
        remaining = min(self.capacity, total)
        allocation: list[int] = []
        for part in parts:
            if remaining == 0:
                break
            count = part._round
            # After a cap the slots left can outnumber the rounds left, and
            # then each later part gives all it can.
            draw = remaining
            if remaining <= total:
                draw = int(rng.hypergeometric(count, total - count, remaining))
            draw = min(draw, count, len(part._sample), remaining)
            allocation.append(draw)
            remaining -= draw
            total -= count
        index = 0
        while remaining and index < len(allocation):
            grant = min(len(parts[index]._sample) - allocation[index], remaining)
            if grant > 0:
                allocation[index] += grant
                remaining -= grant
            index += 1
        sample: list[Any] = []
        for part, slots in zip(parts, allocation):
            local = part._sample
            if slots == len(local):
                sample.extend(local)
            elif slots:
                picks = rng.choice(len(local), size=slots, replace=False)
                sample.extend(map(local.__getitem__, picks.tolist()))
        return sample

    def split(
        self, *, rng: np.random.Generator | None = None
    ) -> "ReservoirSampler":
        """Split off a sibling reservoir — the [CTW16] merge rule in reverse.

        The reservoir's ``n`` processed rounds are notionally divided in
        half (``n // 2`` to the sibling, the rest stay here); a
        hypergeometric draw decides how many of the stored sample elements
        belong to the sibling's half, and a uniform subset of that size
        moves over.  Because the stored sample is a uniform subset of the
        ``n`` rounds, each side ends up holding a uniform subset of its own
        half — so a later :meth:`merge` of the two sides is again exactly
        uniform over the union, which is what makes mid-stream resharding
        exact for reservoirs.  Split randomness comes from ``rng`` (default:
        this reservoir's generator); ``self`` keeps streaming from round
        ``n - n // 2`` and is mutated in place.

        Only the ``"uniform"`` eviction policy is splittable, for the same
        reason only it is mergeable.
        """
        if self.eviction != "uniform":
            raise ConfigurationError(
                f"the {self.eviction!r} eviction ablation is not splittable"
            )
        split_rng = self._rng if rng is None else rng
        n = self.rounds_processed
        n_sibling = n // 2
        n_keep = n - n_sibling
        stored = len(self._sample)
        take = 0
        if stored and n_sibling:
            take = int(
                split_rng.hypergeometric(
                    ngood=n_sibling, nbad=n_keep, nsample=stored
                )
            )
        sibling = ReservoirSampler(
            self.capacity, seed=spawn_generators(split_rng, 1)[0]
        )
        chosen: set[int] = set()
        if take:
            chosen = {
                int(i)
                for i in split_rng.choice(stored, size=take, replace=False)
            }
        sibling._sample = [self._sample[i] for i in sorted(chosen)]
        sibling._insertion_order = [0] * take
        sibling._total_accepted = take
        sibling._round = n_sibling
        keep = [i for i in range(stored) if i not in chosen]
        self._sample = [self._sample[i] for i in keep]
        self._view = None
        self._insertion_order = [self._insertion_order[i] for i in keep]
        self._round = n_keep
        return sibling

    def degradation_report(self) -> dict[str, Any]:
        """Uniform-sample degradation: how far below capacity the sample sits.

        A reservoir degraded by merges over survivor subsets (or by a
        state split) stays exactly uniform over the rounds it still
        represents, but may hold fewer than ``min(capacity, rounds)``
        elements; ``shortfall`` quantifies that gap.
        """
        expected = min(self.capacity, self.rounds_processed)
        return {
            "family": self.name,
            "rounds": self.rounds_processed,
            "sample_size": len(self._sample),
            "capacity": self.capacity,
            "expected_size": expected,
            "shortfall": expected - len(self._sample),
        }

    def _validate_merge_parts(
        self, others: Sequence["ReservoirSampler"]
    ) -> list["ReservoirSampler"]:
        parts = [self, *others]
        for part in parts:
            if not isinstance(part, ReservoirSampler):
                raise ConfigurationError(
                    f"cannot merge a ReservoirSampler with {type(part).__name__}"
                )
            if part.capacity != self.capacity:
                raise ConfigurationError(
                    "cannot merge reservoirs of different capacities: "
                    f"{self.capacity} vs {part.capacity}"
                )
            if part.eviction != "uniform":
                raise ConfigurationError(
                    f"the {part.eviction!r} eviction ablation is not mergeable"
                )
        return parts

    def reset(self) -> None:
        self._sample = []
        self._view = None
        self._insertion_order = []
        self._total_accepted = 0
        self._round = 0

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------
    @property
    def total_accepted(self) -> int:
        """Total number of elements ever accepted (including later-evicted ones).

        The lower-bound analysis of Theorem 1.3 denotes this quantity ``k'``
        and shows it is ``O(k ln n)`` with high probability; experiment E3
        measures it directly.
        """
        return self._total_accepted

    def acceptance_probability(self, round_index: int) -> float:
        """The probability with which the element of the given round is accepted."""
        if round_index < 1:
            raise ConfigurationError(f"round index must be >= 1, got {round_index}")
        if round_index <= self.capacity:
            return 1.0
        return self.capacity / round_index

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _choose_victim_slot(self) -> int:
        if self.eviction == "uniform":
            return int(self._rng.integers(0, self.capacity))
        if self.eviction == "fifo":
            oldest_round = min(self._insertion_order)
            return self._insertion_order.index(oldest_round)
        # "min-value": evict the smallest stored element.  Ties are broken by
        # slot index, which is deterministic and therefore maximally
        # exploitable by an adversary — the point of the ablation.
        smallest = min(range(self.capacity), key=lambda slot: self._sample[slot])
        return smallest
