"""Composable robust-defense wrappers around any :class:`StreamSampler`.

The paper (Section 1.3) leaves open how to *defend* a sampler beyond
Theorem 1.2's oversampling; the follow-up literature supplies generic
recipes, all of the same shape — run several independent copies of the
sampler and control what the adversary gets to observe:

* **Sketch switching** ([BJWY20]): serve queries from one *active* copy and
  advance to a fresh copy once the active one has been exposed to the
  adversary, with a flip-number-style budget on the number of switches.
  Whatever the adversary learned about the realised randomness of the old
  copy is useless against the new one.
* **DP aggregation** ([HKMMS20]): never expose any single copy
  consistently — serve each observation from a pseudo-randomly selected
  copy, and answer scalar estimate queries (densities, quantiles,
  heavy-hitter counts) with a noised median over all copies, so no
  observation pins down one copy's coin flips.
* **Difference estimators** ([WZ21]), specialised here to the
  sliding-window deployments: rotate the serving copy on the window's own
  turnover schedule.  By the time a copy serves again, everything the
  adversary learned about it has expired out of its window, which is what
  lets a *finite* set of copies be recycled indefinitely.

All three are ordinary :class:`~repro.samplers.base.StreamSampler`\\ s, so
they drop into every existing scenario, game runner and sharded deployment
unchanged.  Ingestion feeds **every** copy (one vectorised ``extend`` kernel
call per copy per segment, preserving the chunked fast paths), and
:class:`~repro.samplers.base.Mergeable` is implemented copy-wise, so a
:class:`~repro.distributed.sharded.ShardedSampler` over defended sites
merges defended coordinator views transparently.

Space accounting: a wrapper with ``R`` copies of a capacity-``k`` sampler
stores ``R * k`` elements (reported by :meth:`memory_footprint`).  The
scenario layer's ``matched_space`` knob divides the per-copy capacity by
``R`` so defended and undefended configurations compare at equal total
space (see :func:`repro.scenarios.builders.build_defended_sampler`).

Determinism: the serving-copy selection never consumes generator state at
read time — sketch switching switches on the (path-independent) sequence of
exposures, DP aggregation selects by a stable hash of the round count, and
the difference estimator rotates on a fixed ingest schedule — so repeated
reads of the same state are idempotent and chunked execution serves exactly
what per-element execution serves.
"""

from __future__ import annotations

import copy as copy_module
import math
from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RandomState, derive_substream, ensure_generator, spawn_generators
from ..samplers.base import SampleUpdate, StreamSampler, UpdateBatch

__all__ = [
    "DPAggregateSampler",
    "DifferenceEstimatorSampler",
    "ReplicatedDefenseSampler",
    "SketchSwitchingSampler",
]

#: Knuth multiplicative constant used for the stable round -> copy hash.
_KNUTH = 2654435761

#: The hash's products wrap mod 2^64, as ``uint64`` arithmetic does.
_MASK64 = (1 << 64) - 1


class ReplicatedDefenseSampler(StreamSampler):
    """Common machinery of the copy-replication defenses.

    Parameters
    ----------
    copy_factory:
        Callable ``(rng) -> StreamSampler`` constructing one copy; called
        ``copies`` times with independent generators derived from ``seed``
        (the same ``(seed, role)`` substream discipline the rest of the
        library uses).
    copies:
        Number of independent copies ``R`` (>= 2 — one copy is no defense).
    seed:
        Single source of randomness for the copies and any defense-internal
        draws (DP noise seeding); ``copies + 1`` substreams are derived.

    Every copy ingests every element; subclasses only decide which copy
    *serves* each observation, by one rule written twice: per round
    (:meth:`_serving_copy`, for ``process`` and reads) and per column of
    rounds (:meth:`_serving_indices`, for ``extend``).  Update records —
    the adversary's feedback under the ``updates`` knowledge model — are the
    serving copy's records for each round, so the adversary observes exactly
    the copy it could also query, never the hidden ones.
    """

    defense_kind = "replicated"

    def __init__(
        self,
        copy_factory: Callable[[np.random.Generator], StreamSampler],
        copies: int = 4,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        if copies < 2:
            raise ConfigurationError(
                f"a replication defense needs at least 2 copies, got {copies}"
            )
        self.copies = int(copies)
        rng = ensure_generator(seed)
        defense_rng, *copy_rngs = spawn_generators(rng, self.copies + 1)
        self._defense_rng = defense_rng
        self._copies: list[StreamSampler] = [copy_factory(r) for r in copy_rngs]
        for copy_ in self._copies:
            if not isinstance(copy_, StreamSampler):
                raise ConfigurationError(
                    f"copy factory produced {type(copy_).__name__}, not a StreamSampler"
                )
        self.name = f"{self.defense_kind}-{self.copies}x-{self._copies[0].name}"

    # ------------------------------------------------------------------
    # Serving policy (subclass responsibility)
    # ------------------------------------------------------------------
    def _serving_indices(self, round_indices: np.ndarray) -> np.ndarray:
        """Copy index serving each of the given 1-based rounds."""
        raise NotImplementedError

    def _serving_copy(self, round_index: int) -> int:
        """Copy index serving the 1-based round ``round_index``: the scalar
        form of :meth:`_serving_indices`, with no array built."""
        raise NotImplementedError

    def _serving_index(self) -> int:
        """Copy index serving a read of the *current* state."""
        return self._serving_copy(self._round) if self._round else 0

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def process(self, element: Any) -> SampleUpdate:
        """Feed ``element`` to every copy; return the serving copy's record.

        A round of a fully adaptive game, so it runs in one frame: the
        scalar rule picks the serving copy and no array is built.
        """
        self._round += 1
        serving = self._serving_copy(self._round)
        updates: list[SampleUpdate] = []
        for copy_ in self._copies:
            updates.append(copy_.process(element))
        return updates[serving]

    def _process(self, element: Any) -> SampleUpdate:  # pragma: no cover
        raise NotImplementedError("replication defenses override process() directly")

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        """One vectorised kernel call per copy; serving-copy update records.

        Each copy ingests the whole segment through its own ``extend``
        kernel.  With ``updates=True`` the returned batch carries, row by
        row, the record of the copy serving that round — a constant copy for
        sketch switching (switches happen at reads, never mid-segment), a
        round-keyed selection for the rotating defenses — gathered columnar
        so the chunked runners never fall back to per-element records.

        A list goes to every copy as it is, shared with the caller and never
        copied, as in :class:`~repro.samplers.base.UpdateBatch`; any other
        iterable is read into one list first, since every copy consumes it.
        """
        if not isinstance(elements, list):
            elements = list(elements)
        if not elements:
            return UpdateBatch.empty() if updates else None
        start_round = self._round
        self._round += len(elements)
        if not updates:
            for copy_ in self._copies:
                copy_.extend(elements, updates=False)
            return None
        round_indices = np.arange(
            start_round + 1, start_round + len(elements) + 1, dtype=np.int64
        )
        serving = self._serving_indices(round_indices)
        needed = {int(index) for index in np.unique(serving)}
        batches: dict[int, UpdateBatch] = {}
        for index, copy_ in enumerate(self._copies):
            batch = copy_.extend(elements, updates=index in needed)
            if index in needed:
                batches[index] = batch
        if len(needed) == 1:
            # Copies ingest every round, so their round indices are already
            # the wrapper's global ones; the single serving batch passes
            # straight through.
            return batches[next(iter(needed))]  # repro: noqa[DET003]: guarded by len(needed) == 1, so the pick is deterministic
        accepted = np.zeros(len(elements), dtype=bool)
        evictions: dict[int, Any] = {}
        for index, batch in batches.items():
            mask = serving == index
            accepted[mask] = batch.accepted[mask]
            for offset, evicted in batch.evictions.items():
                if serving[offset] == index:
                    evictions[offset] = evicted
        return UpdateBatch(round_indices, elements, accepted, evictions)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def sample(self) -> Sequence[Any]:
        """The serving copy's maintained sample."""
        return self._copies[self._serving_index()].sample

    @property
    def sample_size(self) -> int:
        """The serving copy's sample size; a size read shows no sample, so
        it is no exposure."""
        return self._copies[self._serving_index()].sample_size

    def memory_footprint(self) -> int:
        """Elements held across all copies (the defense's true space cost)."""
        return sum(copy_.memory_footprint() for copy_ in self._copies)

    def reset(self) -> None:
        for copy_ in self._copies:
            copy_.reset()
        self._round = 0

    # ------------------------------------------------------------------
    # Mergeable (copy-wise delegation)
    # ------------------------------------------------------------------
    @property
    def merge_wants_offsets(self) -> bool:
        """Whether the inner family's merge takes substream offsets
        (sliding windows do); forwarded so sharded coordinators pass them."""
        return bool(getattr(self._copies[0], "merge_wants_offsets", False))

    def merge(
        self,
        others: Sequence["ReplicatedDefenseSampler"],
        *,
        rng: np.random.Generator | None = None,
        offsets: Sequence[int] | None = None,
    ) -> "ReplicatedDefenseSampler":
        """Merge defended shards copy-wise into one defended summary.

        Copy ``i`` of the result is the inner family's merge of copy ``i``
        of every part — the coordinator of a sharded defended deployment
        holds the same ``R`` independent merged copies a standalone defended
        sampler would, and the serving policy (carried over from ``self``,
        the primary part) applies to the merged state unchanged.  The parts
        are never mutated.
        """
        for other in others:
            if type(other) is not type(self) or other.copies != self.copies:
                raise ConfigurationError(
                    f"cannot merge {type(self).__name__}({self.copies} copies) "
                    f"with {type(other).__name__}"
                    f"({getattr(other, 'copies', '?')} copies)"
                )
        # Each copy's merge gets its *own* child generator.  Passing the one
        # shared ``rng`` object straight through would leave every merged
        # copy drawing from the same stream afterwards, interleaving their
        # post-merge ingestion coins in path-dependent order (chunked drains
        # copy 0 for a whole batch first; per-element alternates copies).
        copy_rngs: Sequence[np.random.Generator | None]
        if rng is None:
            copy_rngs = [None] * self.copies
        else:
            copy_rngs = spawn_generators(rng, self.copies)
        merged_copies = []
        for index in range(self.copies):
            primary = self._copies[index]
            parts = [other._copies[index] for other in others]
            if offsets is not None and getattr(primary, "merge_wants_offsets", False):
                merged_copies.append(
                    primary.merge(parts, rng=copy_rngs[index], offsets=offsets)
                )
            else:
                merged_copies.append(primary.merge(parts, rng=copy_rngs[index]))
        merged = copy_module.copy(self)
        merged._copies = merged_copies
        merged._round = self._round + sum(other._round for other in others)
        return merged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def copy_samplers(self) -> Sequence[StreamSampler]:
        """The underlying copies (read-only view)."""
        return tuple(self._copies)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(copies={self.copies}, "
            f"rounds={self.rounds_processed})"
        )


class SketchSwitchingSampler(ReplicatedDefenseSampler):
    """Sketch switching [BJWY20]: serve one copy, retire it once exposed.

    The active copy serves every observation.  The first observation of
    fresh state marks the copy *exposed*; once the stream has grown by a
    factor of ``growth`` since that exposure, the next observation is served
    by the **next** copy instead — a flip-number-style schedule: over an
    ``n``-element stream at most ``log_growth(n)`` switches can fire, so a
    copy budget of ``R`` covers streams up to ``growth ** (R - 1)`` times
    the first exposure point.  When the budget is exhausted the last copy
    keeps serving (the defense degrades to an undefended sampler rather
    than failing).

    The switch rule reads only the exposure history and the round count —
    both identical across chunked and per-element execution and across
    attack budgets over a shared prefix — so the scenario layer's
    bit-reproducibility, chunking-independence and budget-monotonicity
    invariants all survive the wrapper.
    """

    defense_kind = "sketch_switching"

    def __init__(
        self,
        copy_factory: Callable[[np.random.Generator], StreamSampler],
        copies: int = 4,
        growth: float = 2.0,
        seed: RandomState = None,
    ) -> None:
        if growth <= 1.0:
            raise ConfigurationError(
                f"switch epoch growth must exceed 1, got {growth}"
            )
        super().__init__(copy_factory, copies=copies, seed=seed)
        self.growth = float(growth)
        self._active = 0
        #: Round count at which the active copy was first observed
        #: (``None`` while it is still unexposed).
        self._exposed_round: int | None = None

    def _maybe_switch(self) -> None:
        if self._exposed_round is None or self._active + 1 >= self.copies:
            return
        threshold = max(
            self._exposed_round + 1,
            int(math.ceil(self._exposed_round * self.growth)),
        )
        if self._round >= threshold:
            self._active += 1
            self._exposed_round = None

    def observe_exposure(self) -> None:
        """Hook: the serving copy's state was just shown to an observer.

        Only this defense declares it: reads of DP aggregation and the
        difference estimator change nothing, so their deployments are read
        through caches like any sampler.
        :class:`~repro.distributed.sharded.ShardedSampler` calls it on its
        sites when the *merged* view is read, and
        :class:`~repro.service.snapshots.SnapshotStore` never caches a
        sampler that has it, so coordinator and service reads count too.
        """
        self._maybe_switch()
        if self._exposed_round is None:
            self._exposed_round = self._round

    def _serving_indices(self, round_indices: np.ndarray) -> np.ndarray:
        return np.full(len(round_indices), self._active, dtype=np.int64)

    def _serving_copy(self, round_index: int) -> int:
        return self._active

    @property
    def sample(self) -> Sequence[Any]:
        """The active copy's sample; reading it counts as an exposure."""
        self.observe_exposure()
        return self._copies[self._active].sample

    @property
    def switches_used(self) -> int:
        """How many of the ``R - 1`` available switches have fired."""
        return self._active

    def reset(self) -> None:
        super().reset()
        self._active = 0
        self._exposed_round = None


class DPAggregateSampler(ReplicatedDefenseSampler):
    """DP-style aggregation over copies [HKMMS20].

    No single copy is ever exposed consistently: the copy serving a read of
    state after round ``r`` is selected by a stable hash of ``r`` (salted
    per instance), so consecutive observations hop between copies and an
    adaptive adversary cannot accumulate knowledge of any one copy's
    realised coin flips.  Selection is a pure function of the round count —
    idempotent reads, nothing drawn at query time — which keeps chunked and
    per-element execution, and repeated snapshots of one state, exactly
    identical.

    The scalar estimate paths add the [HKMMS20] aggregation proper:
    :meth:`private_density`, :meth:`private_quantile` and
    :meth:`private_count` answer with the **median** over the per-copy
    estimates plus Laplace noise of scale ``value_scale / (dp_epsilon * R)``
    (aggregating ``R`` independent estimates lets the noise shrink linearly
    in ``R`` for a fixed privacy budget).  Noise is drawn from a substream
    keyed by ``(instance salt, round, query label)``, so replaying a query
    against the same state returns the same answer — privacy against the
    adversary, reproducibility for the experiments.
    """

    defense_kind = "dp_aggregate"

    def __init__(
        self,
        copy_factory: Callable[[np.random.Generator], StreamSampler],
        copies: int = 4,
        dp_epsilon: float = 1.0,
        value_scale: float = 1.0,
        seed: RandomState = None,
    ) -> None:
        if dp_epsilon <= 0.0:
            raise ConfigurationError(
                f"dp_epsilon must be positive, got {dp_epsilon}"
            )
        if value_scale <= 0.0:
            raise ConfigurationError(
                f"value_scale must be positive, got {value_scale}"
            )
        super().__init__(copy_factory, copies=copies, seed=seed)
        self.dp_epsilon = float(dp_epsilon)
        self.value_scale = float(value_scale)
        # One construction-time draw; selection and noise derive from it
        # deterministically thereafter (nothing is consumed at query time).
        self._salt = int(self._defense_rng.integers(0, 2**32))

    def _serving_indices(self, round_indices: np.ndarray) -> np.ndarray:
        mixed = (round_indices.astype(np.uint64) * np.uint64(_KNUTH)) ^ np.uint64(self._salt)
        return (mixed % np.uint64(self.copies)).astype(np.int64)

    def _serving_copy(self, round_index: int) -> int:
        return (((round_index * _KNUTH) & _MASK64) ^ self._salt) % self.copies

    # ------------------------------------------------------------------
    # Private scalar queries
    # ------------------------------------------------------------------
    def _noised_median(self, estimates: Sequence[float], label: str) -> float:
        noise_rng = derive_substream(self._salt, self._round, label)
        scale = self.value_scale / (self.dp_epsilon * self.copies)
        return float(np.median(estimates) + noise_rng.laplace(0.0, scale))

    def private_density(self, target: Any) -> float:
        """Noised median over per-copy sample densities of ``target``.

        ``target`` is anything supporting ``in`` (the set-system ranges).
        Empty copies estimate density 0.
        """
        estimates = []
        for copy_ in self._copies:
            sample = copy_.sample
            if len(sample) == 0:
                estimates.append(0.0)
            else:
                estimates.append(
                    sum(1 for element in sample if element in target) / len(sample)
                )
        return self._noised_median(estimates, "density")

    def private_quantile(self, fraction: float) -> float:
        """Noised median over per-copy empirical ``fraction``-quantiles."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"quantile fraction must lie in [0, 1], got {fraction}"
            )
        estimates = []
        for copy_ in self._copies:
            sample = sorted(copy_.sample)
            if not sample:
                estimates.append(0.0)
                continue
            index = min(len(sample) - 1, int(fraction * len(sample)))
            estimates.append(float(sample[index]))
        return self._noised_median(estimates, f"quantile:{fraction}")

    def private_count(self, element: Any) -> float:
        """Noised median over per-copy occurrence counts of ``element``
        (the heavy-hitter count estimate), floored at zero."""
        estimates = [
            float(sum(1 for stored in copy_.sample if stored == element))
            for copy_ in self._copies
        ]
        return max(0.0, self._noised_median(estimates, f"count:{element!r}"))


class DifferenceEstimatorSampler(ReplicatedDefenseSampler):
    """Window-rotation defense for sliding-window samplers, after [WZ21].

    Difference estimators exploit that a sliding window forgets: state the
    adversary learned about a copy is only dangerous while the elements it
    learned about are still live.  The wrapper therefore rotates the serving
    copy round-robin every ``rotation_period`` ingested rounds (one window
    turnover by default): by the time copy ``i`` serves again, ``R - 1``
    rotations — at least a full window — have elapsed, and everything the
    adversary observed of it has expired.  Unlike sketch switching the copy
    budget is never exhausted; the rotation recycles copies forever, which
    is exactly the [WZ21] observation that sliding windows need only
    O(1)-ish fresh randomness per window.

    The schedule is a pure function of the round count, so rotation commutes
    with chunking and with the attack budget (same arguments as
    :class:`DPAggregateSampler`).  The inner family must be a sliding-window
    sampler — validated at construction via the ``window`` attribute.
    """

    defense_kind = "difference_estimator"

    def __init__(
        self,
        copy_factory: Callable[[np.random.Generator], StreamSampler],
        copies: int = 4,
        rotation_period: int | None = None,
        seed: RandomState = None,
    ) -> None:
        super().__init__(copy_factory, copies=copies, seed=seed)
        window = getattr(self._copies[0], "window", None)
        if window is None:
            raise ConfigurationError(
                "the difference-estimator defense only applies to "
                "sliding-window samplers (the inner sampler declares no "
                f"window), got {type(self._copies[0]).__name__}"
            )
        if rotation_period is None:
            rotation_period = int(window)
        if rotation_period < 1:
            raise ConfigurationError(
                f"rotation period must be >= 1, got {rotation_period}"
            )
        self.rotation_period = int(rotation_period)

    def _serving_indices(self, round_indices: np.ndarray) -> np.ndarray:
        return ((round_indices - 1) // self.rotation_period) % self.copies

    def _serving_copy(self, round_index: int) -> int:
        return ((round_index - 1) // self.rotation_period) % self.copies
