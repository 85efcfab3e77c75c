"""Sharded sampling deployments: pluggable routing over mergeable per-site samplers.

The motivating deployments of Section 1.2 are distributed: each stream
element arrives at one of ``K`` sites, every site maintains a local summary
of its substream, and an adaptive client only ever probes the **merged**
state.  :class:`ShardedSampler` is that deployment behind the ordinary
:class:`~repro.samplers.base.StreamSampler` interface, so both game runners,
:class:`~repro.adversary.batch.BatchGameRunner` and the scenario engine can
play against a multi-site system without knowing it is one:

* **Routing** is a pluggable :class:`ShardingStrategy` — uniformly random
  (the model under which each substream is a Bernoulli(1/K) sample of the
  global stream), value-hashed (related keys co-locate, the sticky-routing
  model), round-robin (deterministic load levelling), or adversarially
  skewed (a hotspot site absorbs a configurable fraction of the traffic).
* **Per-site ingestion** goes through the sites' vectorised ``extend``
  kernels: a batch is routed in one vectorised assignment, sliced into one
  contiguous sub-batch per site, and each sub-batch is ingested in a single
  kernel call (the `sharded/ingest` op of :mod:`repro.bench` gates this at
  >= 2x over per-element routing).
* **The merged view** comes from the sites'
  :class:`~repro.samplers.base.Mergeable` implementations.  The coordinator
  memoises the merged view behind a version counter bumped on every ingest,
  fault transition and reshard: the first read after an advance performs a
  real merge (for reservoir shards a fresh hypergeometric coordinator draw,
  paid for in the :class:`~repro.distributed.faults.MessageCostLedger`),
  repeated reads between advances are O(1) cache hits, and all merge
  randomness comes from the deployment's own seeded substream, so games
  stay reproducible.  A read serves only the merged *sample*, so it draws
  through the family's ``merged_sample`` where there is one (reservoirs:
  the [CTW16] draw without building a merged sampler); the full merge is
  kept for :meth:`ShardedSampler.merged_sampler` and for resharding.
* **Faults and elasticity** are driven by a declarative
  :class:`~repro.distributed.faults.FaultPlan`: sites crash (their local
  summary is wiped; routed elements are dropped or replay-buffered per the
  crash's loss model) and recover (the buffer is flushed back through the
  site's own kernel), the coordinator can be pinned to a stale cached view
  for a window of rounds, and the topology can be resharded mid-stream via
  :meth:`ShardedSampler.split_site` / :meth:`ShardedSampler.merge_sites` —
  an exact [CTW16] hypergeometric state split for reservoir sites, the
  family's own merge kernel for site merges.  Every transition fires at a
  declared global round, so faulted runs remain bit-reproducible and
  chunking-independent.

Sliding-window shards keep *per-site* windows (each site retains the most
recent ``window`` elements of its own substream); the merged sample is the
``capacity`` smallest priorities among all locally live candidates, which is
exactly the priority rule applied to the union of the site windows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from typing import Any, NamedTuple

import numpy as np
from numpy.typing import NDArray

from ..exceptions import ConfigurationError
from ..rng import RandomState, _stable_string_key, ensure_generator, spawn_generators, with_lazy_spawns
from ..samplers.base import Mergeable, SampleUpdate, StreamSampler, UpdateBatch
from ..schema import read_float, read_int
from .faults import FaultPlan, FaultTransition, MessageCostLedger

__all__ = [
    "HashSharding",
    "RandomSharding",
    "RoundRobinSharding",
    "ShardedSampler",
    "ShardingStrategy",
    "SkewedSharding",
    "build_sharding_strategy",
]


class ShardingStrategy(ABC):
    """Assigns each stream element to one of ``num_sites`` sites.

    Strategies are stateless plain-data objects (picklable, reusable across
    deployments): everything an assignment may depend on — the element, its
    1-based global round index, the site count and the routing generator —
    is passed in per call.  :meth:`assign` is the vectorised form used by
    chunked ingestion; random strategies draw their coins in one batched
    call there, so the batch path is a different (equally distributed)
    realisation of the routing than per-element calls, exactly as with the
    samplers' own batched kernels.
    """

    name: str = "sharding"

    @abstractmethod
    def assign_one(
        self, element: Any, round_index: int, num_sites: int, rng: np.random.Generator
    ) -> int:
        """Site index for one element (``round_index`` is 1-based, global)."""

    def assign(
        self,
        elements: Sequence[Any],
        start_round: int,
        num_sites: int,
        rng: np.random.Generator,
    ) -> NDArray[np.int64]:
        """Vectorised assignment for a batch starting at ``start_round``."""
        return np.fromiter(
            (
                self.assign_one(element, start_round + offset, num_sites, rng)
                for offset, element in enumerate(elements)
            ),
            dtype=np.int64,
            count=len(elements),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RandomSharding(ShardingStrategy):
    """Route each element to a uniformly random site (the Section 1.2 model)."""

    name = "random"

    def assign_one(
        self, element: Any, round_index: int, num_sites: int, rng: np.random.Generator
    ) -> int:
        return int(rng.integers(0, num_sites))

    def assign(
        self,
        elements: Sequence[Any],
        start_round: int,
        num_sites: int,
        rng: np.random.Generator,
    ) -> NDArray[np.int64]:
        return rng.integers(0, num_sites, size=len(elements))


class RoundRobinSharding(ShardingStrategy):
    """Deterministic round-robin routing keyed on the global round index."""

    name = "round_robin"

    def assign_one(
        self, element: Any, round_index: int, num_sites: int, rng: np.random.Generator
    ) -> int:
        return (round_index - 1) % num_sites

    def assign(
        self,
        elements: Sequence[Any],
        start_round: int,
        num_sites: int,
        rng: np.random.Generator,
    ) -> NDArray[np.int64]:
        return (np.arange(start_round - 1, start_round - 1 + len(elements))) % num_sites


#: Knuth's multiplicative-hash constant (about 2^32 / golden ratio); integer
#: keys are the low 32 bits of ``value * _KNUTH_MULTIPLIER``.
_KNUTH_MULTIPLIER = 2654435761


def _exact_int64(elements: Sequence[Any]) -> NDArray[np.int64] | None:
    """``elements`` as an ``int64`` array when every one is exactly an ``int``
    inside ``int64``; ``None`` for a batch holding anything else (a bool, a
    numpy scalar, a float, a string or a larger integer)."""
    # Counting the types in a list is about twice as fast as a set of them.
    if list(map(type, elements)).count(int) == len(elements):
        try:
            return np.fromiter(elements, np.int64, len(elements))
        except OverflowError:
            pass
    return None


def _stable_element_key(element: Any) -> int:
    """Process-independent 32-bit key of an element.

    Integers take a Knuth multiplicative mix so consecutive values spread
    across sites; everything else is folded through the library's stable
    string hash (:func:`repro.rng._stable_string_key`) over its ``repr``,
    which is stable across processes (unlike ``hash``, which is salted for
    strings).  This is the scalar reference that :meth:`HashSharding.assign`
    reproduces in numpy.
    """
    if isinstance(element, (int, np.integer)) and not isinstance(element, bool):
        return (int(element) * _KNUTH_MULTIPLIER) & 0xFFFFFFFF
    return _stable_string_key(repr(element))


class HashSharding(ShardingStrategy):
    """Route by a stable hash of the element value (sticky / key-affinity routing).

    Equal values always land on the same site — the model in which an
    adversary that controls the *values* it submits also controls *where*
    they go, which is what the cross-shard-skew attacks exploit.

    :meth:`assign` keys a batch of plain integers in numpy and any other
    batch element by element; both give :func:`_stable_element_key`'s
    sites, so the batch path routes exactly as :meth:`assign_one` does.
    """

    name = "hash"

    def assign_one(
        self, element: Any, round_index: int, num_sites: int, rng: np.random.Generator
    ) -> int:
        return _stable_element_key(element) % num_sites

    def assign(
        self,
        elements: Sequence[Any],
        start_round: int,
        num_sites: int,
        rng: np.random.Generator,
    ) -> NDArray[np.int64]:
        """Site of every element, with the integer keys computed in numpy.

        The vector path runs when every element's type is exactly ``int``
        (so ``bool``, floats, strings, tuples and numpy scalars are not
        taken) and the batch converts to ``int64``, or when ``elements`` is
        already an ``int64`` array (as :class:`ShardedSampler` passes a
        batch it has converted once for routing and gathering both).  It
        multiplies in ``uint64``, which wraps mod 2^64; the low 32 bits of
        a product depend only on its operands mod 2^64, so the keys equal
        the scalar ones bit for bit, negatives included.  Any other batch —
        a non-``int`` element, or an integer outside ``int64`` — falls back
        to the base class's per-element :meth:`assign_one` loop.
        """
        if isinstance(elements, np.ndarray) and elements.dtype == np.int64:
            values: NDArray[np.int64] | None = elements
        else:
            values = _exact_int64(elements)
        if values is None:
            return super().assign(elements, start_round, num_sites, rng)
        keys = (values.view(np.uint64) * np.uint64(_KNUTH_MULTIPLIER)) & np.uint64(0xFFFFFFFF)
        return (keys % np.uint64(num_sites)).astype(np.int64)


class SkewedSharding(ShardingStrategy):
    """Adversarially skewed routing: a hotspot site absorbs most of the traffic.

    With probability ``hot_fraction`` an element goes to ``hot_site``;
    otherwise to a uniformly random other site.  Models both a popular
    partition key and an adversarial load imbalance — the regime where a
    single site's local summary dominates the merged view.  A ``hot_site``
    past the last site routes to the last one, because a reshard can shrink
    the deployment under a fixed strategy.
    """

    name = "skewed"

    def __init__(self, hot_fraction: float = 0.8, hot_site: int = 0) -> None:
        # Parameters reach here from scenario specs, so they follow the
        # spec number rule: no bool, string or fractional site is coerced.
        hot_fraction = read_float(hot_fraction, "skewed sharding", "hot_fraction")
        hot_site = read_int(hot_site, "skewed sharding", "hot_site")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot fraction must lie in [0, 1], got {hot_fraction}"
            )
        if hot_site < 0:
            raise ConfigurationError(f"hot site must be >= 0, got {hot_site}")
        self.hot_fraction = hot_fraction
        self.hot_site = hot_site

    def assign_one(
        self, element: Any, round_index: int, num_sites: int, rng: np.random.Generator
    ) -> int:
        hot_site = min(self.hot_site, num_sites - 1)
        if num_sites == 1 or rng.random() < self.hot_fraction:
            return hot_site
        draw = int(rng.integers(0, num_sites - 1))
        return draw if draw < hot_site else draw + 1

    def assign(
        self,
        elements: Sequence[Any],
        start_round: int,
        num_sites: int,
        rng: np.random.Generator,
    ) -> NDArray[np.int64]:
        n = len(elements)
        hot_site = min(self.hot_site, num_sites - 1)
        if num_sites == 1:
            return np.full(n, hot_site, dtype=np.int64)
        coins = rng.random(n)
        draws = rng.integers(0, num_sites - 1, size=n)
        others = np.where(draws < hot_site, draws, draws + 1)
        return np.where(coins < self.hot_fraction, hot_site, others)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SkewedSharding(hot_fraction={self.hot_fraction}, hot_site={self.hot_site})"


#: Registry of strategy names accepted by :func:`build_sharding_strategy`.
STRATEGIES: dict[str, Callable[..., ShardingStrategy]] = {
    "random": RandomSharding,
    "hash": HashSharding,
    "round_robin": RoundRobinSharding,
    "skewed": SkewedSharding,
}


def build_sharding_strategy(
    spec: str | ShardingStrategy | dict[str, Any] | None,
) -> ShardingStrategy:
    """Resolve a strategy name, spec mapping, or instance into a strategy.

    ``None`` defaults to random routing; a mapping names the strategy via
    its ``"kind"`` field — or ``"name"``, accepted as an alias because the
    strategies advertise themselves through their ``name`` attribute — and
    passes the remaining fields as constructor arguments (e.g.
    ``{"kind": "skewed", "hot_fraction": 0.9}``).
    """
    if spec is None:
        return RandomSharding()
    if isinstance(spec, ShardingStrategy):
        return spec
    if isinstance(spec, str):
        if spec not in STRATEGIES:
            raise ConfigurationError(
                f"unknown sharding strategy {spec!r}; available: {', '.join(sorted(STRATEGIES))}"
            )
        return STRATEGIES[spec]()
    if isinstance(spec, dict):
        fields = dict(spec)
        kind = fields.pop("kind", None)
        alias = fields.pop("name", None)
        if kind is None:
            kind = alias
        elif alias is not None and alias != kind:
            raise ConfigurationError(
                f"sharding strategy spec {spec!r} names both kind={kind!r} and "
                f"name={alias!r}; pick one"
            )
        if kind is None:
            raise ConfigurationError(
                f"sharding strategy spec {spec!r} names no strategy; pass "
                f"'kind' (or 'name') as one of: {', '.join(sorted(STRATEGIES))}"
            )
        if not isinstance(kind, str) or kind not in STRATEGIES:
            raise ConfigurationError(
                f"unknown sharding strategy {kind!r}; available: {', '.join(sorted(STRATEGIES))}"
            )
        try:
            return STRATEGIES[kind](**fields)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid parameters for sharding strategy {kind!r}: {exc}"
            ) from exc
    raise ConfigurationError(
        f"cannot build a sharding strategy from {type(spec).__name__}"
    )


class _MergedView(NamedTuple):
    """The coordinator's memo: one merge of the live sites."""

    version: int
    sample: tuple[Any, ...]
    #: The merged sampler, or ``None`` when the read drew the sample alone.
    sampler: StreamSampler | None


class _LiveSites(NamedTuple):
    """What a coordinator merge needs of the topology.

    Only a fault transition or a reshard changes it, so it is surveyed
    there (``ShardedSampler._topology_changed``), not on every read.
    """

    #: The live sites in index order; the first is the merge's primary.
    sites: tuple[StreamSampler, ...]
    #: The live sites the primary merges.
    rest: tuple[StreamSampler, ...]
    #: Whether the family's merge takes substream offsets.
    wants_offsets: bool
    #: The primary's ``merged_sample`` draw, if its family has one.
    draw: Callable[..., list[Any]] | None


class ShardedSampler(StreamSampler):
    """A ``K``-site sharded deployment behind the ``StreamSampler`` interface.

    Parameters
    ----------
    num_sites:
        Number of sites ``K``.
    site_factory:
        Callable ``(rng) -> StreamSampler`` constructing one site's local
        sampler; called once per site with an independent generator derived
        from ``seed``.  The constructed samplers must implement
        :class:`~repro.samplers.base.Mergeable` (reservoir with uniform
        eviction, Bernoulli, sliding window).
    strategy:
        Routing strategy: a name (``"random"``, ``"hash"``,
        ``"round_robin"``, ``"skewed"``), a spec mapping with a ``"kind"``
        field, or a :class:`ShardingStrategy` instance.
    seed:
        Single source of randomness for routing, the site samplers and the
        coordinator's merge draws (three independent substreams are derived
        from it).
    fault_plan:
        Optional :class:`~repro.distributed.faults.FaultPlan` of site
        crashes/recoveries, coordinator staleness windows and scheduled
        reshards.  Every event fires at its declared global round, before
        that round's element is routed, on both the per-element and the
        chunked ingestion path.

    Observing :attr:`sample` serves the coordinator's merged view.  The
    view is memoised behind a version counter bumped on every ingest,
    fault transition and reshard: the first observation after an advance
    performs a real merge of the live sites (for randomised merges —
    reservoir — a fresh hypergeometric draw from the deployment's own
    substream, never the sites', so a probing client can never
    desynchronise the sites' seeded sampling streams), and repeated
    observations between advances return the cached view.  Reservoir
    sites serve that draw through ``merged_sample``, with no merged sampler
    built; :meth:`merged_sampler` makes the full merge.  Deployments
    whose sites track exposure (sketch switching, the one defense with an
    ``observe_exposure`` hook) bypass the cache entirely: every read there
    re-merges, because the act of reading advances the sites' serving
    state.
    """

    name = "sharded"

    def __init__(
        self,
        num_sites: int,
        site_factory: Callable[[np.random.Generator], StreamSampler],
        strategy: str | ShardingStrategy | dict[str, Any] | None = "random",
        seed: RandomState = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        super().__init__()
        if num_sites < 1:
            raise ConfigurationError(f"need at least 1 site, got {num_sites}")
        self.num_sites = int(num_sites)
        self.strategy = build_sharding_strategy(strategy)
        self._rng = ensure_generator(seed)
        route_rng, merge_rng, *site_rngs = spawn_generators(self._rng, num_sites + 2)
        self._route_rng = route_rng
        # Every fresh reservoir read spawns one child from the merge stream
        # that only a later merge or split would seed a generator from;
        # lazy spawns make those parity children cheap.
        self._merge_rng = with_lazy_spawns(merge_rng)
        self._site_factory = site_factory
        self._sites = [site_factory(site_rng) for site_rng in site_rngs]
        for site in self._sites:
            self._validate_site(site)
        self.name = f"sharded-{self._sites[0].name}"
        self.fault_plan = fault_plan
        self.ledger = MessageCostLedger()
        self._transitions: list[FaultTransition] = (
            fault_plan.transitions() if fault_plan is not None else []
        )
        self._next_transition = 0
        self._down = [False] * self.num_sites
        self._loss: list[str | None] = [None] * self.num_sites
        self._replay_buffers: list[list[Any]] = [[] for _ in range(self.num_sites)]
        self._dropped = [0] * self.num_sites
        self._wiped_rounds = 0
        self._version = 0
        # Reading the merged view advances exposure-tracking sites (sketch
        # switching, the one defense with an ``observe_exposure`` hook), so
        # such deployments re-merge on every read and never fill the memo.  Reshards keep
        # the site family, so this holds for the deployment's lifetime.
        self._tracks_exposure = any(
            getattr(site, "observe_exposure", None) is not None for site in self._sites
        )
        self._memo: _MergedView | None = None
        self._live = self._survey()

    @staticmethod
    def _validate_site(site: Any) -> None:
        if not isinstance(site, StreamSampler):
            raise ConfigurationError(
                f"site factory produced {type(site).__name__}, not a StreamSampler"
            )
        if not isinstance(site, Mergeable):
            raise ConfigurationError(
                f"{type(site).__name__} does not implement Mergeable and "
                "cannot participate in a sharded deployment"
            )

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def _process(self, element: Any) -> SampleUpdate:
        self._apply_transitions(self._round)
        site = self.strategy.assign_one(
            element, self._round, self.num_sites, self._route_rng
        )
        self._version += 1
        if self._down[site]:
            if self._loss[site] == "replay":
                self._replay_buffers[site].append(element)
            else:
                self._dropped[site] += 1
            return SampleUpdate(self._round, element, False)
        site_update = self._sites[site].process(element)
        return SampleUpdate(self._round, element, site_update.accepted, site_update.evicted)

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        """Chunked per-site ingestion: route once, then one kernel call per site.

        The batch is assigned to sites in a single vectorised call, sliced
        into one order-preserving sub-batch per site, and each sub-batch is
        fed through the site sampler's vectorised ``extend`` kernel.  The
        returned :class:`UpdateBatch` reports outcomes at *global* round
        indices; per-site acceptance flags and evictions are scattered back
        to the elements' global positions.

        For random strategies the batched routing coins are a different
        (equally distributed) realisation than per-element routing — like
        the reservoir's own batched kernel; deterministic strategies
        (``hash``, ``round_robin``) route identically on both paths.

        Under ``hash`` routing, a slice whose elements are all exactly
        ``int`` and fit ``int64`` is converted to an ``int64`` array once;
        that array is routed, and each site's sub-batch is gathered from it
        with one ``tolist``.  The sites, replay buffers and records receive
        Python ints equal in value and type to the caller's elements.  Any
        other slice (a bool, a numpy scalar, a float, a string or a larger
        integer among its elements), and every slice under another
        strategy, is gathered element by element from the caller's list.
        :class:`~repro.service.QueryService` has already made that
        conversion of a whole chunk to validate it, and hands the array in
        through :meth:`_extend` instead of calling this method.

        When a :class:`~repro.distributed.faults.FaultPlan` schedules
        transitions inside the batch, the batch is segmented at each
        transition round: a transition at global round ``r`` fires after
        the element of round ``r - 1`` and before the element of round
        ``r``, exactly as on the per-element path, so faulted runs stay
        independent of how the stream is chunked.
        """
        return self._extend(list(elements), None, updates)

    def _extend(
        self, elements: list[Any], keys: NDArray[np.int64] | None, updates: bool
    ) -> UpdateBatch | None:
        """:meth:`extend` without its copy: ``elements`` is a list this call
        does not change, and a segment spanning all of it is not sliced.

        ``keys`` is ``None`` or ``_exact_int64(elements)``, which the caller
        has made already.  Given, it is sliced at each segment boundary
        instead of converting each segment again, and a segment whose
        strategy is not ``hash`` (a reshard can rebind it mid-batch) drops
        its slice.  The returned records hold ``elements`` itself.
        """
        if not elements:
            return UpdateBatch.empty() if updates else None
        start_round = self._round
        n = len(elements)
        accepted: np.ndarray | None = np.zeros(n, dtype=bool) if updates else None
        evictions: dict[int, Any] = {}
        position = 0
        while position < n:
            segment_start = start_round + position  # last round already ingested
            self._apply_transitions(segment_start + 1)
            next_round = self._next_transition_round()
            segment_end = (
                n if next_round is None else min(n, next_round - 1 - start_round)
            )
            whole = position == 0 and segment_end == n
            segment = elements if whole else elements[position:segment_end]
            segment_keys = None
            if isinstance(self.strategy, HashSharding):
                segment_keys = (
                    _exact_int64(segment) if keys is None else keys[position:segment_end]
                )
            self._ingest_segment(
                segment, segment_keys, segment_start, position, updates, accepted, evictions
            )
            position = segment_end
        self._round = start_round + n
        self._version += 1
        if not updates:
            return None
        round_indices = np.arange(
            start_round + 1, start_round + n + 1, dtype=np.int64
        )
        return UpdateBatch(round_indices, elements, accepted, evictions)

    def _ingest_segment(
        self,
        segment: Sequence[Any],
        keys: NDArray[np.int64] | None,
        segment_start: int,
        base_position: int,
        updates: bool,
        accepted: np.ndarray | None,
        evictions: dict[int, Any],
    ) -> None:
        """Route and ingest one fault-state-constant slice of a batch,
        gathering from ``keys``, its ``int64`` form under ``hash`` routing,
        when there is one."""
        assignment = self.strategy.assign(
            segment if keys is None else keys,
            segment_start + 1,
            self.num_sites,
            self._route_rng,
        )
        for site_index in range(self.num_sites):
            positions = np.flatnonzero(assignment == site_index)
            if len(positions) == 0:
                continue
            if keys is None:
                sub_batch = list(map(segment.__getitem__, positions.tolist()))
            else:
                sub_batch = keys[positions].tolist()
            if self._down[site_index]:
                if self._loss[site_index] == "replay":
                    self._replay_buffers[site_index].extend(sub_batch)
                else:
                    self._dropped[site_index] += len(sub_batch)
                continue
            site_updates = self._sites[site_index].extend(sub_batch, updates=updates)
            if updates:
                global_positions = positions + base_position
                accepted[global_positions] = site_updates.accepted
                for offset, evicted in site_updates.evictions.items():
                    evictions[int(global_positions[offset])] = evicted

    # ------------------------------------------------------------------
    # Fault transitions
    # ------------------------------------------------------------------
    def _next_transition_round(self) -> int | None:
        if self._next_transition >= len(self._transitions):
            return None
        return self._transitions[self._next_transition].round

    def _apply_transitions(self, up_to_round: int) -> None:
        """Fire every pending transition scheduled at or before ``up_to_round``.

        A transition at round ``r`` fires before the element of round ``r``
        is routed; callers pass the round of the element about to be
        processed.
        """
        while (
            self._next_transition < len(self._transitions)
            and self._transitions[self._next_transition].round <= up_to_round
        ):
            transition = self._transitions[self._next_transition]
            self._next_transition += 1
            if transition.kind == "crash":
                self._crash_site(transition.site, transition.loss or "drop")
            elif transition.kind == "recover":
                self._recover_site(transition.site)
            elif transition.kind == "split":
                self.split_site(transition.site, strategy=transition.strategy)
            else:  # "merge"
                assert transition.other is not None
                self.merge_sites(
                    transition.site, transition.other, strategy=transition.strategy
                )

    def _check_site_index(self, site: int, verb: str) -> None:
        if not 0 <= site < self.num_sites:
            raise ConfigurationError(
                f"cannot {verb} site {site}: site must lie in [0, {self.num_sites - 1}]"
            )

    def _crash_site(self, site: int, loss: str) -> None:
        self._check_site_index(site, "crash")
        if self._down[site]:
            raise ConfigurationError(f"site {site} is already down")
        self._wiped_rounds += self._sites[site].rounds_processed
        self._sites[site].reset()
        self._down[site] = True
        self._loss[site] = loss
        self.ledger.record("crash")
        self._topology_changed()

    def _recover_site(self, site: int) -> None:
        self._check_site_index(site, "recover")
        if not self._down[site]:
            raise ConfigurationError(f"site {site} is not down")
        self._down[site] = False
        self._loss[site] = None
        buffer = self._replay_buffers[site]
        if buffer:
            self._replay_buffers[site] = []
            self._sites[site].extend(buffer, updates=False)
        self.ledger.record("recovery", messages=1, payload=len(buffer))
        self._topology_changed()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def merged_sampler(self) -> StreamSampler:
        """The coordinator's merged view of the live sites (sites untouched).

        The view is memoised behind the deployment's version counter: the
        first call after an ingest, fault transition or reshard performs a
        real merge of the live (non-crashed) sites — recorded in the
        :attr:`ledger` as one message per live site, payload equal to the
        pulled summaries' footprints — and repeated calls between advances
        return the cached sampler.  During a
        :class:`~repro.distributed.faults.StaleWindow` the cached view is
        served even across advances (no messages are spent), which is
        exactly the stale-coordinator failure mode.  Deployments with
        exposure-tracking sites (``observe_exposure``) never cache: reading
        their state advances it, so every call re-merges, as before.

        The memo is shared with :attr:`sample`.  A read there caches no
        sampler for families that draw the merged sample alone
        (``merged_sample``: reservoirs), so a call after such a read makes
        its own full merge — a second draw and ledger record — and both
        serve it from then on.  That includes a stale window: the call
        merges the current sites, not the cached view.

        Families whose merge takes substream offsets (they declare
        ``merge_wants_offsets`` — sliding windows, and defense wrappers
        around them) are merged with trailing offsets: each site's local
        window is treated as the most recent stretch of its substream, so
        locally live candidates stay live in the merged view (see the
        module docstring for the per-site-window semantics).
        """
        memo = self._servable_memo()
        if memo is not None and memo.sampler is not None:
            return memo.sampler
        merged = self._merge_live(read_only=False).sampler
        assert merged is not None  # a full merge always builds the sampler
        return merged

    @property
    def sample(self) -> Sequence[Any]:
        """The coordinator's merged sample (empty before any element).

        Served from the memo :meth:`merged_sampler` describes, with the
        same version, stale-window and exposure rules.  A fresh read draws
        through the primary site's ``merged_sample`` when its family has
        one (reservoirs: the [CTW16] draw, no sampler built) and through
        the family's full ``merge`` otherwise; either way the ledger records
        one merge and the served sample equals that merge's ``sample``.

        Reading the merged view exposes the serving state of every site, so
        sites that track exposure (sketch switching, the one defense with an
        ``observe_exposure`` hook) are notified
        *before* the merge — the coordinator serves the post-switch state
        and the sites' own switching budgets advance exactly as if the
        adversary had read them directly.  When every site is down the
        coordinator serves an empty sample.
        """
        if self._round == 0 or not self._live.sites:
            return ()
        if self._tracks_exposure:
            for site in self._sites:
                notify = getattr(site, "observe_exposure", None)
                if notify is not None:
                    notify()
        memo = self._servable_memo()
        if memo is not None:
            return memo.sample
        return self._merge_live(read_only=True).sample

    def _servable_memo(self) -> _MergedView | None:
        """The memo, if it may be served now: merged at the current
        version, or any memo while a stale window pins the coordinator."""
        memo = self._memo
        if memo is None or memo.version == self._version:
            return memo
        if self.fault_plan is not None and self.fault_plan.is_stale(self._round):
            return memo
        return None

    def _merge_live(self, read_only: bool) -> _MergedView:
        """One coordinator merge of the live sites, paid for in the ledger.

        The primary (first live) site merges the others with the
        deployment's merge substream, passing trailing offsets to families
        that declare ``merge_wants_offsets``.  With ``read_only`` a family
        exposing ``merged_sample`` draws the sample alone and no sampler is
        built.  Unless the sites track exposure, the result becomes the
        memo.
        """
        live = self._live
        if not live.sites:
            raise ConfigurationError(
                "every site is down; the coordinator has no state to merge"
            )
        options: dict[str, Any] = {"rng": self._merge_rng}
        if live.wants_offsets:
            total = self._round
            options["offsets"] = [total - site.rounds_processed for site in live.sites]
        if read_only and live.draw is not None:
            view = _MergedView(self._version, tuple(live.draw(live.rest, **options)), None)
        else:
            merged = live.sites[0].merge(live.rest, **options)
            # Reading an exposure-tracking sampler's sample is an exposure,
            # so only a read does it (such deployments never fill the memo).
            served = tuple(merged.sample) if read_only or not self._tracks_exposure else ()
            view = _MergedView(self._version, served, merged)
        self.ledger.record(
            "merge",
            messages=len(live.sites),
            payload=sum([site.memory_footprint() for site in live.sites]),
        )
        if not self._tracks_exposure:
            self._memo = view
        return view

    def _survey(self) -> _LiveSites:
        """The live sites and what merging them needs of their family."""
        sites = tuple(
            site for site, down in zip(self._sites, self._down) if not down
        )
        primary = sites[0] if sites else None
        return _LiveSites(
            sites,
            sites[1:],
            bool(getattr(primary, "merge_wants_offsets", False)),
            getattr(primary, "merged_sample", None),
        )

    def _topology_changed(self) -> None:
        """A fault transition or reshard: advance the view, re-survey the sites."""
        self._version += 1
        self._live = self._survey()

    # ------------------------------------------------------------------
    # Elastic topology
    # ------------------------------------------------------------------
    def split_site(
        self,
        site: int,
        strategy: str | ShardingStrategy | dict[str, Any] | None = None,
    ) -> int:
        """Split a site in two, appending the new sibling; returns its index.

        Sites exposing a ``split`` kernel (reservoirs: the [CTW16]
        hypergeometric rule run in reverse, drawn from the deployment's
        merge substream) hand half their notional substream — and a
        hypergeometric share of their stored sample — to the sibling, so a
        later merge is exactly uniform again.  Union-mergeable families
        (Bernoulli, sliding window) keep their state in place and spawn an
        empty sibling, which is exact for them by union semantics.  Passing
        ``strategy`` rebinds the routing strategy at the same instant.
        """
        self._check_site_index(site, "split")
        if self._down[site]:
            raise ConfigurationError(f"cannot split site {site} while it is down")
        parent = self._sites[site]
        splitter = getattr(parent, "split", None)
        if splitter is not None:
            sibling = splitter(rng=self._merge_rng)
            moved = sibling.sample_size
        else:
            sibling = self._site_factory(spawn_generators(self._rng, 1)[0])
            self._validate_site(sibling)
            moved = 0
        self._sites.append(sibling)
        self._down.append(False)
        self._loss.append(None)
        self._replay_buffers.append([])
        self._dropped.append(0)
        self.num_sites += 1
        if strategy is not None:
            self.strategy = build_sharding_strategy(strategy)
        self.ledger.record("reshard_split", messages=1, payload=moved)
        self._topology_changed()
        return self.num_sites - 1

    def merge_sites(
        self,
        site: int,
        other: int,
        strategy: str | ShardingStrategy | dict[str, Any] | None = None,
    ) -> int:
        """Merge two sites through the family's merge kernel; returns the index.

        The merged site replaces the lower of the two indices and every
        site above the higher index shifts down by one.  The merge draw
        comes from the deployment's merge substream (for reservoirs the
        [CTW16] hypergeometric allocation, so the merged site is exactly a
        uniform sample of the two substreams' union); offset-taking
        families are merged with their default consecutive-substream
        offsets so per-site round counts stay additive.  Passing
        ``strategy`` rebinds the routing strategy at the same instant.
        """
        self._check_site_index(site, "merge")
        self._check_site_index(other, "merge")
        if site == other:
            raise ConfigurationError(f"cannot merge site {site} with itself")
        if self._down[site] or self._down[other]:
            raise ConfigurationError("cannot merge a site that is down")
        if self.num_sites < 2:
            raise ConfigurationError("need at least 2 sites to merge")
        absorbed = self._sites[other].memory_footprint()
        merged = self._sites[site].merge([self._sites[other]], rng=self._merge_rng)
        keep, drop = min(site, other), max(site, other)
        self._sites[keep] = merged
        self._dropped[keep] += self._dropped[drop]
        for state in (self._sites, self._down, self._loss, self._replay_buffers,
                      self._dropped):
            del state[drop]
        self.num_sites -= 1
        if strategy is not None:
            self.strategy = build_sharding_strategy(strategy)
        self.ledger.record("reshard_merge", messages=1, payload=absorbed)
        self._topology_changed()
        return keep

    def degradation_report(self) -> dict[str, Any]:
        """Quantified graceful degradation of the current merged view.

        Coordinator-level accounting — how many of the routed rounds are
        still represented by live sites (``coverage``), how many were
        dropped at down sites or wiped by crashes, and how many sit in
        replay buffers awaiting recovery — plus the merged sampler's own
        family-specific report under ``"merged"`` (e.g. a Misra–Gries
        ``max_underestimate``, a reservoir sample-size shortfall).
        """
        survivors = self._live.sites
        total = self.rounds_processed
        survivor_rounds = sum(site.rounds_processed for site in survivors)
        pending = sum(len(buffer) for buffer in self._replay_buffers)
        report: dict[str, Any] = {
            "total_rounds": total,
            "survivor_rounds": survivor_rounds,
            "pending_replay": pending,
            "dropped_rounds": sum(self._dropped),
            "lost_rounds": max(total - survivor_rounds - pending, 0),
            "coverage": survivor_rounds / total if total else 1.0,
            "live_sites": len(survivors),
            "num_sites": self.num_sites,
        }
        if survivors and total:
            report["merged"] = self.merged_sampler().degradation_report()
        return report

    def memory_footprint(self) -> int:
        """Elements held across all sites (the deployment's true footprint)."""
        return sum(site.memory_footprint() for site in self._sites)

    def reset(self) -> None:
        """Forget all routed elements; routing/merge randomness continues.

        Fault state (outages, buffers, drop counters, the merged-view
        cache) is cleared and the fault plan's timeline rewinds to round
        zero.  The *topology* is not restored: sites added or removed by
        earlier reshards stay — replaying a reshard-bearing plan from a
        reset deployment therefore resplits the current topology.  Runners
        that need a pristine deployment construct a fresh one (as the
        scenario engine does per trial).
        """
        for site in self._sites:
            site.reset()
        self._round = 0
        self._next_transition = 0
        self._down = [False] * self.num_sites
        self._loss = [None] * self.num_sites
        self._replay_buffers = [[] for _ in range(self.num_sites)]
        self._dropped = [0] * self.num_sites
        self._wiped_rounds = 0
        self._memo = None
        self._topology_changed()
        self.ledger.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sites(self) -> Sequence[StreamSampler]:
        """The per-site samplers (read-only view)."""
        return tuple(self._sites)

    @property
    def site_counts(self) -> Sequence[int]:
        """Per-site substream lengths (how many elements each site received)."""
        return tuple(site.rounds_processed for site in self._sites)

    @property
    def version(self) -> int:
        """Merged-view version: bumped on every ingest, fault and reshard."""
        return self._version

    @property
    def down_sites(self) -> Sequence[int]:
        """Indices of currently crashed sites."""
        return tuple(
            index for index, down in enumerate(self._down) if down
        )

    def site_sample(self, site: int) -> Sequence[Any]:
        """The local sample currently held at a site."""
        if not 0 <= site < self.num_sites:
            raise ConfigurationError(
                f"site must lie in [0, {self.num_sites - 1}], got {site}"
            )
        return self._sites[site].sample

    def load_imbalance(self) -> float:
        """Max over sites of ``|load / n - 1 / K|`` — the load-balance error."""
        if self.rounds_processed == 0:
            return 0.0
        target = 1.0 / self.num_sites
        return max(
            abs(count / self.rounds_processed - target) for count in self.site_counts
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedSampler(num_sites={self.num_sites}, "
            f"strategy={self.strategy.name!r}, rounds={self.rounds_processed})"
        )
