"""``QueryService.ingest`` against the ingest path it replaced.

With a universe, ``ingest`` converts a list whose elements are all exactly
``int`` inside ``int64`` once, validates and counts that array, and hands
it to a sharded deployment's private keyed entry point; every other chunk
keeps ``np.asarray`` inference and the sampler's public ``extend``.  The
reference below is the earlier ingest, written out: ``np.asarray``
inference, the same checks and messages, then ``extend(chunk,
updates=False)``, then ``bincount``, and the same publish rule.

Random sequences of chunks (exact ints inside and outside ``[1, U]``,
all-bool and mixed-bool lists, ``np.int64`` scalars, floats, strings, ints
past ``int64``, the empty list, and tuples, arrays, nested lists and
generators) go into a service and into a reference over a deep-copied twin
deployment: a hash-, random- or round-robin-routed ``ShardedSampler`` of
recording reservoir sites, with and without a crash plan, or a plain
reservoir, each with and without a universe.  After every chunk both must
give the same verdict and message, the same true counts, the same typed
site batches, samples, generator states and replay buffers, and the same
published round; a rejected chunk must leave the counts, the rounds, the
sites' generator states and the published pair as they were.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sample_views import EXAMPLES
from test_sharded_ingest import _INT64, _SITES, _RecordingReservoir, _typed

from repro.distributed import FaultPlan, ShardedSampler, SiteCrash
from repro.exceptions import ConfigurationError
from repro.samplers import StreamSampler
from repro.service import QueryService

_UNIVERSE = 12


class _ReferenceService(QueryService):
    """The service with its earlier ingest: ``np.asarray`` inference on every
    chunk, then the sampler's public ``extend``."""

    def ingest(self, chunk):
        values = None
        if self._universe is not None:
            inferred = np.asarray(chunk)
            if inferred.ndim != 1 or (inferred.size and inferred.dtype.kind not in "iu"):
                raise ConfigurationError(
                    f"chunk values must be integers in [1, {self._universe}], got "
                    f"a chunk of {inferred.dtype} with shape {inferred.shape}"
                )
            if inferred.size and (inferred.min() < 1 or inferred.max() > self._universe):
                raise ConfigurationError(
                    f"chunk values must lie in [1, {self._universe}], got "
                    f"[{inferred.min()}, {inferred.max()}]"
                )
            values = inferred.astype(np.int64, copy=False)
        self._store.sampler.extend(chunk, updates=False)
        if values is not None:
            self._counts += np.bincount(values, minlength=self._counts.shape[0])
        published = self._published
        if (
            published is None
            or self._store.sampler.rounds_processed - published[0].round_index
            > self._store.staleness_rounds
        ) and not self._store.must_bypass():
            self._publish_locked()


def _deploy(kind: str, crash: SiteCrash | None, seed: int) -> StreamSampler:
    if kind == "plain":
        return _RecordingReservoir(np.random.default_rng(seed))
    plan = None if crash is None else FaultPlan(crashes=(crash,))
    return ShardedSampler(_SITES, _RecordingReservoir, strategy=kind, seed=seed, fault_plan=plan)


def _sites(sampler: StreamSampler) -> list[Any]:
    return list(sampler._sites) if isinstance(sampler, ShardedSampler) else [sampler]


def _generators(service: QueryService) -> list[Any]:
    """The bit-generator states of every site and, for a deployment, of its
    routing and merge streams."""
    sampler = service.sampler
    states = [site._rng.bit_generator.state for site in _sites(sampler)]
    if isinstance(sampler, ShardedSampler):
        states += [sampler._route_rng.bit_generator.state, sampler._merge_rng.bit_generator.state]
    return states


def _state(service: QueryService) -> dict[str, Any]:
    sampler = service.sampler
    published = service._published
    return {
        "counts": service._counts.tolist(),
        "rounds": sampler.rounds_processed,
        "generators": _generators(service),
        "sites": [
            ([_typed(batch) for batch in site.received], _typed(site._sample))
            for site in _sites(sampler)
        ],
        "buffers": [
            _typed(buffer) for buffer in getattr(sampler, "_replay_buffers", ())
        ],
        "published": None if published is None else published[0].round_index,
        "published_counts": None if published is None else published[1].tolist(),
    }


def _build(kind: str, elements: list[Any]) -> Any:
    """A fresh chunk of the given container kind (a generator is spent once)."""
    if kind == "tuple":
        return tuple(elements)
    if kind == "ndarray":
        return np.array(elements, dtype=np.int64)
    if kind == "nested":
        return [elements[start : start + 2] for start in range(0, len(elements), 2)]
    if kind == "generator":
        return (element for element in elements)
    return list(elements)


def _verdict(service: QueryService, chunk: Any) -> tuple[type, str] | None:
    try:
        service.ingest(chunk)
    except Exception as exc:  # every exception type is compared, not only ours
        return type(exc), str(exc)
    return None


def _play(kind: str, crash: SiteCrash | None, universe: int | None, staleness: int,
          chunks: list[tuple[str, list[Any]]], seed: int) -> None:
    deployment = _deploy(kind, crash, seed)
    reference = _ReferenceService(copy.deepcopy(deployment), staleness, universe)
    service = QueryService(deployment, staleness, universe)
    for container, elements in chunks:
        before = _state(service)
        published = service._published
        verdict = _verdict(service, _build(container, elements))
        assert verdict == _verdict(reference, _build(container, elements))
        after = _state(service)
        assert after == _state(reference)
        if verdict is not None:
            assert service._published is published
            for key in ("counts", "rounds", "generators", "published"):
                assert after[key] == before[key]


_IN_UNIVERSE = st.integers(1, _UNIVERSE)
_ELEMENT = st.one_of(
    _IN_UNIVERSE,
    st.integers(*_INT64),
    st.sampled_from([*_INT64, 0, -1, _UNIVERSE + 1]),
    st.booleans(),
    _IN_UNIVERSE.map(np.int64),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63) - 1),
)
#: Mostly lists (accepted in-universe ints, or anything), some all-bool
#: lists and the empty list; tuples and generators of any elements; arrays
#: and (possibly ragged) nested lists of small ints around the universe.
_CHUNK = st.one_of(
    st.tuples(
        st.just("list"),
        st.one_of(
            st.lists(_IN_UNIVERSE, max_size=30),
            st.lists(_ELEMENT, max_size=30),
            st.lists(st.booleans(), min_size=1, max_size=4),
            st.just([]),
        ),
    ),
    st.tuples(st.sampled_from(["tuple", "generator"]), st.lists(_ELEMENT, max_size=10)),
    st.tuples(
        st.sampled_from(["ndarray", "nested"]),
        st.lists(st.integers(-2, _UNIVERSE + 2), max_size=10),
    ),
)
_CRASH = st.one_of(
    st.none(),
    st.builds(
        SiteCrash,
        site=st.integers(0, _SITES - 1),
        round=st.integers(1, 120),
        recovery_rounds=st.one_of(st.none(), st.integers(1, 80)),
        loss=st.sampled_from(["replay", "drop"]),
    ),
)


@pytest.mark.parametrize("kind", ["hash", "random", "round_robin", "plain"])
@settings(max_examples=EXAMPLES, deadline=None)
@given(
    chunks=st.lists(_CHUNK, max_size=8),
    crash=_CRASH,
    universe=st.sampled_from([_UNIVERSE, None]),
    staleness=st.integers(0, 40),
    seed=st.integers(0, 2**16),
)
def test_ingest_matches_the_earlier_path(kind, chunks, crash, universe, staleness, seed):
    _play(kind, None if kind == "plain" else crash, universe, staleness, chunks, seed)


#: One chunk of every shape, in an order that puts accepted chunks between
#: rejected ones.
_EVERY_SHAPE = [
    ("list", [3, 1, 12, 7, 7]),
    ("list", [3, 0, 5]),
    ("list", [3, _UNIVERSE + 1]),
    ("list", [True, False]),
    ("list", [4, True, 9]),
    ("list", [np.int64(4), np.int64(9)]),
    ("list", [4, 2.5]),
    ("list", [4.0, 6.0]),
    ("list", [4, "7"]),
    ("list", [4, 2**63]),
    ("list", [4, -(2**63) - 1]),
    ("list", [*_INT64]),
    ("list", []),
    ("tuple", [2, 11, 5]),
    ("ndarray", [6, 8, 10]),
    ("nested", [1, 2, 3, 4]),
    ("nested", [1, 2, 3]),
    ("generator", [5, 6]),
    ("list", list(range(1, _UNIVERSE + 1)) * 3),
]


@pytest.mark.parametrize("universe", [_UNIVERSE, None])
@pytest.mark.parametrize(
    "kind, crash",
    [
        ("hash", None),
        ("hash", SiteCrash(site=1, round=20, recovery_rounds=30, loss="replay")),
        ("random", SiteCrash(site=0, round=10, loss="drop")),
        ("round_robin", None),
        ("plain", None),
    ],
    ids=["hash", "hash-crash", "random-crash", "round_robin", "plain"],
)
def test_every_chunk_shape(kind, crash, universe):
    _play(kind, crash, universe, 4, _EVERY_SHAPE * 2, seed=3)
