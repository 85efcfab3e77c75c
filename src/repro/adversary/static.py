"""Static (non-adaptive) adversaries.

These realise the classical setting the paper contrasts against: the stream is
fixed before the game starts (or generated independently of the sampler's
behaviour), so the classical VC-dimension bounds apply.  They serve as the
baseline opponents in the static-vs-adaptive gap experiment (E6) and as
workload generators for the application benchmarks.  Each is an
:class:`~repro.adversary.base.ObliviousAdversary`: ``plan_block`` fills the
count it is offered, in round order, so the stream does not depend on how a
runner cuts it into segments.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Any

from ..exceptions import ConfigurationError, StreamExhaustedError
from ..rng import RandomState, ensure_generator
from .base import ObliviousAdversary


class StaticAdversary(ObliviousAdversary):
    """Submit a fixed, pre-specified stream (the fully static setting)."""

    name = "static-fixed"

    def __init__(self, stream: Iterable[Any]) -> None:
        self._stream = list(stream)
        if not self._stream:
            raise ConfigurationError("a static adversary needs a non-empty stream")
        self._cursor = 0

    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        if self._cursor >= len(self._stream):
            raise StreamExhaustedError(
                f"static stream of length {len(self._stream)} exhausted at round {round_index}"
            )
        segment = self._stream[self._cursor : self._cursor + count]
        self._cursor += len(segment)
        return segment

    def reset(self) -> None:
        self._cursor = 0

    @property
    def remaining(self) -> int:
        """Number of elements the adversary can still submit."""
        return len(self._stream) - self._cursor


class GeneratorAdversary(ObliviousAdversary):
    """Submit elements produced by a callable ``generate(round_index, rng)``.

    The callable must not depend on the sampler's behaviour — this class
    deliberately never passes it any feedback — which makes it a convenient
    adapter for the workload generators in :mod:`repro.streams.generators`.
    It is called once per round, in round order.
    """

    name = "static-generator"

    def __init__(
        self,
        generate: Callable[[int, Any], Any],
        seed: RandomState = None,
    ) -> None:
        self._generate = generate
        self._seed = seed
        self._rng = ensure_generator(seed)

    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        generate, rng = self._generate, self._rng
        return [generate(round_index + offset, rng) for offset in range(count)]

    def reset(self) -> None:
        self._rng = ensure_generator(self._seed)


class UniformAdversary(GeneratorAdversary):
    """Submit i.i.d. uniform elements from the discrete universe ``{1, ..., N}``."""

    name = "static-uniform"

    def __init__(self, universe_size: int, seed: RandomState = None) -> None:
        if universe_size < 1:
            raise ConfigurationError(f"universe size must be >= 1, got {universe_size}")
        self.universe_size = int(universe_size)
        super().__init__(
            lambda _round, rng: int(rng.integers(1, self.universe_size + 1)), seed
        )

    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        # One batched draw; numpy's bounded-integer sampling consumes the bit
        # stream exactly like `count` scalar draws, so blocks reproduce the
        # per-round game bit for bit.
        return [int(value) for value in self._rng.integers(1, self.universe_size + 1, size=count)]


class SortedAdversary(ObliviousAdversary):
    """Submit ``1, 2, 3, ...`` — a deterministic, sorted, duplicate-free stream.

    Sorted streams are a classically "hard-looking" but static input for
    samplers; they are used as a sanity baseline in the gap experiment.
    """

    name = "static-sorted"

    def __init__(self, universe_size: int | None = None) -> None:
        self.universe_size = universe_size

    def plan_block(
        self, round_index: int, count: int, observed_sample: Sequence[Any] | None
    ) -> list[Any]:
        if self.universe_size is not None:
            if round_index > self.universe_size:
                raise StreamExhaustedError(
                    f"sorted stream exceeded the universe size {self.universe_size}"
                )
            count = min(count, self.universe_size - round_index + 1)
        return list(range(round_index, round_index + count))


class ZipfAdversary(GeneratorAdversary):
    """Submit i.i.d. Zipf-distributed elements over ``{1, ..., N}``.

    Heavy-tailed streams are the natural workload for the heavy-hitters
    application (E8) and for the load-balancing scenario (E12).
    """

    name = "static-zipf"

    def __init__(
        self, universe_size: int, exponent: float = 1.2, seed: RandomState = None
    ) -> None:
        if universe_size < 1:
            raise ConfigurationError(f"universe size must be >= 1, got {universe_size}")
        if exponent <= 1.0:
            raise ConfigurationError(f"zipf exponent must exceed 1, got {exponent}")
        self.universe_size = int(universe_size)
        self.exponent = float(exponent)

        def _draw(_round: int, rng: Any) -> int:
            # Rejection-free: draw until the value fits the universe (the
            # Zipf tail beyond N is folded back by re-drawing).
            while True:
                value = int(rng.zipf(self.exponent))
                if value <= self.universe_size:
                    return value

        super().__init__(_draw, seed)
