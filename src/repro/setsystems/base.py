"""Abstract interfaces for set systems and ranges.

A *set system* ``(U, R)`` is a universe ``U`` together with a family of
subsets ``R`` (Definition 1.1 of the paper).  The key quantities a set system
must expose for the robustness analysis are:

* the **cardinality** ``|R|`` (the adaptive sample-size bound of Theorem 1.2
  scales with ``ln |R|``),
* the **VC dimension** (the static bound scales with it instead),
* **densities** ``d_R(X)`` of a range within a sequence, and
* the **discrepancy** ``sup_R |d_R(X) - d_R(S)|`` between a stream and a
  sample, which decides whether the sample is an epsilon-approximation.

Concrete systems (prefixes, intervals, singletons, rectangles, halfspaces and
explicitly enumerated systems) live in sibling modules and may override the
generic discrepancy computation with far faster specialised algorithms.  The
systems over the integer universe ``{1, ..., N}`` share
:class:`IntegerUniverseSystem`, which states each one's worst-range reduction
once for both of its judging paths.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError, EmptySampleError


@dataclass(frozen=True)
class DiscrepancyResult:
    """Result of a worst-range discrepancy computation.

    Attributes
    ----------
    error:
        The supremum (or, for sampled evaluations, the maximum found) of
        ``|d_R(stream) - d_R(sample)|`` over the ranges examined.
    witness:
        A range achieving ``error``; useful for debugging attacks and for the
        lower-bound experiments, where the witness should be a prefix ending
        at the largest sampled element.
    exact:
        ``True`` when every range of the system was (implicitly or
        explicitly) considered, ``False`` when the computation only examined a
        candidate subset (e.g. Monte-Carlo evaluation of halfspace systems).
    ranges_examined:
        Number of ranges whose densities were effectively compared.
    """

    error: float
    witness: Any
    exact: bool
    ranges_examined: int


class Range(ABC):
    """A single range (subset of the universe) that supports membership tests."""

    @abstractmethod
    def __contains__(self, element: Any) -> bool:
        """Return ``True`` if ``element`` belongs to this range."""

    def count_in(self, elements: Iterable[Any]) -> int:
        """Return how many positions of ``elements`` lie in this range.

        Repetitions count, as in :meth:`SetSystem.density`.  Ranges whose
        membership test is a bound comparison override this with one
        comparison per element and no method call (the greedy density
        attack counts a whole sample every round).
        """
        return sum(map(self.__contains__, elements))


class SetSystem(ABC):
    """A set system ``(U, R)`` as used throughout the paper.

    Subclasses must implement range enumeration, cardinality and VC dimension.
    The density and discrepancy helpers defined here work for any system but
    run in time proportional to the number of ranges; subclasses with
    structure (prefixes, intervals, singletons) override
    :meth:`max_discrepancy` with near-linear algorithms.
    """

    #: Human-readable name used in experiment tables.
    name: str = "set-system"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @abstractmethod
    def ranges(self) -> Iterator[Range]:
        """Yield every range of the system.

        For systems whose cardinality is astronomically large this may be
        impractical to exhaust; callers that only need the worst range should
        prefer :meth:`max_discrepancy`, which concrete systems implement
        without enumeration.
        """

    @abstractmethod
    def cardinality(self) -> int:
        """Return ``|R|``, the number of ranges in the system."""

    @abstractmethod
    def vc_dimension(self) -> int:
        """Return the VC dimension of the system."""

    @abstractmethod
    def contains_element(self, element: Any) -> bool:
        """Return ``True`` if ``element`` lies in the universe ``U``."""

    def log_cardinality(self) -> float:
        """Return ``ln |R|``, the quantity appearing in Theorem 1.2."""
        return math.log(self.cardinality())

    # ------------------------------------------------------------------
    # Densities and discrepancy
    # ------------------------------------------------------------------
    def density(self, range_: Range, elements: Sequence[Any]) -> float:
        """Return ``d_R(elements)``: the fraction of ``elements`` inside ``range_``.

        Repetitions count, exactly as in the paper: the density of a range in
        a sequence is the fraction of *positions* whose element lies in the
        range.
        """
        if len(elements) == 0:
            raise EmptySampleError("density of a range in an empty sequence is undefined")
        return range_.count_in(elements) / len(elements)

    def max_discrepancy(
        self, stream: Sequence[Any], sample: Sequence[Any]
    ) -> DiscrepancyResult:
        """Return the worst-range density discrepancy between stream and sample.

        The generic implementation enumerates every range; subclasses override
        it.  ``sample`` must be non-empty (Definition 1.1 applies only to
        non-empty samples).
        """
        if len(sample) == 0:
            raise EmptySampleError("an empty sample is never an epsilon-approximation")
        worst_error = 0.0
        worst_range: Any = None
        examined = 0
        for range_ in self.ranges():
            examined += 1
            error = abs(self.density(range_, stream) - self.density(range_, sample))
            if error > worst_error or worst_range is None:
                worst_error = error
                worst_range = range_
        return DiscrepancyResult(
            error=worst_error, witness=worst_range, exact=True, ranges_examined=examined
        )

    def make_tracker(self, stream_length: "Any" = None) -> "Any":
        """Return an incremental discrepancy tracker for this system, or ``None``.

        Systems with an online algorithm for their worst-range discrepancy
        (prefixes, intervals, singletons over a moderate integer universe)
        return a fresh :class:`~repro.setsystems.tracker.DiscrepancyTracker`;
        the tracker answers checkpoint queries against the growing stream
        without re-sorting it, which is what makes the continuous game of
        Figure 2 affordable with dense checkpoint schedules.  The default is
        ``None``, meaning "no incremental algorithm — recompute with
        :meth:`max_discrepancy`".

        ``stream_length``, when known, lets the system weigh the tracker's
        per-checkpoint cost (proportional to the universe) against the batch
        path's (proportional to the stream) and decline when a dense
        structure would be the slower choice.
        """
        return None

    def is_epsilon_approximation(
        self, stream: Sequence[Any], sample: Sequence[Any], epsilon: float
    ) -> bool:
        """Return ``True`` if ``sample`` is an ``epsilon``-approximation of ``stream``.

        This is Definition 1.1 verbatim: for every range ``R`` of the system,
        ``|d_R(stream) - d_R(sample)| <= epsilon``.
        """
        return self.max_discrepancy(stream, sample).error <= epsilon

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Return a serialisable description used by the experiment harness."""
        return {
            "name": self.name,
            "cardinality": self.cardinality(),
            "log_cardinality": self.log_cardinality(),
            "vc_dimension": self.vc_dimension(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(|R|={self.cardinality()}, vc={self.vc_dimension()})"


class IntegerUniverseSystem(SetSystem):
    """A set system over ``U = {1, ..., N}`` whose worst range is read off one array.

    Prefixes, intervals and singletons each reduce the density difference
    between stream and sample at the universe values to their worst range,
    and state that reduction once, as :meth:`worst_range`.  The system's
    :class:`~repro.setsystems.tracker.DiscrepancyTracker` calls it with the
    difference at every value ``1..N``, and the batch
    :meth:`max_discrepancy` of prefixes and intervals with the difference at
    the values present in the data (singletons count with a
    :class:`~collections.Counter` there, which accepts any hashable).  Both
    paths divide exact integer counts by the exact lengths, in the same
    order, so they report bit-identical errors.
    """

    #: ``True`` when :meth:`worst_range` reads the difference of each prefix
    #: ``[1, v]``; ``False`` when it reads the difference of each ``{v}``.
    cumulative = True

    #: The range the default :meth:`worst_range` names by one value ``v``:
    #: the prefix ``[1, v]`` or the singleton ``{v}``.
    range_type: Callable[[Any], Range]

    def __init__(self, universe_size: int) -> None:
        if universe_size < 1:
            raise ConfigurationError(f"universe size must be >= 1, got {universe_size}")
        self.universe_size = int(universe_size)

    def contains_element(self, element: Any) -> bool:
        return 1 <= element <= self.universe_size and float(element).is_integer()

    def make_tracker(self, stream_length: int | None = None) -> Any:
        from .tracker import DiscrepancyTracker  # local import to avoid a cycle

        if not DiscrepancyTracker.supports_universe(self.universe_size, stream_length):
            return None
        return DiscrepancyTracker(self)

    @classmethod
    def worst_range(cls, values: Sequence[Any], difference: np.ndarray) -> DiscrepancyResult:
        """The worst range, given the density difference at each of ``values``.

        ``values`` ascend without repeats; ``difference[i]`` is the stream's
        density minus the sample's of ``[1, values[i]]`` when
        :attr:`cumulative` is set, and of ``{values[i]}`` otherwise.  This
        default is the reduction of the systems whose ranges one value
        names: the range :attr:`range_type` names at the value where
        ``|difference|`` peaks.
        """
        index = int(np.argmax(np.abs(difference)))
        return DiscrepancyResult(
            error=float(abs(difference[index])),
            witness=cls.range_type(values[index]),
            exact=True,
            ranges_examined=len(values),
        )
