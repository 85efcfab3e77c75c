"""Set systems ``(U, R)`` and epsilon-approximation machinery.

The systems provided here cover every application discussed in Section 1.2 of
the paper:

* :class:`PrefixSystem` / :class:`ContinuousPrefixSystem` — quantile sketches
  and the Figure-3 attack,
* :class:`IntervalSystem` — the natural "representative sample" notion for
  ordered data,
* :class:`SingletonSystem` — heavy hitters,
* :class:`RectangleSystem` — range queries over ``[m]^d``,
* :class:`HalfspaceSystem` — center points,
* :class:`ExplicitSetSystem` — arbitrary small systems, used by tests and by
  the VC-vs-cardinality gap experiment.
"""

from .base import DiscrepancyResult, IntegerUniverseSystem, Range, SetSystem
from .discrete import ExplicitRange, ExplicitSetSystem
from .halfspaces import Halfspace, HalfspaceSystem
from .intervals import (
    ContinuousPrefixSystem,
    Interval,
    IntervalSystem,
    Prefix,
    PrefixSystem,
)
from .rectangles import Box, RectangleSystem
from .singletons import Singleton, SingletonSystem
from .tracker import DiscrepancyTracker
from .vc import exact_vc_dimension, is_shattered, sauer_shelah_bound

__all__ = [
    "Box",
    "ContinuousPrefixSystem",
    "DiscrepancyResult",
    "DiscrepancyTracker",
    "ExplicitRange",
    "ExplicitSetSystem",
    "Halfspace",
    "HalfspaceSystem",
    "IntegerUniverseSystem",
    "Interval",
    "IntervalSystem",
    "Prefix",
    "PrefixSystem",
    "Range",
    "RectangleSystem",
    "SetSystem",
    "Singleton",
    "SingletonSystem",
    "exact_vc_dimension",
    "is_shattered",
    "sauer_shelah_bound",
]
