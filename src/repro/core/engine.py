"""Refinement engines: pluggable geometry-comparison back ends.

The query pipelines (:mod:`repro.query`) take an engine object and hand it
the candidate pairs that survive filtering.  Two engines implement the
paper's comparison:

* :class:`SoftwareEngine` - the reference algorithms (restricted plane
  sweep; frontier-chain minDist);
* :class:`HardwareEngine` - Algorithm 3.1 and its distance extension,
  backed by one simulated graphics pipeline per engine instance.

Both run the same staged test (:mod:`repro.core.refine`) over whole
candidate batches; the software engine simply has no hardware stage.

Both engines accumulate :class:`~repro.core.stats.RefinementStats` so
experiments can report work distribution alongside wall-clock time.
"""

from __future__ import annotations

from typing import Any, List, Optional, Protocol, Sequence

from ..cache import CacheBundle, CacheConfig
from ..geometry.min_dist import MinDistStats
from ..geometry.polygon import Polygon
from ..geometry.sweep import SweepStats
from .config import HardwareConfig
from .hardware_test import HardwareSegmentTest
from .refine import WorkItem, refine_items
from .stats import RefinementStats


class RefinementEngine(Protocol):
    """What the query pipelines require of a geometry-comparison back end."""

    name: str
    stats: RefinementStats

    def refine(
        self,
        op: str,
        items: Sequence[WorkItem],
        distance: Optional[float] = None,
    ) -> List[Any]:
        """Keys of the ``(key, a, b)`` items satisfying ``op``, in order."""
        ...

    def polygons_intersect(self, a: Polygon, b: Polygon) -> bool:
        """Exact intersection predicate."""
        ...

    def within_distance(self, a: Polygon, b: Polygon, d: float) -> bool:
        """Exact within-distance predicate."""
        ...

    def contains_properly(self, a: Polygon, b: Polygon) -> bool:
        """Exact proper-containment predicate (simple container ``a``)."""
        ...

    def reset_stats(self) -> None:
        ...


class _StagedEngine:
    """What both engines share: work counters, caches, and one code path.

    Every predicate is a :meth:`refine` call - the per-pair predicates are
    batches of one - so an engine differs from the other only in whether
    it owns a hardware tester.
    """

    #: The hardware stage; ``None`` means there is none.
    hw: Optional[HardwareSegmentTest] = None
    restrict_search_space = True

    def __init__(self) -> None:
        self.stats = RefinementStats()
        self.sweep_stats = SweepStats()
        self.mindist_stats = MinDistStats()

    def refine(
        self,
        op: str,
        items: Sequence[WorkItem],
        distance: Optional[float] = None,
    ) -> List[Any]:
        """Refine a candidate batch (:func:`~repro.core.refine.refine_items`).

        ``op`` is ``"intersect"``, ``"within_distance"`` (requires
        ``distance``), or ``"contains"``; ``items`` are ``(key, a, b)``
        work units.  Returns the keys of matching pairs in item order.
        Decisions and accumulated statistics do not depend on how a
        candidate list is cut into calls - only the number of hardware
        submissions (and therefore the fixed per-test overhead) does.
        """
        return refine_items(
            op,
            items,
            distance,
            self.hw,
            self.stats,
            self.sweep_stats,
            self.mindist_stats,
            self.restrict_search_space,
            self.caches.predicate,
        )

    def polygons_intersect(self, a: Polygon, b: Polygon) -> bool:
        return bool(self.refine("intersect", [(0, a, b)]))

    def within_distance(self, a: Polygon, b: Polygon, d: float) -> bool:
        return bool(self.refine("within_distance", [(0, a, b)], distance=d))

    def contains_properly(self, a: Polygon, b: Polygon) -> bool:
        return bool(self.refine("contains", [(0, a, b)]))

    def reset_stats(self) -> None:
        self.stats.reset()
        self.sweep_stats = SweepStats()
        self.mindist_stats = MinDistStats()


class SoftwareEngine(_StagedEngine):
    """Software-only refinement (the paper's baseline algorithms)."""

    def __init__(
        self,
        restrict_search_space: bool = True,
        cache: CacheConfig = CacheConfig.disabled(),
    ) -> None:
        super().__init__()
        self.name = "software"
        self.restrict_search_space = restrict_search_space
        self.cache_config = cache
        self.caches = CacheBundle(cache)


class HardwareEngine(_StagedEngine):
    """Hardware-assisted refinement (Algorithm 3.1 + distance extension)."""

    def __init__(
        self,
        config: Optional[HardwareConfig] = None,
        caches: Optional[CacheBundle] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else HardwareConfig()
        self.name = f"hardware[{self.config.resolution}x{self.config.resolution}]"
        self.hw = HardwareSegmentTest(self.config, caches)

    @property
    def caches(self) -> CacheBundle:
        """The tester's memoization layers (one bundle per GL context; a
        serving pool's engines hold shares of one set of tables)."""
        return self.hw.caches

    @property
    def gpu_counters(self):
        """Primitive-operation counters of the underlying pipeline."""
        return self.hw.pipeline.counters

    def reset_stats(self) -> None:
        super().reset_stats()
        self.gpu_counters.reset()
