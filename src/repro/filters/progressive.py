"""Progressive approximation filters (Brinkhoff et al. [5], paper Table 1).

The paper's related-work table lists the *geometric filter*: approximate
each complex polygon with a simple convex geometry (convex hull, n-corner,
maximum enclosing rectangle) computed in a pre-processing step, and test
the approximations before touching the real geometries.

Because every polygon is contained in its convex hull, disjoint hulls prove
the polygons disjoint: :meth:`ConvexHullFilter.may_intersect`, swept by the
``ablation-hull-filter`` experiment on the intersection join.  (The distance
form, ``dist(hull_a, hull_b) > D`` implies ``dist(a, b) > D``, is not
implemented: the within-distance join filters with the 0/1-Object bounds.)

The filter is *negative* - the complement of the interior filter's
positive answers - and, per the paper's Table 1 discussion, it requires
pre-computation (here: one convex hull per object, built when the filter is
constructed), which is exactly the update-cost trade-off the hardware
technique avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..geometry.convex_hull import convex_hull
from ..geometry.polygon import Polygon
from ..geometry.sweep import polygons_intersect


@dataclass
class HullFilterStats:
    """Work/outcome counters for one batch of hull tests."""

    tests: int = 0
    rejected: int = 0
    #: Total hull vertices compared (the filter's own workload measure).
    hull_vertices: int = 0


class ConvexHullFilter:
    """Pre-computed convex hulls for a collection of polygons.

    The filter answers "could these two polygons possibly intersect?"
    from the hulls alone.  A False is proof; a True decides
    nothing (the refinement step still runs).
    """

    def __init__(self, polygons: Sequence[Polygon]) -> None:
        self.hulls: List[Polygon] = [self._hull_of(p) for p in polygons]
        self.stats = HullFilterStats()

    @staticmethod
    def _hull_of(polygon: Polygon) -> Polygon:
        pts = convex_hull(list(polygon.vertices))
        if len(pts) < 3:
            # Degenerate (collinear) polygon: fall back to the ring itself,
            # which is trivially convex enough for the containment argument.
            return polygon
        return Polygon(pts)

    def hull(self, index: int) -> Polygon:
        return self.hulls[index]

    # -- pairwise filters -------------------------------------------------

    def may_intersect(
        self, index: int, other: "ConvexHullFilter", other_index: int
    ) -> bool:
        """False only when the hulls (hence the polygons) are disjoint."""
        ha = self.hulls[index]
        hb = other.hulls[other_index]
        self.stats.tests += 1
        self.stats.hull_vertices += ha.num_vertices + hb.num_vertices
        if polygons_intersect(ha, hb):
            return True
        self.stats.rejected += 1
        return False
