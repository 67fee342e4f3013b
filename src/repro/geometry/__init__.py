"""Computational-geometry substrate.

Everything the refinement step needs, implemented from scratch: primitive
types (:class:`Point`, :class:`Rect`, :class:`Polygon`),
exact predicates, the ray-crossing point-in-polygon test, the red-blue
boundary plane sweep, and the
frontier-chain polygon distance (minDist).  The brute-force references they
are tested against (quadratic edge-pair sweeps and distances, the scalar
point-segment distance, the edge-by-edge point-in-polygon scan) are test
oracles and live in ``tests/oracles/geometry.py``.
"""

from .convex_hull import convex_hull
from .distance import (
    either_contains,
    point_to_boundary_distance,
    point_to_polygon_distance,
)
from .min_dist import (
    MinDistStats,
    min_boundary_distance,
    polygons_within_distance,
)
from .point import Point
from .point_in_polygon import (
    PointLocation,
    edge_bounds,
    locate_point,
)
from .polygon import Polygon
from .predicates import (
    cross,
    on_segment,
    segments_intersect,
)
from .rect import Rect
from .sweep import (
    SweepStats,
    boundaries_intersect,
    polygons_intersect,
)

__all__ = [
    "MinDistStats",
    "Point",
    "PointLocation",
    "Polygon",
    "Rect",
    "SweepStats",
    "boundaries_intersect",
    "convex_hull",
    "cross",
    "edge_bounds",
    "either_contains",
    "locate_point",
    "min_boundary_distance",
    "on_segment",
    "point_to_boundary_distance",
    "point_to_polygon_distance",
    "polygons_intersect",
    "polygons_within_distance",
    "segments_intersect",
]
