"""Computational-geometry substrate.

Everything the refinement step needs, implemented from scratch: primitive
types (:class:`Point`, :class:`Rect`, :class:`Polygon`),
exact predicates, the ray-crossing point-in-polygon test, the boundary
plane sweep (red-blue for intersection, single-set for simplicity), and both
reference and optimized polygon-distance algorithms.
"""

from .convex_hull import convex_hull
from .distance import (
    boundary_distance_brute_force,
    either_contains,
    point_to_boundary_distance,
    point_to_polygon_distance,
    polygon_distance_brute_force,
    polygons_within_distance_brute_force,
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
    point_in_polygon,
)
from .polygon import Polygon
from .predicates import (
    cross,
    on_segment,
    segments_intersect,
)
from .rect import Rect
from .segment import (
    point_segment_distance,
    segment_segment_distance,
)
from .sweep import (
    SweepStats,
    any_segments_intersect,
    boundaries_intersect,
    boundaries_intersect_brute_force,
    polygon_is_simple,
    polygons_intersect,
)

__all__ = [
    "MinDistStats",
    "Point",
    "PointLocation",
    "Polygon",
    "Rect",
    "SweepStats",
    "any_segments_intersect",
    "boundaries_intersect",
    "boundaries_intersect_brute_force",
    "boundary_distance_brute_force",
    "convex_hull",
    "cross",
    "edge_bounds",
    "either_contains",
    "locate_point",
    "min_boundary_distance",
    "on_segment",
    "point_in_polygon",
    "point_segment_distance",
    "point_to_boundary_distance",
    "point_to_polygon_distance",
    "polygon_distance_brute_force",
    "polygon_is_simple",
    "polygons_intersect",
    "polygons_within_distance",
    "polygons_within_distance_brute_force",
    "segment_segment_distance",
    "segments_intersect",
]
