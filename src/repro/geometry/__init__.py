"""Computational-geometry substrate.

Everything the refinement step needs, implemented from scratch: primitive
types (:class:`Point`, :class:`Rect`, :class:`Segment`, :class:`Polygon`),
exact predicates, the ray-crossing point-in-polygon test, the boundary
plane sweep (red-blue for intersection, single-set for simplicity), and both
reference and optimized polygon-distance algorithms.
"""

from .convex_hull import convex_hull, hull_polygon
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
    polygon_min_distance,
    polygons_within_distance,
)
from .point import Point
from .point_in_polygon import (
    PointLocation,
    edge_bounds,
    locate_point,
    point_in_polygon,
    point_strictly_in_polygon,
)
from .polygon import Polygon, rect_to_polygon
from .predicates import (
    Orientation,
    collinear_overlap,
    cross,
    on_segment,
    orientation,
    segment_intersection_point,
    segments_intersect,
    segments_intersect_properly,
)
from .rect import Rect
from .segment import (
    Segment,
    point_segment_distance,
    segment_rect_distance,
    segment_segment_distance,
    segment_segment_max_distance,
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
    "Orientation",
    "Point",
    "PointLocation",
    "Polygon",
    "Rect",
    "Segment",
    "SweepStats",
    "any_segments_intersect",
    "boundaries_intersect",
    "boundaries_intersect_brute_force",
    "boundary_distance_brute_force",
    "collinear_overlap",
    "convex_hull",
    "cross",
    "edge_bounds",
    "either_contains",
    "hull_polygon",
    "locate_point",
    "min_boundary_distance",
    "on_segment",
    "orientation",
    "point_in_polygon",
    "point_segment_distance",
    "point_to_boundary_distance",
    "point_to_polygon_distance",
    "point_strictly_in_polygon",
    "polygon_distance_brute_force",
    "polygon_is_simple",
    "polygon_min_distance",
    "polygons_intersect",
    "polygons_within_distance",
    "polygons_within_distance_brute_force",
    "rect_to_polygon",
    "segment_intersection_point",
    "segment_rect_distance",
    "segment_segment_distance",
    "segment_segment_max_distance",
    "segments_intersect",
    "segments_intersect_properly",
]
