"""Point-to-polygon distances and the vertex containment test.

``point_to_boundary_distance`` and ``point_to_polygon_distance`` are the
refinement predicates of nearest-neighbour queries (minDist seeds with the
first); ``either_contains`` settles the region-distance-zero cases.  The
quadratic brute-force polygon distances that minDist
(:mod:`repro.geometry.min_dist`) and the hardware distance test must agree
with are test oracles, in ``tests/oracles/geometry.py``; the paper quotes
their ``O(n x m)`` worst case as the motivation for hardware acceleration of
distance predicates.
"""

from __future__ import annotations

import numpy as np

from .hypot_order import first_min_hypot
from .point import Point
from .point_in_polygon import PointLocation, locate_point
from .polygon import Polygon

#: ``ab . ab`` overflows for an edge longer than about 1.34e154.  The
#: projection parameter is then computed from ``ab`` and ``p - a`` both
#: scaled by ``2**-OVERFLOW_SHIFT``: an exact power of two, so the ratio is
#: the same, and after it every square and product is finite (a component
#: of at most ``2**1024`` becomes at most ``2**424``).
OVERFLOW_SHIFT = 600


def segment_offsets(px, py, ax, ay, bx, by):
    """``p`` minus the point of the closed segment ``ab`` nearest it, as
    ``(dx, dy)`` arrays: what the scalar point-segment distance of
    ``tests/oracles/geometry.py`` hands to ``math.hypot``, for every
    broadcast entry at once.

    The projection parameter, its clamp and the closest point are that
    function's operations in its operand order, one float64 ufunc each, and
    an overflowing ``ab . ab`` takes its scaled path, so each offset is the
    scalar's bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        abx = bx - ax
        aby = by - ay
        pax = px - ax
        pay = py - ay
        denom = abx * abx + aby * aby
        t = (pax * abx + pay * aby) / denom
        huge = denom == np.inf
        if np.count_nonzero(huge):
            sx, sy, qx, qy = (np.ldexp(v, -OVERFLOW_SHIFT) for v in (abx, aby, pax, pay))
            np.copyto(t, (qx * sx + qy * sy) / (sx * sx + sy * sy), where=huge)
        # The closest point: the projection, then ``b`` where ``t >= 1``,
        # then ``a`` where ``t <= 0`` or the edge has no length - the
        # scalar's branches, the later one winning.
        at_a = (denom == 0.0) | (t <= 0.0)
        at_b = t >= 1.0
        cx = ax + t * abx
        cy = ay + t * aby
        for c, b, a in ((cx, bx, ax), (cy, by, ay)):
            np.copyto(c, b, where=at_b)
            np.copyto(c, a, where=at_a)
        return px - cx, py - cy


def point_to_boundary_distance(p: Point, polygon: Polygon) -> float:
    """Minimum distance from ``p`` to the polygon's boundary.

    :func:`segment_offsets` over every edge row at once, and the minimum
    over them takes ``math.hypot`` on the tie set only
    (:mod:`repro.geometry.hypot_order`), so the value is the edge loop's.
    """
    ax, ay, bx, by = polygon.edges_array.T
    return first_min_hypot(*segment_offsets(p.x, p.y, ax, ay, bx, by))[1]


def point_to_polygon_distance(p: Point, polygon: Polygon) -> float:
    """Minimum distance from ``p`` to the polygon as a closed region.

    Zero when ``p`` lies inside or on the boundary; otherwise the distance
    to the boundary.  This is the refinement predicate of nearest-neighbor
    queries.
    """
    if polygon.mbr.contains_point(p) and polygon.contains_point(p):
        return 0.0
    return point_to_boundary_distance(p, polygon)


def either_contains(a: Polygon, b: Polygon) -> bool:
    """True when one polygon's interior contains a vertex of the other.

    Combined with a boundary-distance of zero check this resolves the
    region-distance-zero cases: overlapping interiors always put some vertex
    of one polygon inside the other *or* make the boundaries cross.
    """
    va = a.vertices[0]
    if b.mbr.contains_point(va):
        if locate_point(va, b.vertices) is not PointLocation.OUTSIDE:
            return True
    vb = b.vertices[0]
    if not a.mbr.contains_point(vb):
        return False
    return locate_point(vb, a.vertices) is not PointLocation.OUTSIDE
