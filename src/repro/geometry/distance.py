"""Brute-force polygon distance reference implementations.

These quadratic algorithms define the ground truth the optimized
frontier-chain ``minDist`` (:mod:`repro.geometry.min_dist`) and the hardware
distance test must agree with.  The paper quotes their ``O(n x m)`` worst
case as the motivation for hardware acceleration of distance predicates.
"""

from __future__ import annotations

import math

import numpy as np

from .hypot_order import first_min_hypot
from .point import Point
from .point_in_polygon import PointLocation, locate_point
from .polygon import Polygon
from .segment import OVERFLOW_SHIFT, segment_segment_distance


def segment_offsets(px, py, ax, ay, bx, by):
    """``p`` minus the point of the closed segment ``ab`` nearest it, as
    ``(dx, dy)`` arrays: what :func:`~repro.geometry.segment.point_segment_distance`
    hands to ``math.hypot``, for every broadcast entry at once.

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
        if huge.any():
            sx, sy, qx, qy = (np.ldexp(v, -OVERFLOW_SHIFT) for v in (abx, aby, pax, pay))
            t = np.where(huge, (qx * sx + qy * sy) / (sx * sx + sy * sy), t)
        at_a = (denom == 0.0) | (t <= 0.0)
        at_b = t >= 1.0
        dx = px - np.where(at_a, ax, np.where(at_b, bx, ax + t * abx))
        dy = py - np.where(at_a, ay, np.where(at_b, by, ay + t * aby))
    return dx, dy


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


def boundary_distance_brute_force(a: Polygon, b: Polygon) -> float:
    """Minimum distance between the two boundaries, by exhaustive edge pairs."""
    best = math.inf
    edges_b = list(b.edges())
    for pa, pb in a.edges():
        for qa, qb in edges_b:
            d = segment_segment_distance(pa, pb, qa, qb)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best


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


def polygon_distance_brute_force(a: Polygon, b: Polygon) -> float:
    """Minimum distance between the polygons viewed as closed regions.

    Zero when the regions intersect (including containment); otherwise the
    minimum boundary-to-boundary distance.
    """
    if a.mbr.intersects(b.mbr) and either_contains(a, b):
        return 0.0
    return boundary_distance_brute_force(a, b)


def polygons_within_distance_brute_force(a: Polygon, b: Polygon, d: float) -> bool:
    """Reference within-distance predicate: ``distance(a, b) <= d``."""
    if not d >= 0.0:
        raise ValueError("distance must be non-negative")
    if a.mbr.min_distance(b.mbr) > d:
        return False
    return polygon_distance_brute_force(a, b) <= d
