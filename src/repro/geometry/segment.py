"""Segment metric computations.

A segment is a pair of :class:`Point` endpoints (or, on the array paths, one
row of ``Polygon.edges_array``); there is no segment object.  Segments are
the unit of work for both the software plane sweep and the
hardware rasterization path (the paper renders polygons as chains of
segments, never as filled polygons, to avoid triangulation).
"""

from __future__ import annotations

from .point import Point
from .predicates import segments_intersect


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Minimum distance from point ``p`` to the closed segment ``ab``."""
    ab = b - a
    denom = ab.dot(ab)
    if denom == 0.0:
        return p.distance_to(a)
    t = (p - a).dot(ab) / denom
    if t <= 0.0:
        return p.distance_to(a)
    if t >= 1.0:
        return p.distance_to(b)
    proj = Point(a.x + t * ab.x, a.y + t * ab.y)
    return p.distance_to(proj)


def segment_segment_distance(p1: Point, p2: Point, q1: Point, q2: Point) -> float:
    """Minimum distance between two closed segments (0 when they intersect).

    For disjoint segments in the plane, the minimum is always attained at an
    endpoint of one of the segments against the other segment, so four
    point-segment distances suffice.
    """
    if segments_intersect(p1, p2, q1, q2):
        return 0.0
    return min(
        point_segment_distance(p1, q1, q2),
        point_segment_distance(p2, q1, q2),
        point_segment_distance(q1, p1, p2),
        point_segment_distance(q2, p1, p2),
    )
