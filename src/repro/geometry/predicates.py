"""Low-level geometric predicates.

These are the building blocks of every exact test in the refinement step:
orientation of point triples (the sign of :func:`cross`), point-on-segment,
and the closed segment-segment intersection test, in which endpoint touches
and collinear overlaps count.  All predicates are tolerance-free:
they use the sign of the cross product directly, which is exact whenever the
inputs are representable without rounding (integers, dyadic rationals) and is
the conventional formulation used by the plane-sweep literature the paper
builds on [3].
"""

from __future__ import annotations

from .point import Point


def cross(o: Point, a: Point, b: Point) -> float:
    """Cross product of vectors ``o->a`` and ``o->b``.

    Positive when ``a, b`` make a counter-clockwise turn around ``o``.
    """
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True when ``p`` lies on the closed segment ``ab``.

    Assumes nothing about collinearity: both the collinearity and the
    bounding-box condition are checked.
    """
    if cross(a, b, p) != 0.0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True when closed segments ``p1p2`` and ``q1q2`` share at least a point.

    This is the *improper* test: touching at endpoints and collinear overlap
    both count.  This matches the spatial-database notion of boundary
    intersection used in the refinement step.
    """
    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)

    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    if d1 == 0 and on_segment(p1, q1, q2):
        return True
    if d2 == 0 and on_segment(p2, q1, q2):
        return True
    if d3 == 0 and on_segment(q1, p1, p2):
        return True
    if d4 == 0 and on_segment(q2, p1, p2):
        return True
    return False
