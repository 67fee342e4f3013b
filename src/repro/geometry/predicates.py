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

import numpy as np

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


def _cross_arrays(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _in_box_arrays(px, py, ax, ay, bx, by):
    # on_segment's bounding-box half; its collinearity half is the caller's
    # ``d == 0`` (the same cross product).
    return (
        (np.minimum(ax, bx) <= px)
        & (px <= np.maximum(ax, bx))
        & (np.minimum(ay, by) <= py)
        & (py <= np.maximum(ay, by))
    )


def segments_intersect_arrays(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y) -> np.ndarray:
    """:func:`segments_intersect` of every entry of the coordinate arrays.

    The same float64 subtractions, products and comparisons in the same
    order, so each verdict is the scalar one bit for bit - including the
    ones rounding makes (nearly collinear segments whose boxes are apart can
    read as crossing).  The ``on_segment`` box tests run only on entries
    whose cross product is exactly zero.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = _cross_arrays(q1x, q1y, q2x, q2y, p1x, p1y)
        d2 = _cross_arrays(q1x, q1y, q2x, q2y, p2x, p2y)
        d3 = _cross_arrays(p1x, p1y, p2x, p2y, q1x, q1y)
        d4 = _cross_arrays(p1x, p1y, p2x, p2y, q2x, q2y)
    hit = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    for d, point, seg in (
        (d1, (p1x, p1y), (q1x, q1y, q2x, q2y)),
        (d2, (p2x, p2y), (q1x, q1y, q2x, q2y)),
        (d3, (q1x, q1y), (p1x, p1y, p2x, p2y)),
        (d4, (q2x, q2y), (p1x, p1y, p2x, p2y)),
    ):
        on = np.flatnonzero(d == 0)
        if on.size:
            hit[on] |= _in_box_arrays(*(v.take(on) for v in (*point, *seg)))
    return hit
