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
    return _in_box(p.x, p.y, a.x, a.y, b.x, b.y)


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True when closed segments ``p1p2`` and ``q1q2`` share at least a point:
    :func:`segments_intersect_xy` of their coordinates."""
    return segments_intersect_xy(p1.x, p1.y, p2.x, p2.y, q1.x, q1.y, q2.x, q2.y)


def segments_intersect_xy(
    p1x: float, p1y: float, p2x: float, p2y: float,
    q1x: float, q1y: float, q2x: float, q2y: float,
) -> bool:
    """True when closed segments ``p1p2`` and ``q1q2`` share at least a point.

    This is the *improper* test: touching at endpoints and collinear overlap
    both count.  This matches the spatial-database notion of boundary
    intersection used in the refinement step.  The four orientations are
    :func:`cross`'s, ``d1 = cross(q1, q2, p1)`` and so on, in its operand
    order; a zero one is :func:`on_segment`'s collinearity, so only that
    predicate's box test is left to run.
    """
    d1 = (q2x - q1x) * (p1y - q1y) - (q2y - q1y) * (p1x - q1x)
    d2 = (q2x - q1x) * (p2y - q1y) - (q2y - q1y) * (p2x - q1x)
    d3 = (p2x - p1x) * (q1y - p1y) - (p2y - p1y) * (q1x - p1x)
    d4 = (p2x - p1x) * (q2y - p1y) - (p2y - p1y) * (q2x - p1x)

    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    if d1 == 0 and _in_box(p1x, p1y, q1x, q1y, q2x, q2y):
        return True
    if d2 == 0 and _in_box(p2x, p2y, q1x, q1y, q2x, q2y):
        return True
    if d3 == 0 and _in_box(q1x, q1y, p1x, p1y, p2x, p2y):
        return True
    if d4 == 0 and _in_box(q2x, q2y, p1x, p1y, p2x, p2y):
        return True
    return False


def _in_box(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


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
