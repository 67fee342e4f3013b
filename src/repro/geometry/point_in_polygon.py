"""Ray-crossing point-in-polygon test.

This is the ``O(n)`` test the paper keeps in software (Algorithm 3.1 step 1):
it is cache friendly (sequential vertex access) and cheap, and it handles the
containment case the hardware segment test cannot see (one polygon entirely
inside the other leaves no overlapping boundary pixels).
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .point import Point
from .predicates import on_segment


class PointLocation(Enum):
    """Topological location of a point relative to a polygon."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


def ring_edges(coords: np.ndarray) -> np.ndarray:
    """The closed ring of ``(n, 2)`` vertices as ``(n, 4)`` rows
    ``[x0, y0, x1, y1]``; edge ``i`` runs from vertex ``i-1`` to vertex ``i``."""
    return np.hstack([np.roll(coords, 1, axis=0), coords])


def edge_bounds(edges: np.ndarray) -> np.ndarray:
    """Bounding boxes of ``(n, 4)`` edge rows as a ``(4, n)`` float64 array,
    rows ``xmin, ymin, xmax, ymax``: one contiguous row per box side, so a
    comparison against a window side streams exactly the row it needs."""
    ax, ay, bx, by = edges.T
    bounds = np.empty((4, len(edges)), dtype=np.float64)
    np.minimum(ax, bx, out=bounds[0])
    np.minimum(ay, by, out=bounds[1])
    np.maximum(ax, bx, out=bounds[2])
    np.maximum(ay, by, out=bounds[3])
    return bounds


def locate_point(p: Point, vertices: Sequence[Point]) -> PointLocation:
    """Classify ``p`` against the polygon given by ``vertices``.

    Uses the even-odd (crossing-number) rule, which is the conventional
    interpretation for possibly non-simple GIS polygons: a point is inside
    when an upward ray from it properly crosses the boundary an odd number of
    times.  Points exactly on the boundary are reported as BOUNDARY, which
    the intersection test treats as intersecting (safe for spatial
    predicates).

    ``Polygon.vertices`` is scanned in place through the polygon's cached
    edge rows; any other sequence of points is converted first.  The scan is
    whole-array, one float64 ufunc per product, difference and comparison of
    the edge-by-edge formulation, so it decides exactly as that loop would.
    """
    edges = getattr(vertices, "edges_array", None)
    if edges is None:
        if len(vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        edges = ring_edges(np.array([(v.x, v.y) for v in vertices], dtype=np.float64))
    px, py = p.x, p.y
    ax, ay, bx, by = edges.T
    run_rise = (bx - ax) * (py - ay)
    rise_run = (by - ay) * (px - ax)
    # Boundary first: an exact on-edge point must not depend on the crossing
    # arithmetic.  Collinear with an edge's line and inside its box = on it.
    collinear = run_rise == rise_run
    if collinear.any():
        starts, ends = edges[collinear, :2], edges[collinear, 2:]
        in_box = (np.minimum(starts, ends) <= (px, py)) & ((px, py) <= np.maximum(starts, ends))
        if in_box.all(axis=1).any():
            return PointLocation.BOUNDARY
    # Half-open rule [ay, by): each non-horizontal edge is counted once, and
    # vertices never double-count.  The edge's x at height py is compared to
    # px without division (sign-corrected by the edge direction).
    crossing = ((ay > py) != (by > py)) & ((rise_run - run_rise < 0) != (by < ay))
    inside = np.count_nonzero(crossing) & 1
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE


def point_in_polygon(p: Point, vertices: Sequence[Point]) -> bool:
    """True when ``p`` is inside or on the boundary of the polygon."""
    return locate_point(p, vertices) is not PointLocation.OUTSIDE


def _debug_location_by_sampling(p: Point, vertices: Sequence[Point]) -> PointLocation:
    """Reference implementation used in tests: explicit on-segment scan plus
    a second independent crossing formulation."""
    n = len(vertices)
    for i in range(n):
        if on_segment(p, vertices[i], vertices[(i + 1) % n]):
            return PointLocation.BOUNDARY
    crossings = 0
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if (a.y <= p.y < b.y) or (b.y <= p.y < a.y):
            x_at = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if x_at > p.x:
                crossings += 1
    return PointLocation.INSIDE if crossings % 2 == 1 else PointLocation.OUTSIDE
