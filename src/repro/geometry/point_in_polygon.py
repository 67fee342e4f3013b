"""Ray-crossing point-in-polygon test.

This is the ``O(n)`` test the paper keeps in software (Algorithm 3.1 step 1):
it is cache friendly (sequential vertex access) and cheap, and it handles the
containment case the hardware segment test cannot see (one polygon entirely
inside the other leaves no overlapping boundary pixels).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import List, Sequence

import numpy as np

from .point import Point


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


class EdgeSlabs:
    """A ring's edge rows bucketed into equal horizontal slabs.

    Slab ``s`` is ``rows[offsets[s]:offsets[s + 1]]``: in boundary order,
    every edge whose closed y-range meets ``[y0 + s * height, y0 + (s + 1) *
    height]``, so an edge spanning several slabs appears in each.  With
    ``height == inf`` there is one slab, holding every row.
    """

    __slots__ = ("y0", "height", "offsets", "rows")

    def __init__(self, y0: float, height: float, offsets: List[int], rows: np.ndarray) -> None:
        self.y0 = y0
        self.height = height
        self.offsets = offsets
        self.rows = rows

    def rows_at(self, y: float) -> np.ndarray:
        """The rows of slab ``clamp(floor((y - y0) / height), 0, k - 1)``.

        Clamping before truncating makes ``int`` the floor, and sends an
        infinite or NaN quotient to an end slab instead of raising; no edge
        can reach such a ``y`` anyway."""
        s = int(min(max(0.0, (y - self.y0) / self.height), len(self.offsets) - 2))
        return self.rows[self.offsets[s]:self.offsets[s + 1]]


def _one_slab(edges: np.ndarray) -> EdgeSlabs:
    return EdgeSlabs(0.0, math.inf, [0, len(edges)], edges)


def edge_slabs(edges: np.ndarray) -> EdgeSlabs:
    """Bucket ``(n, 4)`` edge rows into ``k = isqrt(n)`` slabs of equal height
    over the ring's y extent; one slab when that height is zero or overflows.

    Each edge goes into slabs ``s(min(ay, by))`` through ``s(max(ay, by))``,
    ``s`` being :meth:`EdgeSlabs.rows_at`'s expression evaluated as float64
    ufuncs - the same IEEE operations, so build and query round alike.
    """
    n = len(edges)
    k = math.isqrt(n)
    lo = np.minimum(edges[:, 1], edges[:, 3])
    hi = np.maximum(edges[:, 1], edges[:, 3])
    y0 = float(lo.min())
    height = (float(hi.max()) - y0) / k
    if not 0.0 < height < math.inf:
        return _one_slab(edges)
    first, last = (
        np.clip(np.floor((y - y0) / height), 0, k - 1).astype(np.intp) for y in (lo, hi)
    )
    spans = last - first + 1
    edge_of = np.repeat(np.arange(n), spans)
    # Entry j of edge i sits in slab first[i] + j.
    slab_of = np.arange(len(edge_of)) + np.repeat(first - (np.cumsum(spans) - spans), spans)
    order = np.argsort(slab_of, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(slab_of, minlength=k))])
    rows = edges.take(edge_of.take(order), axis=0)
    rows.setflags(write=False)
    return EdgeSlabs(y0, height, offsets.tolist(), rows)


def locate_point(p: Point, vertices: Sequence[Point]) -> PointLocation:
    """Classify ``p`` against the polygon given by ``vertices``.

    Uses the even-odd (crossing-number) rule, which is the conventional
    interpretation for possibly non-simple GIS polygons: a point is inside
    when an upward ray from it properly crosses the boundary an odd number of
    times.  Points exactly on the boundary are reported as BOUNDARY, which
    the intersection test treats as intersecting (safe for spatial
    predicates).

    ``Polygon.vertices`` is scanned through the polygon's cached
    :class:`EdgeSlabs`, and only the slab holding ``p.y``; any other
    sequence of points is converted to one slab of its own ring.  The scan
    is whole-array, one float64 ufunc per product, difference and comparison
    of the edge-by-edge formulation, so it decides exactly as that loop
    would over every edge.  Scanning one slab loses nothing:

    - An edge can only contribute if its closed y-range holds ``py``: the
      crossing test needs ``min(ay, by) <= py < max(ay, by)``, the boundary
      test needs the edge's box to hold ``p``.
    - The slab index ``s(y) = clamp(floor((y - y0) / h), 0, k - 1)`` is
      monotone in IEEE arithmetic: subtracting a constant, dividing by a
      positive constant (rounded to nearest), ``floor`` and clamping each
      preserve order.  So ``min(ay, by) <= py <= max(ay, by)`` gives
      ``s(min) <= s(py) <= s(max)``, and the edge is in slab ``s(py)``.
      Build and query evaluate the same expression (a division, never a
      multiplication by ``1 / h``), so they round identically.
    - The slab is therefore a superset of the contributing edges whose
      extra rows neither box ``p`` nor cross its ray; the boundary test is
      an "any" and the location a parity, and neither changes.
    """
    slabs = getattr(vertices, "edge_slabs", None)
    if slabs is None:
        if len(vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        slabs = _one_slab(ring_edges(np.array([(v.x, v.y) for v in vertices], dtype=np.float64)))
    px, py = p.x, p.y
    edges = slabs.rows_at(py)
    ax, ay, bx, by = edges.T
    run_rise = (bx - ax) * (py - ay)
    rise_run = (by - ay) * (px - ax)
    # Boundary first: an exact on-edge point must not depend on the crossing
    # arithmetic.  Collinear with an edge's line and inside its box = on it.
    collinear = run_rise == rise_run
    if collinear.any():
        on_line = edges.compress(collinear, axis=0)
        starts, ends = on_line[:, :2], on_line[:, 2:]
        in_box = (np.minimum(starts, ends) <= (px, py)) & ((px, py) <= np.maximum(starts, ends))
        if in_box.all(axis=1).any():
            return PointLocation.BOUNDARY
    # Half-open rule [ay, by): each non-horizontal edge is counted once, and
    # vertices never double-count.  The edge's x at height py is compared to
    # px without division (sign-corrected by the edge direction).
    crossing = ((ay > py) != (by > py)) & ((rise_run - run_rise < 0) != (by < ay))
    inside = np.count_nonzero(crossing) & 1
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE
