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
from .runs import expand_runs


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
    """A ring's edges bucketed into equal horizontal slabs, as columns.

    Slab ``s`` is entries ``offsets[s]:offsets[s + 1]`` of ``columns``, the
    rows ``ax, ay, bx - ax, by - ay, by``, and of ``descending``, the flags
    ``by < ay``: in boundary order, every edge whose closed y-range meets
    ``[y0 + s * height, y0 + (s + 1) * height]``, so an edge spanning
    several slabs appears in each.  With ``height == inf`` there is one
    slab, holding every edge.  ``edges`` is the ring's ``(n, 4)`` rows (the
    polygon's own view, not a copy), which only the boundary test reads.
    """

    __slots__ = ("y0", "height", "offsets", "columns", "descending", "edges")

    def __init__(
        self, y0: float, height: float, offsets: List[int], members: np.ndarray,
        edges: np.ndarray,
    ) -> None:
        """``members``: the ring's edge numbers, slab by slab."""
        self.y0 = y0
        self.height = height
        self.offsets = offsets
        self.edges = edges
        # Row by row, so the build holds one column of scratch, not a copy
        # of the rows.
        self.columns = columns = np.empty((5, len(members)))
        ax, ay, run, rise, by = columns
        for c, out in ((0, ax), (1, ay), (2, run), (3, by)):
            edges[:, c].take(members, out=out, mode="clip")
        run -= ax
        np.subtract(by, ay, out=rise)
        self.descending = by < ay
        columns.setflags(write=False)
        self.descending.setflags(write=False)


def _one_slab(edges: np.ndarray) -> EdgeSlabs:
    return EdgeSlabs(0.0, math.inf, [0, len(edges)], np.arange(len(edges)), edges)


def edge_slabs(edges: np.ndarray) -> EdgeSlabs:
    """Bucket ``(n, 4)`` edge rows into ``k = isqrt(n)`` slabs of equal height
    over the ring's y extent; one slab when that height is zero or overflows.

    Each edge goes into slabs ``s(min(ay, by))`` through ``s(max(ay, by))``,
    ``s`` being :func:`locate_xy`'s slab expression evaluated as float64
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
    # Entry j of edge i sits in slab first[i] + j.
    edge_of, slab_of = expand_runs(first, last - first + 1)
    order = np.argsort(slab_of, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(slab_of, minlength=k))])
    return EdgeSlabs(y0, height, offsets.tolist(), edge_of.take(order), edges)


def _on_boundary(px: float, py: float, edges: np.ndarray) -> bool:
    """Does an edge row hold ``(px, py)``: collinear with its line, in its box."""
    ax, ay, bx, by = edges.T
    collinear = (bx - ax) * (py - ay) == (by - ay) * (px - ax)
    on_line = edges.compress(collinear, axis=0)
    starts, ends = on_line[:, :2], on_line[:, 2:]
    in_box = (np.minimum(starts, ends) <= (px, py)) & ((px, py) <= np.maximum(starts, ends))
    return bool(in_box.all(axis=1).any())


def locate_xy(px: float, py: float, slabs: EdgeSlabs) -> PointLocation:
    """Classify the point ``(px, py)`` against the ring of ``slabs``.

    Uses the even-odd (crossing-number) rule, which is the conventional
    interpretation for possibly non-simple GIS polygons: a point is inside
    when an upward ray from it properly crosses the boundary an odd number of
    times.  Points exactly on the boundary are reported as BOUNDARY, which
    the intersection test treats as intersecting (safe for spatial
    predicates).

    Only the slab holding ``py`` is scanned, whole-array: one float64 ufunc
    per product, difference and comparison of the edge-by-edge formulation,
    so it decides exactly as that loop would over every edge.  Scanning one
    slab loses nothing:

    - An edge can only contribute if its closed y-range holds ``py``: the
      crossing test needs ``min(ay, by) <= py < max(ay, by)``, the boundary
      test needs the edge's box to hold the point.
    - The slab index ``s(y) = clamp(floor((y - y0) / h), 0, k - 1)`` is
      monotone in IEEE arithmetic: subtracting a constant, dividing by a
      positive constant (rounded to nearest), ``floor`` and clamping each
      preserve order.  So ``min(ay, by) <= py <= max(ay, by)`` gives
      ``s(min) <= s(py) <= s(max)``, and the edge is in slab ``s(py)``.
      Build and query evaluate the same expression (a division, never a
      multiplication by ``1 / h``), so they round identically.
    - The slab is therefore a superset of the contributing edges whose
      extra rows neither box the point nor cross its ray; the boundary test
      is an "any" and the location a parity, and neither changes.

    A slab entry collinear with the point sends the boundary test to the
    ring's rows, where the box needs ``bx``; an edge outside the slab
    cannot box the point, so the answer is the slab's.
    """
    offsets = slabs.offsets
    # Clamping before truncating makes ``int`` the floor, and sends an
    # infinite or NaN quotient to an end slab instead of raising; no edge
    # can reach such a ``py`` anyway.
    s = int(min(max(0.0, (py - slabs.y0) / slabs.height), len(offsets) - 2))
    lo, hi = offsets[s], offsets[s + 1]
    ax, ay, run, rise, by = slabs.columns[:, lo:hi]
    run_rise = run * (py - ay)
    rise_run = rise * (px - ax)
    # Boundary first: an exact on-edge point must not depend on the crossing
    # arithmetic.  Collinear with an edge's line and inside its box = on it.
    if np.count_nonzero(run_rise == rise_run) and _on_boundary(px, py, slabs.edges):
        return PointLocation.BOUNDARY
    # Half-open rule [ay, by): each non-horizontal edge is counted once, and
    # vertices never double-count.  The edge's x at height py is compared to
    # px without division (sign-corrected by the edge direction):
    # ``rise_run < run_rise`` is ``rise_run - run_rise < 0`` for every pair
    # of doubles (DESIGN.md, point in polygon).
    crossing = (ay > py) != (by > py)
    crossing &= np.less(rise_run, run_rise) != slabs.descending[lo:hi]
    return PointLocation.INSIDE if np.count_nonzero(crossing) & 1 else PointLocation.OUTSIDE


def locate_point(p: Point, vertices: Sequence[Point]) -> PointLocation:
    """Classify ``p`` against the polygon given by ``vertices``:
    :func:`locate_xy` over ``Polygon.vertices``' cached
    :class:`EdgeSlabs`, or over one slab of any other sequence's ring."""
    slabs = getattr(vertices, "edge_slabs", None)
    if slabs is None:
        if len(vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        slabs = _one_slab(ring_edges(np.array([(v.x, v.y) for v in vertices], dtype=np.float64)))
    return locate_xy(p.x, p.y, slabs)
