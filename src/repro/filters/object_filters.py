"""0-Object and 1-Object filters for within-distance joins (Chan [4]).

Both filters compute an *upper bound* on the distance between a pair of
objects; when the bound is at most the query distance D, the pair is a
positive result and skips geometry comparison entirely (paper section
4.1.1).

* The **0-Object filter** uses only the two MBRs.  Every object touches all
  four sides of its MBR, so for any pair of MBR sides there exist object
  points on them, and the maximum point-pair distance between two sides -
  attained at side endpoints, by convexity - bounds the object distance.
  Minimizing over the 16 side pairs gives the bound.

* The **1-Object filter** additionally retrieves the actual geometry of one
  object (the paper retrieves the larger one).  For each side of the other
  MBR, some point of the other object lies on it; its distance to any fixed
  vertex ``p`` of the retrieved polygon is at most
  ``max(|p - side.start|, |p - side.end|)``.  Minimizing over vertices and
  sides tightens the bound at ``O(n)`` cost.

Both bounds are proven upper bounds (property-tested against the exact
distance), so filter positives are always true positives.

Neither walks ``Point`` objects.  The 0-Object bound takes ``math.hypot``
once per distinct corner pair; the 1-Object bound ranks every (side, vertex)
entry by squared distance over the coordinate array and takes ``math.hypot``
only on the entries the squares cannot separate from the minimum
(:mod:`repro.geometry.hypot_order`), so its value is the vertex loop's.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.hypot_order import hypot_min_candidates
from ..geometry.polygon import Polygon
from ..geometry.rect import Rect


#: Which x side and which y side (0 = min, 1 = max) each MBR corner takes,
#: counter-clockwise from (xmin, ymin) as ``Rect.corners`` lists them.
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def zero_object_upper_bound(a: Rect, b: Rect) -> float:
    """Upper bound on the distance between objects with MBRs ``a`` and ``b``."""
    # 16 side pairs, but only 16 distinct corner pairs between them.
    cb = b.corners()
    between = [[math.hypot(p.x - q.x, p.y - q.y) for q in cb] for p in a.corners()]
    best = math.inf
    for i in range(4):
        row0 = between[i]
        row1 = between[(i + 1) % 4]
        for j in range(4):
            k = (j + 1) % 4
            # Max distance between the two sides = max endpoint pair.
            side_max = max(row0[j], row0[k], row1[j], row1[k])
            if side_max < best:
                best = side_max
    return best


def one_object_upper_bound(retrieved: Polygon, other_mbr: Rect) -> float:
    """Upper bound using the retrieved polygon against the other object's MBR.

    Never looser than necessary: for degenerate MBRs (point or segment) the
    side iteration still works because coincident corners repeat.
    """
    r = other_mbr
    x, y = retrieved.coords_array.T
    with np.errstate(over="ignore"):
        dxs = (x - r.xmin, x - r.xmax)
        dys = (y - r.ymin, y - r.ymax)
        x_squares = [d * d for d in dxs]
        y_squares = [d * d for d in dys]
        # squared[c, i]: vertex i to corner c, the first corner repeated to
        # close the ring.  Side j joins corners j and j + 1, and an entry's
        # bound is the larger of its two corner distances.
        squared = np.empty((5, len(x)))
        for c, (cx, cy) in enumerate(_CORNERS + _CORNERS[:1]):
            np.add(x_squares[cx], y_squares[cy], out=squared[c])
        side_max = np.maximum(squared[:4], squared[1:])

    def to_corner(c: int, i: int) -> float:
        cx, cy = _CORNERS[c % 4]
        return math.hypot(dxs[cx][i], dys[cy][i])

    best = math.inf
    for entry in hypot_min_candidates(side_max).tolist():
        j, i = divmod(entry, len(x))
        bound = max(to_corner(j, i), to_corner(j + 1, i))
        if bound < best:
            best = bound
    return best
