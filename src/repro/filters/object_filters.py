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

Neither walks ``Point`` objects.  The 0-Object bound is 16 ``math.hypot``
calls over the eight differences between the MBRs' sides; the 1-Object
bound ranks every (side, vertex) entry by squared distance over the
coordinate array and takes ``math.hypot`` only on the entries the squares
cannot separate from the minimum (:mod:`repro.geometry.hypot_order`), so its
value is the vertex loop's.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.hypot_order import hypot_min_candidates
from ..geometry.polygon import Polygon
from ..geometry.rect import Rect


#: Which x side and which y side (0 = min, 1 = max) each MBR corner takes,
#: counter-clockwise from (xmin, ymin), and the two corners of each MBR side
#: (side ``j`` joins corners ``j`` and ``j + 1``).
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
_SIDE_CORNERS = tuple((_CORNERS[j], _CORNERS[j - 3]) for j in range(4))


def zero_object_upper_bound(a: Rect, b: Rect) -> float:
    """Upper bound on the distance between objects with MBRs ``a`` and ``b``."""
    hypot = math.hypot
    # xij: ``a``'s x side i minus ``b``'s x side j (0 = min, 1 = max).
    x00, x01 = a.xmin - b.xmin, a.xmin - b.xmax
    x10, x11 = a.xmax - b.xmin, a.xmax - b.xmax
    y00, y01 = a.ymin - b.ymin, a.ymin - b.ymax
    y10, y11 = a.ymax - b.ymin, a.ymax - b.ymax
    # 16 side pairs, but only 16 distinct corner pairs between them:
    # rows[i][j] is ``a``'s corner i to ``b``'s corner j.
    rows = (
        (hypot(x00, y00), hypot(x01, y00), hypot(x01, y01), hypot(x00, y01)),
        (hypot(x10, y00), hypot(x11, y00), hypot(x11, y01), hypot(x10, y01)),
        (hypot(x10, y10), hypot(x11, y10), hypot(x11, y11), hypot(x10, y11)),
        (hypot(x00, y10), hypot(x01, y10), hypot(x01, y11), hypot(x00, y11)),
    )
    best = math.inf
    for i in range(4):
        # Sides i of ``a`` and j of ``b``: the max distance between them is
        # the max over their endpoint pairs, in the side-pair loop's order.
        p0, p1, p2, p3 = rows[i]
        q0, q1, q2, q3 = rows[i - 3]
        best = min(
            best,
            max(p0, p1, q0, q1),
            max(p1, p2, q1, q2),
            max(p2, p3, q2, q3),
            max(p3, p0, q3, q0),
        )
    return best


def one_object_upper_bound(retrieved: Polygon, other_mbr: Rect) -> float:
    """Upper bound using the retrieved polygon against the other object's MBR.

    Never looser than necessary: for degenerate MBRs (point or segment) the
    side iteration still works because coincident corners repeat.
    """
    r = other_mbr
    n = len(retrieved.coords_array)
    with np.errstate(over="ignore"):
        # off[axis, s, i]: vertex i's x (axis 0) or y minus the MBR's min
        # (s = 0) or max side on that axis.
        sides = np.array(((r.xmin, r.xmax), (r.ymin, r.ymax)))
        off = retrieved.coords_array.T[:, None, :] - sides[:, :, None]
        squared = off * off
        # side_max[j, i]: the larger of vertex i's squared distances to the
        # two corners of side j.  A side holds one coordinate fixed, and
        # rounding an addition is monotone, so ``max(x0 + y, x1 + y)`` is
        # ``max(x0, x1) + y`` bit for bit: rows max_x + y0, x1 + max_y,
        # max_x + y1, x0 + max_y.
        far = np.maximum(squared[:, 0], squared[:, 1])
        side_max = np.empty((4, n))
        np.add(far[0], squared[1], out=side_max[0::2])
        np.add(squared[0, ::-1], far[1], out=side_max[1::2])

    best = math.inf
    for entry in hypot_min_candidates(side_max).tolist():
        j, i = divmod(entry, n)
        dxs, dys = off[:, :, i].tolist()
        (x0, y0), (x1, y1) = _SIDE_CORNERS[j]
        bound = max(math.hypot(dxs[x0], dys[y0]), math.hypot(dxs[x1], dys[y1]))
        if bound < best:
            best = bound
    return best
