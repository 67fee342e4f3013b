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
"""

from __future__ import annotations

import math

from ..geometry.polygon import Polygon
from ..geometry.rect import Rect


def zero_object_upper_bound(a: Rect, b: Rect) -> float:
    """Upper bound on the distance between objects with MBRs ``a`` and ``b``."""
    ca = a.corners()
    cb = b.corners()
    best = math.inf
    for i in range(4):
        a0 = ca[i]
        a1 = ca[(i + 1) % 4]
        for j in range(4):
            b0 = cb[j]
            b1 = cb[(j + 1) % 4]
            # Max distance between the two sides = max endpoint pair.
            side_max = max(
                a0.distance_to(b0),
                a0.distance_to(b1),
                a1.distance_to(b0),
                a1.distance_to(b1),
            )
            if side_max < best:
                best = side_max
    return best


def one_object_upper_bound(retrieved: Polygon, other_mbr: Rect) -> float:
    """Upper bound using the retrieved polygon against the other object's MBR.

    Never looser than necessary: for degenerate MBRs (point or segment) the
    side iteration still works because ``Rect.corners`` repeats coincident
    corners.
    """
    corners = other_mbr.corners()
    best = math.inf
    for j in range(4):
        b0 = corners[j]
        b1 = corners[(j + 1) % 4]
        side_best = math.inf
        for p in retrieved.vertices:
            bound = max(p.distance_to(b0), p.distance_to(b1))
            if bound < side_best:
                side_best = bound
        if side_best < best:
            best = side_best
    return best
