"""Convex hulls (Andrew's monotone chain).

Convex hulls are one of the progressive approximations surveyed in the
paper's related work (the geometric filter of Brinkhoff et al. [5]); the
dataset generators also use hulls to derive well-behaved query regions.
"""

from __future__ import annotations

from typing import List, Sequence

from .point import Point
from .predicates import cross


def convex_hull(points: Sequence[Point]) -> List[Point]:
    """Convex hull in counter-clockwise order, collinear points dropped.

    Returns the input (deduplicated) when fewer than three distinct points
    exist; degenerate (all-collinear) inputs yield the two extreme points.
    """
    unique = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(unique) <= 2:
        return unique

    def build(seq: Sequence[Point]) -> List[Point]:
        chain: List[Point] = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(unique)
    upper = build(list(reversed(unique)))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 2 else unique[:2]
