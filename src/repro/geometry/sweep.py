"""Plane-sweep segment intersection detection for polygon boundaries.

This is the "Software Segment Intersection Test" of the paper (section 3.1),
with the *restricted search space* optimization of section 4.1.1: only edges
that intersect both MBRs participate, which the paper measured at a 30-40%
improvement without changing the asymptotic complexity.

The sweep is an x-ordered sweep-and-prune: edges of both polygons are merged
in order of their lower x coordinate; an active set per color holds edges
whose x range spans the sweep line; each arriving edge is tested exactly
against the active edges of the *other* color whose y ranges overlap.  Unlike
a neighbor-only Shamos-Hoey status walk, this formulation is insensitive to
the degeneracies real GIS polygons exhibit (shared endpoints, collinear
edges, self-intersections of non-simple rings) because every candidate pair
gets the exact closed-segment test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .distance import either_contains
from .point import Point
from .polygon import Polygon
from .predicates import segments_intersect
from .rect import Rect

# Edge record (xmin, xmax, ymin, ymax, ax, ay, bx, by) of Python floats: a
# list from a Polygon.sweep_records column.
_Edge = Sequence[float]


@dataclass
class SweepStats:
    """Work counters for one or many red-blue sweeps (ablation support)."""

    edges_considered: int = 0
    edges_after_restriction: int = 0
    #: Edges whose events the sweep actually consumed before terminating.
    #: For negative pairs this equals ``edges_after_restriction`` (the sweep
    #: must exhaust every event to prove disjointness); for positive pairs
    #: it stops at the first crossing - the cost asymmetry that makes
    #: negative candidates the expensive case in software.
    edges_processed: int = 0
    candidate_tests: int = 0
    intersections_found: int = 0


def _restricted(records: np.ndarray, window: Rect) -> np.ndarray:
    """The columns of ``(8, n)`` sweep records whose edge box meets ``window``.

    Every boundary crossing lies in the window (the intersection of the two
    object MBRs), so restriction never loses a crossing.
    """
    xmin, xmax, ymin, ymax = records[:4]
    keep = (
        (xmin <= window.xmax)
        & (window.xmin <= xmax)
        & (ymin <= window.ymax)
        & (window.ymin <= ymax)
    )
    return records.compress(keep, axis=1)


def _edges_cross(e: _Edge, f: _Edge) -> bool:
    return segments_intersect(
        Point(e[4], e[5]),
        Point(e[6], e[7]),
        Point(f[4], f[5]),
        Point(f[6], f[7]),
    )


def boundaries_intersect(
    a: Polygon,
    b: Polygon,
    restrict_search_space: bool = True,
    stats: Optional[SweepStats] = None,
) -> bool:
    """True when the boundaries of ``a`` and ``b`` share at least one point.

    With ``restrict_search_space`` (the default, as in the paper), only edges
    intersecting the common MBR window are swept.  Containment (one polygon
    strictly inside the other) is invisible to this test by design; the
    point-in-polygon step of the full intersection test covers it.

    Each polygon's records arrive presorted (``Polygon.sweep_records``) and
    the restriction keeps that order, so red (``a``) and blue (``b``) merge
    into the event sequence with one stable sort on ``xmin``: equal keys
    keep red before blue, then each colour's own order.
    """
    if stats is not None:
        stats.edges_considered += a.num_vertices + b.num_vertices
    red, blue = a.sweep_records, b.sweep_records
    if restrict_search_space:
        window = a.mbr.intersection(b.mbr)
        if window is None:
            return False
        red, blue = _restricted(red, window), _restricted(blue, window)
    n_red = red.shape[1]
    if stats is not None:
        stats.edges_after_restriction += n_red + blue.shape[1]
    if not n_red or not blue.shape[1]:
        return False
    records = np.concatenate([red, blue], axis=1)
    order = np.argsort(records[0], kind="stable")
    events: List[_Edge] = records.take(order, axis=1).T.tolist()
    colors: List[bool] = (order >= n_red).tolist()  # True: blue

    # Active sets: lists pruned lazily as the sweep advances.  Each arriving
    # edge is checked against the other color's active list.
    active: List[List[_Edge]] = [[], []]
    tests = 0
    processed = 0
    try:
        for edge, color in zip(events, colors):
            processed += 1
            x = edge[0]
            others = active[1 - color]
            if others:
                # Prune expired edges in place while scanning for candidates.
                kept: List[_Edge] = []
                ymin, ymax = edge[2], edge[3]
                for other in others:
                    if other[1] < x:
                        continue
                    kept.append(other)
                    if other[2] <= ymax and ymin <= other[3]:
                        tests += 1
                        if _edges_cross(edge, other):
                            if stats is not None:
                                stats.intersections_found += 1
                            return True
                active[1 - color] = kept
            active[color].append(edge)
        return False
    finally:
        if stats is not None:
            stats.candidate_tests += tests
            stats.edges_processed += processed


def polygons_intersect(a: Polygon, b: Polygon) -> bool:
    """Full software intersection test: point-in-polygon plus boundary sweep.

    This is the reference software algorithm of the paper's section 3.1:
    first the linear point-in-polygon step (which also resolves containment),
    then the plane sweep over the restricted boundary edges.
    """
    if not a.mbr.intersects(b.mbr):
        return False
    if either_contains(a, b):
        return True
    return boundaries_intersect(a, b)
