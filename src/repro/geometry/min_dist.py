"""Frontier-chain ``minDist``: the paper's software distance test.

Section 4.1.1 describes the software distance algorithm as "a modified
version of the minDist algorithm by Chan [4]", which

1. identifies a *frontier chain* in each polygon - the stretch of boundary
   facing the other polygon (bold edges in Figure 9c) - and computes the
   minimum distance between the chains instead of the whole boundaries, and

2. adds two optimizations: (a) for within-distance queries, return as soon
   as the running distance drops to the query distance ``D``; (b) extend the
   MBRs by ``D`` in each direction and only compare the parts of the frontier
   chains that intersect the extended MBRs (Figure 9d).  The paper measured
   (b) at a 2x to 6x computational-cost reduction.

The frontier chain here is derived from a cheap upper bound: a linear pass
finds the vertex of each polygon nearest the other's MBR and scores it
against the other boundary, and every edge whose MBR cannot beat that bound
is excluded.  Both passes and both chain filters are array kernels that
rank by squared distance and take ``math.hypot`` only where the squares do
not decide (:mod:`repro.geometry.hypot_order`), so the bound and the chains
are the scalar loops'.  Edge pairs are then compared best-first with
MBR-distance pruning, which preserves exactness while usually touching a
small fraction of the quadratic pair space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .distance import either_contains, point_to_boundary_distance
from .hypot_order import first_min_hypot, hypot_at_most
from .point import Point
from .polygon import Polygon
from .rect import Rect
from .segment import segment_segment_distance
from .sweep import _Edge, _edge_records


@dataclass
class MinDistStats:
    """Work counters for ablation benchmarks of the minDist optimizations."""

    edge_pairs_total: int = 0
    #: Edges visited by linear passes (flattening, initial bound, chain
    #: filtering) - for cost modeling.
    edges_scanned: int = 0
    frontier_pairs: int = 0
    pairs_tested: int = 0
    early_exits: int = 0


def _edge_rect_distance(e: _Edge, r: Rect) -> float:
    # Edge records are the sweep's: (xmin, xmax, ymin, ymax, ax, ay, bx, by).
    dx = max(e[0] - r.xmax, 0.0, r.xmin - e[1])
    dy = max(e[2] - r.ymax, 0.0, r.ymin - e[3])
    return math.hypot(dx, dy)


def _edge_edge_mbr_distance(e: _Edge, f: _Edge) -> float:
    dx = max(e[0] - f[1], 0.0, f[0] - e[1])
    dy = max(e[2] - f[3], 0.0, f[2] - e[3])
    return math.hypot(dx, dy)


def _gaps_to_rect(xmin, ymin, xmax, ymax, r: Rect):
    """Axis gaps ``dx, dy`` between each box of the four columns and ``r``:
    what ``Rect.distance_to_point`` (a point is a box with ``min == max``) and
    ``_edge_rect_distance`` hand to ``math.hypot``."""
    dx = np.maximum(np.maximum(xmin - r.xmax, 0.0), r.xmin - xmax)
    dy = np.maximum(np.maximum(ymin - r.ymax, 0.0), r.ymin - ymax)
    return dx, dy


def _initial_upper_bound(a: Polygon, b: Polygon) -> float:
    """Distance from the vertex of ``a`` nearest ``b``'s MBR to ``b``'s boundary.

    Linear in ``len(a) + len(b)`` and usually tight enough to shrink the
    frontier chains to short stretches of boundary.
    """
    x, y = a.coords_array.T
    nearest, _ = first_min_hypot(*_gaps_to_rect(x, y, x, y, b.mbr))
    assert nearest >= 0
    return point_to_boundary_distance(a.vertices[nearest], b)


def _chain(
    polygon: Polygon, other_mbr: Rect, upper: Optional[float], radius: Optional[float]
) -> List[_Edge]:
    """Edge records of ``polygon`` that survive the chain filters against the
    other polygon's MBR, in boundary order.

    ``upper`` keeps the frontier chain - edges whose box could realize a
    distance ``<= upper``, i.e. ``_edge_rect_distance(e, other_mbr) <= upper``
    over the ``edge_bounds`` rows; ``radius`` keeps the stretches inside the
    other MBR extended by it (Figure 9d).  ``None`` switches a filter off.
    """
    xmin, ymin, xmax, ymax = polygon.edge_bounds
    keep = None
    if upper is not None:
        keep = hypot_at_most(*_gaps_to_rect(xmin, ymin, xmax, ymax, other_mbr), upper)
    if radius is not None:
        ext = other_mbr.expand(radius)
        in_ext = (xmin <= ext.xmax) & (ext.xmin <= xmax) & (ymin <= ext.ymax) & (ext.ymin <= ymax)
        keep = in_ext if keep is None else keep & in_ext
    return _edge_records(polygon, None if keep is None else np.flatnonzero(keep))


def min_boundary_distance(
    a: Polygon,
    b: Polygon,
    early_exit_at: Optional[float] = None,
    use_frontier: bool = True,
    use_extended_mbr: bool = True,
    stats: Optional[MinDistStats] = None,
) -> float:
    """Exact minimum distance between the boundaries of ``a`` and ``b``.

    ``early_exit_at`` enables the paper's within-distance optimization: the
    search stops (returning the current, possibly non-minimal, distance) as
    soon as the running minimum is ``<= early_exit_at``.  ``use_frontier``
    and ``use_extended_mbr`` toggle the two pruning stages for ablations;
    with both off the routine degenerates to the quadratic reference scan.
    """
    if stats is not None:
        stats.edge_pairs_total += a.num_vertices * b.num_vertices
        # Linear passes: flatten + initial bound scan both boundaries.
        stats.edges_scanned += 2 * (a.num_vertices + b.num_vertices)

    upper = _initial_upper_bound(a, b)
    upper = min(upper, _initial_upper_bound(b, a))
    target = early_exit_at if early_exit_at is not None else -math.inf
    if upper <= target:
        if stats is not None:
            stats.early_exits += 1
        return upper

    # Frontier chains: edges that could possibly realize a distance <= upper.
    frontier = upper if use_frontier else None
    radius = None
    if use_extended_mbr:
        # Figure 9d: only the stretches of the frontier chains within the
        # other MBR extended by the pruning radius can matter.
        radius = upper if early_exit_at is None else min(upper, early_exit_at)
    edges_a = _chain(a, b.mbr, frontier, radius)
    edges_b = _chain(b, a.mbr, frontier, radius)
    if stats is not None:
        stats.frontier_pairs += len(edges_a) * len(edges_b)

    best = upper
    tested = 0
    for e in edges_a:
        # Skip whole rows that cannot beat the running best.
        if _edge_rect_distance(e, b.mbr) > best:
            continue
        pa = Point(e[4], e[5])
        pb = Point(e[6], e[7])
        for f in edges_b:
            if _edge_edge_mbr_distance(e, f) > best:
                continue
            tested += 1
            d = segment_segment_distance(pa, pb, Point(f[4], f[5]), Point(f[6], f[7]))
            if d < best:
                best = d
                if best <= target:
                    if stats is not None:
                        stats.pairs_tested += tested
                        stats.early_exits += 1
                    return best
                if best == 0.0:
                    if stats is not None:
                        stats.pairs_tested += tested
                    return 0.0
    if stats is not None:
        stats.pairs_tested += tested
    return best


def polygons_within_distance(
    a: Polygon,
    b: Polygon,
    d: float,
    use_frontier: bool = True,
    use_extended_mbr: bool = True,
    stats: Optional[MinDistStats] = None,
) -> bool:
    """The paper's software within-distance test.

    MBR prefilter, containment check, then frontier-chain minDist with both
    optimizations (early exit at ``d``; extended-MBR chain clipping).
    """
    if not d >= 0.0:
        raise ValueError("distance must be non-negative")
    if not a.mbr.within_distance(b.mbr, d):
        return False
    if a.mbr.intersects(b.mbr) and either_contains(a, b):
        return True
    dist = min_boundary_distance(
        a,
        b,
        early_exit_at=d,
        use_frontier=use_frontier,
        use_extended_mbr=use_extended_mbr,
        stats=stats,
    )
    return dist <= d
