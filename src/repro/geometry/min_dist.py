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
is excluded.  Edge pairs are then compared best-first with MBR-distance
pruning, which preserves exactness while usually touching a small fraction
of the quadratic pair space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .distance import either_contains
from .point import Point
from .polygon import Polygon
from .rect import Rect
from .segment import point_segment_distance, segment_segment_distance
from .sweep import _Edge, _flatten_edges


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

    def merge(self, other: "MinDistStats") -> None:
        self.edge_pairs_total += other.edge_pairs_total
        self.edges_scanned += other.edges_scanned
        self.frontier_pairs += other.frontier_pairs
        self.pairs_tested += other.pairs_tested
        self.early_exits += other.early_exits


def _edge_rect_distance(e: _Edge, r: Rect) -> float:
    # Edge records are the sweep's: (xmin, xmax, ymin, ymax, ax, ay, bx, by).
    dx = max(e[0] - r.xmax, 0.0, r.xmin - e[1])
    dy = max(e[2] - r.ymax, 0.0, r.ymin - e[3])
    return math.hypot(dx, dy)


def _edge_edge_mbr_distance(e: _Edge, f: _Edge) -> float:
    dx = max(e[0] - f[1], 0.0, f[0] - e[1])
    dy = max(e[2] - f[3], 0.0, f[2] - e[3])
    return math.hypot(dx, dy)


def _initial_upper_bound(a: Polygon, b: Polygon) -> float:
    """Distance from the vertex of ``a`` nearest ``b``'s MBR to ``b``'s boundary.

    Linear in ``len(a) + len(b)`` and usually tight enough to shrink the
    frontier chains to short stretches of boundary.
    """
    b_mbr = b.mbr
    best_vertex: Optional[Point] = None
    best_rect_d = math.inf
    for v in a.vertices:
        d = b_mbr.distance_to_point(v)
        if d < best_rect_d:
            best_rect_d = d
            best_vertex = v
    assert best_vertex is not None
    bound = math.inf
    for qa, qb in b.edges():
        d = point_segment_distance(best_vertex, qa, qb)
        if d < bound:
            bound = d
            if bound == 0.0:
                break
    return bound


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
    edges_a = _flatten_edges(a, None)
    edges_b = _flatten_edges(b, None)
    if stats is not None:
        stats.edge_pairs_total += len(edges_a) * len(edges_b)
        # Linear passes: flatten + initial bound scan both boundaries.
        stats.edges_scanned += 2 * (len(edges_a) + len(edges_b))

    upper = _initial_upper_bound(a, b)
    upper = min(upper, _initial_upper_bound(b, a))
    target = early_exit_at if early_exit_at is not None else -math.inf
    if upper <= target:
        if stats is not None:
            stats.early_exits += 1
        return upper

    if use_frontier:
        # Frontier chains: edges that could possibly realize a distance <= upper.
        edges_a = [e for e in edges_a if _edge_rect_distance(e, b.mbr) <= upper]
        edges_b = [e for e in edges_b if _edge_rect_distance(e, a.mbr) <= upper]
    if use_extended_mbr:
        # Figure 9d: only the stretches of the frontier chains within the
        # other MBR extended by the pruning radius can matter.
        radius = upper if early_exit_at is None else min(upper, early_exit_at)
        ext_b = b.mbr.expand(radius)
        ext_a = a.mbr.expand(radius)
        edges_a = [
            e
            for e in edges_a
            if e[0] <= ext_b.xmax
            and ext_b.xmin <= e[1]
            and e[2] <= ext_b.ymax
            and ext_b.ymin <= e[3]
        ]
        edges_b = [
            e
            for e in edges_b
            if e[0] <= ext_a.xmax
            and ext_a.xmin <= e[1]
            and e[2] <= ext_a.ymax
            and ext_a.ymin <= e[3]
        ]
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
    if d < 0.0:
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
