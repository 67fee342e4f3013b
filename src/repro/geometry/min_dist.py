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
small fraction of the quadratic pair space.  That comparison is one array
kernel (:func:`_pair_search`) that computes the segment distances of a
proven superset of the pairs the best-first loop would test and replays
the loop's running best, test count and exit over them (:func:`_replay`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distance import either_contains, segment_offsets
from .hypot_order import first_min_hypots, hypot_at_most, hypots, min_hypot_columns
from .polygon import Polygon
from .predicates import segments_intersect_arrays
from .rect import Rect

#: Edge pairs per chunk of the pair kernel: rows of the first chain are
#: taken ``_PAIR_BUDGET // len(second chain)`` at a time, so its
#: ``(rows, columns)`` planes stay bounded when both chains are long (the
#: ablations without pruning, larger scales).
_PAIR_BUDGET = 1 << 16

#: The four ``point_segment_distance(point, a, b)`` calls of the scalar
#: ``segment_segment_distance`` in ``tests/oracles/geometry.py`` (``p1``,
#: ``p2`` against ``q1q2``, then ``q1``, ``q2`` against ``p1p2``) as rows
#: of the endpoints
#: ``p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y``: one tuple per argument
#: coordinate ``px, py, ax, ay, bx, by``, one entry per call.
_FOUR_CALLS = (
    (0, 2, 4, 6),
    (1, 3, 5, 7),
    (4, 4, 0, 0),
    (5, 5, 1, 1),
    (6, 6, 2, 2),
    (7, 7, 3, 3),
)


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


def _box_gaps(xmin, ymin, xmax, ymax, oxmin, oymin, oxmax, oymax):
    """Axis gaps ``dx, dy`` between boxes and other boxes (broadcast): what
    ``max(xmin - oxmax, 0.0, oxmin - xmax)`` and its ``y`` twin hand to
    ``math.hypot`` for a point (a box with ``min == max``) against a
    ``Rect``, an edge box against an MBR and an edge box against another."""
    dx = np.maximum(np.maximum(xmin - oxmax, 0.0), oxmin - xmax)
    dy = np.maximum(np.maximum(ymin - oymax, 0.0), oymin - ymax)
    return dx, dy


def _gaps_to_rect(xmin, ymin, xmax, ymax, r: Rect):
    return _box_gaps(xmin, ymin, xmax, ymax, r.xmin, r.ymin, r.xmax, r.ymax)


def _initial_upper_bounds(a: Polygon, b: Polygon) -> Tuple[float, float]:
    """minDist's seed both ways: the distance from the vertex of ``a``
    nearest ``b``'s MBR to ``b``'s boundary, and from the vertex of ``b``
    nearest ``a``'s MBR to ``a``'s boundary.

    Linear in ``len(a) + len(b)`` and usually tight enough to shrink the
    frontier chains to short stretches of boundary.  Each step is one pass
    over both polygons - the vertex gaps to the other MBR, then each
    nearest vertex against the other's edges in one
    :func:`segment_offsets` - and :func:`first_min_hypots` takes the
    minimum of each half.
    """
    ca, cb = a.coords_array, b.coords_array
    na, nb = len(ca), len(cb)
    ra, rb = a.mbr, b.mbr
    coords = np.concatenate((ca, cb))
    lo, hi = np.empty_like(coords), np.empty_like(coords)
    lo[:na] = rb.xmin, rb.ymin
    hi[:na] = rb.xmax, rb.ymax
    lo[na:] = ra.xmin, ra.ymin
    hi[na:] = ra.xmax, ra.ymax
    # A vertex is a box with min == max: ``_box_gaps``' expression.
    gaps = np.maximum(np.maximum(coords - hi, 0.0), lo - coords)
    (ia, _), (ib, _) = first_min_hypots(gaps[:, 0], gaps[:, 1], na)
    assert ia >= 0 and ib >= 0
    points = np.empty((nb + na, 2))
    points[:nb] = ca[ia]
    points[nb:] = cb[ib]
    edges = np.concatenate((b.edges_array, a.edges_array))
    dx, dy = segment_offsets(*points.T, *edges.T)
    (_, from_a), (_, from_b) = first_min_hypots(dx, dy, nb)
    return from_a, from_b


def _chain(
    polygon: Polygon, other_mbr: Rect, upper: Optional[float], radius: Optional[float]
) -> np.ndarray:
    """The edges of ``polygon`` that survive the chain filters against the
    other polygon's MBR, as an ``(8, k)`` array in boundary order: rows
    ``xmin, ymin, xmax, ymax`` (:attr:`Polygon.edge_bounds`) then
    ``ax, ay, bx, by`` (:attr:`Polygon.edges_array`).

    ``upper`` keeps the frontier chain - edges whose box could realize a
    distance ``<= upper`` from ``other_mbr``; ``radius`` keeps the stretches
    inside the other MBR extended by it (Figure 9d).  ``None`` switches a
    filter off.
    """
    xmin, ymin, xmax, ymax = bounds = polygon.edge_bounds
    edges = polygon.edges_array
    keep = None
    if upper is not None:
        keep = hypot_at_most(*_gaps_to_rect(xmin, ymin, xmax, ymax, other_mbr), upper)
    if radius is not None:
        ext = other_mbr.expand(radius)
        in_ext = (xmin <= ext.xmax) & (ext.xmin <= xmax) & (ymin <= ext.ymax) & (ext.ymin <= ymax)
        keep = in_ext if keep is None else keep & in_ext
    if keep is None:
        return np.concatenate((bounds, edges.T))
    # Compress, then stack: on ``wd-ll`` about one edge in twelve survives.
    return np.concatenate((bounds.compress(keep, axis=1), edges.compress(keep, axis=0).T))


def _segment_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``segment_segment_distance`` of each column of two ``(4, m)`` edge
    arrays (rows ``ax, ay, bx, by``): zero where ``segments_intersect``
    says so, else the builtin ``min`` of its four point-segment distances,
    in its order."""
    ends = np.concatenate((p, q))
    crossing = segments_intersect_arrays(*ends)
    gx, gy = segment_offsets(*(ends.take(rows, axis=0) for rows in _FOUR_CALLS))
    d = min_hypot_columns(gx, gy)
    d[crossing] = 0.0
    return d


def _replay(
    row: np.ndarray,
    row_h: np.ndarray,
    box_h: np.ndarray,
    d: np.ndarray,
    best: float,
    target: float,
) -> Tuple[float, int, bool]:
    """The best-first pair loop's contract over candidate pairs in loop
    order: ``(best, tested, exited)``.

    Entry ``i`` is one pair: its row ``row[i]`` (non-decreasing), that
    row's distance to the other MBR ``row_h[i]``, its box distance
    ``box_h[i]`` and its segment distance ``d[i]``.  The loop skips a row
    whose distance is ``> best`` at the row's start, tests a pair whose box
    distance is ``<= best``, takes ``d < best`` as the new best, and exits
    at the first new best ``<= target`` or ``== 0.0``.

    Assume every pair could lower the best: the best before each pair is
    then a prefix minimum, ``fmin`` because a NaN ``d`` never lowers it,
    and the tested set, the exit and the count follow.  The assumption is
    checked: the first untested pair with ``d`` below the best before it
    is where it breaks.  Everything before that pair is exact, so the pair
    is dropped (``d = inf``) and the rest recomputed - a fixpoint that ends
    because each round drops a later pair.
    """
    head = np.ones(row.size, dtype=bool)
    np.not_equal(row[1:], row[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    of_head = np.cumsum(head) - 1
    d = d.copy()
    while True:
        running = np.fmin.accumulate(np.concatenate(([best], d)))
        before = running[:-1]
        row_ok = row_h.take(heads) <= before.take(heads)
        tested = row_ok.take(of_head) & (box_h <= before)
        lowers = d < before
        exits = np.flatnonzero(tested & lowers & ((d <= target) | (d == 0.0)))
        end = int(exits[0]) if exits.size else d.size
        broken = np.flatnonzero(~tested[:end] & lowers[:end])
        if broken.size:
            d[broken[0]] = math.inf
            continue
        if exits.size:
            return float(d[end]), int(np.count_nonzero(tested[: end + 1])), True
        return float(running[-1]), int(np.count_nonzero(tested)), False


def _pair_search(
    ca: np.ndarray, cb: np.ndarray, b_mbr: Rect, best: float, target: float
) -> Tuple[float, int, bool]:
    """What the best-first loop over the chains' edge pairs returns:
    ``(best, tested, exited)`` (see :func:`_replay`).

    Chunk by chunk of rows, with ``best`` as it stands at the chunk's start,
    the pairs whose box distance is within ``best`` are found exactly
    (``hypot_at_most``).  The best only falls, so these pairs are a
    superset of the ones the loop tests.  Their segment distances are
    computed as arrays, and :func:`_replay` picks out what the loop does
    with them.
    """
    tested = 0
    nb = cb.shape[1]
    if nb == 0:
        return best, tested, False
    box_b = cb[:4]
    step = max(1, _PAIR_BUDGET // nb)
    for start in range(0, ca.shape[1], step):
        rows = ca[:, start : start + step]
        dx, dy = _box_gaps(*rows[:4, :, None], *box_b)
        dx, dy = dx.ravel(), dy.ravel()
        pairs = np.flatnonzero(hypot_at_most(dx, dy, best))
        if pairs.size == 0:
            continue
        row, col = np.divmod(pairs, nb)
        edges_a = rows.take(row, axis=1)
        value, n, exited = _replay(
            row,
            hypots(*_gaps_to_rect(*edges_a[:4], b_mbr)),
            hypots(dx.take(pairs), dy.take(pairs)),
            _segment_distances(edges_a[4:], cb[4:].take(col, axis=1)),
            best,
            target,
        )
        tested += n
        if exited:
            return value, tested, True
        best = value
    return best, tested, False


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

    upper = min(*_initial_upper_bounds(a, b))
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
    chain_a = _chain(a, b.mbr, frontier, radius)
    chain_b = _chain(b, a.mbr, frontier, radius)
    if stats is not None:
        stats.frontier_pairs += chain_a.shape[1] * chain_b.shape[1]

    best, tested, exited = _pair_search(chain_a, chain_b, b.mbr, upper, target)
    if stats is not None:
        stats.pairs_tested += tested
        if exited and best <= target:
            stats.early_exits += 1
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
