"""Geometry oracles: the scalar and quadratic loops the geometry kernels
must agree with.

Each public function here is registered with its production twin in
``tests/oracles/test_twins.py``.  They are written as the plainest loops
that state the rule - one edge, one pair, one corner at a time - and where
a kernel replaced a loop, the loop keeps that kernel's operand order, so the
two compare with ``==``:

* distances: the point-segment and segment-segment distances, the quadratic
  boundary and region distances, the within-distance predicate;
* point in polygon: an on-segment scan with a second crossing formulation,
  and the edge-by-edge scan ``locate_point`` used to be, over ``Point``s and
  over a ring's full edge rows;
* segments: the ``Point``-form closed-segment predicate;
* boundary intersection: every edge pair, and the red-blue sweep over
  records flattened and sorted per call, with its ``SweepStats``;
* minDist: the seed, both chain filters and the best-first pair loop, with
  every ``MinDistStats`` counter;
* the 0/1-Object upper bounds and ``first_min_hypot`` as loops over
  ``math.hypot``;
* CSR run expansion as one ``range`` per run.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.geometry import (
    Point,
    PointLocation,
    Polygon,
    Rect,
    SweepStats,
    cross,
    on_segment,
)
from repro.geometry.distance import OVERFLOW_SHIFT, either_contains


def _dot(u: Point, v: Point) -> float:
    return u.x * v.x + u.y * v.y


def _distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def _scaled(v: Point) -> Point:
    return Point(math.ldexp(v.x, -OVERFLOW_SHIFT), math.ldexp(v.y, -OVERFLOW_SHIFT))


# -- distances ---------------------------------------------------------------


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Minimum distance from point ``p`` to the closed segment ``ab``."""
    ab = b - a
    denom = _dot(ab, ab)
    if denom == 0.0:
        return _distance(p, a)
    if denom == math.inf:
        ab_s = _scaled(ab)
        t = _dot(_scaled(p - a), ab_s) / _dot(ab_s, ab_s)
    else:
        t = _dot(p - a, ab) / denom
    if t <= 0.0:
        return _distance(p, a)
    if t >= 1.0:
        return _distance(p, b)
    proj = Point(a.x + t * ab.x, a.y + t * ab.y)
    return _distance(p, proj)


def segment_segment_distance(p1: Point, p2: Point, q1: Point, q2: Point) -> float:
    """Minimum distance between two closed segments (0 when they intersect).

    For disjoint segments in the plane, the minimum is always attained at an
    endpoint of one of the segments against the other segment, so four
    point-segment distances suffice.
    """
    if segments_intersect_points(p1, p2, q1, q2):
        return 0.0
    return min(
        point_segment_distance(p1, q1, q2),
        point_segment_distance(p2, q1, q2),
        point_segment_distance(q1, p1, p2),
        point_segment_distance(q2, p1, p2),
    )


def boundary_distance_brute_force(a: Polygon, b: Polygon) -> float:
    """Minimum distance between the two boundaries, by exhaustive edge pairs."""
    best = math.inf
    edges_b = list(b.edges())
    for pa, pb in a.edges():
        for qa, qb in edges_b:
            d = segment_segment_distance(pa, pb, qa, qb)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best


def polygon_distance_brute_force(a: Polygon, b: Polygon) -> float:
    """Minimum distance between the polygons viewed as closed regions.

    Zero when the regions intersect (including containment); otherwise the
    minimum boundary-to-boundary distance.
    """
    if a.mbr.intersects(b.mbr) and either_contains(a, b):
        return 0.0
    return boundary_distance_brute_force(a, b)


def polygons_within_distance_brute_force(a: Polygon, b: Polygon, d: float) -> bool:
    """Reference within-distance predicate: ``distance(a, b) <= d``."""
    if not d >= 0.0:
        raise ValueError("distance must be non-negative")
    if a.mbr.min_distance(b.mbr) > d:
        return False
    return polygon_distance_brute_force(a, b) <= d


# -- point in polygon --------------------------------------------------------


def locate_point_by_sampling(p: Point, vertices) -> PointLocation:
    """An explicit on-segment scan, then a second, independent crossing
    formulation (the edge's x at ``p.y`` by division)."""
    n = len(vertices)
    for i in range(n):
        if on_segment(p, vertices[i], vertices[(i + 1) % n]):
            return PointLocation.BOUNDARY
    crossings = 0
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if (a.y <= p.y < b.y) or (b.y <= p.y < a.y):
            x_at = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if x_at > p.x:
                crossings += 1
    return PointLocation.INSIDE if crossings % 2 == 1 else PointLocation.OUTSIDE


def locate_point_edge_by_edge(p: Point, vertices) -> PointLocation:
    """The paper-literal scan ``locate_point`` used to be: one edge at a
    time, returning at the first edge the point lies on."""
    inside = False
    px, py = p.x, p.y
    ax, ay = vertices[-1].x, vertices[-1].y
    for v in vertices:
        bx, by = v.x, v.y
        if (
            min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by)
            and (bx - ax) * (py - ay) == (by - ay) * (px - ax)
        ):
            return PointLocation.BOUNDARY
        if (ay > py) != (by > py):
            t = (px - ax) * (by - ay) - (bx - ax) * (py - ay)
            if (t < 0) != (by < ay):
                inside = not inside
        ax, ay = bx, by
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE


def locate_xy_over_rows(px: float, py: float, slabs) -> PointLocation:
    """``locate_xy`` as one edge at a time over every ``(n, 4)`` row of the
    ring (``slabs.edges``), not a slab's columns: the boundary test on the
    row's own box, and the crossing decided on the sign of the difference
    ``t < 0``, as the edge-by-edge scan did."""
    inside = False
    for ax, ay, bx, by in slabs.edges.tolist():
        if (
            min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by)
            and (bx - ax) * (py - ay) == (by - ay) * (px - ax)
        ):
            return PointLocation.BOUNDARY
        if (ay > py) != (by > py):
            t = (by - ay) * (px - ax) - (bx - ax) * (py - ay)
            if (t < 0) != (by < ay):
                inside = not inside
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE


# -- segments ----------------------------------------------------------------


def segments_intersect_points(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """The closed-segment test over ``Point`` objects: four ``cross``
    orientations, a proper crossing, then ``on_segment`` for each zero one."""
    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    return (
        (d1 == 0 and on_segment(p1, q1, q2))
        or (d2 == 0 and on_segment(p2, q1, q2))
        or (d3 == 0 and on_segment(q1, p1, p2))
        or (d4 == 0 and on_segment(q2, p1, p2))
    )


def _edges_cross(e, f) -> bool:
    """Do two records ``(xmin, xmax, ymin, ymax, ax, ay, bx, by)`` meet?"""
    return segments_intersect_points(
        Point(e[4], e[5]), Point(e[6], e[7]), Point(f[4], f[5]), Point(f[6], f[7])
    )


# -- boundary intersection ---------------------------------------------------


def boundaries_intersect_brute_force(a: Polygon, b: Polygon) -> bool:
    """Whether any edge of ``a`` meets any edge of ``b``, pair by pair."""
    edges_b = list(b.edges())
    for pa, pb in a.edges():
        for qa, qb in edges_b:
            if segments_intersect_points(pa, pb, qa, qb):
                return True
    return False


def _flatten_edges_edge_by_edge(polygon: Polygon, window: Optional[Rect]):
    """Edge records ``(xmin, xmax, ymin, ymax, ax, ay, bx, by)`` flattened
    one edge at a time, in boundary order and restricted to ``window``."""
    out = []
    if window is not None:
        wxmin, wymin, wxmax, wymax = window.as_tuple()
    verts = list(polygon.vertices)
    ax, ay = verts[-1].x, verts[-1].y
    for v in verts:
        bx, by = v.x, v.y
        xmin, xmax = (ax, bx) if ax <= bx else (bx, ax)
        ymin, ymax = (ay, by) if ay <= by else (by, ay)
        if window is None or (
            xmin <= wxmax and wxmin <= xmax and ymin <= wymax and wymin <= ymax
        ):
            out.append((xmin, xmax, ymin, ymax, ax, ay, bx, by))
        ax, ay = bx, by
    return out


def _red_blue_intersection(red, blue, stats: Optional[SweepStats]) -> bool:
    """The sweep over per-call records: ``sorted()`` per colour, then a
    stable ``list.sort`` on ``xmin`` over red followed by blue."""
    if not red or not blue:
        return False
    events = [(e, 0) for e in sorted(red)] + [(e, 1) for e in sorted(blue)]
    events.sort(key=lambda item: item[0][0])
    active: List[list] = [[], []]
    tests = processed = 0
    try:
        for edge, color in events:
            processed += 1
            others = active[1 - color]
            if others:
                kept = []
                for other in others:
                    if other[1] < edge[0]:
                        continue
                    kept.append(other)
                    if other[2] <= edge[3] and edge[2] <= other[3]:
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


def boundaries_intersect_by_loops(
    a: Polygon, b: Polygon, restrict: bool, stats: Optional[SweepStats] = None
) -> bool:
    """``boundaries_intersect`` over records flattened and sorted per call:
    the verdict and every ``SweepStats`` counter."""
    if stats is not None:
        stats.edges_considered += a.num_vertices + b.num_vertices
    window = None
    if restrict:
        window = a.mbr.intersection(b.mbr)
        if window is None:
            return False
    red = _flatten_edges_edge_by_edge(a, window)
    blue = _flatten_edges_edge_by_edge(b, window)
    if stats is not None:
        stats.edges_after_restriction += len(red) + len(blue)
    return _red_blue_intersection(red, blue, stats)


# -- minDist -----------------------------------------------------------------


def _edge_records(polygon: Polygon):
    """Every edge of ``polygon`` in boundary order as a tuple
    ``(xmin, xmax, ymin, ymax, ax, ay, bx, by)``: the record the pair loop
    reads."""
    ax, ay, bx, by = polygon.edges_array.T
    xmin, ymin, xmax, ymax = polygon.edge_bounds
    columns = [xmin, xmax, ymin, ymax, ax, ay, bx, by]
    return list(zip(*[column.tolist() for column in columns]))


def _edge_rect_distance(e, r: Rect) -> float:
    dx = max(e[0] - r.xmax, 0.0, r.xmin - e[1])
    dy = max(e[2] - r.ymax, 0.0, r.ymin - e[3])
    return math.hypot(dx, dy)


def _edge_edge_mbr_distance(e, f) -> float:
    dx = max(e[0] - f[1], 0.0, f[0] - e[1])
    dy = max(e[2] - f[3], 0.0, f[2] - e[3])
    return math.hypot(dx, dy)


def _box_meets(e, ext: Rect) -> bool:
    return e[0] <= ext.xmax and ext.xmin <= e[1] and e[2] <= ext.ymax and ext.ymin <= e[3]


def point_to_boundary_edge_loop(p: Point, polygon: Polygon) -> float:
    """The edge-by-edge walk ``point_to_boundary_distance`` used to be (and
    minDist's seed repeated)."""
    best = math.inf
    for a, b in polygon.edges():
        d = point_segment_distance(p, a, b)
        if d < best:
            best = d
            if best == 0.0:
                break
    return best


def initial_upper_bound_loop(a: Polygon, b: Polygon) -> float:
    """minDist's seed as two ``Point`` loops: the vertex of ``a`` nearest
    ``b``'s MBR, scored against ``b``'s boundary."""
    b_mbr = b.mbr
    best_vertex = None
    best_rect_d = math.inf
    for v in a.vertices:
        d = b_mbr.distance_to_point(v)
        if d < best_rect_d:
            best_rect_d = d
            best_vertex = v
    assert best_vertex is not None
    return point_to_boundary_edge_loop(best_vertex, b)


def min_boundary_distance_loops(
    a, b, early_exit_at=None, use_frontier=True, use_extended_mbr=True, stats=None
):
    """``min_boundary_distance`` with its seed, both chain filters and the
    best-first pair loop as loops over every edge record: the value and
    every ``MinDistStats`` counter.  The pair loop is the one the routine
    ran until the pair kernel replaced it."""
    edges_a = _edge_records(a)
    edges_b = _edge_records(b)
    if stats is not None:
        stats.edge_pairs_total += len(edges_a) * len(edges_b)
        stats.edges_scanned += 2 * (len(edges_a) + len(edges_b))
    upper = min(initial_upper_bound_loop(a, b), initial_upper_bound_loop(b, a))
    target = early_exit_at if early_exit_at is not None else -math.inf
    if upper <= target:
        if stats is not None:
            stats.early_exits += 1
        return upper
    if use_frontier:
        edges_a = [e for e in edges_a if _edge_rect_distance(e, b.mbr) <= upper]
        edges_b = [e for e in edges_b if _edge_rect_distance(e, a.mbr) <= upper]
    if use_extended_mbr:
        radius = upper if early_exit_at is None else min(upper, early_exit_at)
        edges_a = [e for e in edges_a if _box_meets(e, b.mbr.expand(radius))]
        edges_b = [e for e in edges_b if _box_meets(e, a.mbr.expand(radius))]
    if stats is not None:
        stats.frontier_pairs += len(edges_a) * len(edges_b)
    best = upper
    tested = 0
    for e in edges_a:
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


# -- distance bounds ---------------------------------------------------------


def zero_object_side_pair_loop(a: Rect, b: Rect) -> float:
    """The 16 side pairs x 4 corner distances ``zero_object_upper_bound``
    used to be."""
    ca = a.corners()
    cb = b.corners()
    best = math.inf
    for i in range(4):
        a0 = ca[i]
        a1 = ca[(i + 1) % 4]
        for j in range(4):
            b0 = cb[j]
            b1 = cb[(j + 1) % 4]
            side_max = max(
                _distance(a0, b0),
                _distance(a0, b1),
                _distance(a1, b0),
                _distance(a1, b1),
            )
            if side_max < best:
                best = side_max
    return best


def one_object_vertex_loop(retrieved: Polygon, other_mbr: Rect) -> float:
    """The side-by-side walk over ``Point`` vertices
    ``one_object_upper_bound`` used to be."""
    corners = other_mbr.corners()
    best = math.inf
    for j in range(4):
        b0 = corners[j]
        b1 = corners[(j + 1) % 4]
        side_best = math.inf
        for p in retrieved.vertices:
            bound = max(_distance(p, b0), _distance(p, b1))
            if bound < side_best:
                side_best = bound
        if side_best < best:
            best = side_best
    return best


def first_min_hypot_loop(dx, dy):
    """``(index, value)`` of the first smallest ``math.hypot(dx[i], dy[i])``;
    ``(-1, inf)`` when no entry is below infinity (NaN entries never are)."""
    best_i, best = -1, math.inf
    for i, (x, y) in enumerate(zip(dx, dy)):
        d = math.hypot(x, y)
        if d < best:
            best_i, best = i, d
    return best_i, best


def expand_runs_run_by_run(starts, counts):
    """``(run, index)`` of every member of runs ``starts[i] ..
    starts[i] + counts[i] - 1``, one ``range`` per run, as lists."""
    run, index = [], []
    for i, (start, count) in enumerate(zip(starts, counts)):
        run += [i] * count
        index += range(start, start + count)
    return run, index
