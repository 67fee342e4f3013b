"""Shamos-Hoey plane sweep: does any pair of segments intersect?

This is the classic detection-only variant of the Bentley-Ottmann sweep the
paper cites for the software segment intersection test [3]: events are the
segment endpoints sorted by x, the sweep status is a balanced tree (here the
AVL tree from :mod:`repro.geometry.avl`) ordered by the y coordinate at the
sweep line, and only status neighbors are tested against each other.  Because
the algorithm stops at the first intersection found, the status order remains
valid throughout the run (segments only swap order at crossings).

Two entry points:

* :func:`any_segments_intersect` - detection over one set of segments, with a
  caller-supplied predicate for pairs whose contact should be ignored
  (adjacent polygon edges sharing an endpoint).
* :func:`polygon_is_simple` - the simplicity check from the paper's footnote 1.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .avl import AVLNode, AVLTree
from .point import Point
from .predicates import on_segment, segments_intersect
from .polygon import Polygon

# A sweep segment: (id, left endpoint, right endpoint) with left.x <= right.x,
# plus the original endpoints for exact tests.
_SweepSeg = Tuple[int, Point, Point]

IgnorePair = Callable[[int, int], bool]


class _SweepContext:
    """Shared mutable sweep position consulted by the status comparator."""

    __slots__ = ("x",)

    def __init__(self) -> None:
        self.x = 0.0


def _y_at(seg: _SweepSeg, x: float) -> float:
    """Height of the segment at sweep position ``x``.

    Vertical segments report their lower endpoint; the vertical-segment
    neighborhood walk in the sweep compensates for the ambiguity.
    """
    _, left, right = seg
    if right.x == left.x:
        return min(left.y, right.y)
    if x <= left.x:
        return left.y
    if x >= right.x:
        return right.y
    t = (x - left.x) / (right.x - left.x)
    return left.y + t * (right.y - left.y)


def _slope_key(seg: _SweepSeg) -> float:
    """Finite ordering key for the slope; verticals sort above everything."""
    _, left, right = seg
    dx = right.x - left.x
    if dx == 0.0:
        return float("inf")
    return (right.y - left.y) / dx


def _pairs_conflict(
    a: _SweepSeg, b: _SweepSeg, ignore: Optional[IgnorePair]
) -> bool:
    """Exact intersection test honoring the ignore predicate."""
    if a[0] == b[0]:
        return False
    if ignore is not None and ignore(a[0], b[0]):
        return False
    return segments_intersect(a[1], a[2], b[1], b[2])


def any_segments_intersect(
    segments: Sequence[Tuple[Point, Point]],
    ignore: Optional[IgnorePair] = None,
) -> Optional[Tuple[int, int]]:
    """Return the ids of one intersecting pair, or None when none intersect.

    ``ignore(i, j)`` may exempt specific pairs (it is consulted with the
    original indices into ``segments``, in both orders).  Zero-length
    segments are treated as points and participate normally.
    """
    n = len(segments)
    if n < 2:
        return None

    sweep_segs: List[_SweepSeg] = []
    for i, (p, q) in enumerate(segments):
        if (p.x, p.y) <= (q.x, q.y):
            sweep_segs.append((i, p, q))
        else:
            sweep_segs.append((i, q, p))

    ctx = _SweepContext()

    def compare(a: _SweepSeg, b: _SweepSeg) -> float:
        ya = _y_at(a, ctx.x)
        yb = _y_at(b, ctx.x)
        if ya != yb:
            return ya - yb
        sa = _slope_key(a)
        sb = _slope_key(b)
        if sa != sb:
            if sa == float("inf"):
                return 1.0
            if sb == float("inf"):
                return -1.0
            return sa - sb
        return a[0] - b[0]

    # Events: (x, kind, y, seg index). Left events (kind 0) are processed
    # before right events (kind 1) at equal x so that segments meeting
    # end-to-start coexist in the status and get neighbor-tested.
    events: List[Tuple[float, int, float, int]] = []
    for idx, seg in enumerate(sweep_segs):
        events.append((seg[1].x, 0, seg[1].y, idx))
        events.append((seg[2].x, 1, seg[2].y, idx))
    events.sort()

    tree: AVLTree[_SweepSeg] = AVLTree(compare)
    nodes: List[Optional[AVLNode[_SweepSeg]]] = [None] * n

    for x, kind, _y, idx in events:
        ctx.x = x
        seg = sweep_segs[idx]
        if kind == 0:
            node = tree.insert(seg)
            nodes[idx] = node
            pred = AVLTree.predecessor(node)
            succ = AVLTree.successor(node)
            if pred and _pairs_conflict(seg, pred.item, ignore):
                return (seg[0], pred.item[0])
            if succ and _pairs_conflict(seg, succ.item, ignore):
                return (seg[0], succ.item[0])
            hit = _scan_vertical_neighborhood(tree, node, seg, x, ignore)
            if hit is not None:
                return hit
        else:
            node = nodes[idx]
            if node is None:  # pragma: no cover - defensive
                continue
            pred = AVLTree.predecessor(node)
            succ = AVLTree.successor(node)
            tree.remove_node(node)
            nodes[idx] = None
            if pred and succ and _pairs_conflict(pred.item, succ.item, ignore):
                return (pred.item[0], succ.item[0])
    return None


def _scan_vertical_neighborhood(
    tree: AVLTree[_SweepSeg],
    node: AVLNode[_SweepSeg],
    seg: _SweepSeg,
    x: float,
    ignore: Optional[IgnorePair],
) -> Optional[Tuple[int, int]]:
    """Extra checks for vertical segments.

    A vertical segment is keyed at its lower endpoint, so segments it crosses
    higher up may not be immediate status neighbors.  Walk successors while
    they remain at or below the vertical segment's top and test each.  The
    walk is bounded by the number of segments genuinely overlapping the
    vertical span, so it does not change the sweep's complexity class.
    """
    _, left, right = seg
    if right.x != left.x:
        return None
    y_top = max(left.y, right.y)
    cur = AVLTree.successor(node)
    while cur is not None and _y_at(cur.item, x) <= y_top:
        if _pairs_conflict(seg, cur.item, ignore):
            return (seg[0], cur.item[0])
        cur = AVLTree.successor(cur)
    return None


def polygon_is_simple(polygon: Polygon) -> bool:
    """Simplicity check per the paper's footnote 1.

    A polygon is simple when its boundary neither self-intersects nor visits
    any vertex more than twice: adjacent edges may share exactly their common
    endpoint, and nothing else may touch.  Repeated consecutive vertices
    (zero-length edges) make a polygon non-simple.
    """
    n = polygon.num_vertices
    ax, ay, bx, by = polygon.edges_array.T
    if ((ax == bx) & (ay == by)).any():
        return False

    edges: List[Tuple[Point, Point]] = list(polygon.edges())

    def adjacent_ok(i: int, j: int) -> bool:
        """Exempt adjacent edges - but only if they touch at just the shared
        vertex.  A fold-back (far endpoint on the neighbor) is detected here
        and reported as a conflict by *not* exempting the pair."""
        if (i + 1) % n == j:
            i, j = i, j
        elif (j + 1) % n == i:
            i, j = j, i
        else:
            return False
        # Edge i is (a, v), edge j is (v, b); conflict beyond v?
        a, v = edges[i]
        v2, b = edges[j]
        assert v == v2
        if on_segment(b, a, v) and b != v:
            return False
        if on_segment(a, v, b) and a != v:
            return False
        return True

    return any_segments_intersect(edges, ignore=adjacent_ok) is None
