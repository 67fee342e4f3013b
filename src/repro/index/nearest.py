"""Best-first nearest-neighbor search over the R-tree.

The software baseline for the nearest-neighbor extension (paper section 5):
the classic Hjaltason-Samet incremental traversal.  Nodes and entries are
expanded in order of their MBR distance to the query point - a lower bound
on the exact object distance - and the exact distance of each reached
object is computed by a caller-supplied refinement function, so the search
can stop as soon as the next lower bound exceeds the best exact distance
found.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..geometry.point import Point
from .rtree import RTree, RTreeNode

#: Exact distance from the query point to the object with a given id.
DistanceFn = Callable[[object], float]


@dataclass
class NearestStats:
    """Work counters of one best-first search."""

    nodes_expanded: int = 0
    entries_considered: int = 0
    exact_distance_calls: int = 0


def rtree_nearest(
    tree: RTree,
    query: Point,
    distance_fn: DistanceFn,
    k: int = 1,
    stats: Optional[NearestStats] = None,
) -> List[Tuple[float, object]]:
    """The ``k`` nearest objects to ``query``, as ``(distance, oid)`` pairs.

    ``distance_fn(oid)`` must return the exact distance from the query point
    to that object; the MBR distances stored in the tree are used only as
    lower bounds.  Results are sorted by distance; fewer than ``k`` pairs
    are returned when the tree is smaller than ``k``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tree.root.mbr is None:
        return []

    counter = itertools.count()  # tie-breaker: heap entries never compare nodes
    heap: List[Tuple[float, int, bool, object]] = [
        (0.0, next(counter), False, tree.root)
    ]
    results: List[Tuple[float, object]] = []

    while heap:
        bound, _, is_object, item = heapq.heappop(heap)
        if len(results) == k and bound > results[-1][0]:
            break
        if is_object:
            if stats is not None:
                stats.exact_distance_calls += 1
            exact = distance_fn(item)
            results.append((exact, item))
            # Sort on distance alone: tuple order would fall through to
            # comparing object ids on distance ties, which raises TypeError
            # for non-orderable ids (and imposed an id ordering the API
            # never promised).  The stable sort keeps equal-distance ids in
            # discovery order instead.
            results.sort(key=lambda pair: pair[0])
            if len(results) > k:
                results.pop()
            continue
        node: RTreeNode = item
        if stats is not None:
            stats.nodes_expanded += 1
        for mbr, child in node.entries:
            if stats is not None:
                stats.entries_considered += 1
            child_bound = mbr.distance_to_point(query)
            if len(results) == k and child_bound > results[-1][0]:
                continue
            heapq.heappush(
                heap, (child_bound, next(counter), node.is_leaf, child)
            )
    return results
