"""The stages every pipeline shares, between MBR filtering and the result.

Figure 8's intermediate-filter and geometry-comparison stages, written
once: the pipelines (:mod:`.selection`, :mod:`.join`,
:mod:`.within_distance`, :mod:`.containment`) differ in how they find
candidates and which predicate they ask for, not in how a filter is
applied or how the surviving candidates reach the refinement engine.
Candidates travel as ``(key, a, b)`` work items - the key is whatever the
pipeline reports (an object id, an index pair).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..core.engine import RefinementEngine
from ..core.refine import WorkItem
from ..filters.intervals import (
    IntervalApproximation,
    IntervalGrid,
    IntervalIndex,
    IntervalVerdict,
)
from ..geometry.polygon import Polygon
from ..geometry.rect import Rect
from .costs import CostBreakdown


def interior_stage(
    query: Polygon,
    level: int,
    mbrs: Sequence[Rect],
    candidates: Sequence[int],
    cost: CostBreakdown,
) -> Tuple[List[int], List[int]]:
    """Split ``candidates`` into (proven inside ``query``, still open).

    The interior tiles of the paper's ``2^level x 2^level`` tiling of the
    query's MBR are the FULL cells of the query's interval encoding on that
    grid.  They lie in the open interior of ``query``, so a covered MBR
    certifies intersection and proper containment alike, without geometry
    access.
    """
    with cost.time_stage("intermediate_filter"):
        interior = IntervalApproximation.build(query, IntervalGrid(query.mbr, level))
        positives: List[int] = []
        remaining: List[int] = []
        for i in candidates:
            if interior.covers(mbrs[i]):
                positives.append(i)
            else:
                remaining.append(i)
    cost.filter_positives = len(positives)
    return positives, remaining


def interval_stage(
    intervals: IntervalIndex, items: Sequence[WorkItem], cost: CostBreakdown
) -> Tuple[List[Any], List[WorkItem]]:
    """Settle intersection candidates with the precomputed encodings.

    Returns (keys proven INTERSECTING, items still UNKNOWN); DISJOINT
    items are dropped.  Render-free, one batch classify for the whole
    list, and run before the geometry stage so every way of cutting the
    candidates into engine calls refines the identical UNKNOWN set.
    """
    hits: List[Any] = []
    undecided: List[WorkItem] = []
    with cost.time_stage("intermediate_filter"):
        verdicts = intervals.classify_batch([item[1:] for item in items])
        for item, verdict in zip(items, verdicts):
            if verdict is IntervalVerdict.INTERSECTING:
                hits.append(item[0])
            elif verdict is IntervalVerdict.UNKNOWN:
                undecided.append(item)
    cost.interval_hits += len(hits)
    cost.interval_drops += len(items) - len(hits) - len(undecided)
    return hits, undecided


def geometry_stage(
    engine: RefinementEngine,
    op: str,
    items: Sequence[WorkItem],
    cost: CostBreakdown,
    distance: Optional[float] = None,
) -> List[Any]:
    """Refine ``items`` in one ``engine.refine`` call under the
    ``geometry`` stage; return the keys satisfying ``op``, in item order."""
    with cost.time_stage("geometry"):
        keys = engine.refine(op, items, distance=distance)
    cost.pairs_compared += len(items)
    return keys
