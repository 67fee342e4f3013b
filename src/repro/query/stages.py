"""The stages every pipeline shares, between MBR filtering and the result.

Figure 8's intermediate-filter and geometry-comparison stages, written
once: the pipelines (:mod:`.selection`, :mod:`.join`,
:mod:`.within_distance`, :mod:`.containment`) differ in how they find
candidates and which predicate they ask for, not in how a filter is
applied or how the surviving candidates reach the refinement engine.
Candidates travel as index arrays through the filters and as ``(key, a,
b)`` work items into refinement - the key is whatever the pipeline reports
(an object id, an index pair), built only for the items that reach it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.engine import RefinementEngine
from ..core.refine import WorkItem
from ..filters.intervals import (
    INTERSECTING,
    UNKNOWN,
    IntervalApproximation,
    IntervalGrid,
    IntervalIndex,
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
    intervals: IntervalIndex,
    rows_a: Union[np.ndarray, Polygon],
    rows_b: np.ndarray,
    cost: CostBreakdown,
) -> Tuple[np.ndarray, np.ndarray]:
    """Settle intersection candidates with the precomputed encodings.

    The candidates are two arrays of ``intervals`` rows, pair by pair; a
    polygon for ``rows_a`` stands for its own row in every pair (a
    selection's query, encoded on first sight).  Returns the positions of
    the candidates proven INTERSECTING and of those still UNKNOWN;
    DISJOINT ones are dropped.  Render-free, one rows classify for the
    whole list, and run before the geometry stage so every way of cutting
    the candidates into engine calls refines the identical UNKNOWN set.
    """
    with cost.time_stage("intermediate_filter"):
        if isinstance(rows_a, Polygon):
            rows_a = np.full(rows_b.size, intervals.row(rows_a), dtype=np.intp)
        codes = intervals.classify_rows(rows_a, rows_b)
        hits = (codes == INTERSECTING).nonzero()[0]
        undecided = (codes == UNKNOWN).nonzero()[0]
    cost.interval_hits += hits.size
    cost.interval_drops += codes.size - hits.size - undecided.size
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
