"""Intersection selection: query polygon vs. dataset.

The paper's first query class (section 4.2): given a query polygon (a state
boundary from STATES50), find the dataset objects intersecting it.  The
pipeline follows Figure 8:

1. **MBR filtering** - an STR-packed R-tree window query with the query
   polygon's MBR;
2. **intermediate filtering** (optional) - the interior filter at a chosen
   tiling level identifies containment positives without geometry access,
   and/or the raster-interval filter (``use_intervals``) settles candidates
   in both directions with precomputed interval encodings - render-free;
3. **geometry comparison** - the refinement engine (software or hardware)
   decides the remaining candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.engine import RefinementEngine
from ..datasets.dataset import SpatialDataset
from ..filters.intervals import (
    DEFAULT_INTERVAL_LEVEL,
    IntervalIndex,
    check_interval_level,
)
from ..geometry.polygon import Polygon
from ..index.str_pack import str_bulk_load
from ..obs.instrument import Observed, observe_pipeline
from .costs import CostBreakdown
from .stages import geometry_stage, interior_stage, interval_stage


@dataclass
class SelectionResult(Observed):
    """Result ids (dataset indexes) plus the per-stage cost breakdown."""

    ids: List[int]
    cost: CostBreakdown


class IntersectionSelection:
    """A reusable selection executor over one dataset.

    The R-tree is built once (index construction is not part of the paper's
    measured query cost) and shared by all queries.
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        engine: RefinementEngine,
        interior_level: Optional[int] = None,
        use_intervals: bool = False,
        interval_level: int = DEFAULT_INTERVAL_LEVEL,
    ) -> None:
        if interior_level is not None:
            check_interval_level(interior_level, "interior_level")
        self.dataset = dataset
        self.engine = engine
        self.interior_level = interior_level
        #: Render-free second filter (off by default; a pure knob: results
        #: are bit-identical either way).  Dataset
        #: encodings precompute here, at build time; query polygons encode
        #: on first sight and memoize by content digest.
        self.intervals: Optional[IntervalIndex] = (
            IntervalIndex.for_datasets([dataset], level=interval_level)
            if use_intervals
            else None
        )
        self.index = str_bulk_load(
            [(mbr, i) for i, mbr in enumerate(dataset.mbrs)]
        )

    def run(self, query: Polygon) -> SelectionResult:
        """Execute one selection and return results with costs."""
        cost = CostBreakdown()
        obs = observe_pipeline("selection", self.engine)

        with cost.time_stage("mbr_filter"):
            candidates = sorted(self.index.search(query.mbr))  # type: ignore[type-var]
        cost.candidates_after_mbr = len(candidates)

        positives: List[int] = []
        remaining: List[int] = candidates
        if self.interior_level is not None:
            positives, remaining = interior_stage(
                query, self.interior_level, self.dataset.mbrs, candidates, cost
            )

        if self.intervals is not None:
            rows = self.intervals.dataset_rows[0].take(np.array(remaining, dtype=np.intp))
            hits, undecided = interval_stage(self.intervals, query, rows, cost)
            positives.extend([remaining[k] for k in hits.tolist()])
            remaining = [remaining[k] for k in undecided.tolist()]
        items = [(i, query, self.dataset.polygons[i]) for i in remaining]
        positives.extend(geometry_stage(self.engine, "intersect", items, cost))

        positives.sort()
        cost.results = len(positives)
        run = obs.finish(cost) if obs is not None else None
        return SelectionResult(ids=positives, cost=cost, run=run)

    def run_query_set(self, queries: List[Polygon]) -> CostBreakdown:
        """Run all queries and return the *average* cost per query.

        This is how the paper reports selection numbers: "we use the fifty
        state boundaries in STATES50 as a query set, and report the average
        cost per query".
        """
        if not queries:
            raise ValueError("query set must not be empty")
        total = CostBreakdown()
        for q in queries:
            total.merge(self.run(q).cost)
        return total.scaled(1.0 / len(queries))
