"""Intersection join: dataset |><| dataset on polygon intersection.

The paper's second query class (section 4.3): all pairs (a, b) whose
polygons intersect.  Stages per Figure 8:

1. **MBR filtering** - the plane-sweep MBR join produces the candidate
   pairs as two index arrays into the datasets' MBR blocks; ``(key, a, b)``
   work items are built only for the pairs that reach refinement;
2. **intermediate filtering** (optional) - the progressive convex-hull
   filter (``use_hull_filter``) and/or the raster-interval second filter
   (``use_intervals``): precomputed sorted-interval encodings on a
   pair-common grid settle candidates in both directions with pure
   interval algebra, so refinement only sees the genuinely ambiguous
   pairs;
3. **geometry comparison** - the refinement engine decides each pair.

(The paper applies no intermediate filter to intersection joins - the
interior filter is a selection-side technique - so the paper-faithful
pipeline goes straight from MBR pairs to refinement; both knobs here are
off by default and bit-identical in results when on.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.engine import RefinementEngine
from ..datasets.dataset import SpatialDataset
from ..filters.intervals import DEFAULT_INTERVAL_LEVEL, IntervalIndex
from ..filters.progressive import ConvexHullFilter
from ..index.mbr_join import mbr_join_indices
from ..obs.instrument import Observed, observe_pipeline
from .costs import CostBreakdown
from .stages import geometry_stage, interval_stage


@dataclass
class JoinResult(Observed):
    """Matching index pairs plus the per-stage cost breakdown."""

    pairs: List[Tuple[int, int]]
    cost: CostBreakdown


class IntersectionJoin:
    """Executor for one intersection join."""

    def __init__(
        self,
        dataset_a: SpatialDataset,
        dataset_b: SpatialDataset,
        engine: RefinementEngine,
        use_hull_filter: bool = False,
        use_intervals: bool = False,
        interval_level: int = DEFAULT_INTERVAL_LEVEL,
    ) -> None:
        self.dataset_a = dataset_a
        self.dataset_b = dataset_b
        self.engine = engine
        self.use_hull_filter = use_hull_filter
        #: Render-free interval second filter (off by default): both
        #: layers encode once at build time on one grid spanning the
        #: union of their worlds - the pair-common grid the interval
        #: certificates require.
        self.intervals: Optional[IntervalIndex] = (
            IntervalIndex.for_datasets([dataset_a, dataset_b], level=interval_level)
            if use_intervals
            else None
        )
        self.hulls_a: ConvexHullFilter | None = None
        self.hulls_b: ConvexHullFilter | None = None
        if use_hull_filter:
            # The pre-processing step Table 1 attributes to the geometric
            # filter: one convex hull per object, built up front.
            self.hulls_a = ConvexHullFilter(dataset_a.polygons)
            self.hulls_b = ConvexHullFilter(dataset_b.polygons)

    def run(self) -> JoinResult:
        cost = CostBreakdown()
        obs = observe_pipeline("join", self.engine)

        with cost.time_stage("mbr_filter"):
            ia, ib = mbr_join_indices(
                self.dataset_a.mbr_array, self.dataset_b.mbr_array
            )
        cost.candidates_after_mbr = ia.size

        if self.use_hull_filter:
            assert self.hulls_a is not None and self.hulls_b is not None
            with cost.time_stage("intermediate_filter"):
                may = self.hulls_a.may_intersect
                kept = np.fromiter(
                    (may(i, self.hulls_b, j) for i, j in zip(ia.tolist(), ib.tolist())),
                    bool,
                    ia.size,
                )
                ia, ib = ia.compress(kept), ib.compress(kept)
            cost.hull_drops = cost.candidates_after_mbr - ia.size

        results: List[Tuple[int, int]] = []
        if self.intervals is not None:
            rows_a, rows_b = self.intervals.dataset_rows
            hits, undecided = interval_stage(
                self.intervals, rows_a.take(ia), rows_b.take(ib), cost
            )
            results = list(zip(ia.take(hits).tolist(), ib.take(hits).tolist()))
            ia, ib = ia.take(undecided), ib.take(undecided)

        polys_a = self.dataset_a.polygons
        polys_b = self.dataset_b.polygons
        items = [((i, j), polys_a[i], polys_b[j]) for i, j in zip(ia.tolist(), ib.tolist())]
        results.extend(geometry_stage(self.engine, "intersect", items, cost))

        results.sort()
        cost.results = len(results)
        run = obs.finish(cost) if obs is not None else None
        return JoinResult(pairs=results, cost=cost, run=run)
