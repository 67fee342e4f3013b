"""Containment selection: objects strictly inside a query region.

The interior filter's second advertised query type (paper Table 1:
"Intersection and Containment").  The pipeline mirrors the intersection
selection, but here the interior filter is in its element: an object whose
MBR is completely covered by interior tiles is *provably* inside the query
polygon, and in the refinement step the hardware test can confirm
containment outright (boundaries disjoint + a vertex inside, see
:mod:`repro.core.refine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.engine import RefinementEngine
from ..datasets.dataset import SpatialDataset
from ..filters.intervals import check_interval_level
from ..geometry.polygon import Polygon
from ..index.str_pack import str_bulk_load
from ..obs.instrument import Observed, observe_pipeline
from .costs import CostBreakdown
from .stages import geometry_stage, interior_stage


@dataclass
class ContainmentResult(Observed):
    """Ids of properly-contained objects plus the cost breakdown."""

    ids: List[int]
    cost: CostBreakdown


class ContainmentSelection:
    """Find every dataset object strictly inside a (simple) query polygon."""

    def __init__(
        self,
        dataset: SpatialDataset,
        engine: RefinementEngine,
        interior_level: Optional[int] = None,
    ) -> None:
        if interior_level is not None:
            check_interval_level(interior_level, "interior_level")
        self.dataset = dataset
        self.engine = engine
        self.interior_level = interior_level
        self.index = str_bulk_load(
            [(mbr, i) for i, mbr in enumerate(dataset.mbrs)]
        )

    def run(self, query: Polygon) -> ContainmentResult:
        cost = CostBreakdown()
        obs = observe_pipeline("containment", self.engine)

        # MBR filtering: containment requires the MBR inside the query MBR.
        with cost.time_stage("mbr_filter"):
            candidates = [
                i
                for i in self.index.search(query.mbr)
                if query.mbr.contains_rect(self.dataset.mbrs[i])
            ]
            candidates.sort()
        cost.candidates_after_mbr = len(candidates)

        positives: List[int] = []
        remaining = candidates
        if self.interior_level is not None:
            positives, remaining = interior_stage(
                query, self.interior_level, self.dataset.mbrs, candidates, cost
            )

        items = [(i, query, self.dataset.polygons[i]) for i in remaining]
        positives.extend(geometry_stage(self.engine, "contains", items, cost))

        positives.sort()
        cost.results = len(positives)
        run = obs.finish(cost) if obs is not None else None
        return ContainmentResult(ids=positives, cost=cost, run=run)
