"""Within-distance join (buffer query): pairs within distance D.

The paper's third query class (section 4.4).  Stages per Figure 8:

1. **MBR filtering** - the plane-sweep MBR join with distance D (the MBR
   distance lower-bounds the object distance);
2. **intermediate filtering** - the 0-Object filter (MBRs only), then the
   1-Object filter (actual geometry of the *larger* object) compute distance
   *upper bounds*; pairs with bound <= D are positives without a full
   distance computation;
3. **geometry comparison** - the refinement engine's within-distance test
   decides the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.engine import RefinementEngine
from ..datasets.dataset import SpatialDataset
from ..filters.object_filters import one_object_upper_bound, zero_object_upper_bound
from ..index.mbr_join import mbr_join_indices
from ..obs.instrument import Observed, observe_pipeline
from .costs import CostBreakdown
from .stages import geometry_stage


@dataclass
class WithinDistanceResult(Observed):
    """Matching index pairs plus the per-stage cost breakdown."""

    pairs: List[Tuple[int, int]]
    cost: CostBreakdown


class WithinDistanceJoin:
    """Executor for within-distance joins at varying distances."""

    def __init__(
        self,
        dataset_a: SpatialDataset,
        dataset_b: SpatialDataset,
        engine: RefinementEngine,
    ) -> None:
        self.dataset_a = dataset_a
        self.dataset_b = dataset_b
        self.engine = engine

    def run(self, d: float) -> WithinDistanceResult:
        if not d >= 0.0:
            raise ValueError("distance must be non-negative")
        cost = CostBreakdown()
        obs = observe_pipeline("within_distance_join", self.engine)
        mbrs_a = self.dataset_a.mbrs
        mbrs_b = self.dataset_b.mbrs
        polys_a = self.dataset_a.polygons
        polys_b = self.dataset_b.polygons

        with cost.time_stage("mbr_filter"):
            ia, ib = mbr_join_indices(
                self.dataset_a.mbr_array, self.dataset_b.mbr_array, d
            )
        cost.candidates_after_mbr = ia.size

        results: List[Tuple[int, int]] = []
        remaining: List[Tuple[int, int]] = []
        with cost.time_stage("intermediate_filter"):
            for i, j in zip(ia.tolist(), ib.tolist()):
                ra, rb = mbrs_a[i], mbrs_b[j]
                if zero_object_upper_bound(ra, rb) <= d:
                    results.append((i, j))
                    continue
                # Retrieve the larger object (by MBR area), as the
                # paper does; its geometry tightens the bound.
                if ra.area >= rb.area:
                    bound = one_object_upper_bound(polys_a[i], rb)
                else:
                    bound = one_object_upper_bound(polys_b[j], ra)
                if bound <= d:
                    results.append((i, j))
                    continue
                remaining.append((i, j))
        cost.filter_positives = len(results)

        items = [((i, j), polys_a[i], polys_b[j]) for i, j in remaining]
        results.extend(
            geometry_stage(self.engine, "within_distance", items, cost, distance=d)
        )

        results.sort()
        cost.results = len(results)
        run = obs.finish(cost) if obs is not None else None
        return WithinDistanceResult(pairs=results, cost=cost, run=run)
