"""Nearest-neighbor queries (the paper's section-5 extension).

Given a query point, find the dataset object(s) at minimum distance.  Two
strategies:

* **software** - the classic best-first R-tree traversal
  (:func:`repro.index.nearest.rtree_nearest`): MBR distances order the
  search, and every reached object pays an exact point-to-polygon distance
  computation over all of its edges.
* **hardware** - the Voronoi approach the paper announces: collect a
  candidate neighborhood with the R-tree, render each candidate's boundary
  once into a window centered on the query point, and build the discrete
  Voronoi diagram of the candidates (simulating Hoff et al.'s z-buffered
  cone rendering).  The diagram's per-site distances at the query pixel,
  padded by the cell-quantization slack, prune every candidate that
  provably cannot win; only the survivors pay the exact edge scan.

Both strategies return identical results (property-tested); the hardware
strategy replaces most exact edge scans of complex polygons with one
fixed-resolution rendering pass per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.config import HardwareConfig
from ..datasets.dataset import SpatialDataset
from ..geometry.distance import point_to_polygon_distance
from ..geometry.point import Point
from ..geometry.rect import Rect
from ..gpu.pipeline import GraphicsPipeline
from ..gpu.state import DEFAULT_AA_LINE_WIDTH
from ..gpu.voronoi import VORONOI_SLACK, site_distances_at
from ..index.nearest import NearestStats, rtree_nearest
from ..index.str_pack import str_bulk_load


@dataclass
class NearestResult:
    """The k nearest objects with their exact distances, plus work stats."""

    neighbors: List[Tuple[float, int]]
    exact_distance_calls: int = 0
    candidates_rendered: int = 0


class NearestNeighborQuery:
    """A reusable nearest-neighbor executor over one dataset."""

    def __init__(
        self,
        dataset: SpatialDataset,
        hardware: Optional[HardwareConfig] = None,
    ) -> None:
        self.dataset = dataset
        self.index = str_bulk_load(
            [(mbr, i) for i, mbr in enumerate(dataset.mbrs)]
        )
        self.hardware = hardware
        self._pipeline: Optional[GraphicsPipeline] = None
        if hardware is not None:
            self._pipeline = GraphicsPipeline(
                hardware.resolution,
                limits=hardware.limits,
            )

    # -- software strategy ---------------------------------------------------

    def run_software(self, query: Point, k: int = 1) -> NearestResult:
        """Best-first R-tree search with exact refinement distances."""
        stats = NearestStats()
        polygons = self.dataset.polygons

        def exact(oid) -> float:
            return point_to_polygon_distance(query, polygons[oid])

        pairs = rtree_nearest(self.index, query, exact, k=k, stats=stats)
        return NearestResult(
            neighbors=[(d, int(oid)) for d, oid in pairs],
            exact_distance_calls=stats.exact_distance_calls,
        )

    # -- hardware strategy -----------------------------------------------------

    def run_hardware(self, query: Point, k: int = 1) -> NearestResult:
        """Voronoi-filtered search: render candidates, prune, then refine."""
        if self._pipeline is None:
            raise ValueError(
                "construct NearestNeighborQuery with a HardwareConfig to "
                "use the hardware strategy"
            )
        polygons = self.dataset.polygons
        mbrs = self.dataset.mbrs

        # Candidate neighborhood: everything whose MBR could contain one of
        # the k nearest objects.  The k-th smallest (MBR min-distance +
        # MBR diagonal) upper-bounds the k-th exact distance, because each
        # object lies inside its MBR.
        bounds = sorted(
            mbr.distance_to_point(query)
            + float(np.hypot(mbr.width, mbr.height))
            for mbr in mbrs
        )
        upper = bounds[min(k - 1, len(bounds) - 1)]
        candidate_ids = self.index.search_within_distance(
            Rect(query.x, query.y, query.x, query.y), upper
        )
        candidate_ids = sorted(int(c) for c in candidate_ids)
        if not candidate_ids:  # pragma: no cover - upper bound guarantees one
            candidate_ids = list(range(len(polygons)))

        # Render each candidate's boundary into a window around the query.
        pl = self._pipeline
        window = Rect(
            query.x - upper, query.y - upper, query.x + upper, query.y + upper
        )
        pl.set_data_window(window)
        st = pl.state
        st.line_width = DEFAULT_AA_LINE_WIDTH
        st.point_size = DEFAULT_AA_LINE_WIDTH
        st.cap_points = False
        st.reset_fragment_ops()
        masks = [
            pl.render_coverage_mask(polygons[i].edges_array)
            for i in candidate_ids
        ]
        for _ in masks:
            pl.counters.distance_field_pixels += pl.width * pl.height

        qx, qy = pl.data_to_window(query.x, query.y)
        j = min(max(int(qy), 0), pl.height - 1)
        i = min(max(int(qx), 0), pl.width - 1)
        px_distances = site_distances_at(masks, (j, i))

        # Refinement, best-first over the diagram distances.  The diagram's
        # per-site value lower-bounds the true *boundary* distance by the
        # quantization slack, so once the k-th best exact distance beats the
        # next candidate's (value - slack), the rest cannot win.
        #
        # Containment is the one case where the region distance (0) is less
        # than the boundary distance the cones measure, so candidates whose
        # MBR contains the query are refined unconditionally first.
        exact_calls = 0
        scored: List[Tuple[float, int]] = []
        deferred: List[Tuple[float, int]] = []
        for pos, oid in enumerate(candidate_ids):
            if mbrs[oid].contains_point(query):
                exact_calls += 1
                scored.append(
                    (point_to_polygon_distance(query, polygons[oid]), oid)
                )
            else:
                deferred.append((float(px_distances[pos]), oid))
        scored.sort()
        deferred.sort()

        scale = pl.scale
        for px, oid in deferred:
            if len(scored) >= k:
                kth_exact_px = scored[k - 1][0] * scale
                if px - VORONOI_SLACK > kth_exact_px:
                    break  # deferred is sorted: nothing further can win
            exact_calls += 1
            scored.append(
                (point_to_polygon_distance(query, polygons[oid]), oid)
            )
            scored.sort()
        return NearestResult(
            neighbors=scored[:k],
            exact_distance_calls=exact_calls,
            candidates_rendered=len(candidate_ids),
        )

    def run(self, query: Point, k: int = 1) -> NearestResult:
        """Dispatch on construction: hardware when configured, else software."""
        if self._pipeline is not None:
            return self.run_hardware(query, k)
        return self.run_software(query, k)
