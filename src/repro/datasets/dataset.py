"""Dataset container and Table-2 statistics.

A :class:`SpatialDataset` is what queries run against: an ordered collection
of polygons with cached MBRs (the filtering step never touches geometry).
:class:`DatasetStats` mirrors the columns of the paper's Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..geometry.polygon import Polygon, pack_polygons
from ..geometry.rect import Rect


@dataclass(frozen=True)
class DatasetStats:
    """One row of the paper's Table 2."""

    name: str
    count: int
    min_vertices: int
    max_vertices: int
    mean_vertices: float

    def row(self) -> str:
        """Formatted like Table 2: N, then min/max/mean vertices."""
        return (
            f"{self.name:<10} {self.count:>7} {self.min_vertices:>5} "
            f"{self.max_vertices:>7} {self.mean_vertices:>7.0f}"
        )


class SpatialDataset:
    """An immutable, in-memory polygon dataset."""

    def __init__(
        self,
        name: str,
        polygons: Sequence[Polygon],
        world: Optional[Rect] = None,
    ) -> None:
        if not polygons:
            raise ValueError(f"dataset {name!r} must contain at least one polygon")
        self.name = name
        self.polygons: List[Polygon] = list(polygons)
        self.mbrs: List[Rect] = [p.mbr for p in self.polygons]
        #: The same MBRs as one read-only ``(n, 4)`` float64 block: the
        #: MBR join's input, whose candidate lists index its rows.
        self.mbr_array: np.ndarray = Rect.array_of(self.mbrs)
        self.world = world if world is not None else Rect.union_all(self.mbrs)
        # Every polygon's edges in one packed store (each polygon's
        # ``edge_row``): the atlas batch reads these columns.
        pack_polygons(self.polygons)

    def __len__(self) -> int:
        return len(self.polygons)

    def __getitem__(self, idx: int) -> Polygon:
        return self.polygons[idx]

    def __iter__(self) -> Iterator[Polygon]:
        return iter(self.polygons)

    def __repr__(self) -> str:
        return f"SpatialDataset({self.name!r}, {len(self)} polygons)"

    def stats(self) -> DatasetStats:
        """The dataset's Table 2 row."""
        counts = [p.num_vertices for p in self.polygons]
        return DatasetStats(
            name=self.name,
            count=len(counts),
            min_vertices=min(counts),
            max_vertices=max(counts),
            mean_vertices=sum(counts) / len(counts),
        )

    def total_vertices(self) -> int:
        return sum(p.num_vertices for p in self.polygons)

    def average_mbr_extent(self) -> float:
        """``sqrt(mean_width * mean_height)`` - the per-dataset term of the
        paper's Equation (2) BaseD calculation."""
        mean_w = sum(r.width for r in self.mbrs) / len(self.mbrs)
        mean_h = sum(r.height for r in self.mbrs) / len(self.mbrs)
        return (mean_w * mean_h) ** 0.5


def base_distance(a: SpatialDataset, b: SpatialDataset) -> float:
    """Equation (2): the BaseD unit for within-distance experiments.

    ``BaseD = (sqrt(mean_w1 * mean_h1) + sqrt(mean_w2 * mean_h2)) / 2`` - the
    average MBR extent of the two datasets, so ``0.1 x BaseD`` means "close
    vicinity" and ``4 x BaseD`` "a reasonably long distance" regardless of
    the datasets' absolute scale.
    """
    return (a.average_mbr_extent() + b.average_mbr_extent()) / 2.0
