"""The interior filter for intersection selections (paper section 4.1.1, [2]).

The filter partitions the query polygon's MBR into ``2^l x 2^l`` tiles and
keeps the tiles completely inside the polygon as an interior approximation
(Figure 9a).  A data object whose MBR is completely covered by interior
tiles is a *positive* result without any geometry comparison: the object is
contained in the query polygon's interior.

Construction is exact and cheap:

* every tile touched by a boundary edge is marked (using the conservative
  segment-footprint rasterizer, so no touched tile is missed);
* untouched tiles are uniformly inside or outside, so an even-odd scanline
  fill of tile centers classifies them.

Coverage queries are O(1) via a 2D prefix sum over the interior bitmap.

The paper's Figure 10 finding - that the filter helps little for
intersection selections because it only identifies containment positives,
which the point-in-polygon step handles cheaply anyway - reproduces with
this implementation.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.polygon import Polygon
from ..geometry.rect import Rect
from ..gpu.raster_vector import (
    polygon_fill_coverage_mask,
    ring_boundary_coverage_mask,
)

#: Width (in tile units) of the conservative boundary footprint.  Any value
#: > 0 covers all tiles the segment touches; keep it tiny so the filter does
#: not give up interior tiles adjacent to the boundary unnecessarily.
_BOUNDARY_FOOTPRINT = 1e-9


class InteriorFilter:
    """Interior-tile approximation of one query polygon."""

    def __init__(self, query: Polygon, level: int) -> None:
        if level < 0:
            raise ValueError(f"tiling level must be >= 0, got {level}")
        if level > 12:
            raise ValueError(f"tiling level {level} would allocate 4^{level} tiles")
        self.query = query
        self.level = level
        self.tiles_per_side = 2**level
        self.mbr = query.mbr
        self._tile_w = self.mbr.width / self.tiles_per_side if self.mbr.width else 0.0
        self._tile_h = self.mbr.height / self.tiles_per_side if self.mbr.height else 0.0
        self.interior = self._compute_interior()
        # Prefix sums with a zero border: coverage queries in O(1).
        self._prefix = np.zeros(
            (self.tiles_per_side + 1, self.tiles_per_side + 1), dtype=np.int64
        )
        self._prefix[1:, 1:] = np.cumsum(
            np.cumsum(self.interior.astype(np.int64), axis=0), axis=1
        )

    @property
    def interior_tile_count(self) -> int:
        """Number of tiles kept as the interior approximation."""
        return int(self.interior.sum())

    def _compute_interior(self) -> np.ndarray:
        n = self.tiles_per_side
        # Vertices in tile coordinates; a zero-extent axis maps to 0.
        arr = np.zeros((self.query.num_vertices, 2), dtype=np.float64)
        coords = self.query.coords_array
        if self._tile_w:
            arr[:, 0] = (coords[:, 0] - self.mbr.xmin) / self._tile_w
        if self._tile_h:
            arr[:, 1] = (coords[:, 1] - self.mbr.ymin) / self._tile_h

        # Tiles whose center is inside the polygon (even-odd fill) minus
        # tiles touched by the boundary (conservative footprint): both as
        # whole-draw-call coverage masks, one kernel invocation each.
        inside = polygon_fill_coverage_mask((n, n), arr)
        touched = ring_boundary_coverage_mask((n, n), arr, _BOUNDARY_FOOTPRINT)
        return inside & ~touched

    def covers(self, mbr: Rect) -> bool:
        """True when ``mbr`` is completely covered by interior tiles.

        A True answer proves the object intersects (is contained in) the
        query polygon; a False answer proves nothing - the pair goes on to
        geometry comparison.
        """
        if not self.mbr.contains_rect(mbr):
            return False
        if self._tile_w == 0.0 or self._tile_h == 0.0:
            return False
        n = self.tiles_per_side
        # Closed tile range intersecting the closed MBR (conservative).
        ix0 = min(max(math.floor((mbr.xmin - self.mbr.xmin) / self._tile_w), 0), n - 1)
        iy0 = min(max(math.floor((mbr.ymin - self.mbr.ymin) / self._tile_h), 0), n - 1)
        ix1 = min(max(math.floor((mbr.xmax - self.mbr.xmin) / self._tile_w), 0), n - 1)
        iy1 = min(max(math.floor((mbr.ymax - self.mbr.ymin) / self._tile_h), 0), n - 1)
        want = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
        p = self._prefix
        have = (
            p[iy1 + 1, ix1 + 1]
            - p[iy0, ix1 + 1]
            - p[iy1 + 1, ix0]
            + p[iy0, ix0]
        )
        return int(have) == want
