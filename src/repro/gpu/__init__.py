"""Simulated graphics hardware.

A software stand-in for the OpenGL pipeline + consumer graphics card the
paper runs on (GeForce4 Ti4600), simulating what Algorithm 3.1 asks of it:
frame buffers (color + accumulation; stencil + depth for section 3's other
overlap searches), viewport projection, one draw - line-segment arrays under
the OpenGL-spec anti-aliased rule of section 2.2.2, widened and capped for
the distance test - the hardware Minmax readback of section 3.2, and the
device limits (maximum anti-aliased line width) whose effects section 4.4
measures.  Polygon fill (section 2.2.3) is not a draw: it serves the
once-per-object filter builds (:mod:`.raster_vector`).  The scalar
reference rasterizers the kernels are held to (per-edge anti-aliased line,
wide point, scanline even-odd fill) are test oracles and live in
``tests/oracles/raster.py``.  See DESIGN.md section 2 for why this
substitution preserves the paper's claims.
"""

from .counters import CostCounters
from .distance_field import distance_field
from .framebuffer import Framebuffer
from .pipeline import GraphicsPipeline
from .raster_bulk import edges_coverage_mask, edges_coverage_masks_grouped
from .raster_vector import (
    polygon_fill_coverage_mask,
    rings_boundary_coverage_masks,
    scanline_row_bounds,
)
from .tiled import TiledPipeline
from .voronoi import discrete_voronoi, site_distances_at
from .state import (
    DEFAULT_AA_LINE_WIDTH,
    EDGE_COLOR,
    OVERLAP_COLOR,
    DeviceLimits,
    RasterState,
)

__all__ = [
    "CostCounters",
    "DEFAULT_AA_LINE_WIDTH",
    "DeviceLimits",
    "EDGE_COLOR",
    "Framebuffer",
    "GraphicsPipeline",
    "OVERLAP_COLOR",
    "RasterState",
    "TiledPipeline",
    "discrete_voronoi",
    "distance_field",
    "edges_coverage_mask",
    "edges_coverage_masks_grouped",
    "site_distances_at",
    "polygon_fill_coverage_mask",
    "rings_boundary_coverage_masks",
    "scanline_row_bounds",
]
