"""Filled polygon rasterization (OpenGL spec rules, paper section 2.2.3).

The spec's two polygon rules, which this scanline implementation follows:

1. a pixel is colored only when its center lies inside the polygon;
2. a pixel whose center lies exactly on a shared edge of two polygons is
   colored exactly once.

Rule 2 is obtained with the standard half-open crossing convention: an edge
spanning ``[ymin, ymax)`` contributes a crossing, and fill spans are
half-open ``[x_enter, x_exit)`` in pixel-center space, so abutting polygons
tile without double-writing or gaps.

The paper deliberately avoids filled polygons in the hardware test (concave
polygons would need software triangulation - the motivating observation of
section 3), and so does the simulated card: no draw call fills.  The rule
lives on where the related work keeps it, in the once-per-object filter
builds - :func:`repro.gpu.raster_vector.polygon_fill_coverage_mask` decides
the interior cells of the interior filter and the raster interval index -
and this scanline loop is that kernel's property-tested reference.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def scanline_row_bounds(ymin: float, ymax: float, height: int) -> Tuple[int, int]:
    """Tight clipped row range whose scanlines a fill can cross.

    A scanline ``yc = j + 0.5`` can carry a crossing only when
    ``ymin <= yc < ymax`` (the half-open crossing rule), so the tight row
    range is ``ceil(ymin - 0.5) .. floor(ymax - 0.5)``, with the upper
    bound stepped down once when ``ymax - 0.5`` lands exactly on a row
    (``yc == ymax`` is excluded by the half-open rule).  The historical
    bounds used ``floor`` below and a spurious ``+1`` above, scanning up
    to two guaranteed-empty rows per polygon per draw.  Returns an
    inclusive ``(j_min, j_max)``; empty when ``j_min > j_max``.
    """
    j_min = max(math.ceil(ymin - 0.5), 0)
    top = ymax - 0.5
    j_max = math.floor(top)
    if j_max == top:  # yc would equal ymax exactly: excluded, step down
        j_max -= 1
    return j_min, min(j_max, height - 1)


def rasterize_polygon_evenodd(
    buffer: np.ndarray,
    vertices: Sequence[Tuple[float, float]],
    color: float = 1.0,
) -> int:
    """Fill a polygon given by window-space ``(x, y)`` vertices.

    Uses the even-odd rule, which is also how non-simple GIS rings are
    conventionally interpreted.  Returns the number of pixels written.
    """
    n = len(vertices)
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    height, width = buffer.shape

    xs = np.array([v[0] for v in vertices], dtype=np.float64)
    ys = np.array([v[1] for v in vertices], dtype=np.float64)
    x0s, y0s = xs, ys
    x1s, y1s = np.roll(xs, -1), np.roll(ys, -1)

    j_min, j_max = scanline_row_bounds(float(ys.min()), float(ys.max()), height)
    written = 0
    for j in range(j_min, j_max + 1):
        yc = j + 0.5
        # Half-open rule: edge crosses the scanline iff yc is in [min, max).
        crosses = (y0s > yc) != (y1s > yc)
        if not crosses.any():
            continue
        ex0, ey0 = x0s[crosses], y0s[crosses]
        ex1, ey1 = x1s[crosses], y1s[crosses]
        cross_x = ex0 + (yc - ey0) * (ex1 - ex0) / (ey1 - ey0)
        cross_x.sort()
        for k in range(0, len(cross_x) - 1, 2):
            xa, xb = cross_x[k], cross_x[k + 1]
            # Pixel centers i + 0.5 in the half-open span [xa, xb).
            i_start = max(math.ceil(xa - 0.5), 0)
            i_stop = math.floor(xb - 0.5)
            if xb - 0.5 == i_stop:  # center exactly on the exit edge: excluded
                i_stop -= 1
            i_stop = min(i_stop, width - 1)
            if i_start <= i_stop:
                buffer[j, i_start : i_stop + 1] = color
                written += i_stop - i_start + 1
    return written


def polygon_coverage_mask(
    shape: Tuple[int, int], vertices: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Boolean mask of pixels whose centers are inside the polygon.

    Convenience wrapper over :func:`rasterize_polygon_evenodd` used by tests
    and by the interior filter's reference implementation.
    """
    buf = np.zeros(shape, dtype=np.float32)
    rasterize_polygon_evenodd(buf, vertices, color=1.0)
    return buf > 0.0
