"""Anti-aliased line rasterization (OpenGL spec rules, paper section 2.2.2).

The spec's *basic* line rule is the diamond exit: a pixel is colored when
the segment intersects the open diamond ``R_f`` around the pixel center and
does not end inside it.  As the paper illustrates (Figure 3d), short or
unluckily placed segments simply disappear under it - which is exactly why
step 2.1 of Algorithm 3.1 enables anti-aliasing, and why the basic rule is
not implemented.  This module is the scalar oracle of the one rule the
simulated card draws with:

* :func:`rasterize_line_aa_conservative` - anti-aliased lines with blending
  disabled.  The OpenGL spec defines the AA footprint as the bounding
  rectangle of the segment with width ``w`` (two edges parallel to the
  segment at distance ``w/2``, two perpendicular edges through the end
  points); every pixel with non-zero coverage is touched.  With blending
  disabled the alpha is ignored and the pixel receives the full line color
  (Figure 4d), which gives the guarantee Algorithm 3.1 relies on: *every
  pixel whose cell intersects the rectangle is colored*.  The paper uses
  width sqrt(2) (the pixel diagonal) for intersection tests and
  Equation (1)'s widened lines for distance tests.
* :func:`rasterize_point_conservative` - wide points used as end-point caps
  for widened line segments in the distance test (section 3.1, Figure 6):
  every pixel whose cell intersects the ``size x size`` square centered on
  the point is colored.  The square cap covers the disc cap of the same
  diameter, preserving the conservative no-false-negative guarantee.

The conservative rasterizer implements an exact separating-axis test between
the oriented rectangle and each pixel cell, vectorized over the rectangle's
bounding box, so the cost is proportional to the bounding-box pixel count -
the same scaling a hardware rasterizer exhibits.  Draws go through
:mod:`repro.gpu.raster_bulk`, the whole-draw-call form of the same test.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Slack added to every coverage comparison.  Rounding in the unit-vector
#: computation can push an exact boundary touch (rect corner on cell corner)
#: one ulp past the closed-inequality limit; inflating the footprint by a
#: hair keeps the rasterization conservative under floating point.  Extra
#: pixels only ever add false *positives*, which the software step resolves.
COVERAGE_EPS = 1e-7


def point_conservative_range(
    shape, x: float, y: float, size: float
) -> "tuple[int, int, int, int] | None":
    """Clipped inclusive pixel range ``(i0, i1, j0, j1)`` of a square cap.

    ``None`` when the footprint misses the buffer entirely.  Shared by
    :func:`rasterize_point_conservative` and the distinct-pixel counting
    of capped anti-aliased lines, so both agree on the exact footprint.
    """
    if size < 0.0:
        raise ValueError("point size must be non-negative")
    height, width = shape
    half = size * 0.5
    # Closed cell [i, i+1] intersects the closed square [x-half, x+half]
    # iff i <= x+half and i+1 >= x-half.
    i0 = max(math.ceil(x - half - 1.0 - COVERAGE_EPS), 0)
    i1 = min(math.floor(x + half + COVERAGE_EPS), width - 1)
    j0 = max(math.ceil(y - half - 1.0 - COVERAGE_EPS), 0)
    j1 = min(math.floor(y + half + COVERAGE_EPS), height - 1)
    if i0 > i1 or j0 > j1:
        return None
    return i0, i1, j0, j1


def rasterize_point_conservative(
    buffer: np.ndarray, x: float, y: float, size: float, color: float = 1.0
) -> int:
    """Color every pixel whose cell touches the square of side ``size`` at ``(x, y)``.

    Returns the number of pixels written.
    """
    rng = point_conservative_range(buffer.shape, x, y, size)
    if rng is None:
        return 0
    i0, i1, j0, j1 = rng
    buffer[j0 : j1 + 1, i0 : i1 + 1] = color
    return (i1 - i0 + 1) * (j1 - j0 + 1)


def aa_rect_axes(
    x0: float, y0: float, x1: float, y1: float
) -> Tuple[float, float, float, float, float, float, float]:
    """Midpoint, unit axes, and half-length of the AA bounding rectangle.

    Returns ``(mx, my, ux, uy, vx, vy, half_len)`` where ``u`` points along
    the segment and ``v`` is its left normal.  Degenerate segments raise; the
    caller must handle them as points.
    """
    dx = x1 - x0
    dy = y1 - y0
    length = math.hypot(dx, dy)
    if length == 0.0:
        raise ValueError("degenerate segment has no direction")
    ux = dx / length
    uy = dy / length
    return ((x0 + x1) * 0.5, (y0 + y1) * 0.5, ux, uy, -uy, ux, length * 0.5)


def rasterize_line_aa_conservative(
    buffer: np.ndarray,
    x0: float,
    y0: float,
    x1: float,
    y1: float,
    width_px: float = math.sqrt(2.0),
    color: float = 1.0,
    cap_points: bool = False,
) -> int:
    """Anti-aliased line with blending disabled: conservative footprint.

    Colors every pixel whose (closed) unit cell intersects the width-``w``
    bounding rectangle of the segment.  When ``cap_points`` is set, square
    end-point caps of side ``width_px`` are added (the PointWidth rendering
    of the distance test, Figure 6), turning the footprint into a superset of
    the capsule of radius ``width_px / 2`` around the segment.

    Returns the number of *distinct* pixels written.  Pixels covered by
    both the rectangle and a cap (or by both caps) count once - the same
    set semantics as the mask-based bulk path, so serial and bulk
    ``pixels_written`` accounting agree per edge.
    """
    if not width_px > 0.0:  # NaN fails too
        raise ValueError("line width must be positive")
    height, buf_width = buffer.shape
    if x0 == x1 and y0 == y1:
        return rasterize_point_conservative(buffer, x0, y0, width_px, color)

    mx, my, ux, uy, vx, vy, hu = aa_rect_axes(x0, y0, x1, y1)
    hv = width_px * 0.5

    # Bounding box of the oriented rectangle, padded by the cell half-extent.
    ext_x = hu * abs(ux) + hv * abs(vx)
    ext_y = hu * abs(uy) + hv * abs(vy)
    i0 = max(math.floor(mx - ext_x - 0.5), 0)
    i1 = min(math.floor(mx + ext_x + 0.5), buf_width - 1)
    j0 = max(math.floor(my - ext_y - 0.5), 0)
    j1 = min(math.floor(my + ext_y + 0.5), height - 1)
    mask = None
    if i0 <= i1 and j0 <= j1:
        # Separating-axis test between the oriented rectangle and each cell,
        # vectorized over the bounding box.  Cell centers are (i+0.5, j+0.5)
        # with half-extent 0.5 on both axes.
        cx = np.arange(i0, i1 + 1, dtype=np.float64) + 0.5 - mx
        cy = np.arange(j0, j1 + 1, dtype=np.float64) + 0.5 - my
        gx, gy = np.meshgrid(cx, cy)
        cell_u = 0.5 * (abs(ux) + abs(uy))
        cell_v = 0.5 * (abs(vx) + abs(vy))
        mask = (
            (np.abs(gx) <= ext_x + 0.5 + COVERAGE_EPS)
            & (np.abs(gy) <= ext_y + 0.5 + COVERAGE_EPS)
            & (np.abs(gx * ux + gy * uy) <= hu + cell_u + COVERAGE_EPS)
            & (np.abs(gx * vx + gy * vy) <= hv + cell_v + COVERAGE_EPS)
        )
        if mask.any():
            view = buffer[j0 : j1 + 1, i0 : i1 + 1]
            view[mask] = color
    if not cap_points:
        return int(mask.sum()) if mask is not None else 0

    # Caps overlap the rectangle (and, for short segments, each other);
    # summing per-region counts would inflate pixels_written versus the
    # mask-based bulk path.  Paint everything into a boolean scratch over
    # the union bounding box and count distinct pixels once.
    cap_ranges = [
        rng
        for rng in (
            point_conservative_range(buffer.shape, x0, y0, width_px),
            point_conservative_range(buffer.shape, x1, y1, width_px),
        )
        if rng is not None
    ]
    for ci0, ci1, cj0, cj1 in cap_ranges:
        buffer[cj0 : cj1 + 1, ci0 : ci1 + 1] = color
    regions = list(cap_ranges)
    if mask is not None:
        regions.append((i0, i1, j0, j1))
    if not regions:
        return 0
    lo_i = min(r[0] for r in regions)
    hi_i = max(r[1] for r in regions)
    lo_j = min(r[2] for r in regions)
    hi_j = max(r[3] for r in regions)
    covered = np.zeros((hi_j - lo_j + 1, hi_i - lo_i + 1), dtype=bool)
    if mask is not None:
        covered[j0 - lo_j : j1 + 1 - lo_j, i0 - lo_i : i1 + 1 - lo_i] |= mask
    for ci0, ci1, cj0, cj1 in cap_ranges:
        covered[cj0 - lo_j : cj1 + 1 - lo_j, ci0 - lo_i : ci1 + 1 - lo_i] = True
    return int(np.count_nonzero(covered))
