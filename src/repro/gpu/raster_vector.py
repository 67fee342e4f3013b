"""Vectorized (whole-draw-call) basic-line and polygon-fill kernels.

The OpenGL-spec *basic* rasterization rules (diamond-exit lines, section
2.2.2; pixel-center even-odd polygon fill, section 2.2.3) were originally
implemented as pure-Python per-pixel loops (:func:`repro.gpu.raster_line.
rasterize_line_basic`, :func:`repro.gpu.raster_polygon.
rasterize_polygon_evenodd`).  Those loops are the wrong cost shape for a
hardware simulation - a real rasterizer evaluates the rule for every
(primitive, pixel) pair in parallel - and they were the remaining host
hot path under the fig11/fig12 resolution sweeps and the interval-index
builds (ROADMAP item 2).

This module re-states both rules as NumPy-vectorized *coverage-mask
producers*, mirroring :mod:`repro.gpu.raster_bulk` for anti-aliased
lines: a kernel consumes a whole draw call and returns the boolean
fragment set, which the pipeline then feeds through the per-fragment
operations (depth, stencil, blend, logic op, color mask).  Producing
masks rather than buffer writes is what lets *every* draw type share one
fragment pipeline - previously the basic paths wrote the color buffer
directly and silently skipped all fragment state.

The retained pure-Python loops are the property-tested references: the
hypothesis suite in ``tests/gpu/test_raster_vector.py`` pins the
vectorized kernels bit-identical to them (same float expressions, same
comparison directions, evaluated in the same order), the way
:func:`~repro.gpu.raster_bulk.edges_coverage_mask` is validated against
the serial anti-aliased rasterizer.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .raster_bulk import _pixel_centers, edges_coverage_mask
from .raster_line import rasterize_line_basic
from .raster_polygon import scanline_row_bounds

#: Cap on the (edge, pixel) float64 entries materialized per chunk of the
#: diamond-exit kernel.  Smaller than raster_bulk's boolean budget because
#: each entry carries several float64 temporaries.
_DIAMOND_CHUNK_BUDGET = 1 << 18

#: Consecutive ring edges per localized chunk of
#: :func:`ring_boundary_coverage_mask`.  Ring edges are spatially contiguous
#: along the boundary, so ~32 of them cover a short arc whose bounding box
#: is far smaller than the whole buffer; larger groups dilute that locality,
#: smaller ones pay more per-chunk setup (32 measured best on level-8
#: interval-index builds).
_RING_GROUP = 32


def lines_basic_coverage_mask(shape, edges: np.ndarray) -> np.ndarray:
    """Diamond-exit coverage mask of a whole draw call's segments.

    ``edges`` is an ``(E, 4)`` float array of window-space segments
    ``[x0, y0, x1, y1]``.  A pixel is set iff, for some edge, the segment
    intersects the open L1 diamond of radius 0.5 around the pixel center
    and the segment's end point lies outside that diamond (the segment
    must *exit* the diamond) - exactly the per-pixel rule of
    :func:`~repro.gpu.raster_line.rasterize_line_basic`, evaluated with
    the same float64 expressions so the masks are bit-identical.
    """
    height, width = shape
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 2 or edges.shape[1] != 4:
        raise ValueError(f"edges must be (E, 4), got {edges.shape}")
    mask = np.zeros((height, width), dtype=bool)
    n_edges = edges.shape[0]
    if n_edges == 0:
        return mask
    cx, cy = _pixel_centers(height, width)
    chunk = max(1, _DIAMOND_CHUNK_BUDGET // (height * width))
    for start in range(0, n_edges, chunk):
        mask |= _diamond_chunk(edges[start : start + chunk], cx, cy)
    return mask


def _diamond_chunk(e: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Diamond-exit hits of one chunk of edges, reduced over the chunk.

    The L1 distance from a center to the segment is piecewise linear in
    the parameter t, so its minimum is attained at t in {0, 1} or where
    the segment crosses the vertical/horizontal line through the center -
    the same four candidates the reference loop evaluates, computed with
    the same arithmetic (``x0 + t*dx``, never ``x1`` directly) so every
    comparison against the 0.5 radius resolves identically.
    """
    x0 = e[:, 0][:, None, None]
    y0 = e[:, 1][:, None, None]
    x1 = e[:, 2][:, None, None]
    y1 = e[:, 3][:, None, None]
    dx = x1 - x0
    dy = y1 - y0
    cxr = cx[None, None, :]  # (1, 1, W)
    cyr = cy[None, :, None]  # (1, H, 1)

    # Candidate t = 0.
    best = np.abs(x0 - cxr) + np.abs(y0 - cyr)  # (E, H, W)
    # Candidate t = 1 (1.0 * dx == dx exactly, so x0 + dx matches the
    # reference's x0 + t*dx rounding).
    np.minimum(best, np.abs(x0 + dx - cxr) + np.abs(y0 + dy - cyr), out=best)
    # Crossing of the vertical line through the center.  Where dx == 0 the
    # reference omits this candidate; substituting t = 0 duplicates an
    # existing candidate, leaving the minimum unchanged.
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = (cxr - x0) / dx  # (E, 1, W)
    tx = np.where(dx == 0.0, 0.0, tx)
    np.clip(tx, 0.0, 1.0, out=tx)
    np.minimum(
        best, np.abs(x0 + tx * dx - cxr) + np.abs(y0 + tx * dy - cyr), out=best
    )
    # Crossing of the horizontal line through the center.
    with np.errstate(divide="ignore", invalid="ignore"):
        ty = (cyr - y0) / dy  # (E, H, 1)
    ty = np.where(dy == 0.0, 0.0, ty)
    np.clip(ty, 0.0, 1.0, out=ty)
    np.minimum(
        best, np.abs(x0 + ty * dx - cxr) + np.abs(y0 + ty * dy - cyr), out=best
    )

    exits = np.abs(x1 - cxr) + np.abs(y1 - cyr) >= 0.5
    return ((best < 0.5) & exits).any(axis=0)


def ring_boundary_coverage_mask(
    shape, vertices: np.ndarray, width_px: float
) -> np.ndarray:
    """Conservative AA footprint of a closed vertex ring's edges.

    Semantically this is :func:`~repro.gpu.raster_bulk.edges_coverage_mask`
    over the ring's closing-edge array, but with the opposite cost shape:
    the whole-buffer kernel evaluates every (edge, pixel) pair, which is
    right for the refinement step's tiny viewports and wrong for the
    interior/interval index builds, where hundreds of short edges cross a
    footprint window of tens of thousands of cells.  Here consecutive
    edges are grouped into short arcs and each arc is rasterized only over
    its clipped bounding box, so the work tracks the boundary's length
    rather than edge-count x buffer-area - the same scaling the per-edge
    serial loop has, minus the Python-loop constant.
    """
    height, width = shape
    arr = np.asarray(vertices, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("ring needs at least 2 vertices")
    edges = np.hstack([np.roll(arr, 1, axis=0), arr])
    mask = np.zeros((height, width), dtype=bool)
    # Bounding-box pad: half the line width, plus the 0.5 cell half-extent
    # and eps slack of the SAT test (1.0 covers both with margin).
    pad = width_px * 0.5 + 1.0
    for start in range(0, edges.shape[0], _RING_GROUP):
        e = edges[start : start + _RING_GROUP]
        xs = e[:, [0, 2]]
        ys = e[:, [1, 3]]
        bx0 = max(math.floor(xs.min() - pad), 0)
        bx1 = min(math.ceil(xs.max() + pad), width)
        by0 = max(math.floor(ys.min() - pad), 0)
        by1 = min(math.ceil(ys.max() + pad), height)
        if bx0 >= bx1 or by0 >= by1:
            continue
        shifted = e - np.array([bx0, by0, bx0, by0], dtype=np.float64)
        sub = edges_coverage_mask((by1 - by0, bx1 - bx0), shifted, width_px)
        mask[by0:by1, bx0:bx1] |= sub
    return mask


def lines_basic_coverage_mask_reference(shape, edges: np.ndarray) -> np.ndarray:
    """The retained per-pixel loop as a mask producer (the test oracle)."""
    mask = np.zeros(shape, dtype=bool)
    for x0, y0, x1, y1 in np.asarray(edges, dtype=np.float64).reshape(-1, 4):
        rasterize_line_basic(mask, x0, y0, x1, y1, color=True)
    return mask


def polygon_fill_coverage_mask(
    shape, vertices: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Even-odd pixel-center coverage mask of one filled polygon.

    Bit-identical to :func:`~repro.gpu.raster_polygon.
    rasterize_polygon_evenodd` (the property-tested reference) but with
    no per-scanline Python loop.  The scanline fill's sorted half-open
    spans ``[x_enter, x_exit)`` are re-stated as parity toggles: every
    crossing of scanline ``j`` at ``x`` flips all pixels of that row from
    column ``ceil(x - 0.5)`` rightward (the same ``ceil``/``floor``
    expressions the reference evaluates for its span ends), and a pixel
    is inside iff it was flipped an odd number of times.  One
    ``np.add.at`` scatter plus a row-wise cumulative sum evaluates every
    scanline of the draw call at once.
    """
    height, width = shape
    arr = np.asarray(vertices, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("polygon needs at least 3 vertices")
    mask = np.zeros((height, width), dtype=bool)
    xs = arr[:, 0]
    ys = arr[:, 1]
    j_min, j_max = scanline_row_bounds(float(ys.min()), float(ys.max()), height)
    if j_min > j_max:
        return mask
    rows = j_max - j_min + 1
    yc = np.arange(j_min, j_max + 1, dtype=np.float64) + 0.5  # (R,)

    x1_roll = np.roll(xs, -1)
    y1_roll = np.roll(ys, -1)
    # Half-open crossing rule: an edge crosses scanline yc iff yc is in
    # [min(y0, y1), max(y0, y1)) - the same comparison pair the reference
    # evaluates, so shared-edge pixels resolve identically.
    crosses = (ys[:, None] > yc) != (y1_roll[:, None] > yc)  # (E, R)
    ej, rj = np.nonzero(crosses)
    if ej.size == 0:
        return mask
    x0v, y0v = xs[ej], ys[ej]
    x1v, y1v = x1_roll[ej], y1_roll[ej]
    # Same expression (and evaluation order) as the reference's cross_x;
    # a crossing edge always has y0 != y1, so the division is safe.
    cross_x = x0v + (yc[rj] - y0v) * (x1v - x0v) / (y1v - y0v)
    cols = np.ceil(cross_x - 0.5)
    # Toggles at or before column 0 flip the whole row; toggles past the
    # last column flip nothing (parked in the discarded bucket `width`).
    cols = np.clip(cols, 0.0, float(width)).astype(np.intp)
    toggles = np.zeros((rows, width + 1), dtype=np.int64)
    np.add.at(toggles, (rj, cols), 1)
    parity = np.cumsum(toggles[:, :width], axis=1) & 1
    mask[j_min : j_max + 1] = parity.astype(bool)
    return mask
