"""Vectorized (whole-draw-call) conservative AA line rasterization.

Real graphics hardware rasterizes the thousands of edges of a draw call in
parallel; a per-edge Python loop would misrepresent the cost structure the
paper exploits (per-edge setup is cheap, per-pixel work is parallel).  This
module rasterizes *all* edges of a draw call with numpy broadcasting: one
separating-axis test evaluated for every (edge, pixel) pair, chunked to
bound memory.  The (pixel, edge) cube is laid out ``(H, W, E)`` - edges on
the contiguous axis - so each ufunc's inner loop runs a whole chunk of
edges instead of one tile row.

Semantics are identical to
:func:`repro.gpu.raster_line.rasterize_line_aa_conservative` applied per
edge (the equivalence is property-tested): a pixel is colored iff its closed
unit cell intersects the width-``w`` bounding rectangle of some edge, or -
with ``cap_points`` - the ``w x w`` end-point square of some edge.
Degenerate (zero-length) edges always use the square footprint, which
covers the disc of radius ``w/2`` and preserves conservativeness.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .raster_line import COVERAGE_EPS

#: Cap on the number of (edge, pixel) entries materialized per chunk.
_CHUNK_BUDGET = 1 << 20


@lru_cache(maxsize=32)
def _pixel_centers(height: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached pixel-center coordinate vectors for a buffer shape."""
    cx = np.arange(width, dtype=np.float64) + 0.5
    cy = np.arange(height, dtype=np.float64) + 0.5
    cx.setflags(write=False)
    cy.setflags(write=False)
    return cx, cy


def edges_coverage_mask(
    shape,
    edges: np.ndarray,
    width_px: float,
    cap_points: bool = False,
) -> np.ndarray:
    """Boolean coverage mask of a whole draw call's conservative footprint.

    This is the draw call's *fragment set*: every per-fragment operation
    (plain color write, additive blending, logical OR, stencil increment,
    depth write/test) applies to exactly these pixels once - the
    granularity at which the alternative overlap-detection implementations
    of the paper's section 3 differ.
    """
    if width_px <= 0.0:
        raise ValueError("line width must be positive")
    if edges.ndim != 2 or edges.shape[1] != 4:
        raise ValueError(f"edges must be (E, 4), got {edges.shape}")
    height, width = shape
    n_edges = edges.shape[0]
    if n_edges == 0:
        return np.zeros((height, width), dtype=bool)
    cx, cy = _pixel_centers(height, width)

    hv = width_px * 0.5
    chunk = max(1, _CHUNK_BUDGET // (height * width))
    if n_edges <= chunk:
        return _chunk_mask(edges, cx, cy, hv, cap_points)
    mask = np.zeros((height, width), dtype=bool)
    for start in range(0, n_edges, chunk):
        mask |= _chunk_mask(edges[start : start + chunk], cx, cy, hv, cap_points)
    return mask


def edges_coverage_masks_grouped(
    shape,
    edges: np.ndarray,
    group_sizes: np.ndarray,
    widths_px,
    cap_points: bool = False,
) -> np.ndarray:
    """Per-group coverage masks of one bulk draw call: ``(G, H, W)`` bool.

    ``edges`` holds the segments of all ``G`` groups concatenated in group
    order (``group_sizes[k]`` edges for group ``k``; zero-edge groups are
    legal and yield empty masks).  ``widths_px`` is a scalar or a per-group
    array of line widths.  Each group's mask equals
    :func:`edges_coverage_mask` applied to that group's edges at that
    group's width - the per-edge footprint math is shared, so batching many
    groups into one call cannot change any pixel.  This is the tiled
    pipeline's bulk rasterization primitive: every tile of an atlas batch
    is one group, rasterized in tile-local coordinates.
    """
    height, width = shape
    if edges.ndim != 2 or edges.shape[1] != 4:
        raise ValueError(f"edges must be (E, 4), got {edges.shape}")
    sizes = np.asarray(group_sizes, dtype=np.intp)
    if sizes.ndim != 1:
        raise ValueError("group_sizes must be a 1-d sequence")
    if (sizes < 0).any():
        raise ValueError("group sizes must be non-negative")
    n_groups = sizes.shape[0]
    n_edges = edges.shape[0]
    if int(sizes.sum()) != n_edges:
        raise ValueError(
            f"group sizes sum to {int(sizes.sum())}, expected {n_edges} edges"
        )
    widths = np.asarray(widths_px, dtype=np.float64)
    if (widths <= 0.0).any():
        raise ValueError("line width must be positive")
    masks = np.zeros((n_groups, height, width), dtype=bool)
    if n_edges == 0:
        return masks
    cx, cy = _pixel_centers(height, width)
    gid = np.repeat(np.arange(n_groups, dtype=np.intp), sizes)
    if widths.ndim == 0:
        hv_edges = None
        hv_scalar = float(widths) * 0.5
    else:
        if widths.shape != (n_groups,):
            raise ValueError(
                f"widths_px must be scalar or ({n_groups},), got {widths.shape}"
            )
        hv_edges = (widths * 0.5)[gid]
        hv_scalar = 0.0
    chunk = max(1, _CHUNK_BUDGET // (height * width))
    by_pixel = masks.transpose(1, 2, 0)  # the kernel's (H, W, group) layout
    for start in range(0, n_edges, chunk):
        stop = min(start + chunk, n_edges)
        ids = gid[start:stop]
        hv = hv_scalar if hv_edges is None else hv_edges[start:stop]
        hits = _chunk_hits(edges[start:stop], cx, cy, hv, cap_points)
        # Edges arrive grouped, so equal-id runs are contiguous: one
        # reduceat ORs each run, then the run masks fold into the output.
        first = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        partial = np.logical_or.reduceat(hits, first, axis=2)
        by_pixel[:, :, ids[first]] |= partial
    return masks


def _chunk_mask(
    e: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    hv: float,
    cap_points: bool,
) -> np.ndarray:
    """Footprint mask (H, W) for one chunk of edges."""
    return _chunk_hits(e, cx, cy, hv, cap_points).any(axis=2)


def _chunk_hits(
    e: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    hv,
    cap_points: bool,
) -> np.ndarray:
    """Per-edge footprint hits (H, W, E) for one chunk of edges.

    ``hv`` (the half line width) is a scalar or an (E,) array; per-edge
    widths are what let one bulk call rasterize tiles whose projections
    assign different pixel widths to the same query distance.
    """
    x0, y0, x1, y1 = np.ascontiguousarray(e.T)
    dx = x1 - x0
    dy = y1 - y0
    length = np.hypot(dx, dy)
    degenerate = length == 0.0
    any_degenerate = bool(degenerate.any())
    safe_len = np.where(degenerate, 1.0, length)
    ux = dx / safe_len
    uy = dy / safe_len
    aux = np.abs(ux)
    auy = np.abs(uy)
    hu = length * 0.5
    # |v| components mirror |u| (v is the left normal of u), and the cell
    # half-extent projects identically on the u and v axes.
    cell = 0.5 * (aux + auy)

    # Broadcast layout: rows on axis 0, columns on axis 1, edges on the
    # contiguous axis 2, so every ufunc's inner loop runs the whole chunk.
    # Whatever depends on one pixel coordinate only is a (W, E) or (H, E)
    # plane, combined into the (H, W, E) cube by broadcast.
    gx = cx[:, None] - (x0 + x1) * 0.5  # (W, E)
    gy = cy[:, None] - (y0 + y1) * 0.5  # (H, E)
    work = np.empty((cy.shape[0], cx.shape[0], e.shape[0]), dtype=np.float64)
    np.add((gx * ux)[None, :, :], (gy * uy)[:, None, :], out=work)
    hit = np.abs(work, out=work) <= hu + cell + COVERAGE_EPS
    np.subtract((gy * ux)[:, None, :], (gx * uy)[None, :, :], out=work)
    hit &= np.abs(work, out=work) <= hv + cell + COVERAGE_EPS
    hit &= (np.abs(gx) <= hu * aux + hv * auy + 0.5 + COVERAGE_EPS)[None, :, :]
    hit &= (np.abs(gy) <= hu * auy + hv * aux + 0.5 + COVERAGE_EPS)[:, None, :]
    if any_degenerate:
        # Degenerate edges fall back to the end-point square unconditionally.
        hit &= ~degenerate

    if cap_points or any_degenerate:
        half = hv + 0.5 + COVERAGE_EPS
        cap = (np.abs(cx[:, None] - x0) <= half)[None, :, :] & (
            np.abs(cy[:, None] - y0) <= half
        )[:, None, :]
        if cap_points:
            cap |= (np.abs(cx[:, None] - x1) <= half)[None, :, :] & (
                np.abs(cy[:, None] - y1) <= half
            )[:, None, :]
        else:
            cap &= degenerate
        hit |= cap
    return hit
