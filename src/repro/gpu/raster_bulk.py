"""Vectorized (whole-draw-call) conservative AA line rasterization.

The rule is the OpenGL spec's anti-aliased line with blending disabled
(paper section 2.2.2).  The spec's *basic* line rule is the diamond exit: a
pixel is colored when the segment intersects the open diamond around the
pixel center and does not end inside it, and as the paper illustrates
(Figure 3d) short or unluckily placed segments simply disappear under it -
which is why step 2.1 of Algorithm 3.1 enables anti-aliasing, and why the
basic rule is not implemented.  The spec defines the AA footprint as the
bounding rectangle of the segment with width ``w`` (two edges parallel to
the segment at distance ``w/2``, two perpendicular edges through the end
points); every pixel with non-zero coverage is touched, and with blending
disabled it receives the full line color (Figure 4d).  That gives the
guarantee Algorithm 3.1 relies on: *every pixel whose cell intersects the
rectangle is colored*.  The paper uses width sqrt(2) (the pixel diagonal)
for intersection tests and Equation (1)'s widened lines for distance tests,
whose end points are capped by wide points (section 3.1, Figure 6): a
``w x w`` square, which covers the disc cap of the same diameter.

Real graphics hardware rasterizes the thousands of edges of a draw call in
parallel; a per-edge Python loop would misrepresent the cost structure the
paper exploits (per-edge setup is cheap, per-pixel work is parallel).  This
module rasterizes *all* edges of a draw call with numpy: per-edge terms on
``(E,)`` vectors, then the separating-axis test only on the pixel rows an
edge can reach, with each row's column hits packed into bits.

One of the test's four conditions, ``|cy - my| <= hu*|uy| + hv*|ux| + 0.5``,
depends on the pixel row alone.  It is evaluated as an ``(H, E)`` plane, and
a row where it fails can hold no hit of that edge's rectangle.  The other
three conditions run on the admitted ``(row, edge)`` entries only - about
1.6 of 8 rows per edge on the workloads' 8 x 8 tiles - over all ``W``
columns in a ``(W, R)`` layout, with the per-edge rasterizer's operands in
its order, so every cell evaluated is bit-identical to a dense evaluation.
The hits of one entry are packed into ``ceil(W/8)`` bytes (column ``c`` is
bit ``c % 8`` of byte ``c // 8``) of an ``(H, E, nb)`` plane.  End-point
squares are separable: their column bits are packed once per edge and
placed on the rows their own row test admits.  One ``bitwise_or.reduceat``
folds each group's contiguous run of edges, and one ``unpackbits`` expands
the result to ``(G, H, W)``.

A pixel is colored iff its closed unit cell intersects the width-``w``
bounding rectangle of some edge, or - with ``cap_points`` - the ``w x w``
end-point square of some edge: the per-edge rasterizer of
``tests/oracles/raster.py`` applied edge by edge, which the tests hold it
to.
Degenerate (zero-length) edges always use the square footprint, which
covers the disc of radius ``w/2`` and preserves conservativeness.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

#: Slack added to every coverage comparison.  Rounding in the unit-vector
#: computation can push an exact boundary touch (rect corner on cell corner)
#: one ulp past the closed-inequality limit; inflating the footprint by a
#: hair keeps the rasterization conservative under floating point.  Extra
#: pixels only ever add false *positives*, which the software step resolves.
COVERAGE_EPS = 1e-7

#: Cap on the entries of each float intermediate: a chunk's ``(row, edge)``
#: planes hold at most this many, and so does each ``(column, admitted
#: entry)`` block of the rectangle test.  The packed ``(H, E, nb)`` plane
#: is the whole draw's, one bit per (row, column, edge).
_CHUNK_BUDGET = 1 << 16

#: Weight of bit ``i`` of a packed byte (column ``8b + i`` of byte ``b``).
_BIT = (np.uint8(1) << np.arange(8, dtype=np.uint8))[:, None]


@lru_cache(maxsize=32)
def _pixel_centers(height: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached pixel-center coordinate vectors for a buffer shape.

    The columns run on to a whole number of bytes; the bits of columns
    past ``width`` are computed like any other and dropped at unpacking.
    """
    cx = np.arange(-(-width // 8) * 8, dtype=np.float64) + 0.5
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
    of the paper's section 3 differ.  It is the one-group case of
    :func:`edges_coverage_masks_grouped`.
    """
    return edges_coverage_masks_grouped(
        shape, edges, edges.shape[:1], width_px, cap_points
    )[0]


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
    # Written so that NaN fails: a NaN width must not certify "no pixel".
    if not (widths > 0.0).all():
        raise ValueError("line width must be positive")
    if widths.ndim and widths.shape != (n_groups,):
        raise ValueError(
            f"widths_px must be scalar or ({n_groups},), got {widths.shape}"
        )
    hv = widths * 0.5 if widths.ndim == 0 else np.repeat(widths * 0.5, sizes)
    plane = _footprint_plane(shape, edges, hv, cap_points)
    folded = np.zeros((n_groups, height, plane.shape[2]), dtype=np.uint8)
    if n_edges:
        # Each group's edges are one contiguous run: one reduceat ORs them.
        filled = sizes > 0
        starts = np.cumsum(sizes) - sizes
        folded[filled] = np.bitwise_or.reduceat(
            plane, starts[filled], axis=1
        ).transpose(1, 0, 2)
    return np.unpackbits(folded, axis=2, count=width, bitorder="little").view(bool)


def _footprint_plane(shape, edges: np.ndarray, hv, cap_points: bool) -> np.ndarray:
    """Packed per-edge footprint rows of a draw: ``(H, E, ceil(W/8))``.

    ``hv`` (the half line width) is a scalar or an (E,) array; per-edge
    widths are what let one bulk call rasterize tiles whose projections
    assign different pixel widths to the same query distance.
    """
    height, width = shape
    cx, cy = _pixel_centers(height, width)
    n_edges = edges.shape[0]
    plane = np.zeros((height, n_edges, cx.shape[0] // 8), dtype=np.uint8)
    chunk = max(1, _CHUNK_BUDGET // height)
    for start in range(0, n_edges, chunk):
        stop = min(start + chunk, n_edges)
        _footprint_bits(
            plane[:, start:stop],
            edges[start:stop],
            cx,
            cy,
            hv if np.ndim(hv) == 0 else hv[start:stop],
            cap_points,
        )
    return plane


def _pack_columns(bits: np.ndarray) -> np.ndarray:
    """``(8*nb, N)`` bool -> ``(nb, N)`` uint8, column ``c`` at bit
    ``c % 8`` of byte ``c // 8``."""
    nb = bits.shape[0] // 8
    return (bits.reshape(nb, 8, -1).view(np.uint8) * _BIT).sum(
        axis=1, dtype=np.uint8
    )


def _footprint_bits(
    plane: np.ndarray,
    e: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    hv,
    cap_points: bool,
) -> None:
    """Write one chunk's packed footprint rows into its zeroed ``plane``
    slice ``(H, E, nb)``."""
    x0, y0, x1, y1 = np.ascontiguousarray(e.T)
    n = e.shape[0]
    # What the rectangle test reads per admitted entry, gathered in one take.
    per_edge = np.empty((6, n))
    mx, ux, uy, bound_u, bound_v, bound_x = per_edge
    dx = x1 - x0
    dy = y1 - y0
    length = np.hypot(dx, dy)
    degenerate = length == 0.0
    any_degenerate = bool(degenerate.any())
    safe_len = np.where(degenerate, 1.0, length)
    np.divide(dx, safe_len, out=ux)
    np.divide(dy, safe_len, out=uy)
    aux = np.abs(ux)
    auy = np.abs(uy)
    hu = length * 0.5
    # |v| components mirror |u| (v is the left normal of u), and the cell
    # half-extent projects identically on the u and v axes.
    cell = 0.5 * (aux + auy)

    # The row-only box condition admits the (row, edge) entries; a row it
    # rejects holds no pixel of that edge's rectangle.
    gy = cy[:, None] - (y0 + y1) * 0.5  # (H, E)
    rows = np.abs(gy) <= hu * auy + hv * aux + 0.5 + COVERAGE_EPS
    if any_degenerate:
        # Degenerate edges fall back to the end-point square unconditionally.
        rows &= ~degenerate
    admitted = np.flatnonzero(rows)
    if admitted.size:
        np.multiply(x0 + x1, 0.5, out=mx)
        np.add(hu + cell, COVERAGE_EPS, out=bound_u)
        np.add(hv + cell, COVERAGE_EPS, out=bound_v)
        np.add(hu * aux + hv * auy + 0.5, COVERAGE_EPS, out=bound_x)
        gy = gy.ravel()
        step = max(1, _CHUNK_BUDGET // cx.shape[0])
        for start in range(0, admitted.size, step):
            entry = admitted[start : start + step]
            row, edge = np.divmod(entry, n)
            mx_r, ux_r, uy_r, bound_u_r, bound_v_r, bound_x_r = per_edge.take(
                edge, axis=1
            )
            gy_r = gy.take(entry)
            # (W, R): columns on axis 0, admitted entries on the contiguous
            # axis; the per-edge rasterizer's operands, in its order.
            gx = cx[:, None] - mx_r
            work = gx * ux_r
            work += gy_r * uy_r
            hit = np.abs(work, out=work) <= bound_u_r
            np.multiply(gx, uy_r, out=work)
            np.subtract(gy_r * ux_r, work, out=work)
            hit &= np.abs(work, out=work) <= bound_v_r
            hit &= np.abs(gx, out=gx) <= bound_x_r
            plane[row, edge] = _pack_columns(hit).T

    if cap_points or any_degenerate:
        half = hv + 0.5 + COVERAGE_EPS
        _or_square(plane, cx, cy, x0, y0, half, None if cap_points else degenerate)
        if cap_points:
            _or_square(plane, cx, cy, x1, y1, half, None)


def _or_square(plane, cx, cy, x, y, half, only) -> None:
    """OR each edge's ``2*half`` square at ``(x, y)`` into ``plane``
    (restricted to the edges where ``only`` is set, unless it is None)."""
    cols = _pack_columns(np.abs(cx[:, None] - x) <= half)  # (nb, E)
    rows = np.abs(cy[:, None] - y) <= half  # (H, E)
    if only is not None:
        rows &= only
    np.bitwise_or(plane, cols.T, out=plane, where=rows[:, :, None])
