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
ORed, as whole bytes under a 0x00/0xFF row mask, onto the rows their own
row test admits.  One ``bitwise_or.reduceat`` folds each group's
contiguous run of edges, and one ``unpackbits`` expands the result to
``(G, H, W)``.  Every intermediate is a view of the caller's
:class:`~repro.geometry.workspace.Workspace`, written with ``out=``, so
a pipeline that keeps its workspace allocates per draw only the list of
admitted entries, the folded groups and the masks it gets back.

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

from ..geometry.workspace import Workspace

#: Slack added to every coverage comparison.  Rounding in the unit-vector
#: computation can push an exact boundary touch (rect corner on cell corner)
#: one ulp past the closed-inequality limit; inflating the footprint by a
#: hair keeps the rasterization conservative under floating point.  Extra
#: pixels only ever add false *positives*, which the software step resolves.
COVERAGE_EPS = 1e-7

#: Cap on the entries of each float intermediate: a chunk's ``(row, edge)``
#: planes hold at most this many, and so does each ``(column, admitted
#: entry)`` block of the rectangle test (a chunk's end-point ``(column,
#: edge)`` plane holds ``W / H`` times as many).  So it also bounds the
#: kernel's buffers in the caller's
#: :class:`~repro.geometry.workspace.Workspace`, whatever the draw's size:
#: 512 KiB per float plane.  Only the packed ``(H, E, nb)`` plane is the
#: whole draw's, one bit per (row, column, edge).  A smaller budget leaves
#: a cold workspace fewer pages to touch but makes more NumPy calls: with
#: the workspace warm, ``1 << 14`` cost ``join-wp`` 13 % and ``wd-ll`` 11 %
#: per op, ``1 << 13`` 23 % and 20 %.
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
    :func:`edges_coverage_masks_grouped`, in a fresh workspace.
    """
    return edges_coverage_masks_grouped(
        shape, edges, edges.shape[:1], width_px, cap_points, workspace=Workspace()
    )[0]


def edges_coverage_masks_grouped(
    shape,
    edges: np.ndarray,
    group_sizes: np.ndarray,
    widths_px,
    cap_points: bool = False,
    *,
    workspace: Workspace,
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
    is one group, rasterized in tile-local coordinates.  Every
    intermediate comes from ``workspace``; the masks returned are the
    caller's own.
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
    filled = sizes > 0
    starts = np.cumsum(sizes) - sizes
    with workspace.frame():
        if widths.ndim == 0:
            hv = widths * 0.5
        else:
            # ``np.repeat(widths * 0.5, sizes)`` in the workspace: each
            # non-empty group's first edge steps the group index by the
            # groups since the last one, and a running sum spreads it.
            group = workspace.array(n_edges, np.intp)
            group.fill(0)
            ids = filled.nonzero()[0]
            group.put(starts.take(ids), np.diff(ids, prepend=0))
            np.cumsum(group, out=group)
            hv = (widths * 0.5).take(group, out=workspace.array(n_edges), mode="clip")
        plane = _footprint_plane(shape, edges, hv, cap_points, workspace)
        folded = np.zeros((n_groups, height, plane.shape[2]), dtype=np.uint8)
        if n_edges:
            # Each group's edges are one contiguous run: one reduceat ORs them.
            folded[filled] = np.bitwise_or.reduceat(
                plane, starts[filled], axis=1
            ).transpose(1, 0, 2)
    return np.unpackbits(folded, axis=2, count=width, bitorder="little").view(bool)


def _footprint_plane(
    shape, edges: np.ndarray, hv, cap_points: bool, ws: Workspace
) -> np.ndarray:
    """Packed per-edge footprint rows of a draw: ``(H, E, ceil(W/8))``, a
    view of ``ws``.

    ``hv`` (the half line width) is a scalar or an (E,) array; per-edge
    widths are what let one bulk call rasterize tiles whose projections
    assign different pixel widths to the same query distance.
    """
    height, width = shape
    cx, cy = _pixel_centers(height, width)
    n_edges = edges.shape[0]
    plane = ws.array((height, n_edges, cx.shape[0] // 8), np.uint8)
    plane.fill(0)
    chunk = max(1, _CHUNK_BUDGET // height)
    for start in range(0, n_edges, chunk):
        stop = min(start + chunk, n_edges)
        with ws.frame():
            _footprint_bits(
                plane[:, start:stop],
                edges[start:stop],
                cx,
                cy,
                hv if np.ndim(hv) == 0 else hv[start:stop],
                cap_points,
                ws,
            )
    return plane


def _pack_columns(bits: np.ndarray, ws: Workspace) -> np.ndarray:
    """``(8*nb, N)`` bool -> ``(nb, N)`` uint8, column ``c`` at bit
    ``c % 8`` of byte ``c // 8`` (a view of ``ws``)."""
    nb, n = bits.shape[0] // 8, bits.shape[1]
    weighted = np.multiply(
        bits.reshape(nb, 8, n).view(np.uint8),
        _BIT,
        out=ws.array((nb, 8, n), np.uint8),
    )
    return weighted.sum(
        axis=1, dtype=np.uint8, out=ws.array((nb, n), np.uint8)
    )


def _footprint_bits(
    plane: np.ndarray,
    e: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    hv,
    cap_points: bool,
    ws: Workspace,
) -> None:
    """Write one chunk's packed footprint rows into its zeroed ``plane``
    slice ``(H, E, nb)``.  Every array is a view of ``ws``, written with
    ``out=`` in the operand order of the per-edge rasterizer."""
    n, height = e.shape[0], cy.shape[0]
    # What the rectangle test reads per admitted entry, gathered in one take.
    per_edge = ws.array((6, n))
    mx, ux, uy, bound_u, bound_v, bound_x = per_edge
    gy = ws.array((height, n))
    degenerate = ws.array(n, bool)
    with ws.frame():
        # The terms only the bounds and the row test read.
        ends = ws.array((4, n))
        np.copyto(ends, e.T)
        x0, y0, x1, y1 = ends
        aux, auy, hu, cell, row_bound, term = ws.array((6, n))
        with ws.frame():
            dx, dy, length, safe_len = ws.array((4, n))
            np.subtract(x1, x0, out=dx)
            np.subtract(y1, y0, out=dy)
            np.hypot(dx, dy, out=length)
            np.equal(length, 0.0, out=degenerate)
            np.copyto(safe_len, length)
            np.copyto(safe_len, 1.0, where=degenerate)
            np.divide(dx, safe_len, out=ux)
            np.divide(dy, safe_len, out=uy)
            np.multiply(length, 0.5, out=hu)
        any_degenerate = bool(degenerate.any())
        np.abs(ux, out=aux)
        np.abs(uy, out=auy)
        # |v| components mirror |u| (v is the left normal of u), and the
        # cell half-extent projects identically on the u and v axes.
        np.add(aux, auy, out=cell)
        np.multiply(cell, 0.5, out=cell)

        # The row-only box condition admits the (row, edge) entries; a row
        # it rejects holds no pixel of that edge's rectangle.
        np.add(y0, y1, out=term)
        np.multiply(term, 0.5, out=term)
        np.subtract(cy[:, None], term, out=gy)
        np.multiply(hu, auy, out=row_bound)
        np.multiply(hv, aux, out=term)
        np.add(row_bound, term, out=row_bound)
        np.add(row_bound, 0.5, out=row_bound)
        np.add(row_bound, COVERAGE_EPS, out=row_bound)
        rows = ws.array((height, n), bool)
        with ws.frame():
            gap = np.abs(gy, out=ws.array((height, n)))
            np.less_equal(gap, row_bound, out=rows)
        if any_degenerate:
            # Degenerate edges fall back to the end-point square unconditionally.
            rows[:, degenerate] = False
        admitted = np.flatnonzero(rows)
        if admitted.size:
            np.add(x0, x1, out=mx)
            np.multiply(mx, 0.5, out=mx)
            np.add(hu, cell, out=bound_u)
            np.add(bound_u, COVERAGE_EPS, out=bound_u)
            np.add(hv, cell, out=bound_v)
            np.add(bound_v, COVERAGE_EPS, out=bound_v)
            np.multiply(hu, aux, out=bound_x)
            np.multiply(hv, auy, out=term)
            np.add(bound_x, term, out=bound_x)
            np.add(bound_x, 0.5, out=bound_x)
            np.add(bound_x, COVERAGE_EPS, out=bound_x)
    gy = gy.ravel()
    step = max(1, _CHUNK_BUDGET // cx.shape[0])
    for start in range(0, admitted.size, step):
        with ws.frame():
            _rectangle_bits(plane, admitted[start : start + step], n, per_edge, gy, cx, ws)

    if cap_points or any_degenerate:
        half = np.add(hv, 0.5, out=ws.array(n))
        np.add(half, COVERAGE_EPS, out=half)
        x0, y0, x1, y1 = e.T
        _or_square(plane, cx, cy, x0, y0, half, None if cap_points else degenerate, ws)
        if cap_points:
            _or_square(plane, cx, cy, x1, y1, half, None, ws)


def _rectangle_bits(plane, entry, n, per_edge, gy, cx, ws: Workspace) -> None:
    """The rectangle test's three other conditions on the admitted flat
    ``(row, edge)`` entries ``entry`` of a chunk of ``n`` edges, packed into
    ``plane``."""
    r = entry.size
    row, edge = ws.array((2, r), np.intp)
    np.divmod(entry, n, out=(row, edge))
    # (mode="clip": a take into out= under the default "raise" copies
    # through a fresh buffer; these indices are in range.)
    terms = ws.array((8, r))
    per_edge.take(edge, axis=1, out=terms[:6], mode="clip")
    mx_r, ux_r, uy_r, bound_u_r, bound_v_r, bound_x_r, gy_r, scaled = terms
    gy.take(entry, out=gy_r, mode="clip")
    # (W, R): columns on axis 0, admitted entries on the contiguous axis;
    # the per-edge rasterizer's operands, in its order.
    gx, work = ws.array((2, cx.shape[0], r))
    np.subtract(cx[:, None], mx_r, out=gx)
    np.multiply(gx, ux_r, out=work)
    np.multiply(gy_r, uy_r, out=scaled)
    work += scaled
    hit, test = ws.array((2, cx.shape[0], r), bool)
    np.less_equal(np.abs(work, out=work), bound_u_r, out=hit)
    np.multiply(gx, uy_r, out=work)
    np.multiply(gy_r, ux_r, out=scaled)
    np.subtract(scaled, work, out=work)
    hit &= np.less_equal(np.abs(work, out=work), bound_v_r, out=test)
    hit &= np.less_equal(np.abs(gx, out=gx), bound_x_r, out=test)
    plane[row, edge] = _pack_columns(hit, ws).T


def _or_square(plane, cx, cy, x, y, half, only, ws: Workspace) -> None:
    """OR each edge's ``2*half`` square at ``(x, y)`` into ``plane``
    (restricted to the edges where ``only`` is set, unless it is None)."""
    n = x.shape[0]
    with ws.frame():
        gap = np.subtract(cx[:, None], x, out=ws.array((cx.shape[0], n)))
        inside = ws.array((cx.shape[0], n), bool)
        cols = _pack_columns(np.less_equal(np.abs(gap, out=gap), half, out=inside), ws)
        gap = np.subtract(cy[:, None], y, out=ws.array((cy.shape[0], n)))
        rows = ws.array((cy.shape[0], n), bool)
        np.less_equal(np.abs(gap, out=gap), half, out=rows)
        if only is not None:
            rows &= only
        # Each admitted (row, edge) entry takes the edge's column bytes: a
        # 0xFF row mask ANDs them in, a zero one leaves the entry as it is.
        fill = np.multiply(rows.view(np.uint8), 0xFF, out=ws.array(rows.shape, np.uint8))
        plane |= np.bitwise_and(
            cols.T[None], fill[:, :, None], out=ws.array(plane.shape, np.uint8)
        )
