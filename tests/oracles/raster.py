"""Raster oracles: the per-edge, per-scanline and per-pair references the
raster kernels and the interval filter must agree with.

Each public function here is registered with its production twin in
``tests/oracles/test_twins.py``:

* the conservative anti-aliased line (OpenGL spec, paper section 2.2.2)
  and the wide point that caps widened lines (section 3.1, Figure 6), one
  primitive at a time, as a separating-axis test over each primitive's
  bounding box;
* the per-edge draw loop over a whole edge array, and the dense
  ``(H, W, E)`` cube of the same test over a whole grouped draw;
* a ring's boundary footprint drawn one 32-edge arc at a time, each over
  its own clipped box;
* the even-odd polygon fill (section 2.2.3) as a scanline loop of sorted
  half-open spans, and as a per-pixel parity count;
* the atlas batch's per-tile projections and its cull, one tile at a time
  in Python floats;
* the interval filter's encodings, one polygon at a time with that
  per-arc boundary, and its pair verdicts, one pair at a time, for polygon
  pairs and for rows of an index;
* the interior filter's tiling as a bitmap and its cover as a 2D prefix
  sum over it.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.filters import IntervalApproximation, IntervalVerdict, classify_intervals
from repro.filters.intervals import _BOUNDARY_FOOTPRINT, _MAX_CELL_COORD
from repro.geometry import edge_bounds
from repro.gpu.raster_bulk import COVERAGE_EPS, edges_coverage_mask
from repro.gpu.raster_vector import polygon_fill_coverage_mask, scanline_row_bounds

# -- anti-aliased lines and wide points --------------------------------------


def _point_range(shape, x: float, y: float, size: float):
    """Clipped inclusive pixel range ``(i0, i1, j0, j1)`` of a square cap of
    side ``size`` at ``(x, y)``, or ``None`` when it misses the buffer."""
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
    """Color every pixel whose cell touches the square of side ``size`` at
    ``(x, y)``; the number of pixels written."""
    rng = _point_range(buffer.shape, x, y, size)
    if rng is None:
        return 0
    i0, i1, j0, j1 = rng
    buffer[j0 : j1 + 1, i0 : i1 + 1] = color
    return (i1 - i0 + 1) * (j1 - j0 + 1)


def _aa_rect_axes(x0: float, y0: float, x1: float, y1: float):
    """Midpoint, unit axes and half-length ``(mx, my, ux, uy, vx, vy,
    half_len)`` of the AA bounding rectangle: ``u`` along the segment, ``v``
    its left normal."""
    dx = x1 - x0
    dy = y1 - y0
    length = math.hypot(dx, dy)
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
    bounding rectangle of the segment.  With ``cap_points``, square
    end-point caps of side ``width_px`` are added, turning the footprint
    into a superset of the capsule of radius ``width_px / 2``.  A
    degenerate segment is a point of size ``width_px``.

    Returns the number of *distinct* pixels written: pixels covered by both
    the rectangle and a cap (or by both caps) count once.
    """
    if not width_px > 0.0:  # NaN fails too
        raise ValueError("line width must be positive")
    height, buf_width = buffer.shape
    if x0 == x1 and y0 == y1:
        return rasterize_point_conservative(buffer, x0, y0, width_px, color)

    mx, my, ux, uy, vx, vy, hu = _aa_rect_axes(x0, y0, x1, y1)
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
        # Separating-axis test between the oriented rectangle and each cell
        # (centers (i+0.5, j+0.5), half-extent 0.5 on both axes).
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

    # Paint the caps, then count the distinct pixels of the union once.
    cap_ranges = [
        rng
        for rng in (
            _point_range(buffer.shape, x0, y0, width_px),
            _point_range(buffer.shape, x1, y1, width_px),
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


def draw_edges(shape, edges: np.ndarray, width_px: float, cap_points: bool = False) -> np.ndarray:
    """The coverage mask of an ``(E, 4)`` edge array drawn one edge at a
    time with :func:`rasterize_line_aa_conservative`."""
    buffer = np.zeros(shape, dtype=np.float32)
    for x0, y0, x1, y1 in edges:
        rasterize_line_aa_conservative(
            buffer, x0, y0, x1, y1, width_px=width_px, cap_points=cap_points
        )
    return buffer > 0


def cube_masks(shape, edges, sizes, widths_px, cap_points):
    """The dense whole-draw reference: every (row, column, edge) cell of the
    separating-axis test in one ``(H, W, E)`` array, folded per group."""
    height, width = shape
    sizes = np.asarray(sizes, dtype=np.intp)
    masks = np.zeros((sizes.shape[0], height, width), dtype=bool)
    if edges.shape[0] == 0:
        return masks
    w = np.asarray(widths_px, dtype=np.float64)
    hv = w * 0.5 if w.ndim == 0 else np.repeat(w * 0.5, sizes)
    cx = np.arange(width, dtype=np.float64) + 0.5
    cy = np.arange(height, dtype=np.float64) + 0.5
    x0, y0, x1, y1 = np.ascontiguousarray(edges.T)
    dx = x1 - x0
    dy = y1 - y0
    length = np.hypot(dx, dy)
    degenerate = length == 0.0
    safe_len = np.where(degenerate, 1.0, length)
    ux = dx / safe_len
    uy = dy / safe_len
    aux = np.abs(ux)
    auy = np.abs(uy)
    hu = length * 0.5
    cell = 0.5 * (aux + auy)
    gx = cx[:, None] - (x0 + x1) * 0.5  # (W, E)
    gy = cy[:, None] - (y0 + y1) * 0.5  # (H, E)
    along = (gx * ux)[None, :, :] + (gy * uy)[:, None, :]
    across = (gy * ux)[:, None, :] - (gx * uy)[None, :, :]
    hit = np.abs(along) <= hu + cell + COVERAGE_EPS
    hit &= np.abs(across) <= hv + cell + COVERAGE_EPS
    hit &= (np.abs(gx) <= hu * aux + hv * auy + 0.5 + COVERAGE_EPS)[None, :, :]
    hit &= (np.abs(gy) <= hu * auy + hv * aux + 0.5 + COVERAGE_EPS)[:, None, :]
    hit &= ~degenerate
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
    filled = sizes > 0
    starts = np.cumsum(sizes) - sizes
    masks[filled] = np.logical_or.reduceat(
        hit, starts[filled], axis=2
    ).transpose(2, 0, 1)
    return masks


def ring_boundary_arc_by_arc(shape, vertices, width_px: float) -> np.ndarray:
    """A closed ring's footprint: each run of 32 consecutive closing edges
    drawn by ``edges_coverage_mask`` over its own box, padded by half the
    width plus one cell and clipped to the buffer, shifted to the box's
    corner and ORed in."""
    height, width = shape
    arr = np.asarray(vertices, dtype=np.float64)
    edges = np.hstack([np.roll(arr, 1, axis=0), arr])
    mask = np.zeros((height, width), dtype=bool)
    pad = width_px * 0.5 + 1.0
    for start in range(0, edges.shape[0], 32):
        e = edges[start : start + 32]
        xs = e[:, [0, 2]]
        ys = e[:, [1, 3]]
        bx0 = max(math.floor(xs.min() - pad), 0)
        bx1 = min(math.ceil(xs.max() + pad), width)
        by0 = max(math.floor(ys.min() - pad), 0)
        by1 = min(math.ceil(ys.max() + pad), height)
        if bx0 >= bx1 or by0 >= by1:
            continue
        shifted = e - np.array([bx0, by0, bx0, by0], dtype=np.float64)
        mask[by0:by1, bx0:bx1] |= edges_coverage_mask((by1 - by0, bx1 - bx0), shifted, width_px)
    return mask


# -- even-odd polygon fill ---------------------------------------------------


def rasterize_polygon_evenodd(
    buffer: np.ndarray,
    vertices: Sequence[Tuple[float, float]],
    color: float = 1.0,
) -> int:
    """Fill a polygon given by window-space ``(x, y)`` vertices with the
    even-odd rule, scanline by scanline; the number of pixels written."""
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


def polygon_coverage_mask(shape, vertices) -> np.ndarray:
    """Boolean mask of the pixels :func:`rasterize_polygon_evenodd` fills."""
    buf = np.zeros(shape, dtype=np.float32)
    rasterize_polygon_evenodd(buf, vertices, color=1.0)
    return buf > 0.0


def brute_force_evenodd(shape, vertices) -> np.ndarray:
    """Per-pixel even-odd test straight from the half-open span rule.

    A center ``cx`` lies in the half-open span ``[x_enter, x_exit)`` iff
    an odd number of scanline crossings satisfy ``cross_x <= cx`` - an
    independent formulation of the rule both implementations encode as
    sorted spans / parity toggles.
    """
    height, width = shape
    vs = np.asarray(vertices, dtype=np.float64)
    out = np.zeros(shape, dtype=bool)
    n = len(vs)
    for j in range(height):
        yc = j + 0.5
        crossings = []
        for k in range(n):
            x0, y0 = vs[k]
            x1, y1 = vs[(k + 1) % n]
            if (y0 > yc) != (y1 > yc):
                crossings.append(x0 + (yc - y0) * (x1 - x0) / (y1 - y0))
        for i in range(width):
            cx = i + 0.5
            out[j, i] = sum(1 for c in crossings if c <= cx) % 2 == 1
    return out


# -- the atlas batch ---------------------------------------------------------


def uniform_window_scale(width: int, height: int, window) -> float:
    """The uniform scale projecting ``window`` into a ``width x height``
    viewport, in Python floats: the binding axis decides, a degenerate
    axis imposes no constraint, a fully degenerate window gets scale 1."""
    span = max(window.width, window.height)
    if span <= 0.0:
        return 1.0
    sx = width / window.width if window.width > 0.0 else math.inf
    sy = height / window.height if window.height > 0.0 else math.inf
    return min(sx, sy)


def _cull_box(
    xmin: float, ymin: float, scale: float, pad: float, width: int, height: int
) -> Tuple[float, float, float, float]:
    """One tile's cull box ``(lo_x, lo_y, hi_x, hi_y)`` in Python floats:
    each side one pixel beyond the clip limit, kept only if pushing it
    through ``(v - min) * scale`` fails the clip comparison, else
    infinite."""
    reach = (pad + 1.0) / scale
    lo_x, lo_y = xmin - reach, ymin - reach
    hi_x = xmin + (width + pad + 1.0) / scale
    hi_y = ymin + (height + pad + 1.0) / scale
    return (
        lo_x if (lo_x - xmin) * scale < -pad else -math.inf,
        lo_y if (lo_y - ymin) * scale < -pad else -math.inf,
        hi_x if (hi_x - xmin) * scale > width + pad else math.inf,
        hi_y if (hi_y - ymin) * scale > height + pad else math.inf,
    )


def tile_transform_loop(width, height, windows, pads):
    """``(scales, boxes)``: each tile's viewport scale and the data-space
    box its clip rejects outside, one tile at a time through
    :func:`uniform_window_scale` and :func:`_cull_box`."""
    scales, boxes = [], []
    for window, pad in zip(windows, pads):
        scale = uniform_window_scale(width, height, window)
        scales.append(scale)
        boxes.append(_cull_box(window.xmin, window.ymin, scale, pad, width, height))
    return scales, boxes


def cull_loop(edge_sets, boxes):
    """``(tile, edges)``: tile by tile, the edges of ``edge_sets[k]`` whose
    box meets ``boxes[k]`` (``lo_x, lo_y, hi_x, hi_y``) - one box test, one
    ``nonzero`` and one ``take`` per tile."""
    tiles, near_sets = [], []
    for k, (edges, (lo_x, lo_y, hi_x, hi_y)) in enumerate(zip(edge_sets, boxes)):
        b = edge_bounds(edges)
        near = ((b[2] >= lo_x) & (b[0] <= hi_x) & (b[3] >= lo_y) & (b[1] <= hi_y)).nonzero()[0]
        tiles.append(np.full(near.shape[0], k, dtype=np.intp))
        near_sets.append(edges.take(near, axis=0))
    return np.concatenate([np.empty(0, dtype=np.intp), *tiles]), np.concatenate(
        [np.empty((0, 4)), *near_sets]
    )


# -- interval filter ---------------------------------------------------------


def _runs(ids):
    """Maximal half-open runs ``[start, end)`` of sorted cell ids, as lists."""
    starts, ends = [], []
    for cell in ids:
        if ends and ends[-1] == cell:
            ends[-1] += 1
        else:
            starts.append(cell)
            ends.append(cell + 1)
    return starts, ends


def interval_runs_one_by_one(polygons, grid):
    """Per polygon, ``(starts, ends, full_starts, full_ends, clipped)`` of
    its encoding on ``grid``, built alone: the even-odd fill and
    :func:`ring_boundary_arc_by_arc` over its MBR's cell window, every cell
    PARTIAL when a coordinate lies beyond ``_MAX_CELL_COORD`` cells."""
    out = []
    n = grid.cells_per_side
    for polygon in polygons:
        clipped = not grid.world.contains_rect(polygon.mbr)
        window = grid.cell_range(polygon.mbr)
        if window is None:
            out.append(([], [], [], [], True))
            continue
        ix0, iy0, ix1, iy1 = window
        shape = (iy1 - iy0 + 1, ix1 - ix0 + 1)
        with np.errstate(over="ignore"):
            coords = (polygon.coords_array - (grid.world.xmin, grid.world.ymin)) / (
                grid.cell_w, grid.cell_h
            ) - (ix0, iy0)
        if np.abs(coords).max() <= _MAX_CELL_COORD:
            inside = polygon_fill_coverage_mask(shape, coords)
            touched = ring_boundary_arc_by_arc(shape, coords, _BOUNDARY_FOOTPRINT)
        else:
            inside = np.zeros(shape, dtype=bool)
            touched = ~inside
        full = inside & ~touched
        ids = [(iy0 + j) * n + ix0 + i for j, i in zip(*np.nonzero(full | touched))]
        full_ids = [(iy0 + j) * n + ix0 + i for j, i in zip(*np.nonzero(full))]
        out.append((*_runs(ids), *_runs(full_ids), clipped))
    return out


def classify_pairs_one_by_one(grid, pairs):
    """Each pair through ``classify_intervals`` on encodings built
    independently of any index."""
    return [
        classify_intervals(
            IntervalApproximation.build(a, grid), IntervalApproximation.build(b, grid)
        )
        for a, b in pairs
    ]


def classify_rows_one_by_one(grid, polygons, rows_a, rows_b):
    """Per pair ``k``, the code (the verdict's position in
    ``IntervalVerdict``) of ``classify_intervals`` on independently built
    encodings of ``polygons[rows_a[k]]`` and ``polygons[rows_b[k]]``."""
    verdicts = list(IntervalVerdict)
    return [
        verdicts.index(classify_intervals(
            IntervalApproximation.build(polygons[i], grid),
            IntervalApproximation.build(polygons[j], grid),
        ))
        for i, j in zip(rows_a, rows_b)
    ]


def interior_tiles_by_prefix_sum(query, level, probes):
    """``(ids, covered)``: the interior tiles of the ``2^level x 2^level``
    tiling of ``query``'s MBR - tiles whose centre the even-odd fill holds
    and no boundary footprint (width 1e-9 tiles) touches - as row-major ids
    of a bitmap, and per probe rect whether a 2D prefix sum over the bitmap
    counts every tile of its closed, clamped tile range interior (a probe
    not inside the MBR, or a degenerate MBR, is never covered)."""
    n = 2**level
    mbr = query.mbr
    tile_w = mbr.width / n if mbr.width else 0.0
    tile_h = mbr.height / n if mbr.height else 0.0
    coords = query.coords_array
    arr = np.zeros(coords.shape, dtype=np.float64)
    if tile_w:
        arr[:, 0] = (coords[:, 0] - mbr.xmin) / tile_w
    if tile_h:
        arr[:, 1] = (coords[:, 1] - mbr.ymin) / tile_h
    interior = polygon_fill_coverage_mask((n, n), arr) & ~ring_boundary_arc_by_arc(
        (n, n), arr, 1e-9
    )
    prefix = np.zeros((n + 1, n + 1), dtype=np.int64)
    prefix[1:, 1:] = np.cumsum(np.cumsum(interior.astype(np.int64), axis=0), axis=1)

    def tile(v: float, lo: float, size: float) -> int:
        return min(max(math.floor((v - lo) / size), 0), n - 1)

    covered = []
    for rect in probes:
        if not mbr.contains_rect(rect) or tile_w == 0.0 or tile_h == 0.0:
            covered.append(False)
            continue
        ix0, ix1 = tile(rect.xmin, mbr.xmin, tile_w), tile(rect.xmax, mbr.xmin, tile_w)
        iy0, iy1 = tile(rect.ymin, mbr.ymin, tile_h), tile(rect.ymax, mbr.ymin, tile_h)
        have = (
            prefix[iy1 + 1, ix1 + 1]
            - prefix[iy0, ix1 + 1]
            - prefix[iy1 + 1, ix0]
            + prefix[iy0, ix0]
        )
        covered.append(int(have) == (ix1 - ix0 + 1) * (iy1 - iy0 + 1))
    return np.flatnonzero(interior).tolist(), covered
