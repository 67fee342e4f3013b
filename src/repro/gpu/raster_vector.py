"""The two index-build kernels: ring boundary footprint, even-odd fill.

Neither kernel is a draw of the simulated card - at query time the card
draws anti-aliased edge arrays and nothing else
(:mod:`repro.gpu.pipeline`).  Both run once per object, when a filter is
*built*: the raster interval encodings (:mod:`repro.filters.intervals`),
the interior filter's tiling of a query polygon among them, rasterize each
polygon over its own cell grid, the way the related work rasterizes at
index time and joins lists at query time.

* :func:`rings_boundary_coverage_masks` - the conservative anti-aliased
  footprint of each of many closed rings, its arcs drawn in buckets through
  :func:`~repro.gpu.raster_bulk.edges_coverage_masks_grouped`, the one
  footprint kernel (so the cells a build marks as boundary are the pixels
  a query-time draw of the same ring would color).
* :func:`polygon_fill_coverage_mask` - the OpenGL pixel-center even-odd
  polygon fill (section 2.2.3), which decides a build's interior cells.

The spec's two polygon rules, which the fill follows:

1. a pixel is colored only when its center lies inside the polygon;
2. a pixel whose center lies exactly on a shared edge of two polygons is
   colored exactly once.

Rule 2 is obtained with the standard half-open crossing convention: an edge
spanning ``[ymin, ymax)`` contributes a crossing, and fill spans are
half-open ``[x_enter, x_exit)`` in pixel-center space, so abutting polygons
tile without double-writing or gaps.  The even-odd rule is also how
non-simple GIS rings are conventionally interpreted.

Both are NumPy-vectorized *coverage-mask producers*, mirroring
:mod:`repro.gpu.raster_bulk`: a kernel consumes a whole ring and returns
the boolean cell set.  The pure-Python scanline loop in
``tests/oracles/raster.py`` is the fill's reference: the tests pin the
vectorized kernel bit-identical to it (same float expressions, same
comparison directions, evaluated in the same order), the way
:func:`~repro.gpu.raster_bulk.edges_coverage_mask` is held to the
per-edge anti-aliased rasterizer there.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..geometry.workspace import Workspace
from .raster_bulk import edges_coverage_masks_grouped

#: Consecutive ring edges per arc of :func:`rings_boundary_coverage_masks`.
#: Ring edges are spatially contiguous along the boundary, so ~32 of them
#: cover a short arc whose bounding box is far smaller than the whole
#: buffer; larger groups dilute that locality, smaller ones pay more
#: per-arc setup (32 measured best on level-8 interval-index builds).
_RING_GROUP = 32

#: Bytes of packed footprint plane (rows x edges x column bytes) one draw
#: of a bucket may take: the grouped kernel holds a whole draw's plane, so
#: a bucket of large arcs is drawn in several calls.  4 MiB is 16 arcs of
#: a 256 x 256 box, and thousands of the small boxes a level-8 build makes.
_ARC_PLANE_BUDGET = 1 << 22


def rings_boundary_coverage_masks(
    shapes: Sequence[Tuple[int, int]],
    rings: Sequence[np.ndarray],
    width_px: float,
) -> List[np.ndarray]:
    """Conservative AA footprint of each closed vertex ring's edges.

    Ring ``k``'s mask is :func:`~repro.gpu.raster_bulk.edges_coverage_mask`
    over buffer ``shapes[k]`` and the ring's closing-edge array, but with
    the opposite cost shape: the whole-buffer kernel tests every edge
    against every row of the buffer and each admitted row across its full
    width, which is right for the refinement step's tiny viewports and
    wrong for the interior/interval index builds, where hundreds of short
    edges cross a footprint window of tens of thousands of cells.  Here
    consecutive edges are grouped into short arcs and each arc is
    rasterized only over its clipped bounding box, so the work tracks the
    boundary's length rather than edge-count x buffer-area.

    The arcs of every ring are bucketed by their box, with height and width
    rounded up to powers of two, and a bucket is one grouped draw
    (:func:`~repro.gpu.raster_bulk.edges_coverage_masks_grouped`), each arc
    shifted to its own box's corner.  A cell's bit depends only on its
    centre and the arc's edges, so cropping the padding away before the OR
    leaves every cell as a draw over the arc's own box colours it: the
    per-arc loop of ``tests/oracles/raster.py``, which the tests hold it to.
    """
    if len(shapes) != len(rings):
        raise ValueError(f"{len(shapes)} shapes for {len(rings)} rings")
    masks = [np.zeros(shape, dtype=bool) for shape in shapes]
    arrays = [np.asarray(ring, dtype=np.float64) for ring in rings]
    for arr in arrays:
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise ValueError("ring needs at least 2 vertices")
    if not arrays:
        return masks
    vertices = np.concatenate(arrays)
    if not np.isfinite(vertices).all():
        raise ValueError("ring vertices must be finite")
    # Arcs: runs of _RING_GROUP consecutive edges, a ring's last one shorter.
    counts = [arr.shape[0] for arr in arrays]
    first: List[int] = []
    owner: List[int] = []
    for k, (start, count) in enumerate(zip(np.cumsum(counts).tolist(), counts)):
        arcs = range(start - count, start, _RING_GROUP)
        first += arcs
        owner += [k] * len(arcs)
    size = np.diff(first, append=vertices.shape[0])
    # Edge i runs from vertex i - 1 to vertex i, each ring closing on itself.
    ends = np.cumsum(counts)
    previous = np.arange(-1, vertices.shape[0] - 1)
    previous[ends - counts] = ends - 1
    edges = np.hstack([vertices[previous], vertices])
    # Each arc's box, padded by half the line width plus the 0.5 cell
    # half-extent and eps slack of the SAT test (1.0 covers both with
    # margin), and clipped to its ring's buffer.
    pad = width_px * 0.5 + 1.0
    box_lo = np.maximum(
        np.floor(np.minimum.reduceat(np.minimum(edges[:, :2], edges[:, 2:]), first) - pad), 0.0
    )
    box_hi = np.ceil(np.maximum.reduceat(np.maximum(edges[:, :2], edges[:, 2:]), first) + pad)
    shifted = edges - np.repeat(box_lo, size, axis=0)[:, [0, 1, 0, 1]]

    # Per drawn arc ``(ring, x0, y0, w, h, first edge, edges)``, by bucket.
    buckets: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for k, f, n, (x0, y0), (x1, y1) in zip(
        owner, first, size.tolist(), box_lo.tolist(), box_hi.tolist()
    ):
        height, width = shapes[k]
        w = min(x1, width) - x0
        h = min(y1, height) - y0
        if w > 0 and h > 0:
            w, h = int(w), int(h)
            key = (1 << (h - 1).bit_length(), 1 << (w - 1).bit_length())
            buckets.setdefault(key, []).append((k, int(x0), int(y0), w, h, f, n))
    for (height, width), bucket in buckets.items():
        per_call = max(1, _ARC_PLANE_BUDGET // (height * -(-width // 8) * _RING_GROUP))
        for start in range(0, len(bucket), per_call):
            arcs = bucket[start : start + per_call]
            # The call's largest box, not its bucket's: a lone arc is drawn
            # over its own box.
            draw = edges_coverage_masks_grouped(
                (max(arc[4] for arc in arcs), max(arc[3] for arc in arcs)),
                np.concatenate([shifted[f : f + n] for *_, f, n in arcs]),
                [n for *_, n in arcs],
                width_px,
                workspace=Workspace(),
            )
            for g, (k, x0, y0, w, h, _, _) in enumerate(arcs):
                masks[k][y0 : y0 + h, x0 : x0 + w] |= draw[g, :h, :w]
    return masks


def scanline_row_bounds(ymin: float, ymax: float, height: int) -> Tuple[int, int]:
    """Tight clipped row range whose scanlines a fill can cross.

    A scanline ``yc = j + 0.5`` can carry a crossing only when
    ``ymin <= yc < ymax`` (the half-open crossing rule), so the tight row
    range is ``ceil(ymin - 0.5) .. floor(ymax - 0.5)``, with the upper
    bound stepped down once when ``ymax - 0.5`` lands exactly on a row
    (``yc == ymax`` is excluded by the half-open rule).  Returns an
    inclusive ``(j_min, j_max)``; empty when ``j_min > j_max``.
    """
    j_min = max(math.ceil(ymin - 0.5), 0)
    top = ymax - 0.5
    j_max = math.floor(top)
    if j_max == top:  # yc would equal ymax exactly: excluded, step down
        j_max -= 1
    return j_min, min(j_max, height - 1)


def polygon_fill_coverage_mask(
    shape, vertices: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Even-odd pixel-center coverage mask of one filled polygon.

    Bit-identical to the scanline loop of ``tests/oracles/raster.py``
    (the property-tested reference) but with no per-scanline Python
    loop.  The scanline fill's sorted half-open
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
