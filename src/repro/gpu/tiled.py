"""Tiled batch rendering: many pairwise tests in one atlas submission.

The paper's cost trade-off (section 4.3) exists because every hardware test
pays a fixed per-submission price - draw-call setup, buffer clears,
accumulation transfers, and the Minmax round-trip - on top of the per-pixel
work.  Real GPU join pipelines amortize that price by batching many
independent tests into one submission (3DPipe's pipelined spatial join;
raster-interval approximations reused across a whole join).  This module is
that batching layer for the simulated card:

* each candidate pair gets one **tile** of a shared atlas frame buffer;
* each tile carries its own viewport transform (the pair's projection
  window, exactly as :meth:`~repro.gpu.pipeline.GraphicsPipeline.set_data_window`
  would compute it);
* the clipping stage starts in data space: only the edges whose box meets
  the tile's verified :func:`~repro.gpu.pipeline.cull_boxes` box are projected
  and shown to :func:`~repro.gpu.pipeline.clip_keep` - against a large
  feature nearly all of a submission lies outside the pair's window;
* a batch reads edge columns, not polygons: each side is a list of
  ``(store, row)`` of an :class:`~repro.geometry.edge_store.EdgeStore`, the
  per-tile transforms and cull boxes are array expressions, each store
  culls its tiles in one call, and the drawn edges are one ``take``;
* the edges of *all* pairs' first boundaries are rasterized in one bulk
  call (:func:`~repro.gpu.raster_bulk.edges_coverage_masks_grouped`), then
  all second boundaries likewise;
* one **per-tile Minmax reduction** over the atlas returns every pair's
  verdict at once.

Conservativeness is preserved tile by tile: a tile's pixels are exactly the
pixels the per-pair pipeline would have rendered (tile-local coordinates,
identical footprint math), and the per-tile maximum of the accumulated
image is exactly the whole-buffer Minmax of the per-pair test.  Tiles never
share pixels, so batching cannot create or destroy overlap - batched
verdicts are bit-identical to the serial loop's.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..geometry.edge_store import EdgeStore
from ..geometry.rect import Rect
from ..obs.scope import current_scope
from .framebuffer import Framebuffer
from .pipeline import (
    GraphicsPipeline,
    clip_keep,
    cull_boxes,
    window_columns,
    window_scales,
)
from .raster_bulk import edges_coverage_masks_grouped

#: One boundary of a pair: ``(store, row)`` (``Polygon.edge_row``).
EdgeRow = Tuple[EdgeStore, int]

#: Gray level each boundary is rendered with (Algorithm 3.1's 0.5).
_EDGE_COLOR = np.float32(0.5)


class TiledPipeline:
    """Batches pair tests as tiles of one atlas frame buffer.

    Wraps a :class:`~repro.gpu.pipeline.GraphicsPipeline` whose viewport
    defines the tile size; the atlas is a ``grid_cols x grid_rows`` grid of
    such tiles, bounded by the device viewport limit and ``max_tiles``.
    All primitive-operation accounting lands in the *base* pipeline's
    :class:`~repro.gpu.counters.CostCounters`, so engines report one
    consistent cost stream whether they test pairs one by one or batched.
    """

    def __init__(self, base: GraphicsPipeline, max_tiles: int = 256) -> None:
        if max_tiles < 1:
            raise ValueError(f"max_tiles must be >= 1, got {max_tiles}")
        self.base = base
        self.max_tiles = max_tiles
        self.tile_width = base.width
        self.tile_height = base.height
        limit = base.limits.max_viewport
        max_cols = max(1, limit // self.tile_width)
        max_rows = max(1, limit // self.tile_height)
        side = max(1, math.isqrt(max_tiles))
        self.grid_cols = min(side, max_cols)
        self.grid_rows = min(
            max(1, -(-max_tiles // self.grid_cols)), max_rows
        )
        #: Pair tests one atlas submission can carry.
        self.capacity = self.grid_cols * self.grid_rows
        self.fb = Framebuffer(
            self.grid_cols * self.tile_width, self.grid_rows * self.tile_height
        )

    @property
    def counters(self):
        """The shared cost counters (the base pipeline's)."""
        return self.base.counters

    # -- the batched test -------------------------------------------------

    def overlap_flags(
        self,
        sides_a: Sequence[EdgeRow],
        sides_b: Sequence[EdgeRow],
        windows: Sequence[Rect],
        widths_px,
        cap_points: bool,
        threshold: float,
    ) -> np.ndarray:
        """One overlap verdict per pair: ``True`` iff boundaries share a pixel.

        ``sides_a[k]`` / ``sides_b[k]`` are the two boundaries as ``(store,
        row)`` of an :class:`~repro.geometry.edge_store.EdgeStore` (a
        polygon's :attr:`~repro.geometry.Polygon.edge_row`), ``windows[k]``
        the pair's projection window, and ``widths_px`` the rendered line
        width (scalar, or one per pair for distance tests whose projections
        differ).  A pair is also ``True`` - not decided by the raster - when
        an edge its tile's cull lets in has a window coordinate that is not
        finite.  Pairs are packed ``capacity`` tiles at a time; each
        sub-batch is one atlas submission traced as a ``gpu.tile_batch``
        span, which ends before a command recorder in scope lists and
        digests the submission (the caller's ``hw_batch_duration_s`` wraps
        this whole call, hook included).
        """
        n = len(windows)
        if {len(sides_a), len(sides_b)} != {n}:
            raise ValueError("sides and windows must align")
        widths = np.asarray(widths_px, dtype=np.float64)
        if widths.ndim not in (0, 1):
            raise ValueError("widths_px must be a scalar or a 1-d array")
        if widths.ndim == 1 and widths.shape[0] != n:
            raise ValueError(
                f"widths_px has {widths.shape[0]} entries for {n} pairs"
            )
        bounds = window_columns(windows)
        flags = np.zeros(n, dtype=bool)
        for start in range(0, n, self.capacity):
            stop = min(start + self.capacity, n)
            w = widths if widths.ndim == 0 else widths[start:stop]
            began = time.perf_counter()
            sub_flags, edge_count = self._run_batch(
                sides_a[start:stop],
                sides_b[start:stop],
                bounds[:, start:stop],
                w,
                cap_points,
                threshold,
            )
            elapsed = time.perf_counter() - began
            flags[start:stop] = sub_flags
            scope = current_scope()
            if scope.recorder is not None:
                scope.recorder.on_tile_batch(
                    self,
                    [store.edges_of(row) for store, row in sides_a[start:stop]],
                    [store.edges_of(row) for store, row in sides_b[start:stop]],
                    windows[start:stop],
                    w,
                    cap_points,
                    threshold,
                    sub_flags,
                )
            if scope.tracer is not None:
                scope.tracer.record(
                    "gpu.tile_batch",
                    elapsed,
                    tiles=stop - start,
                    edges=edge_count,
                    atlas=f"{self.fb.width}x{self.fb.height}",
                )
            registry = scope.registry
            if registry is not None:
                # Batch-shape families: how full each atlas submission ran.
                # A fleet of mostly-full batches means the fixed per-
                # submission price (section 4.3) is well amortized; lots of
                # fractional tail batches means capacity is mis-sized for
                # the candidate stream.  These depend on how the caller
                # slices the candidate list, so per-pair calls bucket them
                # differently than one batched call.
                registry.histogram("tiles_per_batch").observe(stop - start)
                registry.histogram("atlas_occupancy").observe(
                    (stop - start) / self.capacity
                )
        return flags

    def _run_batch(
        self,
        sides_a: Sequence[EdgeRow],
        sides_b: Sequence[EdgeRow],
        windows: np.ndarray,
        widths,
        cap_points: bool,
        threshold: float,
    ) -> Tuple[np.ndarray, int]:
        """Render one atlas batch (<= capacity pairs) and reduce per tile.

        ``windows`` is ``(4, k)``, rows ``xmin, ymin, xmax, ymax``.
        """
        k = windows.shape[1]
        counters = self.base.counters
        pads = widths + 1.0
        # Per-tile viewport transforms, exactly as set_data_window computes
        # them for the per-pair path, and the data-space box outside which
        # each tile's clip rejects.
        scales = window_scales(self.tile_width, self.tile_height, windows)
        boxes = cull_boxes(
            windows[0], windows[1], scales, pads, self.tile_width, self.tile_height
        )
        offsets = windows.take([0, 1, 0, 1], axis=0).T

        masks_a, unplaced_a, count_a = self._bulk_rasterize(
            sides_a, boxes, scales, offsets, pads, widths, cap_points
        )
        masks_b, unplaced_b, count_b = self._bulk_rasterize(
            sides_b, boxes, scales, offsets, pads, widths, cap_points
        )

        # Atlas assembly: clear once for the whole batch, then the two
        # accumulation transfers and the return (Algorithm 3.1 steps
        # 2.2-2.7 at batch granularity).
        self.fb.clear_color()
        counters.buffer_clears += 1
        counters.pixels_cleared += self.fb.width * self.fb.height
        tiles = np.zeros(
            (self.capacity, self.tile_height, self.tile_width),
            dtype=np.float32,
        )
        tiles[:k] = (
            masks_a.astype(np.float32) + masks_b.astype(np.float32)
        ) * _EDGE_COLOR
        self.fb.color[:] = (
            tiles.reshape(
                self.grid_rows, self.grid_cols, self.tile_height, self.tile_width
            )
            .transpose(0, 2, 1, 3)
            .reshape(self.fb.height, self.fb.width)
        )
        counters.accum_ops += 3

        # Per-tile Minmax reduction over the atlas: one scan returns every
        # tile's maximum accumulated gray level.
        tile_max = (
            self.fb.color.reshape(
                self.grid_rows, self.tile_height, self.grid_cols, self.tile_width
            )
            .max(axis=(1, 3))
            .reshape(-1)[:k]
        )
        counters.minmax_ops += 1
        counters.pixels_scanned += self.fb.width * self.fb.height
        counters.tile_batches += 1
        counters.tiles_packed += k
        flags = (tile_max >= np.float32(threshold)) | unplaced_a | unplaced_b
        return flags, count_a + count_b

    def _bulk_rasterize(
        self,
        side: Sequence[EdgeRow],
        boxes: np.ndarray,
        scales: np.ndarray,
        offsets: np.ndarray,
        pads,
        widths,
        cap_points: bool,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """One bulk draw call over all tiles' edges: ``(K, th, tw)`` masks,
        the tiles with an unplaced edge, and the count of submitted edges.

        Of each tile's submitted edges only those whose box meets the
        tile's cull box are gathered at all (:meth:`EdgeStore.cull`): the
        rest provably fail the clip.  Transform and clip then run per
        gathered edge with that edge's tile projection - elementwise the
        same float operations the per-pair pipeline performs - and every
        surviving edge rasterizes in one grouped coverage pass.  A gathered
        edge whose window coordinates are not finite is not drawn; its
        tile is unplaced.  The counters speak of *submitted* edges, so
        they cannot tell the cull happened.
        """
        k = len(side)
        counters = self.base.counters
        counters.draw_calls += 1
        shape = (k, self.tile_height, self.tile_width)
        gid, edges, total = _gather(side, boxes)
        # (take gathers rows several times faster than fancy indexing.)
        with np.errstate(over="ignore", invalid="ignore"):
            edges -= offsets.take(gid, axis=0)
            edges *= scales.take(gid)[:, None]

        # Clipping stage proper, per tile-local viewport.
        pad = pads.take(gid) if pads.ndim else pads
        keep = clip_keep(edges, pad, self.tile_width, self.tile_height)
        unplaced = np.zeros(k, dtype=bool)
        if not np.isfinite(edges).all():
            placed = np.isfinite(edges).all(axis=1)
            unplaced[gid.compress(~placed)] = True
            keep &= placed
        kept = int(np.count_nonzero(keep))
        counters.edges_rendered += kept
        counters.edges_clipped_away += total - kept
        if kept == 0:
            return np.zeros(shape, dtype=bool), unplaced, total
        masks = edges_coverage_masks_grouped(
            shape[1:],
            edges.compress(keep, axis=0),
            np.bincount(gid.compress(keep), minlength=k),
            widths,
            cap_points=cap_points,
        )
        counters.pixels_written += int(np.count_nonzero(masks))
        return masks, unplaced, total

    # -- introspection ----------------------------------------------------

    def read_atlas(self) -> np.ndarray:
        """Full atlas readback (the expensive path; debug/visualization)."""
        counters = self.base.counters
        counters.readback_ops += 1
        counters.pixels_transferred += self.fb.width * self.fb.height
        return self.fb.read_pixels("color")

    def tile_image(self, index: int) -> np.ndarray:
        """One tile of the last batch's atlas (from :meth:`read_atlas`)."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"tile {index} outside capacity {self.capacity}")
        row, col = divmod(index, self.grid_cols)
        atlas = self.read_atlas()
        return atlas[
            row * self.tile_height : (row + 1) * self.tile_height,
            col * self.tile_width : (col + 1) * self.tile_width,
        ]


def _gather(side: Sequence[EdgeRow], boxes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(tile, edges, submitted)``: the data-space edges of every tile's side
    whose box meets its cull box (``boxes[:, tile]``), tile by tile and in
    row order within a tile, and how many edges the side submitted.

    Tiles are grouped by store; each store culls its tiles in one call.
    """
    tiles_of: Dict[EdgeStore, List[int]] = {}
    for t, (store, _) in enumerate(side):
        tiles_of.setdefault(store, []).append(t)
    rows = np.fromiter((row for _, row in side), dtype=np.intp, count=len(side))
    tiles, parts, submitted = [], [], 0
    for store, group in tiles_of.items():
        group = np.array(group, dtype=np.intp)
        group_rows = rows.take(group)
        submitted += int(store.edge_counts(group_rows).sum())
        tile, edge = store.cull(group_rows, boxes.take(group, axis=1))
        tiles.append(group.take(tile))
        parts.append(store.edges.take(edge, axis=0))
    if len(parts) == 1:
        return tiles[0], parts[0], submitted
    tile = np.concatenate(tiles)
    # A tile belongs to one group, so a stable sort restores tile order.
    order = np.argsort(tile, kind="stable")
    return tile.take(order), np.concatenate(parts).take(order, axis=0), submitted


__all__: List[str] = ["TiledPipeline"]
