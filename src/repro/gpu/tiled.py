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
  the tile's verified :func:`~repro.gpu.pipeline.cull_box` are projected
  and shown to :func:`~repro.gpu.pipeline.clip_keep` - against a large
  feature nearly all of a submission lies outside the pair's window;
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
from typing import List, Sequence, Tuple

import numpy as np

from ..geometry.rect import Rect
from ..obs.scope import current_scope
from .framebuffer import Framebuffer
from .pipeline import GraphicsPipeline, clip_keep, cull_box, uniform_window_scale
from .raster_bulk import edges_coverage_masks_grouped

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
        edges_a: Sequence[np.ndarray],
        bounds_a: Sequence[np.ndarray],
        edges_b: Sequence[np.ndarray],
        bounds_b: Sequence[np.ndarray],
        windows: Sequence[Rect],
        widths_px,
        cap_points: bool,
        threshold: float,
    ) -> np.ndarray:
        """One overlap verdict per pair: ``True`` iff boundaries share a pixel.

        ``edges_a[k]`` / ``edges_b[k]`` are the two boundaries' ``(E, 4)``
        data-space edge arrays, ``bounds_a[k]`` / ``bounds_b[k]`` their
        ``(4, E)`` edge boxes (:func:`repro.geometry.edge_bounds`; a
        polygon caches its own), ``windows[k]`` the pair's projection
        window, and ``widths_px`` the rendered line width (scalar, or one
        per pair for distance tests whose projections differ).  Pairs are
        packed ``capacity`` tiles at a time; each sub-batch is one atlas
        submission traced as a ``gpu.tile_batch`` span, which ends before a
        command recorder in scope lists and digests the submission (the
        caller's ``hw_batch_duration_s`` wraps this whole call, hook included).
        """
        n = len(windows)
        if {len(edges_a), len(bounds_a), len(edges_b), len(bounds_b)} != {n}:
            raise ValueError("edges, bounds, and windows must align")
        widths = np.asarray(widths_px, dtype=np.float64)
        if widths.ndim not in (0, 1):
            raise ValueError("widths_px must be a scalar or a 1-d array")
        if widths.ndim == 1 and widths.shape[0] != n:
            raise ValueError(
                f"widths_px has {widths.shape[0]} entries for {n} pairs"
            )
        flags = np.zeros(n, dtype=bool)
        for start in range(0, n, self.capacity):
            stop = min(start + self.capacity, n)
            w = widths if widths.ndim == 0 else widths[start:stop]
            began = time.perf_counter()
            sub_flags, edge_count = self._run_batch(
                edges_a[start:stop],
                bounds_a[start:stop],
                edges_b[start:stop],
                bounds_b[start:stop],
                windows[start:stop],
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
                    edges_a[start:stop],
                    edges_b[start:stop],
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
        edges_a: Sequence[np.ndarray],
        bounds_a: Sequence[np.ndarray],
        edges_b: Sequence[np.ndarray],
        bounds_b: Sequence[np.ndarray],
        windows: Sequence[Rect],
        widths,
        cap_points: bool,
        threshold: float,
    ) -> Tuple[np.ndarray, int]:
        """Render one atlas batch (<= capacity pairs) and reduce per tile."""
        k = len(windows)
        counters = self.base.counters
        pads = widths + 1.0
        # Per-tile viewport transforms, exactly as set_data_window computes
        # them for the per-pair path, and the data-space box outside which
        # each tile's clip rejects.  Python floats: a batch is often a few
        # tiles, where a dozen array calls would cost more than the loop.
        scales, offsets, boxes = [], [], []
        for w, pad in zip(windows, np.broadcast_to(pads, k).tolist()):
            scale = uniform_window_scale(self.tile_width, self.tile_height, w)
            scales.append(scale)
            offsets.append((w.xmin, w.ymin, w.xmin, w.ymin))
            boxes.append(
                cull_box(w.xmin, w.ymin, scale, pad, self.tile_width, self.tile_height)
            )
        scales = np.array(scales, dtype=np.float64)
        offsets = np.array(offsets, dtype=np.float64)

        masks_a = self._bulk_rasterize(
            edges_a, bounds_a, boxes, scales, offsets, pads, widths, cap_points
        )
        masks_b = self._bulk_rasterize(
            edges_b, bounds_b, boxes, scales, offsets, pads, widths, cap_points
        )
        edge_count = sum(int(e.shape[0]) for e in edges_a) + sum(
            int(e.shape[0]) for e in edges_b
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
        return tile_max >= np.float32(threshold), edge_count

    def _bulk_rasterize(
        self,
        edge_sets: Sequence[np.ndarray],
        bound_sets: Sequence[np.ndarray],
        boxes: Sequence[Tuple[float, float, float, float]],
        scales: np.ndarray,
        offsets: np.ndarray,
        pads,
        widths,
        cap_points: bool,
    ) -> np.ndarray:
        """One bulk draw call over all tiles' edges -> (K, th, tw) masks.

        Of each tile's submitted edges only those whose box meets the
        tile's :func:`cull_box` are gathered at all: the rest provably fail
        the clip.  Transform and clip then run per gathered edge with that
        edge's tile projection - elementwise the same float operations the
        per-pair pipeline performs - and every surviving edge rasterizes in
        one grouped coverage pass.  The counters speak of *submitted*
        edges, so they cannot tell the cull happened.
        """
        k = len(edge_sets)
        counters = self.base.counters
        counters.draw_calls += 1
        shape = (k, self.tile_height, self.tile_width)
        total = 0
        near_sets, counts = [], []
        for e, b, (lo_x, lo_y, hi_x, hi_y) in zip(edge_sets, bound_sets, boxes):
            total += e.shape[0]
            near = (
                (b[2] >= lo_x) & (b[0] <= hi_x) & (b[3] >= lo_y) & (b[1] <= hi_y)
            ).nonzero()[0]
            counts.append(near.shape[0])
            near_sets.append(
                e if near.shape[0] == e.shape[0] else e.take(near, axis=0)
            )
        gid = np.repeat(np.arange(k, dtype=np.intp), counts)
        # (take gathers rows several times faster than fancy indexing.)
        edges = np.concatenate(near_sets, axis=0) - offsets.take(gid, axis=0)
        edges *= scales.take(gid)[:, None]

        # Clipping stage proper, per tile-local viewport.
        pad = pads.take(gid) if pads.ndim else pads
        keep = clip_keep(edges, pad, self.tile_width, self.tile_height)
        kept = int(np.count_nonzero(keep))
        counters.edges_rendered += kept
        counters.edges_clipped_away += total - kept
        if kept == 0:
            return np.zeros(shape, dtype=bool)
        masks = edges_coverage_masks_grouped(
            shape[1:],
            edges.compress(keep, axis=0),
            np.bincount(gid.compress(keep), minlength=k),
            widths,
            cap_points=cap_points,
        )
        counters.pixels_written += int(np.count_nonzero(masks))
        return masks

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


__all__: List[str] = ["TiledPipeline"]
