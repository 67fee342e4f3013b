"""The hardware segment intersection / proximity test.

This module implements step 2 of Algorithm 3.1 - the rendering-based filter
at the heart of the paper - against the simulated pipeline:

    2.1  enable anti-aliasing
    2.2  clear the color buffer and the accumulation buffer
    2.3  render the edges of the first polygon with color 0.5
    2.4  copy the color buffer into the accumulation buffer
    2.5  render the edges of the second polygon with color 0.5
    2.6  copy the color buffer into the accumulation buffer
    2.7  load the accumulation buffer back into the color buffer
    2.8  report whether color 1.0 appears anywhere

(The color buffer is cleared between the two renders so the accumulation
holds ``render(A) + render(B)``; within one render, overlapping edges of the
same polygon write 0.5 idempotently because blending is disabled.)

Correctness rests on the conservative anti-aliased line footprint: every
pixel whose cell the (widened) segment touches is colored, so two
intersecting boundaries always share at least one pixel, and a negative
answer is proof of disjointness.  The same machinery widened to the query
distance ``D`` (line width and point caps from Equation 1) yields the
distance filter; when the required width exceeds the device's anti-aliased
line-width limit, the test reports "unsupported" and the caller falls back
to software (section 4.4).

Every entry point - one pair or a batch, intersection or distance, widened
lines or the distance field - is one routine,
:meth:`HardwareSegmentTest._verdicts` (width limit, verdict memo, in-batch
dedup, per-pair metrics), handed one of two renderers: one atlas
submission for the batch entry points, or pair by pair through the
configured method's own buffers for the per-pair ones.
"""

from __future__ import annotations

import functools
import math
import time
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..cache import CacheBundle, verdict_key
from ..geometry.polygon import Polygon
from ..geometry.rect import Rect
from ..gpu.pipeline import GraphicsPipeline, window_columns, window_scales
from ..gpu.state import DEFAULT_AA_LINE_WIDTH, EDGE_COLOR
from ..gpu.tiled import TiledPipeline
from ..obs.metrics import metric_key
from ..obs.scope import current_scope
from .config import OVERLAP_THRESHOLD, HardwareConfig

#: One batched test: the two polygons and the projection window to render.
PairWindow = Tuple[Polygon, Polygon, Rect]


class HardwareVerdict(Enum):
    """Outcome of a hardware test."""

    #: No pixel was touched by both boundaries: the polygons' boundaries are
    #: provably disjoint (or provably farther apart than D).
    DISJOINT = "disjoint"
    #: Overlapping pixels exist: the boundaries *may* intersect (or may be
    #: within D); the software test must decide.
    MAYBE = "maybe"
    #: The test could not run within device limits (line width too large);
    #: the caller must use the software path.
    UNSUPPORTED = "unsupported"


@functools.lru_cache(maxsize=None)
def _hw_keys(op: str, method: str):
    """The metric keys one ``(op, method)`` batch commits under: line-width
    overflows, atlas batch seconds, per-pair edges, per-verdict counts."""
    return (
        metric_key("hw_line_width_overflow", op=op, method=method),
        metric_key("hw_batch_duration_s", op=op),
        metric_key("hw_test_edges", op=op),
        {v: metric_key("hw_verdicts", op=op, verdict=v.value) for v in HardwareVerdict},
    )


class HardwareSegmentTest:
    """A reusable hardware tester bound to one rendering resolution.

    One :class:`~repro.gpu.pipeline.GraphicsPipeline` (one frame buffer) is
    allocated per instance and reused across all pairwise tests of a query,
    mirroring how the paper's implementation keeps a single OpenGL context.
    """

    def __init__(
        self,
        config: Optional[HardwareConfig] = None,
        caches: Optional[CacheBundle] = None,
    ) -> None:
        self.config = config if config is not None else HardwareConfig()
        self.pipeline = GraphicsPipeline(
            self.config.resolution,
            limits=self.config.limits,
        )
        # Step 2.1 needs no call: the pipeline draws anti-aliased lines only.
        st = self.pipeline.state
        st.blend = False
        st.color = EDGE_COLOR
        self._tiled: Optional[TiledPipeline] = None
        #: Memo tables (:mod:`repro.cache`): ``verdict`` short-circuits
        #: whole tests here, ``predicate`` serves the software stage.  A
        #: serving pool passes its engines' shares of one bundle; otherwise
        #: the engine's own, from ``config.cache``.
        self.caches = caches if caches is not None else CacheBundle(self.config.cache)

    @property
    def tiled(self) -> TiledPipeline:
        """The atlas batching layer, created on first batched call.

        Shares the base pipeline's cost counters, so batched and per-pair
        tests report into one stream.
        """
        if self._tiled is None:
            self._tiled = TiledPipeline(
                self.pipeline, max_tiles=self.config.batch_tiles
            )
        return self._tiled

    # -- public API -------------------------------------------------------

    def intersection_verdict(
        self, a: Polygon, b: Polygon, window: Rect
    ) -> HardwareVerdict:
        """Hardware segment intersection test over ``window`` (Figure 7a).

        Rendered through the configured overlap method's own buffers
        (section 3's five mechanisms).  Never returns UNSUPPORTED: the
        default sqrt(2) line width is always within device limits.  With
        caching on, a repeated (pair, window) test replays its memoized
        verdict without rendering; the ``hw_verdicts`` / ``hw_test_edges``
        accounting still runs per test, so cached and uncached runs report
        identical per-pair totals.
        """
        return self._verdicts(
            "intersect", self.config.method, [(a, b, window)], 0.0, None,
            self._render_each,
        )[0]

    def distance_verdict(
        self, a: Polygon, b: Polygon, window: Rect, d: float
    ) -> HardwareVerdict:
        """Hardware within-distance test at distance ``d``.

        In the default ``"lines"`` mode, each polygon's edges are rendered
        with a total width of ``d`` in data units (``d/2`` per side,
        Equation 1) plus matching end-point caps, so overlapping pixels
        exist whenever the boundaries come within ``d``; the verdict is
        UNSUPPORTED when the pixel width exceeds the device limit (section
        4.4).  In ``"field"`` mode the distance-insensitive test is used
        instead and UNSUPPORTED never occurs.
        """
        return self._distance_verdicts([(a, b, window)], d, self._render_each)[0]

    def distance_field_verdict(
        self, a: Polygon, b: Polygon, window: Rect, d: float
    ) -> HardwareVerdict:
        """Distance-insensitive proximity test (section 5's future work).

        Renders both boundaries once at the default sqrt(2) line width,
        computes the distance field of A's coverage, and compares the
        minimum field value over B's coverage against ``d`` converted to
        pixels (plus the cell-center slack).  Never UNSUPPORTED: no widened
        lines are drawn, so the device line-width limit is irrelevant, and
        the rendering cost does not grow with ``d``.
        """
        if not d >= 0.0:
            raise ValueError("distance must be non-negative")
        return self._verdicts(
            "within_distance", "field", [(a, b, window)], d, None,
            self._render_each,
        )[0]

    def intersection_verdicts_batch(
        self, pairs: Sequence[PairWindow]
    ) -> List[HardwareVerdict]:
        """Batched hardware segment intersection tests: K verdicts at once.

        Packs every pair's window as one tile of the atlas
        (:class:`~repro.gpu.tiled.TiledPipeline`), rasterizes all first
        boundaries in one bulk draw call, all second boundaries in a
        second, and reduces per tile.  Verdicts are bit-identical to
        calling :meth:`intersection_verdict` per pair, for every
        configured overlap method - all of section 3's implementations
        reduce to "some pixel covered by both boundaries", which is what
        the per-tile Minmax detects.  Never returns UNSUPPORTED.

        With caching on, previously-decided pairs replay their verdicts,
        and duplicate keys *within* the batch render once (the later
        occurrences become followers of the first); only the remaining
        misses reach the atlas.  Per-pair accounting is unchanged, so the
        verdict list and RefinementStats stay bit-identical to the
        cache-off run.
        """
        return self._verdicts(
            "intersect", self.config.method, list(pairs), 0.0, None,
            self._render_atlas,
        )

    def distance_verdicts_batch(
        self, pairs: Sequence[PairWindow], d: float
    ) -> List[HardwareVerdict]:
        """Batched within-distance tests at distance ``d``.

        Each pair's projection assigns its own Equation (1) line width;
        pairs whose width exceeds the device limit get UNSUPPORTED (they
        never reach the atlas), the rest render in one batch with per-tile
        widths and end-point caps.  Verdicts are bit-identical to
        per-pair :meth:`distance_verdict` calls.  ``"field"`` mode has no
        widened lines to batch and runs the distance-insensitive test per
        pair.
        """
        return self._distance_verdicts(list(pairs), d, self._render_atlas)

    def _distance_verdicts(
        self, pairs: List[PairWindow], d: float, render: Callable
    ) -> List[HardwareVerdict]:
        """What a within-distance test is, for one pair or many: the
        intersection test at ``d == 0`` (recorded as one, under
        ``op=intersect``), the field test in ``"field"`` mode, else lines
        widened per pair by Equation (1)."""
        if not d >= 0.0:
            raise ValueError("distance must be non-negative")
        if d == 0.0:
            return self._verdicts(
                "intersect", self.config.method, pairs, d, None, render
            )
        if self.config.distance_mode == "field":
            return [
                self.distance_field_verdict(a, b, w, d) for a, b, w in pairs
            ]
        widths = self.required_line_widths([w for _, _, w in pairs], d)
        return self._verdicts(
            "within_distance", self.config.method, pairs, d, widths, render
        )

    def required_line_widths(self, windows: Sequence[Rect], d: float) -> List[float]:
        """Pixel width Equation (1) assigns to distance ``d`` under each
        window: ``ceil(d * scale)`` of the window's own projection, at least
        1, from the scales the atlas projects its tiles with.

        A non-finite ``d * scale`` (an infinite ``d`` projects an infinite
        window at scale 0, and ``inf * 0`` is NaN) is ``inf``: wider than
        any device draws, so the width limit sends the pair to software.
        """
        pl = self.pipeline
        with np.errstate(invalid="ignore", over="ignore"):
            widths = d * window_scales(pl.width, pl.height, window_columns(windows))
        return np.where(
            np.isfinite(widths), np.maximum(1.0, np.ceil(widths)), math.inf
        ).tolist()

    # -- the one verdict routine -------------------------------------------

    def _verdicts(
        self,
        op: str,
        method: str,
        pairs: List[PairWindow],
        d: float,
        widths: Optional[List[float]],
        render: Callable[..., List[HardwareVerdict]],
    ) -> List[HardwareVerdict]:
        """Width limit, memo lookup, in-batch dedup, ``render``, metrics.

        ``widths`` holds each pair's Equation (1) line width in pixels
        (rendered with matching end-point caps); ``None`` renders every
        pair at the default anti-aliased width, uncapped.  ``render(op,
        method, pairs, d, widths)`` decides the pairs no earlier step
        settled: :meth:`_render_atlas` or :meth:`_render_each`.

        With the verdict table on, the batch goes through one
        :meth:`~repro.cache.MemoCache.memoize`: hits replay, misses render
        in one call, and a key another request sharing the table is
        rendering is left out and waited for after this batch's own
        render, as a hit.  A failed render releases the keys it held.

        Per-pair families (``hw_verdicts``, ``hw_test_edges``) are additive
        over pairs, so per-pair, batched and cached runs of the same
        workload report identical totals.  An atlas submission's
        cost is shared by its pairs and lands in ``hw_batch_duration_s``;
        the per-pair renderer times each render it actually runs into
        ``hw_test_duration_s`` (Figure 13's per-test cost distribution).
        """
        if not pairs:
            return []
        registry = current_scope().registry
        start = time.perf_counter()
        overflows = 0
        cache = self.caches.verdict
        limits = self.config.limits
        verdicts: List[Optional[HardwareVerdict]] = [None] * len(pairs)
        todo: List[int] = []
        for k in range(len(pairs)):
            if widths is not None and not (
                limits.supports_line_width(widths[k])
                and limits.supports_point_size(widths[k])
            ):
                # Decided by the width comparison alone, with no rendering
                # to save - never cached, so hw_line_width_overflow stays
                # on this one path.
                verdicts[k] = HardwareVerdict.UNSUPPORTED
                overflows += 1
            else:
                todo.append(k)

        if todo:

            def rendered(positions: Sequence[int]) -> List[HardwareVerdict]:
                ks = [todo[i] for i in positions]
                return render(
                    op,
                    method,
                    [pairs[k] for k in ks],
                    d,
                    None if widths is None else [widths[k] for k in ks],
                )

            if cache is None:
                found = rendered(range(len(todo)))
            else:
                # A repeated key is claimed beside its first occurrence,
                # tallied like it, and shares its verdict: the width is a
                # pure function of (window, d), so that is exact.
                resolution = self.config.resolution
                keys = [
                    verdict_key(op, method, *pairs[k], d, resolution) for k in todo
                ]
                found = cache.memoize(op, keys, rendered, claim_repeats=True)
            for k, verdict in zip(todo, found):
                verdicts[k] = verdict
        if registry is not None:
            elapsed = time.perf_counter() - start
            overflow_key, batch_key, edges_key, verdict_keys = _hw_keys(op, method)
            acc = registry.accumulator()
            with acc.lock:
                if overflows:
                    acc.add(overflow_key, overflows)
                # Bound methods are equal, never identical, across accesses.
                if render == self._render_atlas:
                    acc.observe(batch_key, elapsed)
                for (a, b, _), verdict in zip(pairs, verdicts):
                    acc.add(verdict_keys[verdict])
                    acc.observe(edges_key, a.num_vertices + b.num_vertices)
        return verdicts  # type: ignore[return-value]

    # -- the two renderers -------------------------------------------------

    def _render_atlas(
        self,
        op: str,
        method: str,
        pairs: List[PairWindow],
        d: float,
        widths: Optional[List[float]],
    ) -> List[HardwareVerdict]:
        """Every pair as one tile of one atlas submission."""
        flags = self.tiled.overlap_flags(
            [a.edge_row for a, _, _ in pairs],
            [b.edge_row for _, b, _ in pairs],
            [window for _, _, window in pairs],
            widths_px=(
                DEFAULT_AA_LINE_WIDTH
                if widths is None
                else np.asarray(widths, dtype=np.float64)
            ),
            cap_points=widths is not None,
            threshold=OVERLAP_THRESHOLD,
        )
        return [
            HardwareVerdict.MAYBE if f else HardwareVerdict.DISJOINT
            for f in flags
        ]

    def _render_each(
        self,
        op: str,
        method: str,
        pairs: List[PairWindow],
        d: float,
        widths: Optional[List[float]],
    ) -> List[HardwareVerdict]:
        """Pair by pair: steps 2.1-2.8 through ``method``'s own buffers, or
        the distance-field test, each timed into ``hw_test_duration_s``."""
        registry = current_scope().registry
        verdicts = []
        seconds = []
        for k, (a, b, window) in enumerate(pairs):
            start = time.perf_counter()
            if method == "field":
                verdict = self._distance_field_impl(a, b, window, d)
            elif widths is None:
                verdict = self._render_and_search(
                    a, b, window, DEFAULT_AA_LINE_WIDTH, cap_points=False
                )
            else:
                verdict = self._render_and_search(
                    a, b, window, widths[k], cap_points=True
                )
            seconds.append(time.perf_counter() - start)
            verdicts.append(verdict)
        if registry is not None:
            key = metric_key("hw_test_duration_s", op=op, method=method)
            acc = registry.accumulator()
            with acc.lock:
                for elapsed in seconds:
                    acc.observe(key, elapsed)
        return verdicts

    def _distance_field_impl(
        self, a: Polygon, b: Polygon, window: Rect, d: float
    ) -> HardwareVerdict:
        from ..gpu.distance_field import CENTER_DISTANCE_SLACK

        pl = self.pipeline
        pl.set_data_window(window)
        st = pl.state
        st.line_width = DEFAULT_AA_LINE_WIDTH
        st.point_size = DEFAULT_AA_LINE_WIDTH
        st.cap_points = False
        st.reset_fragment_ops()
        mask_a = pl.render_coverage_mask(a.edges_array)
        if pl.unplaced_edges:
            return HardwareVerdict.MAYBE
        if not mask_a.any():
            return HardwareVerdict.DISJOINT
        mask_b = pl.render_coverage_mask(b.edges_array)
        if pl.unplaced_edges:
            return HardwareVerdict.MAYBE
        if not mask_b.any():
            return HardwareVerdict.DISJOINT
        field = pl.compute_distance_field(mask_a)
        min_px = float(field[mask_b].min())
        if min_px > pl.distance_to_pixels(d) + CENTER_DISTANCE_SLACK:
            return HardwareVerdict.DISJOINT
        return HardwareVerdict.MAYBE

    # -- render-and-search, in the five variants of section 3 ------------------

    def _render_and_search(
        self,
        a: Polygon,
        b: Polygon,
        window: Rect,
        line_width_px: float,
        cap_points: bool,
        search: Optional[Callable[["HardwareSegmentTest", Polygon, Polygon], bool]] = None,
    ) -> HardwareVerdict:
        pl = self.pipeline
        pl.set_data_window(window)
        st = pl.state
        saved = (st.line_width, st.point_size, st.cap_points)
        st.line_width = line_width_px
        st.point_size = line_width_px
        st.cap_points = cap_points
        st.reset_fragment_ops()
        if search is None:
            search = self._SEARCHES[self.config.method]
        try:
            # An unplaced edge leaves the test to the software step.
            overlap = search(self, a, b) or pl.unplaced_edges > 0
        finally:
            # Restore the full raster state, not just the fragment ops: a
            # widened distance test must not leak its line width, point
            # size, or end-point caps into the shared pipeline (direct
            # GraphicsPipeline users - voronoi, distance_field - would
            # silently inherit the widened footprint).
            st.line_width, st.point_size, st.cap_points = saved
            st.reset_fragment_ops()
            st.color = EDGE_COLOR
        return HardwareVerdict.MAYBE if overlap else HardwareVerdict.DISJOINT

    def _search_accum(self, a: Polygon, b: Polygon) -> bool:
        """Algorithm 3.1 steps 2.2-2.8: two renders added in the
        accumulation buffer; overlap pixels reach 1.0."""
        pl = self.pipeline
        pl.state.color = EDGE_COLOR
        pl.clear_color()  # step 2.2
        pl.clear_accum()
        pl.draw_edges_array(a.edges_array)  # step 2.3
        pl.accum_add()  # step 2.4
        pl.clear_color()
        pl.draw_edges_array(b.edges_array)  # step 2.5
        pl.accum_add()  # step 2.6
        pl.accum_return()  # step 2.7
        _, max_value = pl.minmax("color")  # step 2.8 via hardware Minmax
        return max_value >= OVERLAP_THRESHOLD

    def _search_blend(self, a: Polygon, b: Polygon) -> bool:
        """Additive blending: both renders add 0.5 into the color buffer
        directly; overlap pixels reach 1.0 with no accumulation transfers."""
        pl = self.pipeline
        st = pl.state
        st.color = EDGE_COLOR
        st.blend = True
        pl.clear_color()
        pl.draw_edges_array(a.edges_array)
        pl.draw_edges_array(b.edges_array)
        _, max_value = pl.minmax("color")
        return max_value >= OVERLAP_THRESHOLD

    def _search_logic(self, a: Polygon, b: Polygon) -> bool:
        """Logical operations: polygon A ORs bit 1, polygon B ORs bit 2;
        overlap pixels hold 0b11 = 3."""
        pl = self.pipeline
        st = pl.state
        st.logic_op = "or"
        pl.clear_color()
        st.color = 1.0
        pl.draw_edges_array(a.edges_array)
        st.color = 2.0
        pl.draw_edges_array(b.edges_array)
        _, max_value = pl.minmax("color")
        return max_value >= 3.0

    def _search_depth(self, a: Polygon, b: Polygon) -> bool:
        """Depth buffer (RECODE-style): pass 1 marks A's pixels at a known
        depth with color writes off; pass 2 renders B with GL_EQUAL so only
        pixels A touched survive to write color."""
        pl = self.pipeline
        st = pl.state
        pl.clear_color()
        pl.clear_depth(1.0)
        st.color_write = False
        st.depth_write = True
        st.depth_value = 0.5
        pl.draw_edges_array(a.edges_array)
        st.color_write = True
        st.depth_write = False
        st.depth_test = "equal"
        st.color = 1.0
        pl.draw_edges_array(b.edges_array)
        _, max_value = pl.minmax("color")
        return max_value >= 1.0

    def _search_stencil(self, a: Polygon, b: Polygon) -> bool:
        """Stencil buffer: both renders increment the stencil of covered
        pixels (color writes off); overlap pixels count 2."""
        pl = self.pipeline
        st = pl.state
        pl.clear_stencil(0)
        st.color_write = False
        st.stencil_op = "incr"
        pl.draw_edges_array(a.edges_array)
        pl.draw_edges_array(b.edges_array)
        _, max_value = pl.minmax("stencil")
        return max_value >= 2.0

    _SEARCHES = {
        "accum": _search_accum,
        "blend": _search_blend,
        "logic": _search_logic,
        "depth": _search_depth,
        "stencil": _search_stencil,
    }

    def overlap_image(self, a: Polygon, b: Polygon, window: Rect):
        """Debug/visualization helper: the accumulated image as an array.

        Runs the intersection rendering and returns the full readback (the
        expensive path the Minmax function exists to avoid; also used by the
        Minmax-vs-readback ablation).

        The accumulation rendering is forced regardless of the configured
        overlap method: only Algorithm 3.1's accumulation path leaves the
        documented 0.5/1.0 image in the color buffer.  The stencil method
        never writes color at all, and the logic/depth methods use different
        encodings, so dispatching through ``config.method`` here would
        return a stale or mis-encoded image.
        """
        self._render_and_search(
            a,
            b,
            window,
            line_width_px=DEFAULT_AA_LINE_WIDTH,
            cap_points=False,
            search=HardwareSegmentTest._search_accum,
        )
        return self.pipeline.read_pixels("color")
