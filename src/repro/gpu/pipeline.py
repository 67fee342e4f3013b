"""The simulated rendering pipeline: viewport transform, draw calls, readback.

This is the stand-in for the OpenGL context + graphics card of the paper's
experiments.  It draws the one primitive Algorithm 3.1 submits - arrays of
line segments, anti-aliased (step 2.1) - and reproduces the pipeline stages
of Figure 2 that matter for the technique:

* *transformation* - an affine, uniform-scale projection of a data-space
  window onto the pixel grid (section 3.2's projection strategies give the
  window; uniform scale keeps widened line widths isotropic so Equation (1)
  converts data distances to pixel widths exactly);
* *clipping* - edges entirely outside the viewport are rejected before
  rasterization, like the hardware's clipping stage;
* *rasterization* - the anti-aliased footprint kernel of
  :mod:`repro.gpu.raster_bulk`, honoring the current
  :class:`~repro.gpu.state.RasterState`;
* *per-buffer operations* - color/accumulation buffer clears, glAccum-style
  transfers, the Minmax readback, and full glReadPixels readback.

Each stage is written once: :func:`clip_keep` is the clipping test of every
draw (edge draws here and the atlas's bulk draws in :mod:`repro.gpu.tiled`,
which first skip what :func:`cull_boxes` proves it would reject), and
:meth:`GraphicsPipeline._edge_coverage` is the transform/clip/rasterize body
under the one draw entry point (:meth:`GraphicsPipeline.draw_edges_array`)
and the one mask entry point (:meth:`GraphicsPipeline.render_coverage_mask`).
Every operation updates :class:`~repro.gpu.counters.CostCounters`, enabling
deterministic ablation benchmarks alongside wall-clock measurements.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..geometry.edge_store import boxes_meet
from ..geometry.point_in_polygon import edge_bounds
from ..geometry.rect import Rect
from ..geometry.workspace import Workspace
from ..obs.scope import current_scope
from .counters import CostCounters
from .framebuffer import Framebuffer
from .raster_bulk import edges_coverage_mask
from .state import DeviceLimits, RasterState

#: The cull box side of a side that does not verify: no cull there.
_NO_CULL = np.array([[-math.inf], [-math.inf], [math.inf], [math.inf]])
#: A row's four ``isfinite`` flags, read as one ``uint32``, when all are set.
_ALL_FINITE = np.uint32(0x01010101)


def window_columns(windows: Sequence[Rect]) -> np.ndarray:
    """Windows as one ``(4, k)`` array, rows ``xmin, ymin, xmax, ymax``."""
    return np.array(
        [(w.xmin, w.ymin, w.xmax, w.ymax) for w in windows], dtype=np.float64
    ).reshape(-1, 4).T


def window_scales(width: int, height: int, windows: np.ndarray) -> np.ndarray:
    """The uniform (isotropic) scale projecting each window into a viewport.

    ``windows`` is ``(4, k)``, rows ``xmin, ymin, xmax, ymax``.  A scale
    is the largest uniform one that maps the *entire* window inside the
    ``width x height`` pixel grid: per axis the window extent must fit its
    viewport dimension, so the binding axis decides.  Using
    ``max(width, height) / max-span`` instead (the historical formula) can
    push part of the window outside a non-square viewport; pixels lost
    there are lost for both rendered boundaries, so the hardware test could
    miss an overlap and report a false DISJOINT - breaking the paper's
    no-false-negative guarantee.  Degenerate (zero-extent) axes impose no
    constraint; a fully degenerate window maps to the first pixel at scale
    1.  For square viewports this is bit-identical to the historical
    formula (division is monotone in the divisor).  Every value equals the
    scalar loop's in ``tests/oracles/raster.py``: the same operands in the
    same order, and ``min``'s and ``max``'s tie rule (the first argument
    wins)."""
    with np.errstate(divide="ignore", over="ignore"):
        return _scales(width, height, windows)


def _scales(width: int, height: int, windows: np.ndarray) -> np.ndarray:
    # Both axes at once: rows w, h of the extents and sx, sy of the fits.
    extent = windows[2:] - windows[:2]
    fit = np.where(extent > 0.0, np.divide([[width], [height]], extent), math.inf)
    (w, h), (sx, sy) = extent, fit
    return np.where(np.where(h > w, h, w) <= 0.0, 1.0, np.where(sy < sx, sy, sx))


def clip_keep(
    edges: np.ndarray, pad, width: int, height: int, workspace: Optional[Workspace] = None
) -> np.ndarray:
    """The clipping stage: which window-space edges can touch the viewport.

    ``edges`` is ``(E, 4)`` (x0 y0 x1 y1); an edge survives when its
    bounding box, grown by ``pad`` pixels (scalar, or one per edge) for
    the widened footprint, meets the ``width x height`` pixel grid.  The
    result is taken from ``workspace`` (a fresh one when None) in its
    caller's frame.
    """
    ws = Workspace() if workspace is None else workspace
    n = edges.shape[0]
    keep = ws.array(n, bool)
    keep.fill(True)
    with ws.frame():
        lo, hi, limit = ws.array((3, n))
        test = ws.array(n, bool)
        np.negative(pad, out=limit)
        for axis, size in ((0, width), (1, height)):
            np.minimum(edges[:, axis], edges[:, axis + 2], out=lo)
            np.maximum(edges[:, axis], edges[:, axis + 2], out=hi)
            keep &= np.greater_equal(hi, limit, out=test)
            np.add(pad, size, out=hi)
            keep &= np.less_equal(lo, hi, out=test)
    return keep


def placed_rows(edges: np.ndarray, workspace: Optional[Workspace] = None) -> np.ndarray:
    """Which window-space ``(E, 4)`` edges the transform placed: those whose
    four coordinates are all finite.  An unplaced edge is never drawn.
    Each row's four ``isfinite`` flag bytes are read as one ``uint32``
    and compared once with all four set.  The result is taken from
    ``workspace`` (a fresh one when None) in its caller's frame."""
    ws = Workspace() if workspace is None else workspace
    n = edges.shape[0]
    finite = np.isfinite(edges, out=ws.array((n, 4), bool))
    return np.equal(finite.view(np.uint32).reshape(n), _ALL_FINITE, out=ws.array(n, bool))


def tile_transforms(
    width: int, height: int, windows: np.ndarray, pads
) -> Tuple[np.ndarray, np.ndarray]:
    """``(scales, boxes)`` of ``(4, k)`` windows (rows ``xmin, ymin, xmax,
    ymax``): each window's :func:`window_scales` scale, and the data-space
    box outside which :func:`clip_keep` with ``pads`` (scalar, or one per
    window) provably rejects for the projection ``(v - min) * scale`` - a
    ``(4, k)`` array, rows ``lo_x, lo_y, hi_x, hi_y``.  One pass under one
    ``errstate``, both axes at once.

    An edge with ``xmax < lo_x`` or ``xmin > hi_x`` (likewise in y) need not
    be transformed at all.  Each side starts one pixel beyond the clip limit
    and is *verified* by pushing it through the very expression edge
    coordinates go through: it must itself fail the clip comparison.
    Correctly rounded subtraction and multiplication by a positive scale are
    monotone, so every coordinate beyond a verified side fails too - no error
    analysis, no tolerance.  A side that does not verify (a pixel below one
    ulp of the window, an overflowed scale) is infinite: no cull there.
    """
    origin = windows[:2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scales = _scales(width, height, windows)
        limit = np.add(pads, [[width], [height]])
        lo = origin - (pads + 1.0) / scales
        hi = origin + (limit + 1.0) / scales
        verified = np.concatenate(
            [(lo - origin) * scales < -pads, (hi - origin) * scales > limit]
        )
        boxes = np.where(verified, np.concatenate([lo, hi]), _NO_CULL)
    return scales, boxes


class GraphicsPipeline:
    """A reusable rendering context of fixed resolution.

    Hardware contexts are expensive to create, so - like the paper's
    implementation - callers allocate one pipeline per window resolution and
    reuse it across the thousands or millions of pairwise tests of a query.
    """

    def __init__(
        self,
        width: int,
        height: Optional[int] = None,
        limits: Optional[DeviceLimits] = None,
    ) -> None:
        height = width if height is None else height
        self.limits = limits if limits is not None else DeviceLimits()
        if width < 1 or height < 1:
            raise ValueError("viewport must be at least 1x1")
        if width > self.limits.max_viewport or height > self.limits.max_viewport:
            raise ValueError(
                f"viewport {width}x{height} exceeds device limit "
                f"{self.limits.max_viewport}"
            )
        self.fb = Framebuffer(width, height)
        self.state = RasterState()
        self.counters = CostCounters()
        # Identity-ish projection until a window is set.
        self._window = Rect(0.0, 0.0, float(width), float(height))
        self._scale = 1.0
        self._offset4 = np.zeros(4, dtype=np.float64)
        #: Edges drawn since the last :meth:`set_data_window` that the
        #: transform could not place: inside the window's :func:`cull_boxes` box,
        #: with a window coordinate that is not finite.  A test that drew
        #: one is not decided by the raster.
        self.unplaced_edges = 0

    # -- projection ----------------------------------------------------------

    @property
    def width(self) -> int:
        return self.fb.width

    @property
    def height(self) -> int:
        return self.fb.height

    @property
    def window(self) -> Rect:
        """The data-space rectangle currently mapped onto the viewport."""
        return self._window

    @property
    def scale(self) -> float:
        """Pixels per data unit of the current projection."""
        return self._scale

    def set_data_window(self, window: Rect) -> None:
        """Project ``window`` onto the viewport with uniform scale.

        The window's binding side spans its viewport dimension and the whole
        window maps inside the pixel grid (:func:`window_scales` of one
        window);
        uniform scaling means a data-space distance D maps to ``D * scale``
        pixels in every direction, which Equation (1) relies on.  Degenerate
        (zero-extent) windows are legal - they arise when two MBRs touch
        along an edge or corner - and map everything to the first pixel.
        """
        self._window = window
        self._scale = float(
            window_scales(self.width, self.height, window_columns([window]))[0]
        )
        self._offset4 = np.array(
            [window.xmin, window.ymin, window.xmin, window.ymin], dtype=np.float64
        )
        self.unplaced_edges = 0
        recorder = current_scope().recorder
        if recorder is not None:
            recorder.on_set_window(self, window)

    def data_to_window(self, x: float, y: float) -> Tuple[float, float]:
        """Transform data coordinates to window (pixel) coordinates."""
        return (
            (x - self._window.xmin) * self._scale,
            (y - self._window.ymin) * self._scale,
        )

    def distance_to_pixels(self, d: float) -> float:
        """Convert a data-space distance to pixels under the projection."""
        return d * self._scale

    # -- buffer operations ---------------------------------------------------

    def _clear(self, buffer: str, value: float) -> None:
        getattr(self.fb, f"clear_{buffer}")(value)
        self.counters.buffer_clears += 1
        self.counters.pixels_cleared += self.width * self.height
        recorder = current_scope().recorder
        if recorder is not None:
            recorder.on_clear(self, buffer, value)

    def clear_color(self, value: float = 0.0) -> None:
        self._clear("color", value)

    def clear_accum(self, value: float = 0.0) -> None:
        self._clear("accum", value)

    def clear_stencil(self, value: int = 0) -> None:
        self._clear("stencil", value)

    def clear_depth(self, value: float = 1.0) -> None:
        self._clear("depth", value)

    def _accum(self, op: str, scale: float) -> None:
        getattr(self.fb, f"accum_{op}")(scale)
        self.counters.accum_ops += 1
        recorder = current_scope().recorder
        if recorder is not None:
            recorder.on_accum(self, op, scale)

    def accum_add(self, scale: float = 1.0) -> None:
        self._accum("add", scale)

    def accum_return(self, scale: float = 1.0) -> None:
        self._accum("return", scale)

    def minmax(self, buffer: str = "color") -> Tuple[float, float]:
        """Hardware Minmax: min/max of a buffer without a bus transfer."""
        self.counters.minmax_ops += 1
        self.counters.pixels_scanned += self.width * self.height
        result = self.fb.minmax(buffer)
        recorder = current_scope().recorder
        if recorder is not None:
            recorder.on_minmax(self, buffer, result)
        return result

    def read_pixels(self, buffer: str = "color"):
        """Full readback through the bus (the slow path Minmax avoids)."""
        self.counters.readback_ops += 1
        self.counters.pixels_transferred += self.width * self.height
        data = self.fb.read_pixels(buffer)
        recorder = current_scope().recorder
        if recorder is not None:
            recorder.on_read_pixels(self, buffer, data)
        return data

    # -- draw calls -----------------------------------------------------------

    def _edge_coverage(self, edges_data: np.ndarray) -> np.ndarray:
        """One edge draw's coverage mask (its fragment set).

        The stages every ``(E, 4)`` data-space edge draw goes through:
        validate the state, count the call, transform (the projection is
        affine, so edges map to window space in two array operations),
        clip away edges whose widened footprint cannot touch the viewport,
        and rasterize the survivors' conservative anti-aliased footprint.
        """
        state = self.state
        state.validate(self.limits)
        self.counters.draw_calls += 1
        with np.errstate(over="ignore", invalid="ignore"):
            edges = (edges_data - self._offset4) * self._scale  # (E, 4): x0 y0 x1 y1
        pad = max(state.line_width, state.point_size) + 1.0
        keep = clip_keep(edges, pad, self.width, self.height)
        placed = placed_rows(edges)
        if np.count_nonzero(placed) < edges.shape[0]:
            # An edge the transform cannot place never reaches the raster;
            # counted if the atlas's cull would have let it in.
            _, box = tile_transforms(
                self.width, self.height, window_columns([self._window]), pad
            )
            near = boxes_meet(edge_bounds(edges_data), box)
            self.unplaced_edges += int(np.count_nonzero(near & ~placed))
            keep &= placed
        kept = int(np.count_nonzero(keep))
        self.counters.edges_rendered += kept
        self.counters.edges_clipped_away += edges.shape[0] - kept
        shape = (self.height, self.width)
        if kept == 0:
            return np.zeros(shape, dtype=bool)
        if kept != edges.shape[0]:
            edges = edges[keep]
        return edges_coverage_mask(
            shape, edges, width_px=state.line_width, cap_points=state.cap_points
        )

    def render_coverage_mask(self, edges_data: np.ndarray) -> np.ndarray:
        """Render a boundary and return its conservative coverage mask.

        Used by the distance-field test: the draw call goes through the
        normal transform/clip/rasterize stages (and is counted as such),
        but the caller receives the fragment mask instead of a buffer
        write.
        """
        mask = self._edge_coverage(edges_data)
        self.counters.pixels_written += int(np.count_nonzero(mask))
        recorder = current_scope().recorder
        if recorder is not None:
            recorder.on_coverage_mask(self, edges_data, mask)
        return mask

    def compute_distance_field(self, mask: np.ndarray) -> np.ndarray:
        """Distance field of a coverage mask (counted as a field pass)."""
        from .distance_field import distance_field

        self.counters.distance_field_pixels += self.width * self.height
        field = distance_field(mask)
        recorder = current_scope().recorder
        if recorder is not None:
            recorder.on_distance_field(self, mask, field)
        return field

    def draw_edges_array(self, edges_data: np.ndarray) -> None:
        """Render an ``(E, 4)`` array of data-space segments.

        This is how Algorithm 3.1 renders polygons: as chains of segments
        (``Polygon.edges_array``), never as filled polygons, avoiding
        software triangulation.  Edges wholly outside the viewport (after
        widening) are clipped away; the draw call's coverage mask flows
        through the per-fragment pipeline (depth, stencil, blend, logic,
        color write).
        """
        recorder = current_scope().recorder
        if recorder is not None:
            recorder.on_draw_edges(self, edges_data)
        mask = self._edge_coverage(edges_data)
        self.counters.pixels_written += self._apply_fragment_ops(mask)

    def _apply_fragment_ops(self, mask: np.ndarray) -> int:
        """Apply the per-fragment pipeline to one draw call's coverage mask.

        Order follows the GL fragment pipeline for the operations this
        simulation models: depth test first, then stencil update, depth
        write, and finally the color write (replace, additive blend, or
        logical OR).  Returns the number of fragments that survived.
        """
        state = self.state
        fb = self.fb
        if state.depth_test is not None:
            if state.depth_test != "equal":
                raise ValueError(f"unsupported depth func {state.depth_test!r}")
            mask = mask & (fb.depth == np.float32(state.depth_value))
        written = int(np.count_nonzero(mask))
        if written == 0:
            return 0
        if state.stencil_op is not None:
            if state.stencil_op != "incr":
                raise ValueError(f"unsupported stencil op {state.stencil_op!r}")
            plane = fb.stencil
            selected = plane[mask]
            # Saturating increment, per the GL_INCR specification.
            plane[mask] = np.where(selected == 255, selected, selected + 1)
        if state.depth_write:
            fb.depth[mask] = np.float32(state.depth_value)
        if state.color_write:
            if state.logic_op is not None:
                if state.logic_op != "or":
                    raise ValueError(f"unsupported logic op {state.logic_op!r}")
                bits = fb.color.astype(np.uint8)
                bits[mask] |= np.uint8(int(state.color))
                fb.color[:] = bits
            elif state.blend:
                fb.color[mask] += np.float32(state.color)
            else:
                fb.color[mask] = state.color
        return written
