"""Tests for the tiled batch-rendering layer (atlas packing, verdicts)."""

import dataclasses
import math
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gpu.tiled as tiled_module
from repro import HardwareConfig, HardwareEngine
from repro.core import OVERLAP_THRESHOLD
from repro.geometry import Rect
from repro.geometry.edge_store import EdgeStore
from repro.gpu import (
    DeviceLimits,
    GraphicsPipeline,
    TiledPipeline,
    raster_bulk,
)
from repro.gpu.pipeline import clip_keep, cull_boxes
from repro.gpu.state import DEFAULT_AA_LINE_WIDTH
from repro.obs import Tracer, use_scope
from tests.oracles.raster import tile_transform_loop, uniform_window_scale
from tests.strategies import lattices

SQUARE_EDGES = np.array(
    [
        [1.0, 1.0, 6.0, 1.0],
        [6.0, 1.0, 6.0, 6.0],
        [6.0, 6.0, 1.0, 6.0],
        [1.0, 6.0, 1.0, 1.0],
    ]
)
# A bar crossing the square's interior.
BAR_EDGES = np.array(
    [
        [0.0, 3.0, 7.0, 3.0],
        [7.0, 3.0, 7.0, 4.0],
        [7.0, 4.0, 0.0, 4.0],
        [0.0, 4.0, 0.0, 3.0],
    ]
)
# A bar far away from the square.
FAR_EDGES = BAR_EDGES + np.array([100.0, 100.0, 100.0, 100.0])

WINDOW = Rect(0.0, 0.0, 8.0, 8.0)
WIDE_WINDOW = Rect(0.0, 0.0, 120.0, 120.0)


def make_tiled(resolution=8, max_tiles=256, limits=None):
    base = GraphicsPipeline(resolution, limits=limits)
    return TiledPipeline(base, max_tiles=max_tiles)


def rows(edge_sets):
    """One store holding ``edge_sets``, as ``(store, row)`` sides."""
    store = EdgeStore.of_edges(edge_sets)
    return [(store, k) for k in range(len(edge_sets))]


def overlap(tiled, edges_a, edges_b, windows):
    return tiled.overlap_flags(
        rows(edges_a),
        rows(edges_b),
        windows,
        widths_px=DEFAULT_AA_LINE_WIDTH,
        cap_points=False,
        threshold=OVERLAP_THRESHOLD,
    )


class TestConstruction:
    def test_grid_and_capacity(self):
        tiled = make_tiled(resolution=8, max_tiles=256)
        assert (tiled.grid_cols, tiled.grid_rows) == (16, 16)
        assert tiled.capacity == 256
        assert tiled.fb.width == 128 and tiled.fb.height == 128

    def test_single_tile(self):
        tiled = make_tiled(resolution=8, max_tiles=1)
        assert tiled.capacity == 1
        assert tiled.fb.width == 8 and tiled.fb.height == 8

    def test_viewport_limit_bounds_atlas(self):
        limits = DeviceLimits(max_viewport=32)
        tiled = make_tiled(resolution=8, max_tiles=256, limits=limits)
        assert tiled.grid_cols <= 4 and tiled.grid_rows <= 4
        assert tiled.fb.width <= 32 and tiled.fb.height <= 32

    def test_bad_max_tiles(self):
        with pytest.raises(ValueError):
            make_tiled(max_tiles=0)

    def test_counters_are_shared_with_base(self):
        base = GraphicsPipeline(8)
        tiled = TiledPipeline(base)
        assert tiled.counters is base.counters


class TestOverlapFlags:
    def test_basic_verdicts(self):
        tiled = make_tiled()
        flags = overlap(
            tiled,
            [SQUARE_EDGES, SQUARE_EDGES],
            [BAR_EDGES, FAR_EDGES],
            [WINDOW, WIDE_WINDOW],
        )
        assert flags.tolist() == [True, False]

    def test_empty_batch(self):
        tiled = make_tiled()
        assert overlap(tiled, [], [], []).shape == (0,)

    def test_multiple_sub_batches(self):
        # Capacity 4 with 10 pairs forces three atlas submissions; the
        # flags must still come back in order.
        tiled = make_tiled(resolution=8, max_tiles=4)
        assert tiled.capacity == 4
        n = 10
        edges_b = [BAR_EDGES if k % 3 else FAR_EDGES for k in range(n)]
        windows = [WIDE_WINDOW if k % 3 == 0 else WINDOW for k in range(n)]
        flags = overlap(tiled, [SQUARE_EDGES] * n, edges_b, windows)
        assert flags.tolist() == [bool(k % 3) for k in range(n)]
        assert tiled.counters.tile_batches == 3
        assert tiled.counters.tiles_packed == n

    def test_matches_serial_pipeline_masks(self):
        # The batched verdict must equal "the two serial coverage masks
        # share a pixel" for each pair independently.
        cases = [
            (SQUARE_EDGES, BAR_EDGES, WINDOW),
            (SQUARE_EDGES, FAR_EDGES, WIDE_WINDOW),
            (SQUARE_EDGES, BAR_EDGES + 2.5, WINDOW),
            (BAR_EDGES, BAR_EDGES + np.array([0.0, 50.0, 0.0, 50.0]),
             Rect(0.0, 0.0, 60.0, 60.0)),
        ]
        expected = []
        for ea, eb, w in cases:
            pl = GraphicsPipeline(8)
            pl.set_data_window(w)
            expected.append(
                bool((pl.render_coverage_mask(ea) & pl.render_coverage_mask(eb)).any())
            )
        tiled = make_tiled()
        flags = overlap(
            tiled,
            [c[0] for c in cases],
            [c[1] for c in cases],
            [c[2] for c in cases],
        )
        assert flags.tolist() == expected

    def test_batch_counters(self):
        tiled = make_tiled()
        counters = tiled.counters
        overlap(tiled, [SQUARE_EDGES], [BAR_EDGES], [WINDOW])
        # One atlas submission: two bulk draws, one clear, the
        # accumulate/return transfers, and one (per-tile) Minmax.
        assert counters.tile_batches == 1
        assert counters.tiles_packed == 1
        assert counters.draw_calls == 2
        assert counters.buffer_clears == 1
        assert counters.minmax_ops == 1
        assert counters.edges_rendered == 8

    def test_per_pair_widths(self):
        tiled = make_tiled()
        # Wide lines can bridge the gap a thin line leaves open.
        gap_a = np.array([[1.0, 1.0, 1.0, 7.0]])
        gap_b = np.array([[5.0, 1.0, 5.0, 7.0]])
        thin_then_wide = np.array([1.5, 8.0])
        flags = tiled.overlap_flags(
            rows([gap_a, gap_a]),
            rows([gap_b, gap_b]),
            [WINDOW, WINDOW],
            widths_px=thin_then_wide,
            cap_points=True,
            threshold=OVERLAP_THRESHOLD,
        )
        assert flags.tolist() == [False, True]

    def test_misaligned_inputs_rejected(self):
        tiled = make_tiled()
        with pytest.raises(ValueError):
            overlap(tiled, [SQUARE_EDGES], [BAR_EDGES, BAR_EDGES], [WINDOW])
        with pytest.raises(ValueError):
            tiled.overlap_flags(
                rows([SQUARE_EDGES]),
                rows([BAR_EDGES]),
                [WINDOW],
                widths_px=np.array([1.0, 2.0]),
                cap_points=False,
                threshold=OVERLAP_THRESHOLD,
            )


class TestTileBatchSpan:
    def test_span_times_the_card_not_the_recorder(self, monkeypatch):
        # A command recorder lists and digests every submitted edge; that
        # is capture cost, not gpu.tile_batch time.  The module's clock is
        # a fake one that only the recorder hook moves, by 1 000 s.
        now = [0.0]
        monkeypatch.setattr(
            tiled_module, "time", types.SimpleNamespace(perf_counter=lambda: now[0])
        )

        class SlowRecorder:
            atlas_max = None

            def on_tile_batch(self, tiled, *args):
                now[0] += 1000.0
                self.atlas_max = float(tiled.fb.color.max())

        recorder, tracer = SlowRecorder(), Tracer()
        tiled = make_tiled()
        with use_scope(recorder=recorder, tracer=tracer):
            overlap(tiled, [SQUARE_EDGES], [BAR_EDGES], [WINDOW])
        (span,) = tracer.find("gpu.tile_batch")
        assert span.duration_s < 1000.0
        assert span.attributes["edges"] == 8
        # The hook still runs after the batch: it saw the accumulated atlas.
        assert recorder.atlas_max == 1.0


class TestAtlasInspection:
    def test_read_atlas_shape(self):
        tiled = make_tiled(resolution=8, max_tiles=4)
        overlap(tiled, [SQUARE_EDGES], [BAR_EDGES], [WINDOW])
        atlas = tiled.read_atlas()
        assert atlas.shape == (tiled.fb.height, tiled.fb.width)

    def test_tile_image_isolates_one_pair(self):
        tiled = make_tiled(resolution=8, max_tiles=4)
        overlap(
            tiled,
            [SQUARE_EDGES, SQUARE_EDGES],
            [BAR_EDGES, FAR_EDGES],
            [WINDOW, WIDE_WINDOW],
        )
        crossing = tiled.tile_image(0)
        disjoint = tiled.tile_image(1)
        assert crossing.shape == (8, 8)
        assert crossing.max() >= 1.0  # both boundaries hit a pixel
        assert disjoint.max() < 1.0

    def test_tile_image_bounds(self):
        tiled = make_tiled(resolution=8, max_tiles=4)
        with pytest.raises(IndexError):
            tiled.tile_image(tiled.capacity)


# -- the data-space cull in front of the clip --------------------------------


@st.composite
def threshold_tiles(draw):
    """One tile - ``(window, width_px, edges_a, edges_b)`` - on one lattice.

    Edge endpoints sit on the lattice or *at* a threshold the clipping
    stage decides by: each side of the tile's cull box and each data-space
    coordinate the clip limit itself maps back to, exactly and one
    ``nextafter`` either way.
    """
    cells = draw(lattices)
    xs, ys = sorted([draw(cells), draw(cells)]), sorted([draw(cells), draw(cells)])
    window = Rect(xs[0], ys[0], xs[1], ys[1])
    width = draw(st.sampled_from([DEFAULT_AA_LINE_WIDTH, 1.0, 3.0, 5.0]))
    pad = width + 1.0
    (scale,), (box,) = tile_transform_loop(8, 8, [window], [pad])
    exact = (
        window.xmin - pad / scale,
        window.ymin - pad / scale,
        window.xmin + (8 + pad) / scale,
        window.ymin + (8 + pad) / scale,
    )
    thresholds = [[], []]  # x, y
    for sides in (box, exact):
        for side, t in enumerate(sides):
            if math.isfinite(t):
                thresholds[side % 2] += [
                    t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)
                ]
    x = st.one_of(cells, st.sampled_from(thresholds[0])) if thresholds[0] else cells
    y = st.one_of(cells, st.sampled_from(thresholds[1])) if thresholds[1] else cells
    edge_lists = st.lists(st.tuples(x, y, x, y), min_size=0, max_size=8).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(-1, 4)
    )
    return window, width, draw(edge_lists), draw(edge_lists)


class TestCullBeforeTransform:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(threshold_tiles(), min_size=1, max_size=4),
        st.booleans(),
        st.booleans(),
    )
    def test_cull_keeps_what_the_clip_keeps(self, tiles, per_tile_widths, caps):
        windows = [t[0] for t in tiles]
        widths = [t[1] if per_tile_widths else tiles[0][1] for t in tiles]
        sides = [t[2] for t in tiles], [t[3] for t in tiles]

        # The oracle: transform and clip *every* submitted edge, tile by
        # tile through the per-pair pipeline.
        expected_draws = [[], []]
        expected_flags = []
        totals = dict(edges_rendered=0, edges_clipped_away=0, pixels_written=0)
        for k, (window, width) in enumerate(zip(windows, widths)):
            pl = GraphicsPipeline(8)
            pl.state.line_width = pl.state.point_size = width
            pl.state.cap_points = caps
            pl.set_data_window(window)
            origin = np.array([window.xmin, window.ymin] * 2)
            masks = []
            for side, draws in zip(sides, expected_draws):
                masks.append(pl.render_coverage_mask(side[k]))
                edges = (side[k] - origin) * pl.scale
                draws.append(edges[clip_keep(edges, width + 1.0, 8, 8)])
            expected_flags.append(bool((masks[0] & masks[1]).any()))
            for name in totals:
                totals[name] += getattr(pl.counters, name)

        rasterized = []
        spied = tiled_module.edges_coverage_masks_grouped

        def spy(shape, edges, group_sizes, *args, **kwargs):
            # The draw's edges are a view of the pipeline's workspace,
            # which the next draw overwrites: keep a copy.
            rasterized.append((edges.copy(), list(group_sizes)))
            return spied(shape, edges, group_sizes, *args, **kwargs)

        tiled = make_tiled()
        tiled_module.edges_coverage_masks_grouped = spy
        try:
            flags = tiled.overlap_flags(
                rows(sides[0]),
                rows(sides[1]),
                windows,
                widths_px=np.array(widths) if per_tile_widths else widths[0],
                cap_points=caps,
                threshold=OVERLAP_THRESHOLD,
            )
        finally:
            tiled_module.edges_coverage_masks_grouped = spied

        assert flags.tolist() == expected_flags
        for name, value in totals.items():
            assert getattr(tiled.counters, name) == value, name
        # Same edges, same order, same window coordinates reach the
        # rasterizer (a draw whose edges are all clipped never calls it).
        expected = [
            (np.concatenate(draws), [len(d) for d in draws])
            for draws in expected_draws
            if sum(len(d) for d in draws)
        ]
        assert len(rasterized) == len(expected)
        for (got, got_sizes), (want, want_sizes) in zip(rasterized, expected):
            assert np.array_equal(got, want)
            assert got_sizes == want_sizes

    def test_unverifiable_side_is_not_culled(self, monkeypatch):
        # At x ~ 1e15 a pixel is below an ulp: no data-space x threshold can
        # be shown to fail the clip, so x culls nothing; y still does.
        window = Rect(1e15, 0.0, 1e15 + 0.125, 0.125)
        scale = uniform_window_scale(8, 8, window)
        pad = DEFAULT_AA_LINE_WIDTH + 1.0
        lo_x, lo_y, hi_x, hi_y = cull_boxes(
            np.array([window.xmin]), np.array([window.ymin]), np.array([scale]), pad, 8, 8
        )[:, 0]
        assert (lo_x, hi_x) == (-math.inf, math.inf)
        assert math.isfinite(lo_y) and math.isfinite(hi_y)

        far_x = np.array([[1e15 - 64.0, 0.0625, 1e15 - 32.0, 0.0625]])
        far_y = np.array([[1e15, 40.0, 1e15 + 0.125, 50.0]])
        clipped = []
        monkeypatch.setattr(
            tiled_module,
            "clip_keep",
            lambda edges, *args: clipped.append(len(edges)) or clip_keep(edges, *args),
        )
        tiled = make_tiled()
        assert overlap(tiled, [far_x], [far_y], [window]).tolist() == [False]
        assert clipped == [1, 0]  # far_x reached the clip; far_y never did
        assert tiled.counters.edges_clipped_away == 2
        assert tiled.counters.edges_rendered == 0


# -- the pipeline's workspace and the k-tile atlas assembly ------------------


def full_atlas_assembly(tiled, masks_a, masks_b):
    """The atlas and per-tile maxima the way every tile used to be built:
    a zeroed ``capacity``-tile stack, transposed into the whole atlas and
    reduced in full (the oracle of ``TiledPipeline._accumulate``)."""
    k = masks_a.shape[0]
    tiles = np.zeros(
        (tiled.capacity, tiled.tile_height, tiled.tile_width), dtype=np.float32
    )
    tiles[:k] = (masks_a.astype(np.float32) + masks_b.astype(np.float32)) * np.float32(0.5)
    grid = (tiled.grid_rows, tiled.grid_cols, tiled.tile_height, tiled.tile_width)
    atlas = tiles.reshape(grid).transpose(0, 2, 1, 3).reshape(tiled.fb.height, tiled.fb.width)
    tile_max = (
        atlas.reshape(tiled.grid_rows, tiled.tile_height, tiled.grid_cols, tiled.tile_width)
        .max(axis=(1, 3))
        .reshape(-1)[:k]
    )
    return atlas, tile_max


def random_batch(rng, tiles, edges_per_side):
    """``(edge sets a, edge sets b, windows, widths, caps)`` of one batch:
    ``tiles`` pairs of up to ``edges_per_side`` edges around one window."""
    windows, sides = [], ([], [])
    for _ in range(tiles):
        x, y = rng.uniform(-50.0, 50.0, 2)
        size = rng.choice([0.0, 0.5, 8.0, 30.0])
        windows.append(Rect(x, y, x + size, y + size * rng.uniform(0.5, 1.5)))
        for side in sides:
            n = int(rng.integers(0, edges_per_side + 1))
            start = rng.uniform([x - 4, y - 4], [x + size + 4, y + size + 4], (n, 2))
            end = start + rng.normal(0.0, size / 3 + 0.5, (n, 2))
            if n and rng.random() < 0.2:
                end[0] = start[0]  # a degenerate edge
            side.append(np.hstack([start, end]))
    widths = (
        rng.uniform(0.5, 4.0, tiles) if rng.random() < 0.5 else DEFAULT_AA_LINE_WIDTH
    )
    return sides[0], sides[1], windows, widths, bool(rng.random() < 0.5)


#: Batch shapes ``(tiles, edges per side)`` that grow and shrink the
#: workspace: more tiles than one atlas holds, then fewer and smaller ones.
SHAPES = [(3, 4), (40, 30), (1, 1), (300, 12), (7, 60), (2, 0), (60, 5)]


def run_batch(tiled, batch):
    edges_a, edges_b, windows, widths, caps = batch
    before = dataclasses.asdict(tiled.counters)
    flags = tiled.overlap_flags(
        rows(edges_a), rows(edges_b), windows, widths_px=widths,
        cap_points=caps, threshold=OVERLAP_THRESHOLD,
    )
    after = dataclasses.asdict(tiled.counters)
    delta = {name: after[name] - before[name] for name in after}
    return flags.tolist(), tiled.fb.color.tobytes(), delta


def batches(seed):
    rng = np.random.default_rng(seed)
    return [random_batch(rng, *shape) for shape in SHAPES]


class TestWorkspace:
    @pytest.mark.parametrize("budget", [None, 1], ids=["budget", "budget-1"])
    def test_a_reused_workspace_leaks_nothing(self, budget, monkeypatch):
        # Batch by batch, one pipeline (and its workspace) must answer as a
        # fresh one does: flags, the atlas bytes, the counter deltas.
        if budget is not None:
            monkeypatch.setattr(raster_bulk, "_CHUNK_BUDGET", budget)
        shared = make_tiled(max_tiles=64)
        for batch in batches(seed=44 if budget is None else 45):
            assert run_batch(shared, batch) == run_batch(make_tiled(max_tiles=64), batch)

    def test_engines_on_two_threads_match_their_serial_runs(self):
        seeds = (7, 8)
        serial = [
            [run_batch(make_tiled(max_tiles=64), b) for b in batches(seed)]
            for seed in seeds
        ]
        engines = [HardwareEngine(HardwareConfig(resolution=8, batch_tiles=64)) for _ in seeds]
        results = [[], []]

        def drive(i):
            for _ in range(3):
                results[i].append([run_batch(engines[i].hw.tiled, b) for b in batches(seeds[i])])

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for i in range(2):
            assert results[i] == [serial[i]] * 3

    @pytest.mark.parametrize("max_tiles, limit", [(256, 4096), (10, 4096), (256, 40)])
    def test_k_tile_assembly_matches_the_full_atlas(self, max_tiles, limit):
        tiled = make_tiled(max_tiles=max_tiles, limits=DeviceLimits(max_viewport=limit))
        rng = np.random.default_rng(max_tiles + limit)
        cols = tiled.grid_cols
        for k in sorted({1, cols - 1, cols, cols + 1, 2 * cols, tiled.capacity, 5} - {0}):
            k = min(k, tiled.capacity)
            shape = (k, tiled.tile_height, tiled.tile_width)
            masks_a, masks_b = rng.random(shape) < 0.3, rng.random(shape) < 0.3
            tiled.fb.color.fill(7.0)  # a stale atlas the clear must erase
            tiled.fb.clear_color()
            tile_max = tiled._accumulate(masks_a, masks_b)
            atlas, expected_max = full_atlas_assembly(tiled, masks_a, masks_b)
            assert tiled.fb.color.tobytes() == atlas.tobytes()
            assert tile_max.tobytes() == expected_max.tobytes()
