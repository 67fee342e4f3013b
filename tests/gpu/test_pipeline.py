"""Tests for the GraphicsPipeline: projection, state, limits, counters."""

import math

import numpy as np
import pytest

from repro.geometry import Polygon, Rect
from repro.gpu import DeviceLimits, GraphicsPipeline


class TestConstruction:
    def test_square_default(self):
        pl = GraphicsPipeline(8)
        assert pl.width == 8 and pl.height == 8

    def test_rectangular(self):
        pl = GraphicsPipeline(8, 4)
        assert pl.width == 8 and pl.height == 4

    def test_viewport_limit(self):
        with pytest.raises(ValueError):
            GraphicsPipeline(4096)

    def test_min_size(self):
        with pytest.raises(ValueError):
            GraphicsPipeline(0)


class TestProjection:
    def test_uniform_scale_uses_long_side(self):
        pl = GraphicsPipeline(8)
        pl.set_data_window(Rect(0, 0, 16, 4))
        assert pl.scale == 0.5  # 8 px over 16 units
        assert pl.data_to_window(16, 4) == (8.0, 2.0)

    def test_offset_maps_min_corner_to_origin(self):
        pl = GraphicsPipeline(8)
        pl.set_data_window(Rect(-2, 3, 6, 11))
        assert pl.data_to_window(-2, 3) == (0.0, 0.0)

    def test_degenerate_window_scale_one(self):
        pl = GraphicsPipeline(8)
        pl.set_data_window(Rect(5, 5, 5, 5))
        assert pl.scale == 1.0
        assert pl.data_to_window(5, 5) == (0.0, 0.0)

    def test_distance_to_pixels(self):
        pl = GraphicsPipeline(16)
        pl.set_data_window(Rect(0, 0, 4, 4))
        assert pl.distance_to_pixels(1.0) == 4.0


class TestDrawAndCounters:
    def test_draw_updates_counters(self):
        pl = GraphicsPipeline(8)
        pl.set_data_window(Rect(0, 0, 8, 8))
        pl.draw_edges_array(Polygon([(1, 1), (6, 1), (6, 6), (1, 6)]).edges_array)
        assert pl.counters.draw_calls == 1
        assert pl.counters.edges_rendered == 4
        assert pl.counters.pixels_written > 0

    def test_clipping_counts_rejected_edges(self):
        pl = GraphicsPipeline(8)
        pl.set_data_window(Rect(0, 0, 8, 8))
        # Square far outside the window.
        far = Polygon([(100, 100), (105, 100), (105, 105), (100, 105)])
        pl.draw_edges_array(far.edges_array)
        assert pl.counters.edges_rendered == 0
        assert pl.counters.edges_clipped_away == 4
        assert pl.fb.color.sum() == 0.0

    def test_open_chain_has_n_minus_1_edges(self):
        pl = GraphicsPipeline(8)
        pl.set_data_window(Rect(0, 0, 8, 8))
        pl.draw_edges_array(np.array([[1.0, 1.0, 6.0, 1.0], [6.0, 1.0, 6.0, 6.0]]))
        assert pl.counters.edges_rendered + pl.counters.edges_clipped_away == 2

    def test_draw_edges_array_equivalent_to_coords(self):
        coords = [(1.0, 1.0), (6.0, 1.0), (6.0, 6.0), (1.0, 6.0)]
        pl1 = GraphicsPipeline(8)
        pl1.set_data_window(Rect(0, 0, 8, 8))
        pl1.draw_edges_array(Polygon(coords).edges_array)
        pl2 = GraphicsPipeline(8)
        pl2.set_data_window(Rect(0, 0, 8, 8))
        arr = np.array(coords)
        edges = np.hstack([np.roll(arr, 1, axis=0), arr])
        pl2.draw_edges_array(edges)
        assert np.array_equal(pl1.fb.color, pl2.fb.color)

    def test_bad_coords_rejected(self):
        pl = GraphicsPipeline(8)
        with pytest.raises(ValueError):
            pl.draw_edges_array(np.array([[1.0, 1.0]]))  # vertices, not edges

    def test_minmax_counts_scanned_pixels(self):
        pl = GraphicsPipeline(4)
        pl.minmax("color")
        assert pl.counters.minmax_ops == 1
        assert pl.counters.pixels_scanned == 16

    def test_read_pixels_counts_transfer(self):
        pl = GraphicsPipeline(4)
        pl.read_pixels("color")
        assert pl.counters.readback_ops == 1
        assert pl.counters.pixels_transferred == 16

    def test_clear_counters(self):
        pl = GraphicsPipeline(4)
        pl.clear_color()
        pl.clear_accum()
        assert pl.counters.buffer_clears == 2
        assert pl.counters.pixels_cleared == 32


class TestDeviceLimits:
    def test_aa_width_limit_enforced(self):
        pl = GraphicsPipeline(8)
        pl.state.line_width = 11.0  # above the GeForce4-era limit of 10
        with pytest.raises(ValueError):
            pl.draw_edges_array(Polygon([(0, 0), (1, 0), (1, 1)]).edges_array)

    def test_point_size_limit_enforced(self):
        pl = GraphicsPipeline(8)
        pl.state.point_size = 20.0
        with pytest.raises(ValueError):
            pl.draw_edges_array(Polygon([(0, 0), (1, 0), (1, 1)]).edges_array)

    def test_custom_limits(self):
        limits = DeviceLimits(max_aa_line_width=64.0, max_point_size=64.0)
        pl = GraphicsPipeline(8, limits=limits)
        pl.state.line_width = 32.0
        pl.state.point_size = 32.0
        pl.set_data_window(Rect(0, 0, 8, 8))
        pl.draw_edges_array(Polygon([(0, 0), (4, 0), (4, 4)]).edges_array)  # must not raise

    def test_supports_line_width(self):
        limits = DeviceLimits()
        assert limits.supports_line_width(10.0)
        assert not limits.supports_line_width(10.5)
        assert not limits.supports_line_width(0.0)

    def test_scale_and_window_roundtrip(self):
        pl = GraphicsPipeline(16)
        window = Rect(2, 3, 10, 7)
        pl.set_data_window(window)
        assert pl.window == window
        x, y = pl.data_to_window(6.0, 5.0)
        assert math.isclose(x, (6.0 - 2.0) * pl.scale)
        assert math.isclose(y, (5.0 - 3.0) * pl.scale)


class TestNonSquareProjection:
    """Regression: the uniform scale must fit the window in BOTH axes.

    The historical formula ``max(width, height) / max-span`` ignored which
    viewport axis was binding, so on non-square viewports part of the data
    window could project outside the pixel grid.  Geometry lost there is
    lost for *both* rendered boundaries, so the overlap search could miss a
    real crossing and report a false DISJOINT.
    """

    def test_short_axis_binds_scale(self):
        pl = GraphicsPipeline(8, 4)
        pl.set_data_window(Rect(0, 0, 8, 8))
        # The old formula gave max(8, 4) / 8 = 1.0, pushing y in [4, 8)
        # above the 4-pixel-high viewport.
        assert pl.scale == 0.5
        assert pl.data_to_window(8.0, 8.0) == (4.0, 4.0)

    def test_window_corners_stay_inside_viewport(self):
        for w, h in [(16, 4), (4, 16), (8, 3), (3, 8)]:
            pl = GraphicsPipeline(w, h)
            window = Rect(-3.0, -2.0, 13.0, 5.0)
            pl.set_data_window(window)
            for x, y in [
                (window.xmin, window.ymin),
                (window.xmax, window.ymax),
                (window.xmin, window.ymax),
                (window.xmax, window.ymin),
            ]:
                wx, wy = pl.data_to_window(x, y)
                assert 0.0 <= wx <= pl.width
                assert 0.0 <= wy <= pl.height

    def test_degenerate_axis_imposes_no_constraint(self):
        pl = GraphicsPipeline(8, 4)
        pl.set_data_window(Rect(0, 0, 4, 0))  # zero-height window
        assert pl.scale == 2.0  # bound by x only
        pl.set_data_window(Rect(0, 0, 0, 0))
        assert pl.scale == 1.0

    def test_square_viewport_matches_historical_formula(self):
        # min(n/a, n/b) == n/max(a, b) for positive spans, so the fix is
        # bit-identical on the square viewports every existing result used.
        for res in (1, 4, 8, 32):
            for window in [Rect(0, 0, 10, 5), Rect(-2, 1, 3, 9), Rect(0, 0, 7, 7)]:
                pl = GraphicsPipeline(res, res)
                pl.set_data_window(window)
                got = pl.scale
                historical = res / max(window.width, window.height)
                assert got == historical

    def test_no_false_disjoint_on_non_square_viewport(self):
        # Two boundaries crossing in the upper half of a square data window
        # rendered on a wide, short viewport.  Under the old scale (1.0)
        # the crossing at y~6 projected to row ~6 of a 4-row viewport:
        # clipped for both boundaries, overlap never seen -> false DISJOINT.
        pl = GraphicsPipeline(8, 4)
        pl.set_data_window(Rect(0, 0, 8, 8))
        edges_a = np.array([[1.0, 6.0, 7.0, 6.0]])  # horizontal at y=6
        edges_b = np.array([[4.0, 5.0, 4.0, 7.0]])  # vertical at x=4
        mask_a = pl.render_coverage_mask(edges_a)
        mask_b = pl.render_coverage_mask(edges_b)
        assert (mask_a & mask_b).any()
        assert pl.counters.edges_clipped_away == 0
