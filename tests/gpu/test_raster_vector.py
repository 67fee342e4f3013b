"""Bit-identity and fragment-routing tests for the vectorized kernels.

The vectorized polygon-fill (even-odd) kernel exists purely for
performance; its coverage mask must equal the retained pure-Python spec
loop *bit for bit* - every half-open span boundary must resolve the same
way.  The adversarial families here aim at exactly those boundaries:

* half-integer coordinates put pixel centers exactly on span edges (the
  reference's ``ceil``/``floor`` tie cases);
* degenerate segments and repeated vertices (dirty GIS rings);
* geometry entirely or partially off the buffer (clipping interplay);
* non-square buffers (row/column transposition bugs).

The fragment-routing tests pin that the card's one draw - anti-aliased
edge arrays - flows through the per-fragment pipeline, so
depth/stencil/blend/logic/color-mask state applies to the fragments the
rasterizer produced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Polygon, Rect
from repro.geometry.point_in_polygon import ring_edges
from repro.gpu import (
    GraphicsPipeline,
    polygon_fill_coverage_mask,
    rings_boundary_coverage_masks,
    scanline_row_bounds,
)
from tests.oracles.raster import brute_force_evenodd, draw_edges, polygon_coverage_mask

# Half-integer coordinates in [-4, 12]: pixel centers land exactly on
# diamond boundaries and span edges, the reference's tie-break cases.
half_coords = st.integers(min_value=-8, max_value=24).map(lambda v: v / 2.0)
# 1/8-grid coordinates (exactly representable, GIS-style).
grid_coords = st.integers(min_value=-32, max_value=96).map(lambda v: v / 8.0)
coords = st.one_of(half_coords, grid_coords)

shapes = st.sampled_from([(8, 8), (5, 9), (9, 5), (1, 7), (7, 1), (3, 3)])

edge_lists = st.lists(
    st.tuples(coords, coords, coords, coords), min_size=0, max_size=8
).map(lambda rows: np.array(rows, dtype=np.float64).reshape(-1, 4))

vertex_lists = st.lists(
    st.tuples(coords, coords), min_size=3, max_size=10
).map(lambda rows: np.array(rows, dtype=np.float64))


class TestValidation:
    def test_polygon_too_few_vertices(self):
        with pytest.raises(ValueError):
            polygon_fill_coverage_mask((4, 4), np.zeros((2, 2)))

    def test_polygon_bad_shape(self):
        with pytest.raises(ValueError):
            polygon_fill_coverage_mask((4, 4), np.zeros((4, 3)))


class TestPolygonBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(shape=shapes, vertices=vertex_lists)
    def test_matches_reference(self, shape, vertices):
        got = polygon_fill_coverage_mask(shape, vertices)
        want = polygon_coverage_mask(shape, vertices)
        assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(shape=shapes, vertices=vertex_lists)
    def test_matches_brute_force(self, shape, vertices):
        got = polygon_fill_coverage_mask(shape, vertices)
        assert np.array_equal(got, brute_force_evenodd(shape, vertices))

    def test_half_integer_vertices_exact_boundaries(self):
        # Vertices on half-integers: every span boundary coincides with a
        # pixel center, the reference's exact-tie step-down cases.
        square = np.array([[1.5, 1.5], [6.5, 1.5], [6.5, 6.5], [1.5, 6.5]])
        got = polygon_fill_coverage_mask((8, 8), square)
        want = polygon_coverage_mask((8, 8), square)
        assert np.array_equal(got, want)
        assert np.array_equal(got, brute_force_evenodd((8, 8), square))
        # Half-open [1.5, 6.5) spans: columns/rows 1..5 inclusive.
        expect = np.zeros((8, 8), dtype=bool)
        expect[1:6, 1:6] = True
        assert np.array_equal(got, expect)

    def test_self_intersecting_bowtie(self):
        bowtie = np.array([[0.0, 0.0], [6.0, 6.0], [6.0, 0.0], [0.0, 6.0]])
        got = polygon_fill_coverage_mask((8, 8), bowtie)
        assert np.array_equal(got, polygon_coverage_mask((8, 8), bowtie))

    def test_polygon_larger_than_buffer(self):
        # All edges off-buffer, interior covers everything.
        big = np.array([[-10.0, -10.0], [20.0, -10.0], [20.0, 20.0], [-10.0, 20.0]])
        got = polygon_fill_coverage_mask((6, 6), big)
        assert got.all()
        assert np.array_equal(got, polygon_coverage_mask((6, 6), big))

    def test_duplicate_vertices(self):
        ring = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 1.0], [5.0, 5.0], [1.0, 5.0]])
        got = polygon_fill_coverage_mask((8, 8), ring)
        assert np.array_equal(got, polygon_coverage_mask((8, 8), ring))

    def test_index_build_stars(self):
        # Twelve fixed star polygons the size the interior/interval index
        # builds fill: (buffer side, vertex count) per group of four.
        rng = np.random.default_rng(13)
        for n, v in [(32, 24), (64, 48), (128, 64)]:
            for _ in range(4):
                angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=v))
                radii = rng.uniform(0.2, 0.55, size=v) * n
                rays = np.stack([np.cos(angles), np.sin(angles)], axis=1)
                star = n / 2.0 + radii[:, None] * rays
                got = polygon_fill_coverage_mask((n, n), star)
                assert np.array_equal(got, polygon_coverage_mask((n, n), star))


def ring_boundary_coverage_mask(shape, vertices, width_px):
    """The boundary kernel on a batch of one ring."""
    return rings_boundary_coverage_masks([shape], [vertices], width_px)[0]


class TestRingBoundary:
    """The localized ring-boundary kernel vs the serial AA loop.

    Grid-aligned vertices keep the kernel's integer bbox translation exact
    in float64, so the masks are bit-identical to the per-edge serial
    rasterizer (for arbitrary floats the kernel stays conservative within
    the shared COVERAGE_EPS slack).
    """

    @staticmethod
    def serial(shape, arr, width_px):
        return draw_edges(shape, ring_edges(np.asarray(arr, dtype=np.float64)), width_px)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=shapes,
        vertices=vertex_lists,
        width=st.sampled_from([1e-9, 0.5, 1.5]),
    )
    def test_matches_serial_loop(self, shape, vertices, width):
        got = ring_boundary_coverage_mask(shape, vertices, width)
        assert np.array_equal(got, self.serial(shape, vertices, width))

    def test_long_ring_spans_groups(self):
        # More vertices than one locality group: exercises the per-arc
        # bounding boxes and the OR-composition across groups.
        t = np.linspace(0.0, 2.0 * np.pi, 120, endpoint=False)
        ring = np.stack(
            [16.0 + 12.0 * np.cos(t), 16.0 + 12.0 * np.sin(t)], axis=1
        )
        ring = np.round(ring * 8.0) / 8.0
        got = ring_boundary_coverage_mask((32, 32), ring, 1e-9)
        assert np.array_equal(got, self.serial((32, 32), ring, 1e-9))

    def test_off_buffer_ring(self):
        ring = np.array([[-20.0, -20.0], [-10.0, -20.0], [-15.0, -10.0]])
        assert not ring_boundary_coverage_mask((8, 8), ring, 1.0).any()


class TestScanlineRowBounds:
    def test_exact_half_integer_top_excluded(self):
        # ymax = 4.5 puts scanline yc = 4.5 exactly at the top: excluded
        # by the half-open rule, so the tight bound stops at row 3.
        assert scanline_row_bounds(1.5, 4.5, 8) == (1, 3)

    def test_exact_half_integer_bottom_included(self):
        # ymin = 1.5: scanline yc = 1.5 (row 1) satisfies ymin <= yc.
        j_min, _ = scanline_row_bounds(1.5, 6.0, 8)
        assert j_min == 1

    def test_fractional_bounds(self):
        assert scanline_row_bounds(1.2, 4.8, 8) == (1, 4)

    def test_clamps_to_buffer(self):
        assert scanline_row_bounds(-10.0, 100.0, 8) == (0, 7)

    def test_empty_when_above_buffer(self):
        j_min, j_max = scanline_row_bounds(10.0, 12.0, 8)
        assert j_min > j_max

    def test_no_row_outside_bounds_ever_fills(self):
        # The row above the tight bound is provably empty: thin slab whose
        # ymax sits exactly on a scanline.
        slab = np.array([[0.0, 2.5], [8.0, 2.5], [8.0, 4.5], [0.0, 4.5]])
        got = polygon_fill_coverage_mask((8, 8), slab)
        assert not got[4].any()  # yc = 4.5 == ymax: excluded
        assert got[2].any() and got[3].any()


class TestFragmentRouting:
    """The edge draw honors the full fragment pipeline."""

    @pytest.mark.parametrize("draw", ["aa_lines"])
    def test_color_write_false_writes_nothing(self, draw):
        pl = GraphicsPipeline(16)
        pl.set_data_window(Rect(0.0, 0.0, 16.0, 16.0))
        pl.clear_color(0.0)
        pl.state.color_write = False
        self._draw(pl, draw)
        assert not pl.fb.color.any()
        # Fragments still count as written (they ran the pipeline).
        assert pl.counters.pixels_written > 0

    @pytest.mark.parametrize("draw", ["aa_lines"])
    def test_depth_test_discards_everything(self, draw):
        pl = GraphicsPipeline(16)
        pl.set_data_window(Rect(0.0, 0.0, 16.0, 16.0))
        pl.clear_color(0.0)
        pl.clear_depth(1.0)
        pl.state.depth_test = "equal"
        pl.state.depth_value = 0.25  # matches nothing in the cleared buffer
        self._draw(pl, draw)
        assert not pl.fb.color.any()
        assert pl.counters.pixels_written == 0

    @pytest.mark.parametrize("draw", ["aa_lines"])
    def test_stencil_increments_once_per_fragment(self, draw):
        pl = GraphicsPipeline(16)
        pl.set_data_window(Rect(0.0, 0.0, 16.0, 16.0))
        pl.clear_color(0.0)
        pl.clear_stencil(0)
        pl.state.stencil_op = "incr"
        self._draw(pl, draw)
        # One draw call: each covered pixel is a single fragment, so the
        # stencil plane is exactly the 0/1 coverage and pixels_written is
        # its population count (no double counting anywhere).
        assert set(np.unique(pl.fb.stencil)) <= {0, 1}
        assert int(pl.fb.stencil.sum()) == pl.counters.pixels_written

    @pytest.mark.parametrize("draw", ["aa_lines"])
    def test_blend_accumulates(self, draw):
        pl = GraphicsPipeline(16)
        pl.set_data_window(Rect(0.0, 0.0, 16.0, 16.0))
        pl.clear_color(0.0)
        pl.state.blend = True
        pl.state.color = 0.5
        self._draw(pl, draw)
        self._draw(pl, draw)  # same geometry twice: covered pixels sum to 1.0
        covered = pl.fb.color > 0.0
        assert covered.any()
        assert np.allclose(pl.fb.color[covered], 1.0)

    @pytest.mark.parametrize("draw", ["aa_lines"])
    def test_logic_or_sets_bits(self, draw):
        pl = GraphicsPipeline(16)
        pl.set_data_window(Rect(0.0, 0.0, 16.0, 16.0))
        pl.clear_color(0.0)
        pl.state.logic_op = "or"
        pl.state.color = 2.0
        self._draw(pl, draw)
        pl.state.color = 1.0
        self._draw(pl, draw)  # same geometry: bits OR to 3
        covered = pl.fb.color > 0.0
        assert covered.any()
        assert np.array_equal(
            np.unique(pl.fb.color[covered]), np.array([3.0], dtype=np.float32)
        )

    @staticmethod
    def _draw(pl, kind):
        assert kind == "aa_lines"
        pl.draw_edges_array(
            Polygon([(2.1, 2.2), (12.3, 3.1), (7.7, 11.9)]).edges_array
        )


class TestCounterIdentities:
    def test_pixels_written_is_distinct_fragments_for_every_type(self):
        # Uniform semantics: pixels_written counts the distinct fragments
        # that survived fragment ops.
        pl = GraphicsPipeline(16)
        pl.set_data_window(Rect(0.0, 0.0, 16.0, 16.0))
        pl.clear_color(0.0)
        TestFragmentRouting._draw(pl, "aa_lines")
        assert pl.counters.pixels_written == int(np.count_nonzero(pl.fb.color))
