"""Tests for the hardware segment intersection / proximity test.

The central property: the hardware test NEVER answers DISJOINT for a pair
whose boundaries actually intersect (or lie within D) - that would be a
false negative, breaking the exactness of Algorithm 3.1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HardwareConfig, HardwareSegmentTest, HardwareVerdict
from repro.core.projection import distance_window, intersection_window
from repro.geometry import Polygon
from repro.gpu import pipeline, tiled
from repro.gpu.pipeline import placed_rows
from tests.oracles.geometry import (
    boundaries_intersect_brute_force,
    boundary_distance_brute_force,
)
from tests.oracles.mutants import ANY_FLAG_PLACED, mutant
from tests.strategies import polygon_pairs_nearby

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
SHIFTED = Polygon.from_coords([(2, 2), (6, 2), (6, 6), (2, 6)])
INNER = Polygon.from_coords([(1, 1), (3, 1), (3, 3), (1, 3)])


def make_test(resolution=8, **kwargs) -> HardwareSegmentTest:
    return HardwareSegmentTest(HardwareConfig(resolution=resolution, **kwargs))


class TestIntersectionVerdict:
    def test_crossing_boundaries_maybe(self):
        hw = make_test()
        w = intersection_window(SQUARE.mbr, SHIFTED.mbr)
        assert hw.intersection_verdict(SQUARE, SHIFTED, w) is HardwareVerdict.MAYBE

    def test_contained_boundaries_disjoint(self):
        """Containment leaves no overlapping boundary pixels (that's why
        Algorithm 3.1 needs the point-in-polygon step)."""
        hw = make_test(resolution=32)
        w = intersection_window(SQUARE.mbr, INNER.mbr)
        assert hw.intersection_verdict(SQUARE, INNER, w) is HardwareVerdict.DISJOINT

    # Two triangles flanking the main diagonal: boundaries run through the
    # whole shared window, never closer than ~0.7 units.  This is the
    # "closely located but not intersecting" configuration of section 4.2.
    BELOW_DIAG = Polygon.from_coords([(0, 0), (8, 0), (8, 8)])
    ABOVE_DIAG = Polygon.from_coords([(0, 1), (7, 8), (0, 8)])

    def test_near_miss_filtered_at_high_resolution(self):
        a, b = self.BELOW_DIAG, self.ABOVE_DIAG
        assert not boundaries_intersect_brute_force(a, b)
        w = intersection_window(a.mbr, b.mbr)
        assert w is not None
        hw = make_test(resolution=32)
        # At 32x32 the gap spans several pixels: provable disjointness.
        assert hw.intersection_verdict(a, b, w) is HardwareVerdict.DISJOINT

    def test_low_resolution_cannot_separate(self):
        """At 1x1 everything in the window collides: no filtering power."""
        a, b = self.BELOW_DIAG, self.ABOVE_DIAG
        w = intersection_window(a.mbr, b.mbr)
        hw = make_test(resolution=1)
        assert hw.intersection_verdict(a, b, w) is HardwareVerdict.MAYBE

    @settings(max_examples=150, deadline=None)
    @given(polygon_pairs_nearby())
    def test_never_false_negative(self, pair):
        """THE correctness property (paper section 3.1)."""
        a, b = pair
        w = intersection_window(a.mbr, b.mbr)
        if w is None:
            return
        hw = make_test(resolution=8)
        verdict = hw.intersection_verdict(a, b, w)
        if boundaries_intersect_brute_force(a, b):
            assert verdict is HardwareVerdict.MAYBE

    @settings(max_examples=60, deadline=None)
    @given(polygon_pairs_nearby(), st.sampled_from([1, 2, 4, 16, 32]))
    def test_never_false_negative_any_resolution(self, pair, resolution):
        a, b = pair
        w = intersection_window(a.mbr, b.mbr)
        if w is None:
            return
        hw = make_test(resolution=resolution)
        verdict = hw.intersection_verdict(a, b, w)
        if boundaries_intersect_brute_force(a, b):
            assert verdict is HardwareVerdict.MAYBE


class TestDistanceVerdict:
    def test_within_distance_maybe(self):
        a = SQUARE
        b = Polygon.from_coords([(6, 0), (8, 0), (8, 4), (6, 4)])  # gap = 2
        hw = make_test()
        w = distance_window(a.mbr, b.mbr, 2.5)
        assert hw.distance_verdict(a, b, w, 2.5) is HardwareVerdict.MAYBE

    def test_far_apart_disjoint(self):
        a = SQUARE
        b = Polygon.from_coords([(20, 0), (22, 0), (22, 4), (20, 4)])  # gap 16
        hw = make_test(resolution=16)
        w = distance_window(a.mbr, b.mbr, 1.0)
        assert hw.distance_verdict(a, b, w, 1.0) is HardwareVerdict.DISJOINT

    def test_zero_distance_falls_back_to_intersection(self):
        hw = make_test()
        w = intersection_window(SQUARE.mbr, SHIFTED.mbr)
        assert hw.distance_verdict(SQUARE, SHIFTED, w, 0.0) is HardwareVerdict.MAYBE

    def test_negative_distance_rejected(self):
        hw = make_test()
        with pytest.raises(ValueError):
            hw.distance_verdict(SQUARE, SHIFTED, SQUARE.mbr, -1.0)

    def test_width_limit_unsupported(self):
        """Section 4.4: Equation (1) width beyond 10px -> fallback."""
        a = Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon.from_coords([(3, 0), (4, 0), (4, 1), (3, 1)])
        hw = make_test(resolution=32)
        d = 4.0  # window span = 1 + 2*4 = 9; width = ceil(4 * 32/9) = 15 > 10
        w = distance_window(a.mbr, b.mbr, d)
        assert hw.distance_verdict(a, b, w, d) is HardwareVerdict.UNSUPPORTED

    def test_required_line_width_matches_equation(self):
        hw = make_test(resolution=8)
        from repro.geometry import Rect

        w = Rect(0, 0, 10, 5)
        # ceil(2.6 * 8 / 10) = ceil(2.08) = 3
        assert hw.required_line_widths([w], 2.6) == [3.0]

    @settings(max_examples=100, deadline=None)
    @given(polygon_pairs_nearby(), st.integers(1, 24))
    def test_never_false_negative_within_distance(self, pair, d_quarters):
        a, b = pair
        d = d_quarters / 4.0
        hw = make_test(resolution=8)
        w = distance_window(a.mbr, b.mbr, d)
        verdict = hw.distance_verdict(a, b, w, d)
        if verdict is HardwareVerdict.UNSUPPORTED:
            return
        if boundary_distance_brute_force(a, b) <= d:
            assert verdict is HardwareVerdict.MAYBE


class TestOverlapImage:
    def test_image_shows_overlap_levels(self):
        hw = make_test(resolution=8)
        w = intersection_window(SQUARE.mbr, SHIFTED.mbr)
        img = hw.overlap_image(SQUARE, SHIFTED, w)
        values = set(np.unique(img))
        assert values <= {np.float32(0.0), np.float32(0.5), np.float32(1.0)}
        assert np.float32(1.0) in values

    def test_counters_accumulate(self):
        hw = make_test()
        w = intersection_window(SQUARE.mbr, SHIFTED.mbr)
        hw.intersection_verdict(SQUARE, SHIFTED, w)
        c = hw.pipeline.counters
        assert c.draw_calls == 2
        assert c.minmax_ops == 1
        assert c.accum_ops == 3  # two adds + one return
        assert c.buffer_clears == 3  # color, accum, color-between-renders


class TestOverlapImageMethodIndependence:
    """Regression: overlap_image used to dispatch through config.method, so
    'stencil' returned a stale color buffer and 'logic'/'depth' returned a
    differently encoded image.  The accumulation rendering is now forced."""

    @pytest.mark.parametrize(
        "method", ["accum", "blend", "logic", "depth", "stencil"]
    )
    def test_accum_encoding_for_every_method(self, method):
        hw = make_test(resolution=8, method=method)
        w = intersection_window(SQUARE.mbr, SHIFTED.mbr)
        img = hw.overlap_image(SQUARE, SHIFTED, w)
        values = set(np.unique(img))
        assert values <= {np.float32(0.0), np.float32(0.5), np.float32(1.0)}
        assert np.float32(1.0) in values  # the boundaries do overlap

    def test_stencil_image_matches_accum_image(self):
        w = intersection_window(SQUARE.mbr, SHIFTED.mbr)
        img_accum = make_test(method="accum").overlap_image(SQUARE, SHIFTED, w)
        img_stencil = make_test(method="stencil").overlap_image(
            SQUARE, SHIFTED, w
        )
        assert np.array_equal(img_accum, img_stencil)


class TestRasterStateRestoration:
    """Regression: a widened distance test leaked line_width/point_size/
    cap_points into the shared pipeline state, so direct GraphicsPipeline
    users inherited the widened footprint."""

    def test_distance_test_restores_raster_state(self):
        hw = make_test(resolution=16)
        st = hw.pipeline.state
        saved = (st.line_width, st.point_size, st.cap_points)
        w = distance_window(SQUARE.mbr, SHIFTED.mbr, 2.0)
        # A positive distance within device limits widens the lines and
        # enables point caps inside the test ...
        assert hw.required_line_widths([w], 2.0)[0] > 1
        verdict = hw.distance_verdict(SQUARE, SHIFTED, w, 2.0)
        assert verdict is not HardwareVerdict.UNSUPPORTED
        # ... but none of it may leak out.
        assert (st.line_width, st.point_size, st.cap_points) == saved
        assert st.blend is False
        assert st.logic_op is None
        assert st.color_write is True
        assert st.stencil_op is None
        assert st.depth_write is False
        assert st.depth_test is None

    @pytest.mark.parametrize(
        "method", ["accum", "blend", "logic", "depth", "stencil"]
    )
    def test_intersection_test_restores_state_all_methods(self, method):
        hw = make_test(resolution=8, method=method)
        st = hw.pipeline.state
        saved = (st.line_width, st.point_size, st.cap_points, st.color)
        hw.intersection_verdict(SQUARE, SHIFTED, intersection_window(SQUARE.mbr, SHIFTED.mbr))
        assert (st.line_width, st.point_size, st.cap_points, st.color) == saved
        assert st.color_write is True and st.stencil_op is None


# -- edges the viewport transform cannot place -------------------------------

TINY = 1e-308
#: Boundaries crossing at (0, TINY) and (TINY, 0); both window extents are
#: below 8 / DBL_MAX, so the window's scale is infinite.
INF_SCALE = (
    Polygon.from_coords([(-1, -1), (TINY, -1), (TINY, TINY), (-1, TINY)]),
    Polygon.from_coords([(1, 0), (1, 1), (0, 1), (0, 0)]),
)


def _long_edge_through(t):
    """The square ``[0, t]^2`` and a triangle whose long edge crosses it at
    ``y = t / 2``: at a scale of ``8 / t`` that edge's ends overflow."""
    return (
        Polygon.from_coords([(-1e8, t / 2), (1e8, t / 2), (0, 1e8)]),
        Polygon.from_coords([(t, 0), (t, t), (0, t), (0, 0)]),
    )


class TestUnplacedEdges:
    """A tile whose culled-in edges have a window coordinate that is not
    finite is not decided by the raster: MAYBE, so the software step
    decides."""

    @pytest.mark.parametrize(
        "pair",
        [INF_SCALE, _long_edge_through(1e-300), _long_edge_through(1e-290)],
        ids=["infinite-scale", "overflowing-edge", "finite-edge"],
    )
    @pytest.mark.parametrize("method", ["accum", "blend", "logic", "depth", "stencil"])
    def test_crossing_boundaries_are_never_disjoint(self, pair, method):
        from repro.core import HardwareEngine, SoftwareEngine

        a, b = pair
        assert SoftwareEngine().refine("intersect", [(0, a, b)]) == [0]
        config = HardwareConfig(resolution=8, method=method)
        assert HardwareEngine(config).refine("intersect", [(0, a, b)]) == [0]
        hw = HardwareSegmentTest(config)
        w = intersection_window(a.mbr, b.mbr)
        assert hw.intersection_verdict(a, b, w) is HardwareVerdict.MAYBE
        assert hw.intersection_verdicts_batch([(a, b, w)]) == [HardwareVerdict.MAYBE]

    def test_distance_field_is_not_decided_by_the_raster(self):
        a, b = INF_SCALE
        hw = make_test(distance_mode="field")
        w = intersection_window(a.mbr, b.mbr)
        assert hw.distance_field_verdict(a, b, w, 0.5) is HardwareVerdict.MAYBE

    def test_one_overflowing_tile_among_many(self):
        """One atlas batch of 24 tiles, one of which holds an edge that
        overflows: that tile alone reads unplaced (MAYBE), and every other
        verdict and the drawn-edge counters equal the per-pair path's."""
        pairs = [
            (SQUARE.translated(10.0 * k, 0.0), other.translated(10.0 * k, 0.0))
            for k, other in enumerate([SHIFTED, INNER, SQUARE] * 8)
        ]
        pairs[13] = _long_edge_through(1e-300)
        items = [(a, b, intersection_window(a.mbr, b.mbr)) for a, b in pairs]
        per_pair, batch = make_test(), make_test()
        expected, unplaced = [], []
        for a, b, w in items:
            expected.append(per_pair.intersection_verdict(a, b, w))
            unplaced.append(per_pair.pipeline.unplaced_edges > 0)
        assert unplaced == [k == 13 for k in range(24)]
        assert expected[13] is HardwareVerdict.MAYBE
        assert HardwareVerdict.DISJOINT in expected
        assert batch.intersection_verdicts_batch(items) == expected
        assert batch.pipeline.counters.tile_batches == 1
        for name in ("edges_rendered", "edges_clipped_away"):
            assert getattr(per_pair.pipeline.counters, name) == getattr(
                batch.pipeline.counters, name
            ), name

    def test_placed_reads_all_four_coordinates(self):
        """Every pattern of finite and overflowed coordinates: a row is
        placed only when all four are finite."""
        patterns = np.array(
            [[(k >> bit) & 1 for bit in range(4)] for k in range(16)], dtype=bool
        )
        rows = np.where(patterns, 1.0, np.inf)
        rows[1::3] = np.where(patterns[1::3], 2.0, np.nan)
        assert placed_rows(rows).tolist() == patterns.all(axis=1).tolist()

    def test_the_any_flag_mutant_is_killed(self, monkeypatch):
        """Read as placed when one coordinate is finite, the overflowing edge
        is drawn and draws nothing: both paths call the crossing pair
        DISJOINT, which ``test_crossing_boundaries_are_never_disjoint``
        forbids."""
        edited = mutant(pipeline, *ANY_FLAG_PLACED).placed_rows
        monkeypatch.setattr(pipeline, "placed_rows", edited)
        monkeypatch.setattr(tiled, "placed_rows", edited)
        a, b = _long_edge_through(1e-300)
        w = intersection_window(a.mbr, b.mbr)
        hw = make_test()
        with np.errstate(invalid="ignore"):
            assert hw.intersection_verdict(a, b, w) is HardwareVerdict.DISJOINT
            assert hw.intersection_verdicts_batch([(a, b, w)]) == [HardwareVerdict.DISJOINT]

    def test_an_unplaced_edge_outside_the_cull_box_decides_nothing(self):
        """A far edge that overflows is culled by the atlas, so the per-pair
        pipeline must not count it either: verdicts and counters agree."""
        t = 1e-300
        square = Polygon.from_coords([(t, 0), (t, t), (0, t), (0, 0)])
        far = Polygon.from_coords([(1e9, 1e9), (2e9, 1e9), (2e9, 2e9)])
        w = intersection_window(square.mbr, square.mbr)
        per_pair, batch = make_test(), make_test()
        assert per_pair.intersection_verdict(square, far, w) is HardwareVerdict.DISJOINT
        assert per_pair.pipeline.unplaced_edges == 0
        assert batch.intersection_verdicts_batch([(square, far, w)]) == [HardwareVerdict.DISJOINT]
        for name in ("edges_rendered", "edges_clipped_away"):
            assert getattr(per_pair.pipeline.counters, name) == getattr(
                batch.pipeline.counters, name
            ), name
