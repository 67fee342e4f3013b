"""Unit and property tests for segment metrics."""

import math

from hypothesis import given

from repro.geometry import Point, segments_intersect
from tests.oracles.geometry import point_segment_distance, segment_segment_distance
from tests.strategies import points, segments


class TestPointSegmentDistance:
    def test_projection_inside(self):
        assert point_segment_distance(Point(1, 1), Point(0, 0), Point(2, 0)) == 1.0

    def test_clamped_to_endpoint(self):
        assert point_segment_distance(Point(5, 0), Point(0, 0), Point(2, 0)) == 3.0
        assert point_segment_distance(Point(-3, 4), Point(0, 0), Point(2, 0)) == 5.0

    def test_point_on_segment_is_zero(self):
        assert point_segment_distance(Point(1, 0), Point(0, 0), Point(2, 0)) == 0.0

    def test_degenerate_segment(self):
        assert point_segment_distance(Point(3, 4), Point(0, 0), Point(0, 0)) == 5.0

    @given(points, segments())
    def test_bounded_by_endpoint_distances(self, p, s):
        d = point_segment_distance(p, *s)
        assert d <= math.dist(p, s[0]) + 1e-9
        assert d <= math.dist(p, s[1]) + 1e-9
        assert d >= 0.0


class TestSegmentSegmentDistance:
    def test_intersecting_is_zero(self):
        assert (
            segment_segment_distance(Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0))
            == 0.0
        )

    def test_parallel_horizontal(self):
        assert (
            segment_segment_distance(Point(0, 0), Point(2, 0), Point(0, 3), Point(2, 3))
            == 3.0
        )

    def test_endpoint_to_interior(self):
        assert (
            segment_segment_distance(Point(0, 0), Point(4, 0), Point(2, 1), Point(2, 5))
            == 1.0
        )

    def test_skewed_endpoints(self):
        assert (
            segment_segment_distance(Point(0, 0), Point(1, 0), Point(4, 4), Point(7, 4))
            == 5.0
        )

    @given(segments(), segments())
    def test_symmetric(self, s1, s2):
        assert segment_segment_distance(*s1, *s2) == segment_segment_distance(
            *s2, *s1
        )

    @given(segments(), segments())
    def test_zero_iff_intersect(self, s1, s2):
        d = segment_segment_distance(*s1, *s2)
        assert (d == 0.0) == segments_intersect(*s1, *s2)

    @given(segments(), segments())
    def test_lower_bounds_endpoint_distances(self, s1, s2):
        d = segment_segment_distance(*s1, *s2)
        for p in s1:
            for q in s2:
                assert d <= math.dist(p, q) + 1e-9
