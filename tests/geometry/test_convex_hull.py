"""Tests for the monotone-chain convex hull."""

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, PointLocation, Polygon, convex_hull, cross
from tests.oracles.geometry import locate_point_by_sampling
from tests.strategies import points


class TestKnownCases:
    def test_square_with_interior_point(self):
        pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(1, 1)]
        hull = convex_hull(pts)
        assert set(hull) == {Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)}
        assert len(hull) == 4

    def test_collinear_points_dropped(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        hull = convex_hull(pts)
        assert Point(1, 0) not in hull

    def test_all_collinear_two_extremes(self):
        pts = [Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3)]
        hull = convex_hull(pts)
        assert hull == [Point(0, 0), Point(3, 3)]

    def test_duplicates_removed(self):
        pts = [Point(0, 0), Point(0, 0), Point(1, 0), Point(0, 1)]
        hull = convex_hull(pts)
        assert len(hull) == 3

    def test_single_and_pair(self):
        assert convex_hull([Point(1, 1)]) == [Point(1, 1)]
        assert len(convex_hull([Point(0, 0), Point(1, 1)])) == 2

    def test_hull_polygon_is_ccw(self):
        poly = Polygon(convex_hull([Point(0, 0), Point(3, 0), Point(3, 3), Point(0, 3)]))
        assert poly.is_ccw


class TestProperties:
    @given(st.lists(points, min_size=3, max_size=40))
    def test_hull_is_convex(self, pts):
        hull = convex_hull(pts)
        n = len(hull)
        if n < 3:
            return
        for i in range(n):
            turn = cross(hull[i], hull[(i + 1) % n], hull[(i + 2) % n])
            assert turn > 0.0  # strictly convex, CCW, no collinear triples

    @given(st.lists(points, min_size=3, max_size=40))
    def test_hull_contains_all_points(self, pts):
        hull = convex_hull(pts)
        if len(hull) < 3:
            return
        for p in pts:
            assert locate_point_by_sampling(p, hull) is not PointLocation.OUTSIDE

    @given(st.lists(points, min_size=3, max_size=40))
    def test_hull_vertices_are_input_points(self, pts):
        hull = convex_hull(pts)
        assert set(hull) <= set(pts)

    @given(st.lists(points, min_size=3, max_size=25))
    def test_idempotent(self, pts):
        hull = convex_hull(pts)
        assert convex_hull(hull) == hull
