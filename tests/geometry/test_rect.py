"""Unit and property tests for Rect (MBR) operations."""

import copy
import math
import pickle

import pytest
from hypothesis import given

from repro.geometry import Point, Rect
from tests.strategies import points, rects


class TestConstruction:
    def test_rejects_negative_extent(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_degenerate_allowed(self):
        r = Rect(1, 2, 1, 2)
        assert r.area == 0.0
        assert r.width == 0.0

    def test_union_all(self):
        r = Rect.union_all([Rect(0, 0, 1, 1), Rect(2, -1, 3, 0.5)])
        assert r == Rect(0, -1, 3, 1)

    def test_union_all_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.union_all([])

    def test_immutable(self):
        r = Rect(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            r.xmin = -1

    def test_copies_despite_immutability(self):
        r = Rect(0, -1, 2.5, 3)
        for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert clone == r


class TestMeasures:
    def test_basic_measures(self):
        r = Rect(0, 0, 4, 3)
        assert r.width == 4.0
        assert r.height == 3.0
        assert r.area == 12.0
        assert r.center == Point(2, 1.5)

    def test_corners_ccw_from_lower_left(self):
        assert Rect(0, 0, 1, 2).corners() == [
            Point(0, 0),
            Point(1, 0),
            Point(1, 2),
            Point(0, 2),
        ]


class TestTopology:
    def test_contains_point_closed(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(Point(1, 1))
        assert r.contains_point(Point(0, 0))  # corner is inside (closed)
        assert r.contains_point(Point(2, 1))  # edge is inside
        assert not r.contains_point(Point(2.01, 1))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 9, 9))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(1, 1, 11, 9))

    def test_intersects_touching_counts(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 1, 2, 2))
        assert not Rect(0, 0, 1, 1).intersects(Rect(1.01, 0, 2, 1))

    def test_intersection_value(self):
        got = Rect(0, 0, 4, 4).intersection(Rect(2, 1, 6, 3))
        assert got == Rect(2, 1, 4, 3)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(3, 3, 4, 4)) is None

    def test_intersection_touching_is_degenerate(self):
        got = Rect(0, 0, 1, 1).intersection(Rect(1, 0, 2, 1))
        assert got == Rect(1, 0, 1, 1)

    def test_expand(self):
        assert Rect(0, 0, 2, 2).expand(1.0) == Rect(-1, -1, 3, 3)

    def test_expand_negative_collapse_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).expand(-1.0)


class TestMetric:
    def test_distance_to_point_regions(self):
        r = Rect(0, 0, 2, 2)
        assert r.distance_to_point(Point(1, 1)) == 0.0
        assert r.distance_to_point(Point(4, 1)) == 2.0
        assert r.distance_to_point(Point(5, 6)) == 5.0  # corner: 3-4-5

    def test_min_distance_overlapping_is_zero(self):
        assert Rect(0, 0, 2, 2).min_distance(Rect(1, 1, 3, 3)) == 0.0

    def test_min_distance_diagonal(self):
        assert Rect(0, 0, 1, 1).min_distance(Rect(4, 5, 6, 7)) == 5.0

    def test_max_distance_known(self):
        # Farthest corners (0,0) and (2,2).
        assert Rect(0, 0, 1, 1).max_distance(Rect(1, 1, 2, 2)) == math.sqrt(8)

    def test_within_distance_boundary_inclusive(self):
        a, b = Rect(0, 0, 1, 1), Rect(4, 0, 5, 1)
        assert a.within_distance(b, 3.0)
        assert not a.within_distance(b, 2.99)

    def test_within_distance_at_its_own_min_distance(self):
        """A gap whose squares round up past ``d * d`` while ``hypot``
        gives exactly ``d``: the guard answers what ``min_distance`` says."""
        a = Rect(0, 0, 1, 1)
        b = Rect(77.37982415147164, 26.514351883684775, 78.37982415147164, 27.514351883684775)
        d = a.min_distance(b)
        assert d == 80.52862652159304
        assert a.within_distance(b, d) and b.within_distance(a, d)
        assert not a.within_distance(b, math.nextafter(d, 0.0))


class TestProperties:
    @given(rects(), rects())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), rects())
    def test_intersects_iff_intersection_exists(self, a, b):
        assert a.intersects(b) == (a.intersection(b) is not None)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        common = a.intersection(b)
        if common is not None:
            assert a.contains_rect(common)
            assert b.contains_rect(common)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a)
        assert u.contains_rect(b)

    @given(rects(), rects())
    def test_min_distance_consistent_with_within(self, a, b):
        d = a.min_distance(b)
        assert a.within_distance(b, d + 1e-9)
        assert a.min_distance(b) <= a.max_distance(b) + 1e-9

    @given(rects(), points)
    def test_point_distance_zero_iff_contained(self, r, p):
        assert (r.distance_to_point(p) == 0.0) == r.contains_point(p)

    @given(rects())
    def test_max_distance_to_self_is_diagonal(self, r):
        assert math.isclose(
            r.max_distance(r), math.hypot(r.width, r.height), abs_tol=1e-9
        )
