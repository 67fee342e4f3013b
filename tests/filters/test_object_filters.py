"""Tests for the 0-Object and 1-Object distance upper-bound filters."""

import math

from hypothesis import given, settings

from repro.filters import one_object_upper_bound, zero_object_upper_bound
from repro.geometry import Polygon, Rect, polygon_distance_brute_force
from tests.strategies import polygon_pairs_nearby, rects, star_polygons

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
FAR = Polygon.from_coords([(10, 10), (12, 10), (12, 12), (10, 12)])


class TestZeroObject:
    def test_identical_rects(self):
        r = Rect(0, 0, 2, 2)
        # Objects touching all sides of the same MBR are at most a diagonal
        # apart - and the side-pair bound is even tighter (side length).
        assert zero_object_upper_bound(r, r) <= math.sqrt(8)

    def test_disjoint_rects_bound_between_min_and_max(self):
        a, b = Rect(0, 0, 2, 2), Rect(6, 0, 8, 2)
        bound = zero_object_upper_bound(a, b)
        assert a.min_distance(b) <= bound <= a.max_distance(b)

    def test_tighter_than_max_distance(self):
        a, b = Rect(0, 0, 4, 4), Rect(10, 0, 14, 4)
        assert zero_object_upper_bound(a, b) < a.max_distance(b)

    def test_degenerate_rects(self):
        a = Rect(0, 0, 0, 0)  # point MBR
        b = Rect(3, 4, 3, 4)
        assert zero_object_upper_bound(a, b) == 5.0

    @settings(max_examples=80)
    @given(polygon_pairs_nearby())
    def test_is_upper_bound_of_true_distance(self, pair):
        a, b = pair
        bound = zero_object_upper_bound(a.mbr, b.mbr)
        true_d = polygon_distance_brute_force(a, b)
        assert bound >= true_d - 1e-9

    @given(rects(), rects())
    def test_symmetric(self, a, b):
        assert math.isclose(
            zero_object_upper_bound(a, b), zero_object_upper_bound(b, a)
        )


class TestOneObject:
    def test_known_case(self):
        bound = one_object_upper_bound(SQUARE, FAR.mbr)
        true_d = polygon_distance_brute_force(SQUARE, FAR)
        assert bound >= true_d
        # For a square polygon filling its MBR against a square MBR the
        # bound is reasonably tight: within the far MBR's diagonal.
        assert bound <= true_d + math.hypot(2, 2) + 1e-9

    @settings(max_examples=80)
    @given(polygon_pairs_nearby())
    def test_is_upper_bound_of_true_distance(self, pair):
        a, b = pair
        true_d = polygon_distance_brute_force(a, b)
        assert one_object_upper_bound(a, b.mbr) >= true_d - 1e-9
        assert one_object_upper_bound(b, a.mbr) >= true_d - 1e-9

    @settings(max_examples=60)
    @given(star_polygons())
    def test_self_bound_small(self, poly):
        """A polygon against its own MBR: distance 0; bound stays finite."""
        bound = one_object_upper_bound(poly, poly.mbr)
        diag = math.hypot(poly.mbr.width, poly.mbr.height)
        assert 0.0 <= bound <= diag + 1e-9
