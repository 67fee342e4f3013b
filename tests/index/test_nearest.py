"""Tests for best-first nearest-neighbor search over the R-tree."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.index import str_bulk_load
from repro.index.nearest import NearestStats, rtree_nearest
from tests.oracles.index import linear_nearest
from tests.strategies import points, rects


def center_distance_fn(rect_list):
    """Exact distance = distance to the rectangle itself (a simple,
    well-defined refinement function for testing)."""

    def fn_factory(query):
        def fn(oid):
            return rect_list[oid].distance_to_point(query)

        return fn

    return fn_factory


class TestBasics:
    def test_empty_tree(self):
        tree = str_bulk_load([])
        assert rtree_nearest(tree, Point(0, 0), lambda oid: 0.0) == []

    def test_k_validation(self):
        tree = str_bulk_load([(Rect(0, 0, 1, 1), 0)])
        with pytest.raises(ValueError):
            rtree_nearest(tree, Point(0, 0), lambda oid: 0.0, k=0)
        with pytest.raises(ValueError):
            linear_nearest([0], lambda oid: 0.0, k=0)

    def test_single_object(self):
        tree = str_bulk_load([(Rect(2, 2, 3, 3), 0)])
        got = rtree_nearest(tree, Point(0, 2), lambda oid: 2.0)
        assert got == [(2.0, 0)]

    def test_nearest_of_three(self):
        rect_list = [Rect(0, 0, 1, 1), Rect(5, 0, 6, 1), Rect(9, 0, 10, 1)]
        tree = str_bulk_load([(r, i) for i, r in enumerate(rect_list)])
        fn = center_distance_fn(rect_list)(Point(5.5, 0.5))
        got = rtree_nearest(tree, Point(5.5, 0.5), fn, k=2)
        # Inside rect 1 (distance 0); rect 2 is 3.5 away, rect 0 is 4.5.
        assert [oid for _, oid in got] == [1, 2]

    def test_k_larger_than_tree(self):
        rect_list = [Rect(0, 0, 1, 1), Rect(5, 0, 6, 1)]
        tree = str_bulk_load([(r, i) for i, r in enumerate(rect_list)])
        fn = center_distance_fn(rect_list)(Point(0, 0))
        got = rtree_nearest(tree, Point(0, 0), fn, k=10)
        assert len(got) == 2

    def test_stats_show_pruning(self):
        rect_list = [Rect(float(i), 0, i + 0.5, 0.5) for i in range(200)]
        tree = str_bulk_load([(r, i) for i, r in enumerate(rect_list)], max_entries=8)
        stats = NearestStats()
        query = Point(0.25, 0.25)
        fn = center_distance_fn(rect_list)(query)
        rtree_nearest(tree, query, fn, k=1, stats=stats)
        # Best-first search must not refine every object.
        assert stats.exact_distance_calls < 20
        assert stats.nodes_expanded < 30


class TestNonOrderableIds:
    """Regression: ``results.sort()`` compared (distance, oid) tuples, so a
    distance tie between non-orderable ids (dicts, geometries, mixed types)
    raised TypeError mid-search.  Sorting must key on distance alone."""

    def test_tied_distances_with_non_comparable_oids(self):
        # Four identical rectangles -> every exact distance ties; the ids
        # are dicts, which do not support "<".
        ids = [{"name": chr(97 + i)} for i in range(4)]
        entries = [(Rect(0, 0, 1, 1), oid) for oid in ids]
        tree = str_bulk_load(entries)
        got = rtree_nearest(tree, Point(2, 0.5), lambda oid: 1.0, k=3)
        assert len(got) == 3
        assert all(d == 1.0 for d, _ in got)
        assert all(isinstance(oid, dict) for _, oid in got)

    def test_linear_nearest_with_non_comparable_oids(self):
        ids = [{"n": i} for i in range(5)]
        got = linear_nearest(ids, lambda oid: 2.0, k=3)
        # Stable sort: equal-distance ids keep input order.
        assert got == [(2.0, ids[0]), (2.0, ids[1]), (2.0, ids[2])]

    def test_tie_at_position_k(self):
        """A tie exactly at the k-th slot must neither raise nor lose the
        better-than-tied results; distances must match brute force."""
        rect_list = [
            Rect(0, 0, 1, 1),    # distance 1 to query
            Rect(3, 0, 4, 1),    # distance 1 (tied)
            Rect(10, 0, 11, 1),  # distance 8
        ]
        ids = [{"i": i} for i in range(3)]
        tree = str_bulk_load([(r, oid) for r, oid in zip(rect_list, ids)])
        by_id = {id(oid): r for oid, r in zip(ids, rect_list)}

        def fn(oid):
            return by_id[id(oid)].distance_to_point(Point(2.0, 0.5))

        got = rtree_nearest(tree, Point(2.0, 0.5), fn, k=2)
        assert [d for d, _ in got] == [1.0, 1.0]
        got3 = rtree_nearest(tree, Point(2.0, 0.5), fn, k=3)
        assert [d for d, _ in got3] == [1.0, 1.0, 8.0]


class TestAgainstLinearScan:
    @settings(max_examples=60)
    @given(st.lists(rects(), min_size=1, max_size=50), points, st.integers(1, 4))
    def test_matches_brute_force(self, rect_list, query, k):
        tree = str_bulk_load([(r, i) for i, r in enumerate(rect_list)], max_entries=4)
        fn = center_distance_fn(rect_list)(query)
        got = rtree_nearest(tree, query, fn, k=k)
        expected = linear_nearest(list(range(len(rect_list))), fn, k=k)
        # Distances must agree (ids may differ under exact ties).
        assert [d for d, _ in got] == pytest.approx([d for d, _ in expected])

    @settings(max_examples=40)
    @given(st.lists(rects(), min_size=2, max_size=40), points)
    def test_refinement_larger_than_mbr_bound(self, rect_list, query):
        """The search stays exact even when the exact distance exceeds the
        MBR lower bound (objects smaller than their boxes)."""
        tree = str_bulk_load([(r, i) for i, r in enumerate(rect_list)], max_entries=4)

        def fn(oid):
            # Object = the MBR's center point: exact >= MBR min distance.
            c = rect_list[oid].center
            return math.hypot(c.x - query.x, c.y - query.y)

        got = rtree_nearest(tree, query, fn, k=1)
        expected = linear_nearest(list(range(len(rect_list))), fn, k=1)
        assert got[0][0] == pytest.approx(expected[0][0])
