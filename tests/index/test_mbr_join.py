"""Tests for the MBR join (filtering stage of spatial joins)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.index import plane_sweep_mbr_join
from tests.oracles.index import nested_loop_mbr_join
from tests.strategies import rects

rect_lists = st.lists(rects(), min_size=0, max_size=40)
distances = st.floats(min_value=0.0, max_value=8.0)


class TestPlaneSweep:
    def test_empty_inputs(self):
        assert plane_sweep_mbr_join([], [Rect(0, 0, 1, 1)]) == []
        assert plane_sweep_mbr_join([Rect(0, 0, 1, 1)], []) == []

    def test_simple_overlap(self):
        a = [Rect(0, 0, 2, 2)]
        b = [Rect(1, 1, 3, 3), Rect(5, 5, 6, 6)]
        assert plane_sweep_mbr_join(a, b) == [(0, 0)]

    def test_touching_counts(self):
        a = [Rect(0, 0, 1, 1)]
        b = [Rect(1, 1, 2, 2)]
        assert plane_sweep_mbr_join(a, b) == [(0, 0)]

    def test_distance_join(self):
        a = [Rect(0, 0, 1, 1)]
        b = [Rect(3, 0, 4, 1)]
        assert plane_sweep_mbr_join(a, b, distance=2.0) == [(0, 0)]
        assert plane_sweep_mbr_join(a, b, distance=1.5) == []

    def test_gap_equal_to_the_distance_is_kept_in_both_orders(self):
        """The active list's prune rounds as the within test does: an x gap
        of exactly ``d`` stays a candidate."""
        a, b = Rect(0.0, 0.0, 0.1, 1.0), Rect(1.2999999999999998, 0.0, 2.3, 1.0)
        d = b.xmin - a.xmax
        assert a.within_distance(b, d)
        assert plane_sweep_mbr_join([a], [b], distance=d) == [(0, 0)]
        assert plane_sweep_mbr_join([b], [a], distance=d) == [(0, 0)]

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            plane_sweep_mbr_join([], [], distance=-1.0)

    def test_self_join_shape(self):
        rects_list = [Rect(i, 0, i + 1.5, 1) for i in range(5)]
        pairs = plane_sweep_mbr_join(rects_list, rects_list)
        # Every rect pairs with itself and its immediate neighbors.
        assert all((i, i) in pairs for i in range(5))

    @settings(max_examples=60)
    @given(rect_lists, rect_lists, distances)
    def test_matches_nested_loop(self, a, b, d):
        got = sorted(plane_sweep_mbr_join(a, b, distance=d))
        expected = sorted(nested_loop_mbr_join(a, b, distance=d))
        assert got == expected
