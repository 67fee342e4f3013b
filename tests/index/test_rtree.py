"""Tests for the static R-tree (queries and diagnostics of packed trees)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.index import RTree, str_bulk_load
from tests.strategies import rects


def packed(rect_list, max_entries=4):
    return str_bulk_load(list(zip(rect_list, range(len(rect_list)))), max_entries)


def linear_search(entries, query):
    return sorted(i for i, r in enumerate(entries) if r.intersects(query))


def linear_within(entries, query, d):
    return sorted(i for i, r in enumerate(entries) if r.within_distance(query, d))


class TestBasics:
    def test_empty_tree(self):
        t = RTree()
        assert len(t) == 0
        assert t.search(Rect(0, 0, 1, 1)) == []
        assert t.search_within_distance(Rect(0, 0, 1, 1), 5.0) == []

    def test_single_entry(self):
        t = str_bulk_load([(Rect(0, 0, 2, 2), "a")])
        assert t.search(Rect(1, 1, 3, 3)) == ["a"]
        assert t.search(Rect(5, 5, 6, 6)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)
        with pytest.raises(ValueError):
            RTree().search_within_distance(Rect(0, 0, 1, 1), -1.0)

    def test_duplicate_rects_allowed(self):
        t = packed([Rect(0, 0, 1, 1)] * 10)
        assert sorted(t.search(Rect(0, 0, 1, 1))) == list(range(10))

    def test_all_entries_iterates_everything(self):
        rng = random.Random(3)
        n = 50
        corners = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        t = packed([Rect(x, y, x + 1, y + 1) for x, y in corners])
        assert sorted(oid for _, oid in t.all_entries()) == list(range(n))


class TestStructure:
    def test_grows_beyond_one_node(self):
        t = packed([Rect(k, 0, k + 0.5, 1) for k in range(20)])
        assert t.height() >= 2
        t.check_invariants()

    def test_height_logarithmic(self):
        rng = random.Random(5)
        corners = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(1000)]
        t = packed([Rect(x, y, x + 1, y + 1) for x, y in corners], max_entries=16)
        assert t.height() == 3  # ceil(log16(1000)): packed levels are full


class TestQueriesAgainstLinearScan:
    @settings(max_examples=40)
    @given(st.lists(rects(), min_size=1, max_size=60), rects())
    def test_window_query(self, entries, query):
        assert sorted(packed(entries).search(query)) == linear_search(entries, query)

    @settings(max_examples=40)
    @given(
        st.lists(rects(), min_size=1, max_size=60),
        rects(),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_distance_query(self, entries, query, d):
        assert sorted(
            packed(entries).search_within_distance(query, d)
        ) == linear_within(entries, query, d)

    @settings(max_examples=25)
    @given(st.lists(rects(), min_size=1, max_size=80))
    def test_invariants_hold(self, entries):
        t = packed(entries)
        t.check_invariants()
        assert len(t) == len(entries)
