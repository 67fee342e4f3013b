"""Tests for STR bulk loading."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.index import str_bulk_load
from tests.strategies import rects


class TestBulkLoad:
    def test_empty(self):
        t = str_bulk_load([])
        assert len(t) == 0
        assert t.search(Rect(0, 0, 1, 1)) == []

    def test_single(self):
        t = str_bulk_load([(Rect(0, 0, 1, 1), "x")])
        assert t.search(Rect(0.5, 0.5, 2, 2)) == ["x"]

    def test_size_and_entries(self):
        entries = [(Rect(i, 0, i + 1, 1), i) for i in range(100)]
        t = str_bulk_load(entries, max_entries=8)
        assert len(t) == 100
        assert sorted(oid for _, oid in t.all_entries()) == list(range(100))

    def test_structure_valid(self):
        entries = [(Rect(i % 10, i // 10, i % 10 + 1, i // 10 + 1), i) for i in range(100)]
        t = str_bulk_load(entries, max_entries=4)
        t.check_invariants()

    def test_leaves_are_packed(self):
        """Most leaves should be full - the point of bulk loading."""
        rng = random.Random(2)
        entries = []
        for i in range(256):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            entries.append((Rect(x, y, x + 1, y + 1), i))
        t = str_bulk_load(entries, max_entries=16)
        leaf_sizes = []

        def walk(node):
            if node.is_leaf:
                leaf_sizes.append(len(node.entries))
            else:
                for _, child in node.entries:
                    walk(child)

        walk(t.root)
        assert sum(leaf_sizes) == 256
        full = sum(1 for s in leaf_sizes if s == 16)
        assert full >= len(leaf_sizes) - 4  # only slice tails may be partial

    @settings(max_examples=40)
    @given(st.lists(rects(), min_size=1, max_size=80), rects())
    def test_query_equivalence_with_linear_scan(self, rect_list, query):
        entries = [(r, i) for i, r in enumerate(rect_list)]
        t = str_bulk_load(entries, max_entries=4)
        expected = sorted(i for i, r in enumerate(rect_list) if r.intersects(query))
        assert sorted(t.search(query)) == expected
