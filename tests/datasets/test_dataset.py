"""Tests for the SpatialDataset container, stats, and BaseD."""

import math

import numpy as np
import pytest

from repro.datasets import DatasetStats, SpatialDataset, base_distance
from repro.geometry import Polygon, Rect


def square(x, y, size):
    return Polygon.from_coords(
        [(x, y), (x + size, y), (x + size, y + size), (x, y + size)]
    )


@pytest.fixture
def small_dataset():
    return SpatialDataset("S", [square(0, 0, 2), square(5, 5, 4), square(1, 8, 1)])


class TestContainer:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpatialDataset("empty", [])

    def test_len_getitem_iter(self, small_dataset):
        assert len(small_dataset) == 3
        assert small_dataset[1].mbr == Rect(5, 5, 9, 9)
        assert [p.mbr for p in small_dataset] == small_dataset.mbrs

    def test_world_defaults_to_union(self, small_dataset):
        assert small_dataset.world == Rect(0, 0, 9, 9)

    def test_explicit_world(self):
        ds = SpatialDataset("W", [square(0, 0, 1)], world=Rect(-10, -10, 10, 10))
        assert ds.world == Rect(-10, -10, 10, 10)

    def test_repr(self, small_dataset):
        assert "S" in repr(small_dataset)
        assert "3" in repr(small_dataset)


class TestEdgeStore:
    def test_polygon_edges_are_views_into_the_dataset_store(self):
        loose = square(0, 0, 2)
        own = loose.edges_array  # a one-row store of its own, first
        ds = SpatialDataset("S", [loose, square(5, 5, 4), square(1, 8, 1)])
        store = ds[0].edge_row[0]
        for row, polygon in enumerate(ds):
            assert polygon.edge_row == (store, row)
            assert np.shares_memory(polygon.edges_array, store.edges)
            assert np.shares_memory(polygon.edge_bounds, store.bounds)
        assert np.array_equal(ds[0].edges_array, own)
        assert not ds[0].edges_array.flags.writeable

    def test_a_reordering_keeps_the_store(self, small_dataset):
        store = small_dataset[0].edge_row[0]
        shuffled = SpatialDataset("R", small_dataset.polygons[::-1])
        assert [p.edge_row for p in shuffled] == [(store, 2), (store, 1), (store, 0)]

    def test_a_mixed_dataset_packs_a_new_store(self, small_dataset):
        old = small_dataset[0].edge_row[0]
        mixed = SpatialDataset("M", [small_dataset[0], square(20, 20, 1)])
        store = mixed[0].edge_row[0]
        assert store is not old
        assert [p.edge_row for p in mixed] == [(store, 0), (store, 1)]


class TestStats:
    def test_stats_values(self, small_dataset):
        s = small_dataset.stats()
        assert s == DatasetStats("S", 3, 4, 4, 4.0)

    def test_stats_row_format(self, small_dataset):
        row = small_dataset.stats().row()
        assert "S" in row and "3" in row

    def test_total_vertices(self, small_dataset):
        assert small_dataset.total_vertices() == 12

    def test_average_mbr_extent(self, small_dataset):
        # Mean width = mean height = (2 + 4 + 1) / 3.
        expected = (7 / 3 * 7 / 3) ** 0.5
        assert math.isclose(small_dataset.average_mbr_extent(), expected)


class TestBaseDistance:
    def test_equation_2(self):
        a = SpatialDataset("a", [square(0, 0, 2)])  # extent 2
        b = SpatialDataset("b", [square(0, 0, 6)])  # extent 6
        assert base_distance(a, b) == 4.0

    def test_symmetric(self, small_dataset):
        other = SpatialDataset("o", [square(0, 0, 3)])
        assert base_distance(small_dataset, other) == base_distance(
            other, small_dataset
        )

    def test_rectangular_mbrs(self):
        rect_poly = Polygon.from_coords([(0, 0), (8, 0), (8, 2), (0, 2)])
        ds = SpatialDataset("r", [rect_poly])
        assert math.isclose(ds.average_mbr_extent(), 4.0)  # sqrt(8 * 2)
