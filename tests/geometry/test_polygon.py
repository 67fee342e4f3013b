"""Tests for the Polygon container and its measures."""

import pickle

import numpy as np
import pytest
from hypothesis import given

from repro.geometry import Point, Polygon, Rect, edge_bounds
from tests.strategies import star_polygons

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])


class TestConstruction:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_from_coords(self):
        p = Polygon.from_coords([(0, 0), (1, 0), (0, 1)])
        assert p.vertices == (Point(0, 0), Point(1, 0), Point(0, 1))

    def test_points_pairs_and_arrays_build_the_same_polygon(self):
        pairs = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        from_pairs = Polygon(pairs)
        assert from_pairs == Polygon([Point(x, y) for x, y in pairs])
        assert from_pairs == Polygon(np.array(pairs))
        assert from_pairs == Polygon.from_coords(pairs)
        assert from_pairs == Polygon(from_pairs.vertices)

    def test_storage_is_one_private_read_only_float64_array(self):
        source = np.array([(0, 0), (4, 0), (0, 4)], dtype=np.int64)
        poly = Polygon(source)
        source[0, 0] = 99
        arr = poly.coords_array
        assert arr.dtype == np.float64 and arr.shape == (3, 2)
        assert arr.flags.c_contiguous and not arr.flags.writeable
        assert arr[0, 0] == 0.0  # the caller's array is not aliased

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 2, 2)])
    def test_rejects_arrays_that_are_not_n_by_2(self, shape):
        with pytest.raises(ValueError):
            Polygon(np.zeros(shape))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_coordinates_naming_the_vertex(self, bad):
        with pytest.raises(ValueError, match=r"vertex 2 .*non-finite"):
            Polygon.from_coords([(0, 0), (1, 0), (1, bad), (bad, 1)])
        with pytest.raises(ValueError, match=r"vertex 0 .*non-finite"):
            Polygon([Point(bad, 0), Point(1, 0), Point(0, 1)])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SQUARE._mbr = None
        with pytest.raises(AttributeError):
            SQUARE.coords_array = np.zeros((3, 2))

    def test_len_and_num_vertices(self):
        assert len(SQUARE) == 4
        assert SQUARE.num_vertices == 4

    def test_equality_and_hash(self):
        other = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert SQUARE == other
        assert hash(SQUARE) == hash(other)
        assert SQUARE != SQUARE.reversed()
        assert SQUARE != Polygon.from_coords([(0, 0), (4, 0), (4, 4)])

    def test_negative_zero_is_equal_and_hashes_equal(self):
        # Point.__eq__ always made the two rings equal; a hash over the raw
        # coordinate bytes would tell them apart.
        plus = Polygon.from_coords([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
        minus = Polygon.from_coords([(-0.0, 0.0), (4.0, -0.0), (0.0, 4.0)])
        assert plus == minus
        assert hash(plus) == hash(minus)
        assert len({plus, minus}) == 1
        assert plus.vertices == minus.vertices

    def test_pickle_ships_one_buffer(self):
        n = 10_000
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        radii = 1.0 + 0.3 * np.sin(7.0 * angles)
        poly = Polygon(np.column_stack((radii * np.cos(angles), radii * np.sin(angles))))
        blob = pickle.dumps(poly)
        assert len(blob) < 16 * n + 512
        clone = pickle.loads(blob)
        assert clone == poly
        assert clone.digest == poly.digest
        assert clone.mbr == poly.mbr
        assert not clone.coords_array.flags.writeable


class TestVerticesView:
    def test_is_a_sequence_of_points(self):
        verts = SQUARE.vertices
        assert len(verts) == 4
        assert verts[0] == Point(0, 0) and verts[-1] == Point(0, 4)
        assert verts[1:3] == (Point(4, 0), Point(4, 4))
        assert list(verts) == [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]
        assert list(reversed(verts))[0] == Point(0, 4)
        assert Point(4, 4) in verts
        with pytest.raises(IndexError):
            verts[4]

    def test_compares_with_tuples_lists_and_other_views(self):
        expected = (Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4))
        assert SQUARE.vertices == expected
        assert SQUARE.vertices == list(expected)
        assert SQUARE.vertices == Polygon(expected).vertices
        assert SQUARE.vertices != expected[:3]
        assert SQUARE.vertices != SQUARE.reversed().vertices

    def test_indexing_builds_no_point_tuple_but_iterating_keeps_one(self):
        poly = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert poly.vertices[0] == Point(0, 0)
        assert poly._points is None
        first_pass = list(poly.vertices)
        assert all(a is b for a, b in zip(first_pass, poly.vertices))
        assert poly.vertices[0] is first_pass[0]
        assert [e[1] for e in poly.edges()] == first_pass

    def test_view_exposes_the_polygons_edge_slabs(self):
        assert SQUARE.vertices.edge_slabs is SQUARE.edge_slabs


class TestAccessors:
    def test_mbr(self):
        assert SQUARE.mbr == Rect(0, 0, 4, 4)

    def test_edges_close_the_ring(self):
        edges = list(SQUARE.edges())
        assert len(edges) == 4
        assert edges[0] == (Point(0, 4), Point(0, 0))
        # Every edge's end is the next edge's start.
        for k in range(4):
            assert edges[k][1] == edges[(k + 1) % 4][0]

    def test_coords(self):
        assert SQUARE.coords() == [(0, 0), (4, 0), (4, 4), (0, 4)]

    def test_coords_array_cached_and_readonly(self):
        a1 = SQUARE.coords_array
        a2 = SQUARE.coords_array
        assert a1 is a2
        assert a1.shape == (4, 2)
        with pytest.raises(ValueError):
            a1[0, 0] = 99.0

    def test_edges_array_matches_edges(self):
        arr = SQUARE.edges_array
        assert arr.shape == (4, 4)
        for row, (a, b) in zip(arr, SQUARE.edges()):
            assert tuple(row) == (a.x, a.y, b.x, b.y)
        with pytest.raises(ValueError):
            arr[0, 0] = 99.0

    def test_edge_bounds_are_the_edge_rows_boxes(self):
        # A repeated vertex gives a zero-length edge: its box is a point.
        ring = Polygon.from_coords([(0, 0), (4, 1), (4, 1), (-2, 3), (1, -5)])
        bounds = ring.edge_bounds
        assert bounds.shape == (4, 5) and bounds.dtype == np.float64
        assert np.array_equal(bounds, edge_bounds(ring.edges_array))
        for (xmin, ymin, xmax, ymax), (a, b) in zip(bounds.T, ring.edges()):
            assert (xmin, ymin) == (min(a.x, b.x), min(a.y, b.y))
            assert (xmax, ymax) == (max(a.x, b.x), max(a.y, b.y))
        assert tuple(bounds[:, 2]) == (4.0, 1.0, 4.0, 1.0)
        assert ring.edge_bounds is bounds
        assert all(row.flags.c_contiguous for row in bounds)
        with pytest.raises(ValueError):
            bounds[0, 0] = 99.0

    def test_edge_bounds_rebuild_lazily_after_pickling(self):
        ring = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        expected = ring.edge_bounds
        clone = pickle.loads(pickle.dumps(ring))
        assert clone._edge_bounds is None
        assert np.array_equal(clone.edge_bounds, expected)
        assert clone._edge_bounds is not None

    def test_slabs_and_sweep_records_are_cached_read_only_and_not_pickled(self):
        ring = Polygon.from_coords([(0, 0), (4, 1), (4, 1), (-2, 3), (1, -5)])
        slabs, records = ring.edge_slabs, ring.sweep_records
        assert ring.edge_slabs is slabs and ring.sweep_records is records
        assert records.shape == (8, 5) and records.dtype == np.float64
        for array in (slabs.rows, records):
            with pytest.raises(ValueError):
                array[0, 0] = 99.0
        clone = pickle.loads(pickle.dumps(ring))
        assert clone._edge_slabs is None and clone._sweep_records is None
        assert np.array_equal(clone.sweep_records, records)
        assert np.array_equal(clone.edge_slabs.rows, slabs.rows)


class TestMeasures:
    def test_signed_area_ccw_positive(self):
        assert SQUARE.signed_area == 16.0
        assert SQUARE.is_ccw

    def test_signed_area_cw_negative(self):
        assert SQUARE.reversed().signed_area == -16.0
        assert not SQUARE.reversed().is_ccw

    def test_area_abs(self):
        assert SQUARE.reversed().area == 16.0

    def test_centroid_square(self):
        assert SQUARE.centroid == Point(2, 2)

    def test_centroid_degenerate_ring(self):
        sliver = Polygon.from_coords([(0, 0), (2, 0), (1, 0)])
        c = sliver.centroid
        assert c == Point(1, 0)

    def test_l_shape_area(self):
        l_shape = Polygon.from_coords(
            [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        )
        assert l_shape.area == 3.0


class TestDerived:
    def test_translated(self):
        moved = SQUARE.translated(1, -1)
        assert moved.mbr == Rect(1, -1, 5, 3)

    def test_scaled_about_center(self):
        grown = SQUARE.scaled(2.0)
        assert grown.mbr == Rect(-2, -2, 6, 6)

    def test_scaled_about_origin(self):
        grown = SQUARE.scaled(2.0, origin=Point(0, 0))
        assert grown.mbr == Rect(0, 0, 8, 8)

    def test_rect_to_polygon(self):
        poly = Polygon(Rect(0, 0, 2, 3).corners())
        assert poly.area == 6.0
        assert poly.is_ccw


class TestProperties:
    @given(star_polygons())
    def test_mbr_contains_all_vertices(self, poly):
        for v in poly.vertices:
            assert poly.mbr.contains_point(v)

    @given(star_polygons())
    def test_reversal_negates_signed_area(self, poly):
        assert poly.signed_area == -poly.reversed().signed_area

    @given(star_polygons())
    def test_translation_preserves_area(self, poly):
        moved = poly.translated(3.25, -1.5)
        assert np.isclose(moved.area, poly.area)

    @given(star_polygons())
    def test_scaling_scales_area_quadratically(self, poly):
        grown = poly.scaled(2.0)
        assert np.isclose(grown.area, poly.area * 4.0)

    @given(star_polygons())
    def test_centroid_inside_mbr(self, poly):
        c = poly.centroid
        mbr = poly.mbr
        assert mbr.xmin - 1e-9 <= c.x <= mbr.xmax + 1e-9
        assert mbr.ymin - 1e-9 <= c.y <= mbr.ymax + 1e-9

    @given(star_polygons())
    def test_edges_array_consistent_with_coords_array(self, poly):
        edges = poly.edges_array
        coords = poly.coords_array
        assert np.array_equal(edges[:, 2:], coords)
        assert np.array_equal(edges[:, :2], np.roll(coords, 1, axis=0))
