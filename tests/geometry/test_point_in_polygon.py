"""Tests for the ray-crossing point-in-polygon test."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, PointLocation, Polygon, locate_point
from repro.geometry.point_in_polygon import (
    _debug_location_by_sampling,
    point_in_polygon,
)
from tests.strategies import (
    arbitrary_polygons,
    points,
    rings_with_query_point,
    star_polygons,
)

SQUARE = [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]
# Concave "C" shape opening to the right.
C_SHAPE = [
    Point(0, 0),
    Point(4, 0),
    Point(4, 1),
    Point(1, 1),
    Point(1, 3),
    Point(4, 3),
    Point(4, 4),
    Point(0, 4),
]
BOWTIE = [Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)]


def _locate_point_edge_by_edge(p, vertices):
    """The paper-literal scan ``locate_point`` used to be: one edge at a
    time, returning at the first edge the point lies on.  Kept here as the
    oracle for the whole-array kernel."""
    inside = False
    px, py = p.x, p.y
    ax, ay = vertices[-1].x, vertices[-1].y
    for v in vertices:
        bx, by = v.x, v.y
        if (
            min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by)
            and (bx - ax) * (py - ay) == (by - ay) * (px - ax)
        ):
            return PointLocation.BOUNDARY
        if (ay > py) != (by > py):
            t = (px - ax) * (by - ay) - (bx - ax) * (py - ay)
            if (t < 0) != (by < ay):
                inside = not inside
        ax, ay = bx, by
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE


class TestSquare:
    def test_center_inside(self):
        assert locate_point(Point(2, 2), SQUARE) is PointLocation.INSIDE

    def test_outside(self):
        assert locate_point(Point(5, 2), SQUARE) is PointLocation.OUTSIDE
        assert locate_point(Point(2, -1), SQUARE) is PointLocation.OUTSIDE

    def test_edge_is_boundary(self):
        assert locate_point(Point(4, 2), SQUARE) is PointLocation.BOUNDARY
        assert locate_point(Point(2, 0), SQUARE) is PointLocation.BOUNDARY

    def test_vertex_is_boundary(self):
        assert locate_point(Point(0, 0), SQUARE) is PointLocation.BOUNDARY

    def test_ray_through_vertex_no_double_count(self):
        # Upward ray from below a vertex: classic failure mode of naive
        # crossing counters.
        diamond = [Point(0, 2), Point(2, 0), Point(4, 2), Point(2, 4)]
        assert locate_point(Point(2, 1), diamond) is PointLocation.INSIDE
        assert locate_point(Point(2, -1), diamond) is PointLocation.OUTSIDE


class TestConcave:
    def test_notch_is_outside(self):
        assert locate_point(Point(3, 2), C_SHAPE) is PointLocation.OUTSIDE

    def test_arms_are_inside(self):
        assert locate_point(Point(2, 0.5), C_SHAPE) is PointLocation.INSIDE
        assert locate_point(Point(2, 3.5), C_SHAPE) is PointLocation.INSIDE
        assert locate_point(Point(0.5, 2), C_SHAPE) is PointLocation.INSIDE


class TestNonSimple:
    def test_bowtie_even_odd(self):
        # Left triangle interior.
        assert locate_point(Point(0.5, 1.0), BOWTIE) is PointLocation.INSIDE
        # The crossing point region: center of the X is on the boundary.
        assert locate_point(Point(1, 1), BOWTIE) is PointLocation.BOUNDARY
        assert locate_point(Point(3, 1), BOWTIE) is PointLocation.OUTSIDE


class TestHelpers:
    def test_too_few_vertices_raises(self):
        with pytest.raises(ValueError):
            locate_point(Point(0, 0), [Point(0, 0), Point(1, 1)])

    def test_point_in_polygon_includes_boundary(self):
        assert point_in_polygon(Point(0, 0), SQUARE)


class TestProperties:
    @given(star_polygons(), points)
    def test_matches_reference_on_simple(self, poly, p):
        assert locate_point(p, poly.vertices) == _debug_location_by_sampling(
            p, poly.vertices
        )

    @given(arbitrary_polygons(), points)
    def test_matches_reference_on_arbitrary(self, poly, p):
        assert locate_point(p, poly.vertices) == _debug_location_by_sampling(
            p, poly.vertices
        )

    @given(star_polygons())
    def test_vertices_are_boundary(self, poly):
        for v in poly.vertices:
            assert locate_point(v, poly.vertices) is PointLocation.BOUNDARY

    @given(star_polygons(), points)
    def test_outside_mbr_is_outside(self, poly, p):
        if not poly.mbr.contains_point(p):
            assert locate_point(p, poly.vertices) is PointLocation.OUTSIDE

    @given(star_polygons(), points)
    def test_polygon_method_agrees(self, poly, p):
        assert poly.contains_point(p) == (
            locate_point(p, poly.vertices) is not PointLocation.OUTSIDE
        )


class TestKernelAgainstTheEdgeByEdgeScan:
    """The NumPy kernel must decide exactly as the scalar loop it replaced."""

    @given(rings_with_query_point())
    def test_identical_location_on_the_adversarial_corpus(self, case):
        ring, p = case
        expected = _locate_point_edge_by_edge(p, ring)
        assert locate_point(p, Polygon(ring).vertices) is expected
        assert locate_point(p, ring) is expected  # a plain list is converted
        assert Polygon(ring).locate_point(p) is expected

    @given(st.one_of(star_polygons(), arbitrary_polygons()), points)
    def test_identical_location_on_the_eighth_grid(self, poly, p):
        assert locate_point(p, poly.vertices) is _locate_point_edge_by_edge(
            p, poly.vertices
        )

    def test_half_open_rule_at_a_vertex_level_with_the_point(self):
        # The ray from (0, 1) passes exactly through the vertex (2, 1).
        spike = [Point(1, 0), Point(3, 0), Point(2, 1), Point(3, 2), Point(1, 2)]
        for p in (Point(0, 1), Point(1.5, 1), Point(2.5, 1)):
            assert locate_point(p, spike) is _locate_point_edge_by_edge(p, spike)
        assert locate_point(Point(1.5, 1), spike) is PointLocation.INSIDE
        assert locate_point(Point(2.5, 1), spike) is PointLocation.OUTSIDE

    def test_level_with_a_horizontal_edge_but_beyond_it(self):
        assert locate_point(Point(5, 0), SQUARE) is PointLocation.OUTSIDE
        assert locate_point(Point(-1, 4), SQUARE) is PointLocation.OUTSIDE

    def test_repeated_vertices_do_not_change_the_answer(self):
        doubled = [v for v in SQUARE for _ in range(2)]
        assert locate_point(Point(2, 2), doubled) is PointLocation.INSIDE
        assert locate_point(Point(4, 4), doubled) is PointLocation.BOUNDARY

    def test_near_1e15_every_product_rounds(self):
        base = 1e15
        ring = [Point(base + x, base + y) for x, y in ((0, 0), (3, 0.125), (2.875, 3), (0.125, 2))]
        for dx, dy in ((1.5, 0.0625), (1, 1), (3, 0.125), (-1, 1), (2.875, 1.5)):
            p = Point(base + dx, base + dy)
            assert locate_point(p, ring) is _locate_point_edge_by_edge(p, ring)
