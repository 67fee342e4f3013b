"""Tests for the 0-Object and 1-Object distance upper-bound filters."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import one_object_upper_bound, zero_object_upper_bound
from repro.geometry import Polygon, Rect
from tests.oracles.geometry import (
    one_object_vertex_loop,
    polygon_distance_brute_force,
    zero_object_side_pair_loop,
)
from tests.strategies import HYPOT_FAR as FAR_VERTEX
from tests.strategies import HYPOT_NEAR as NEAR_VERTEX
from tests.strategies import (
    adversarial_rings,
    lattices,
    polygon_pairs_nearby,
    rects,
    star_polygons,
)

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
FAR = Polygon.from_coords([(10, 10), (12, 10), (12, 12), (10, 12)])

ORIGIN_MBR = Rect(0.0, 0.0, 0.0, 0.0)


@st.composite
def lattice_rects(draw, cells) -> Rect:
    """A rect on the lattice; point and segment MBRs come up by themselves
    (eleven cells a side)."""
    x1, x2, y1, y2 = (draw(cells) for _ in range(4))
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


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

    @given(st.data())
    def test_equals_the_side_pair_loop(self, data):
        cells = data.draw(lattices)
        a = data.draw(st.one_of(rects(), lattice_rects(cells)))
        b = data.draw(st.one_of(rects(), lattice_rects(cells)))
        assert zero_object_upper_bound(a, b) == zero_object_side_pair_loop(a, b)

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_equals_the_loop_where_squares_would_under_or_overflow(self, scale):
        a = Rect(0.0, 0.0, 2.0 * scale, 1.0 * scale)
        b = Rect(5.0 * scale, 3.0 * scale, 6.0 * scale, 7.0 * scale)
        assert zero_object_upper_bound(a, b) == zero_object_side_pair_loop(a, b)


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

    @given(st.data())
    def test_equals_the_vertex_loop(self, data):
        """Values, not verdicts: float equality with the scalar loop, on
        star polygons and on raw lattice rings (repeated vertices, so many
        exactly tied entries) against lattice MBRs that are often a point
        or a segment, and against the ring's own MBR (a vertex on every
        side: the minimum sits on the other boundary)."""
        cells = data.draw(lattices)
        poly = data.draw(st.one_of(star_polygons(), adversarial_rings(cells).map(Polygon)))
        mbr = data.draw(st.one_of(rects(), lattice_rects(cells), st.just(poly.mbr)))
        assert one_object_upper_bound(poly, mbr) == one_object_vertex_loop(poly, mbr)

    @given(adversarial_rings().map(Polygon), st.integers(0, 8))
    def test_a_vertex_on_the_point_mbr_bounds_at_zero(self, poly, i):
        x, y = poly.coords_array[i % poly.num_vertices].tolist()
        assert one_object_upper_bound(poly, Rect(x, y, x, y)) == 0.0

    def test_squared_order_and_hypot_order_invert(self):
        # Against a point MBR the bound is the nearest vertex's distance.
        poly = Polygon.from_coords([FAR_VERTEX, NEAR_VERTEX, (5.0, 5.0)])
        assert one_object_vertex_loop(poly, ORIGIN_MBR) == math.hypot(*NEAR_VERTEX)
        assert one_object_upper_bound(poly, ORIGIN_MBR) == math.hypot(*NEAR_VERTEX)

    def test_mutant_without_slack_fails_the_inverted_case(self, no_slack):
        poly = Polygon.from_coords([FAR_VERTEX, NEAR_VERTEX, (5.0, 5.0)])
        assert one_object_upper_bound(poly, ORIGIN_MBR) == math.hypot(*FAR_VERTEX)

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_equals_the_loop_where_squares_under_or_overflow(self, scale):
        poly = Polygon.from_coords(
            [(3.0 * scale, 5.0 * scale), (3.0 * scale, 4.0 * scale), (9.0 * scale, 1.0 * scale)]
        )
        for mbr in (ORIGIN_MBR, Rect(0.0, 0.0, scale, 2.0 * scale)):
            assert one_object_upper_bound(poly, mbr) == one_object_vertex_loop(poly, mbr)
