"""Tests for the single-set detection sweep and polygon simplicity."""

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    Polygon,
    any_segments_intersect,
    on_segment,
    polygon_is_simple,
    segments_intersect,
)
from tests.strategies import adversarial_rings, segments, star_polygons


def brute_force_pair(segs):
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if segments_intersect(*segs[i], *segs[j]):
                return (i, j)
    return None


def simple_by_definition(polygon):
    """The O(n^2) definition of simplicity: no zero-length edge, adjacent
    edges meet only at their shared vertex, no other pair of edges touches."""
    edges = list(polygon.edges())
    n = len(edges)
    if any(a == b for a, b in edges):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if not segments_intersect(*edges[i], *edges[j]):
                continue
            if j != i + 1 and not (i == 0 and j == n - 1):
                return False
            (a, v), (_, b) = (edges[i], edges[j]) if j == i + 1 else (edges[j], edges[i])
            if (on_segment(b, a, v) and b != v) or (on_segment(a, v, b) and a != v):
                return False
    return True


class TestDetection:
    def test_empty_and_single(self):
        assert any_segments_intersect([]) is None
        assert any_segments_intersect([(Point(0, 0), Point(1, 1))]) is None

    def test_crossing_pair_found(self):
        segs = [(Point(0, 0), Point(2, 2)), (Point(0, 2), Point(2, 0))]
        hit = any_segments_intersect(segs)
        assert hit is not None
        assert set(hit) == {0, 1}

    def test_disjoint_pair(self):
        segs = [(Point(0, 0), Point(1, 0)), (Point(0, 2), Point(1, 2))]
        assert any_segments_intersect(segs) is None

    def test_shared_endpoint_detected(self):
        segs = [(Point(0, 0), Point(1, 1)), (Point(1, 1), Point(2, 0))]
        assert any_segments_intersect(segs) is not None

    def test_shared_endpoint_ignorable(self):
        segs = [(Point(0, 0), Point(1, 1)), (Point(1, 1), Point(2, 0))]
        assert any_segments_intersect(segs, ignore=lambda i, j: True) is None

    def test_vertical_crossing_detected(self):
        segs = [
            (Point(1, -2), Point(1, 2)),  # vertical
            (Point(0, 0), Point(2, 0.5)),  # crosses it mid-height
        ]
        assert any_segments_intersect(segs) is not None

    def test_vertical_stack_disjoint(self):
        segs = [
            (Point(1, 0), Point(1, 1)),
            (Point(1, 2), Point(1, 3)),
            (Point(2, 0), Point(2, 3)),
        ]
        assert any_segments_intersect(segs) is None

    def test_collinear_overlap_detected(self):
        segs = [(Point(0, 0), Point(3, 0)), (Point(2, 0), Point(5, 0))]
        assert any_segments_intersect(segs) is not None

    def test_many_parallel_disjoint(self):
        segs = [(Point(0, float(k)), Point(10, float(k))) for k in range(20)]
        assert any_segments_intersect(segs) is None

    @given(st.lists(segments(), min_size=2, max_size=12))
    def test_agrees_with_brute_force(self, segs):
        got = any_segments_intersect(segs)
        expected = brute_force_pair(segs)
        assert (got is None) == (expected is None)
        if got is not None:
            i, j = got
            assert segments_intersect(*segs[i], *segs[j])

    @given(st.lists(segments(), min_size=2, max_size=10))
    def test_witness_respects_ignore(self, segs):
        # Ignoring every pair must always report no intersection.
        assert any_segments_intersect(segs, ignore=lambda i, j: True) is None


class TestPolygonSimplicity:
    def test_square_is_simple(self):
        assert polygon_is_simple(
            Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        )

    def test_bowtie_is_not_simple(self):
        assert not polygon_is_simple(
            Polygon.from_coords([(0, 0), (2, 2), (2, 0), (0, 2)])
        )

    def test_repeated_consecutive_vertex_not_simple(self):
        assert not polygon_is_simple(
            Polygon.from_coords([(0, 0), (4, 0), (4, 0), (4, 4), (0, 4)])
        )

    def test_pinched_vertex_not_simple(self):
        # The boundary visits (2, 2) twice (degree 4 vertex).
        poly = Polygon.from_coords(
            [(0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4)]
        )
        assert not polygon_is_simple(poly)

    def test_fold_back_edge_not_simple(self):
        # Second edge doubles back over the first.
        poly = Polygon.from_coords([(0, 0), (4, 0), (2, 0), (2, 3)])
        assert not polygon_is_simple(poly)

    def test_concave_is_simple(self):
        c_shape = Polygon.from_coords(
            [(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (4, 3), (4, 4), (0, 4)]
        )
        assert polygon_is_simple(c_shape)

    def test_boundary_touching_edges_not_simple(self):
        # A vertex of one edge lies in the interior of a non-adjacent edge.
        poly = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (2, 0)])
        assert not polygon_is_simple(poly)

    @given(star_polygons())
    def test_generated_star_polygons_are_simple(self, poly):
        assert poly.is_simple()

    @given(star_polygons(min_vertices=5, max_vertices=12))
    def test_vertex_swap_usually_breaks_simplicity_detectably(self, poly):
        # Swapping two adjacent vertices of a simple ring either keeps it a
        # valid ring or (typically) introduces a crossing; either way the
        # checker must terminate and answer consistently with brute force.
        verts = list(poly.vertices)
        verts[0], verts[1] = verts[1], verts[0]
        twisted = Polygon(verts)
        assert twisted.is_simple() == simple_by_definition(twisted)

    @given(adversarial_rings().map(Polygon))
    def test_equals_the_quadratic_definition_on_adversarial_rings(self, poly):
        # Bow-ties, repeated vertices and collinear runs on the 1/8 grid,
        # half-integer and +-1e15 lattices: the oracle the status-tree sweep
        # used to be.
        assert polygon_is_simple(poly) == simple_by_definition(poly)
