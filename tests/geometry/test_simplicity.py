"""The definition of polygon simplicity (the paper's footnote 1) that the
generator's star polygons are checked against, pinned on literal rings."""

from hypothesis import given

from repro.geometry import Polygon, on_segment, segments_intersect
from tests.strategies import star_polygons


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


class TestPolygonSimplicity:
    def test_square_is_simple(self):
        assert simple_by_definition(
            Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        )

    def test_bowtie_is_not_simple(self):
        assert not simple_by_definition(
            Polygon.from_coords([(0, 0), (2, 2), (2, 0), (0, 2)])
        )

    def test_repeated_consecutive_vertex_not_simple(self):
        assert not simple_by_definition(
            Polygon.from_coords([(0, 0), (4, 0), (4, 0), (4, 4), (0, 4)])
        )

    def test_pinched_vertex_not_simple(self):
        # The boundary visits (2, 2) twice (degree 4 vertex).
        poly = Polygon.from_coords(
            [(0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4)]
        )
        assert not simple_by_definition(poly)

    def test_fold_back_edge_not_simple(self):
        # Second edge doubles back over the first.
        poly = Polygon.from_coords([(0, 0), (4, 0), (2, 0), (2, 3)])
        assert not simple_by_definition(poly)

    def test_concave_is_simple(self):
        c_shape = Polygon.from_coords(
            [(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (4, 3), (4, 4), (0, 4)]
        )
        assert simple_by_definition(c_shape)

    def test_boundary_touching_edges_not_simple(self):
        # A vertex of one edge lies in the interior of a non-adjacent edge.
        poly = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (2, 0)])
        assert not simple_by_definition(poly)

    @given(star_polygons())
    def test_generated_star_polygons_are_simple(self, poly):
        assert simple_by_definition(poly)
