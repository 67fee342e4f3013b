"""Tests for the convex-hull progressive filter (Brinkhoff-style, Table 1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SoftwareEngine
from repro.filters import ConvexHullFilter
from repro.geometry import (
    Polygon,
    point_in_polygon,
    polygons_intersect,
)
from tests.strategies import polygon_pairs_nearby, star_polygons

C_SHAPE = Polygon.from_coords(
    [(0, 0), (8, 0), (8, 2), (2, 2), (2, 6), (8, 6), (8, 8), (0, 8)]
)
IN_NOTCH = Polygon.from_coords([(4, 3), (7, 3), (7, 5), (4, 5)])
FAR = Polygon.from_coords([(20, 20), (22, 20), (22, 22), (20, 22)])


class TestHullConstruction:
    def test_hull_contains_polygon_vertices(self):
        f = ConvexHullFilter([C_SHAPE])
        hull = f.hull(0)
        for v in C_SHAPE.vertices:
            assert point_in_polygon(v, hull.vertices)

    def test_hull_is_simpler(self):
        f = ConvexHullFilter([C_SHAPE])
        assert f.hull(0).num_vertices <= C_SHAPE.num_vertices

    def test_degenerate_polygon_fallback(self):
        sliver = Polygon.from_coords([(0, 0), (2, 0), (1, 0)])
        f = ConvexHullFilter([sliver])
        assert f.hull(0).num_vertices >= 3

    @settings(max_examples=50)
    @given(star_polygons())
    def test_hull_always_contains_polygon(self, poly):
        f = ConvexHullFilter([poly])
        hull = f.hull(0)
        for v in poly.vertices:
            assert point_in_polygon(v, hull.vertices)


class TestIntersectionFilter:
    def test_false_positive_by_design(self):
        """The notch square intersects the hull but not the C-shape: the
        filter must answer 'maybe' (True) - it cannot prove intersection."""
        fa = ConvexHullFilter([C_SHAPE])
        fb = ConvexHullFilter([IN_NOTCH])
        assert fa.may_intersect(0, fb, 0)
        assert not polygons_intersect(C_SHAPE, IN_NOTCH)

    def test_disjoint_hulls_rejected(self):
        fa = ConvexHullFilter([C_SHAPE])
        fb = ConvexHullFilter([FAR])
        assert not fa.may_intersect(0, fb, 0)
        assert fa.stats.rejected == 1

    @settings(max_examples=80)
    @given(polygon_pairs_nearby())
    def test_never_rejects_true_intersections(self, pair):
        a, b = pair
        fa = ConvexHullFilter([a])
        fb = ConvexHullFilter([b])
        if polygons_intersect(a, b):
            assert fa.may_intersect(0, fb, 0)


class TestJoinIntegration:
    def test_hull_filter_does_not_change_join_results(self, ):
        from repro.datasets import load
        from repro.query import IntersectionJoin

        a = load("LANDC", n_scale=0.0015, v_scale=0.3)
        b = load("LANDO", n_scale=0.0015, v_scale=0.3)
        plain = IntersectionJoin(a, b, SoftwareEngine()).run()
        filtered_join = IntersectionJoin(
            a, b, SoftwareEngine(), use_hull_filter=True
        )
        filtered = filtered_join.run()
        assert filtered.pairs == plain.pairs
        assert filtered.cost.intermediate_filter_s > 0.0
        assert filtered_join.hulls_a is not None
        assert filtered_join.hulls_a.stats.tests > 0
