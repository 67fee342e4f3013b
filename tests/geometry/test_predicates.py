"""Unit and property tests for the low-level geometric predicates."""

from hypothesis import given

from repro.geometry import Point, cross, on_segment, segments_intersect
from tests.strategies import points, segments


class TestOrientation:
    """The orientation of a point triple is the sign of :func:`cross`; on the
    strategies' 1/8 grid the product is exact, so the symmetries hold with
    ``==`` on the value, not just on its sign."""

    def test_counterclockwise(self):
        assert cross(Point(0, 0), Point(1, 0), Point(1, 1)) > 0

    def test_clockwise(self):
        assert cross(Point(0, 0), Point(1, 1), Point(1, 0)) < 0

    def test_collinear(self):
        assert cross(Point(0, 0), Point(1, 1), Point(2, 2)) == 0

    def test_cross_sign_matches(self):
        assert cross(Point(0, 0), Point(1, 0), Point(0, 1)) > 0
        assert cross(Point(0, 0), Point(0, 1), Point(1, 0)) < 0

    @given(points, points, points)
    def test_reversal_flips_orientation(self, a, b, c):
        assert cross(a, b, c) == -cross(c, b, a)

    @given(points, points, points)
    def test_cyclic_shift_preserves_orientation(self, a, b, c):
        assert cross(a, b, c) == cross(b, c, a)


class TestOnSegment:
    def test_interior_point(self):
        assert on_segment(Point(1, 1), Point(0, 0), Point(2, 2))

    def test_endpoints(self):
        assert on_segment(Point(0, 0), Point(0, 0), Point(2, 2))
        assert on_segment(Point(2, 2), Point(0, 0), Point(2, 2))

    def test_collinear_but_outside(self):
        assert not on_segment(Point(3, 3), Point(0, 0), Point(2, 2))

    def test_off_line(self):
        assert not on_segment(Point(1, 0), Point(0, 0), Point(2, 2))

    def test_degenerate_segment(self):
        assert on_segment(Point(1, 1), Point(1, 1), Point(1, 1))
        assert not on_segment(Point(1, 2), Point(1, 1), Point(1, 1))


class TestSegmentsIntersect:
    def test_proper_crossing(self):
        assert segments_intersect(Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0))

    def test_t_junction_improper(self):
        # q1q2 ends on the interior of p1p2.
        assert segments_intersect(Point(0, 0), Point(4, 0), Point(2, 0), Point(2, 3))

    def test_shared_endpoint_improper(self):
        assert segments_intersect(Point(0, 0), Point(1, 1), Point(1, 1), Point(2, 0))

    def test_collinear_overlap_counts(self):
        assert segments_intersect(Point(0, 0), Point(3, 0), Point(2, 0), Point(5, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect(
            Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)
        )

    def test_parallel_non_collinear(self):
        assert not segments_intersect(
            Point(0, 0), Point(2, 0), Point(0, 1), Point(2, 1)
        )

    def test_clearly_disjoint(self):
        assert not segments_intersect(
            Point(0, 0), Point(1, 0), Point(0, 2), Point(1, 2)
        )

    def test_near_miss_crossing_beyond_endpoint(self):
        # The infinite lines cross, the segments do not.
        assert not segments_intersect(
            Point(0, 0), Point(1, 1), Point(3, 0), Point(0, 3)
        )

    @given(segments(), segments())
    def test_symmetric(self, s1, s2):
        assert segments_intersect(*s1, *s2) == segments_intersect(*s2, *s1)

    @given(segments(), segments())
    def test_orientation_independent(self, s1, s2):
        assert segments_intersect(*s1, *s2) == segments_intersect(
            s1[1], s1[0], s2[1], s2[0]
        )
