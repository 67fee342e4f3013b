"""Tests for polygon scanline rasterization (paper section 2.2.3 rules)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.geometry import Point, PointLocation, locate_point
from tests.oracles.raster import polygon_coverage_mask, rasterize_polygon_evenodd
from tests.strategies import star_polygons


def buf(n=8):
    return np.zeros((n, n), dtype=np.float32)


class TestBasicFill:
    def test_axis_aligned_square(self):
        b = buf()
        written = rasterize_polygon_evenodd(b, [(1, 1), (5, 1), (5, 5), (1, 5)])
        # Pixel centers strictly inside (1,5)^2: centers 1.5..4.5.
        assert written == 16
        assert b[1:5, 1:5].all()
        assert b.sum() == 16 * 1.0

    def test_triangle(self):
        b = buf()
        rasterize_polygon_evenodd(b, [(0, 0), (8, 0), (0, 8)])
        # Center (0.5, 0.5) is inside; (7.5, 7.5) is not.
        assert b[0, 0] == 1.0
        assert b[7, 7] == 0.0

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            rasterize_polygon_evenodd(buf(), [(0, 0), (1, 1)])

    def test_sub_pixel_polygon_no_center_no_fill(self):
        b = buf()
        written = rasterize_polygon_evenodd(b, [(1.1, 1.1), (1.4, 1.1), (1.25, 1.4)])
        assert written == 0

    def test_polygon_containing_one_center(self):
        b = buf()
        written = rasterize_polygon_evenodd(b, [(1.2, 1.2), (1.9, 1.2), (1.55, 1.9)])
        assert written == 1
        assert b[1, 1] == 1.0


class TestSharedEdgeRule:
    def test_abutting_rectangles_color_exactly_once(self):
        """Spec rule 2: a shared edge colors its pixels exactly once."""
        b = buf()
        # Two rectangles sharing the vertical edge x = 4; centers at x=3.5
        # belong to the left one, x=4.5 to the right one.
        w1 = rasterize_polygon_evenodd(b, [(1, 1), (4, 1), (4, 5), (1, 5)])
        w2 = rasterize_polygon_evenodd(b, [(4, 1), (7, 1), (7, 5), (4, 5)])
        assert w1 + w2 == int(b.sum())  # no pixel written twice
        # And no gap: all centers in [1,7] x [1,5] are covered.
        assert b[1:5, 1:7].all()

    def test_horizontal_shared_edge(self):
        b = buf()
        w1 = rasterize_polygon_evenodd(b, [(1, 1), (5, 1), (5, 3), (1, 3)])
        w2 = rasterize_polygon_evenodd(b, [(1, 3), (5, 3), (5, 6), (1, 6)])
        assert w1 + w2 == int(b.sum())
        assert b[1:6, 1:5].all()

    def test_center_exactly_on_boundary_colored_at_most_once(self):
        # Rectangle boundary passes exactly through pixel centers x=2.5.
        b = buf()
        rasterize_polygon_evenodd(b, [(2.5, 1), (5, 1), (5, 5), (2.5, 5)])
        col_on_edge = b[1:5, 2]
        # With the half-open span rule the on-edge centers belong to this
        # polygon (they are its left-entering crossings) - but they must
        # never be colored twice by an abutting neighbor.
        b2 = buf()
        rasterize_polygon_evenodd(b2, [(0.5, 1), (2.5, 1), (2.5, 5), (0.5, 5)])
        overlap = (b > 0) & (b2 > 0)
        assert not overlap.any()


class TestNonSimple:
    def test_bowtie_even_odd_fill(self):
        verts = [Point(0, 0), Point(4, 4), Point(4, 0), Point(0, 4)]
        b = buf()
        rasterize_polygon_evenodd(b, [(p.x, p.y) for p in verts])
        # Even-odd semantics: every off-boundary pixel center agrees with
        # the crossing-number point-in-polygon classification.
        hits = 0
        for j in range(8):
            for i in range(8):
                loc = locate_point(Point(i + 0.5, j + 0.5), verts)
                if loc is PointLocation.INSIDE:
                    assert b[j, i] == 1.0
                    hits += 1
                elif loc is PointLocation.OUTSIDE:
                    assert b[j, i] == 0.0
        assert hits > 0  # the bowtie lobes are not empty
        # The center of the X is a boundary point, and the region just
        # outside the lobes is unfilled.
        assert b[7, 7] == 0.0


class TestAgainstPointInPolygon:
    @settings(max_examples=80)
    @given(star_polygons())
    def test_mask_matches_locate_point(self, poly):
        """Spec rule 1: filled iff the pixel center is inside (strict
        centers on the boundary may go either way)."""
        shape = (24, 24)
        # Shift the polygon into the positive quadrant viewport.
        dx = -poly.mbr.xmin + 1.0
        dy = -poly.mbr.ymin + 1.0
        moved = poly.translated(dx, dy)
        mask = polygon_coverage_mask(shape, moved.coords())
        for j in range(min(shape[0], int(moved.mbr.ymax) + 2)):
            for i in range(min(shape[1], int(moved.mbr.xmax) + 2)):
                loc = locate_point(Point(i + 0.5, j + 0.5), moved.vertices)
                if loc is PointLocation.INSIDE:
                    assert mask[j, i], f"center ({i}.5, {j}.5) inside but unfilled"
                elif loc is PointLocation.OUTSIDE:
                    assert not mask[j, i], f"center ({i}.5, {j}.5) outside but filled"
