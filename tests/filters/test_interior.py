"""Tests for the interior filter (tiling-based containment positives).

The paper's interior tiles are the FULL cells of the query polygon's
interval encoding on a ``2^level x 2^level`` grid over its own MBR, and the
filter's coverage test is :meth:`IntervalApproximation.covers`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import IntervalApproximation, IntervalGrid
from repro.geometry import Point, Polygon, Rect
from tests.strategies import star_polygons

SQUARE = Polygon.from_coords([(0, 0), (8, 0), (8, 8), (0, 8)])


def interior(query: Polygon, level: int) -> IntervalApproximation:
    return IntervalApproximation.build(query, IntervalGrid(query.mbr, level))


def tiles(encoding: IntervalApproximation) -> np.ndarray:
    """The interior bitmap, row-major ``[row, column]``."""
    n = encoding.grid.cells_per_side
    mask = np.zeros(n * n, dtype=bool)
    mask[encoding.full_cell_ids()] = True
    return mask.reshape(n, n)


class TestConstruction:
    def test_level_zero_single_tile(self):
        f = interior(SQUARE, 0)
        assert f.grid.cells_per_side == 1
        # The single tile spans the whole MBR, whose boundary is the
        # polygon itself: the tile is boundary-touched, never interior.
        assert f.full_cell_count == 0

    def test_level_two_square_interior(self):
        f = interior(SQUARE, 2)
        # 4x4 tiles of size 2: the 4 center tiles are strictly inside; the
        # 12 border tiles touch the boundary.
        assert f.grid.cells_per_side == 4
        assert f.full_cell_count == 4
        assert tiles(f)[1:3, 1:3].all()

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            interior(SQUARE, -1)

    def test_rejects_huge_level(self):
        with pytest.raises(ValueError):
            interior(SQUARE, 13)

    def test_concave_polygon_notch_excluded(self):
        c_shape = Polygon.from_coords(
            [(0, 0), (8, 0), (8, 2), (2, 2), (2, 6), (8, 6), (8, 8), (0, 8)]
        )
        # At level 3 every 1x1 tile of the 2-unit-wide arms touches a
        # boundary, so nothing is interior.
        assert interior(c_shape, 3).full_cell_count == 0
        # At level 4 (0.5-unit tiles) the arm interiors appear.
        f = interior(c_shape, 4)
        assert f.full_cell_count > 0
        # Tile [0.5,1] x [4,4.5] is strictly inside the left arm.
        assert tiles(f)[8, 1]
        # Tile [5,5.5] x [4,4.5] is in the notch (outside the polygon).
        assert not tiles(f)[8, 10]


class TestCovers:
    def test_covered_mbr_is_positive(self):
        f = interior(SQUARE, 3)
        assert f.covers(Rect(3, 3, 5, 5))

    def test_mbr_touching_boundary_not_covered(self):
        f = interior(SQUARE, 3)
        assert not f.covers(Rect(0.1, 0.1, 2, 2))

    def test_mbr_outside_query_mbr(self):
        f = interior(SQUARE, 3)
        assert not f.covers(Rect(7, 7, 9, 9))
        assert not f.covers(Rect(20, 20, 21, 21))

    def test_degenerate_mbr_inside(self):
        f = interior(SQUARE, 3)
        assert f.covers(Rect(4, 4, 4, 4))

    def test_whole_query_mbr_not_covered(self):
        f = interior(SQUARE, 3)
        assert not f.covers(SQUARE.mbr)


class TestSoundness:
    """Filter positives must be true positives: that is its contract."""

    @settings(max_examples=60)
    @given(star_polygons(min_vertices=5, max_vertices=16), st.integers(1, 5))
    def test_interior_tiles_are_inside_polygon(self, poly, level):
        f = interior(poly, level)
        n = f.grid.cells_per_side
        mbr = poly.mbr
        tw = mbr.width / n if mbr.width else 0.0
        th = mbr.height / n if mbr.height else 0.0
        if tw == 0.0 or th == 0.0:
            return
        js, is_ = np.nonzero(tiles(f))
        for j, i in zip(js, is_):
            # Sample the tile: corners and center must all be inside.
            for fx in (0.02, 0.5, 0.98):
                for fy in (0.02, 0.5, 0.98):
                    p = Point(
                        mbr.xmin + (i + fx) * tw, mbr.ymin + (j + fy) * th
                    )
                    assert poly.contains_point(p), (
                        f"tile ({i},{j}) marked interior but sample {p} is outside"
                    )

    @settings(max_examples=40)
    @given(star_polygons(min_vertices=5, max_vertices=16), st.integers(1, 4))
    def test_covers_implies_contained(self, poly, level):
        f = interior(poly, level)
        mbr = poly.mbr
        # Probe sub-rectangles of the query MBR.
        for fx0, fy0, fx1, fy1 in [
            (0.3, 0.3, 0.6, 0.6),
            (0.1, 0.4, 0.3, 0.8),
            (0.45, 0.45, 0.55, 0.55),
        ]:
            probe = Rect(
                mbr.xmin + fx0 * mbr.width,
                mbr.ymin + fy0 * mbr.height,
                mbr.xmin + fx1 * mbr.width,
                mbr.ymin + fy1 * mbr.height,
            )
            if f.covers(probe):
                for cx in (probe.xmin, probe.center.x, probe.xmax):
                    for cy in (probe.ymin, probe.center.y, probe.ymax):
                        assert poly.contains_point(Point(cx, cy))

    @settings(max_examples=30)
    @given(star_polygons(min_vertices=6, max_vertices=14))
    def test_interior_count_grows_with_level_resolution(self, poly):
        """Higher levels approximate the interior no worse in area terms."""
        areas = []
        mbr = poly.mbr
        if mbr.width == 0.0 or mbr.height == 0.0:
            return
        for level in (1, 3, 5):
            f = interior(poly, level)
            n = f.grid.cells_per_side
            tile_area = (mbr.width / n) * (mbr.height / n)
            areas.append(f.full_cell_count * tile_area)
        # Covered area is monotone non-decreasing (up to tiny numeric slack)
        # and never exceeds the polygon area.
        assert areas[0] <= areas[1] + 1e-9
        assert areas[1] <= areas[2] + 1e-9
        assert areas[2] <= poly.area + 1e-6
