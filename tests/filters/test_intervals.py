"""Tests for the raster-interval second filter (repro.filters.intervals).

Ports the retired ``raster_approx`` three-state classification tests onto
the interval layer (same fixtures, same soundness claims), then adds what
the interval representation itself must guarantee: the floor-based cell
range (the ``int()`` truncation regression), run compression agreeing
with brute-force cell sets, the clipped-pair escape hatch, and the
digest-memoized index.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import SoftwareEngine
from repro.filters import (
    IntervalApproximation,
    IntervalFilterStats,
    IntervalGrid,
    IntervalIndex,
    IntervalVerdict,
    classify_intervals,
)
from repro.filters.intervals import _runs_overlap
from repro.geometry import Polygon, Rect
from tests.strategies import polygon_pairs_nearby, star_polygons

SQUARE = Polygon.from_coords([(0, 0), (8, 0), (8, 8), (0, 8)])
OVERLAPPING = Polygon.from_coords([(4, 4), (12, 4), (12, 12), (4, 12)])
FAR = Polygon.from_coords([(20, 20), (24, 20), (24, 24), (20, 24)])
C_SHAPE = Polygon.from_coords(
    [(0, 0), (8, 0), (8, 2), (2, 2), (2, 6), (8, 6), (8, 8), (0, 8)]
)
IN_NOTCH = Polygon.from_coords([(4, 3), (7, 3), (7, 5), (4, 5)])

#: A world covering every fixture, so no fixture encoding is clipped.
FIXTURE_WORLD = Rect(0.0, 0.0, 24.0, 24.0)


def grid_for(polygon: Polygon, level: int) -> IntervalGrid:
    return IntervalGrid(polygon.mbr, level=level)


class TestGrid:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            IntervalGrid(FIXTURE_WORLD, level=-1)
        with pytest.raises(ValueError):
            IntervalGrid(FIXTURE_WORLD, level=13)

    def test_cell_range_rejects_window_outside(self):
        """The int() truncation regression: a window strictly left of /
        below the world must map to *no* cells, not to column/row 0."""
        grid = IntervalGrid(Rect(0.0, 0.0, 8.0, 8.0), level=3)
        assert grid.cell_range(Rect(-0.5, -0.5, -0.25, -0.25)) is None
        assert grid.cell_range(Rect(-4.0, 2.0, -0.125, 3.0)) is None
        assert grid.cell_range(Rect(9.0, 9.0, 12.0, 12.0)) is None

    def test_cell_range_clamps_straddling_window(self):
        grid = IntervalGrid(Rect(0.0, 0.0, 8.0, 8.0), level=3)
        assert grid.cell_range(Rect(-0.5, -0.5, 0.5, 0.5)) == (0, 0, 0, 0)
        assert grid.cell_range(Rect(7.5, 7.5, 99.0, 99.0)) == (7, 7, 7, 7)
        assert grid.cell_range(Rect(-9.0, -9.0, 99.0, 99.0)) == (0, 0, 7, 7)

    def test_degenerate_world_has_no_cells(self):
        grid = IntervalGrid(Rect(0.0, 0.0, 0.0, 8.0), level=3)
        assert grid.degenerate
        assert grid.cell_range(Rect(-1.0, -1.0, 1.0, 1.0)) is None

    def test_value_semantics(self):
        a = IntervalGrid(FIXTURE_WORLD, level=3)
        b = IntervalGrid(FIXTURE_WORLD, level=3)
        c = IntervalGrid(FIXTURE_WORLD, level=4)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestClassification:
    def test_square_cells(self):
        approx = IntervalApproximation.build(SQUARE, grid_for(SQUARE, 2))
        # Border cells carry the boundary; the 2x2 center is FULL.
        assert set(approx.full_cell_ids().tolist()) == {5, 6, 9, 10}
        assert approx.cell_count == 16

    def test_full_cells_inside_polygon(self):
        grid = grid_for(C_SHAPE, 4)
        approx = IntervalApproximation.build(C_SHAPE, grid)
        assert approx.full_cell_count > 0
        for cell_id in approx.full_cell_ids():
            for corner in grid.cell_rect(int(cell_id)).corners():
                assert C_SHAPE.contains_point(corner)

    def test_empty_cells_outside_polygon(self):
        grid = grid_for(C_SHAPE, 4)
        approx = IntervalApproximation.build(C_SHAPE, grid)
        non_empty = set(approx.cell_ids().tolist())
        for cell_id in range(grid.cells_per_side**2):
            if cell_id not in non_empty:
                center = grid.cell_rect(cell_id).center
                assert not C_SHAPE.contains_point(center)

    def test_degenerate_polygon_all_partial(self):
        sliver = Polygon.from_coords([(0, 0), (4, 0), (2, 0)])
        grid = IntervalGrid(Rect(0.0, 0.0, 4.0, 4.0), level=2)
        approx = IntervalApproximation.build(sliver, grid)
        assert approx.full_cell_count == 0
        assert approx.cell_count > 0
        # With no FULL cells a self-pair proves nothing.
        assert classify_intervals(approx, approx) is IntervalVerdict.UNKNOWN

    def test_runs_agree_with_brute_force_sets(self):
        grid = IntervalGrid(FIXTURE_WORLD, level=4)
        encodings = [
            IntervalApproximation.build(p, grid)
            for p in (SQUARE, OVERLAPPING, FAR, C_SHAPE, IN_NOTCH)
        ]
        for a in encodings:
            for b in encodings:
                brute = bool(
                    set(a.cell_ids().tolist()) & set(b.cell_ids().tolist())
                )
                assert (
                    _runs_overlap(a.starts, a.ends, b.starts, b.ends) == brute
                )

    def test_run_compression_round_trips(self):
        grid = grid_for(C_SHAPE, 4)
        approx = IntervalApproximation.build(C_SHAPE, grid)
        ids = approx.cell_ids()
        assert (np.diff(ids) > 0).all(), "cell ids must be strictly sorted"
        assert approx.cell_count == ids.size
        assert (approx.ends > approx.starts).all()


class TestPairVerdicts:
    @pytest.fixture(scope="class")
    def grid(self) -> IntervalGrid:
        # Level 4 over the 24-unit shared world: 1.5-unit cells, fine
        # enough for the overlapping squares to share a FULL cell.
        return IntervalGrid(FIXTURE_WORLD, level=4)

    def test_overlapping_squares_confirmed(self, grid):
        a = IntervalApproximation.build(SQUARE, grid)
        b = IntervalApproximation.build(OVERLAPPING, grid)
        stats = IntervalFilterStats()
        assert classify_intervals(a, b, stats) is IntervalVerdict.INTERSECTING
        assert stats.intersecting == 1 and stats.resolved == 1

    def test_far_pair_disjoint(self, grid):
        a = IntervalApproximation.build(SQUARE, grid)
        b = IntervalApproximation.build(FAR, grid)
        assert classify_intervals(a, b) is IntervalVerdict.DISJOINT

    def test_notch_pair_never_intersecting(self):
        """The notch square overlaps the C's MBR but not its region: the
        filter must never claim INTERSECTING."""
        grid = IntervalGrid(Rect(0.0, 0.0, 8.0, 8.0), level=4)
        a = IntervalApproximation.build(C_SHAPE, grid)
        b = IntervalApproximation.build(IN_NOTCH, grid)
        assert classify_intervals(a, b) is not IntervalVerdict.INTERSECTING

    def test_mismatched_grids_rejected(self, grid):
        other = IntervalGrid(FIXTURE_WORLD, level=3)
        a = IntervalApproximation.build(SQUARE, grid)
        b = IntervalApproximation.build(SQUARE, other)
        with pytest.raises(ValueError):
            classify_intervals(a, b)

    def test_both_clipped_never_disjoint(self):
        """Two polygons outside the world could meet beyond its edge; the
        encodings prove nothing there, so no DISJOINT certificate."""
        grid = IntervalGrid(Rect(0.0, 0.0, 4.0, 4.0), level=3)
        a = IntervalApproximation.build(FAR, grid)
        b = IntervalApproximation.build(
            Polygon.from_coords([(30, 30), (34, 30), (34, 34), (30, 34)]), grid
        )
        assert a.clipped and b.clipped
        assert classify_intervals(a, b) is IntervalVerdict.UNKNOWN

    def test_one_unclipped_side_allows_disjoint(self):
        """With one side fully inside the world, any shared point would be
        inside the world too - DISJOINT stays a proof."""
        grid = IntervalGrid(Rect(0.0, 0.0, 10.0, 10.0), level=3)
        a = IntervalApproximation.build(SQUARE, grid)
        b = IntervalApproximation.build(FAR, grid)
        assert not a.clipped and b.clipped
        assert classify_intervals(a, b) is IntervalVerdict.DISJOINT

    @settings(max_examples=80, deadline=None)
    @given(polygon_pairs_nearby())
    def test_verdicts_are_sound(self, pair):
        pa, pb = pair
        grid = IntervalGrid(Rect.union_all([pa.mbr, pb.mbr]), level=3)
        verdict = classify_intervals(
            IntervalApproximation.build(pa, grid),
            IntervalApproximation.build(pb, grid),
        )
        truth = SoftwareEngine().polygons_intersect(pa, pb)
        if verdict is IntervalVerdict.INTERSECTING:
            assert truth, "INTERSECTING must be a proof"
        elif verdict is IntervalVerdict.DISJOINT:
            assert not truth, "DISJOINT must be a proof"

    @settings(max_examples=40, deadline=None)
    @given(star_polygons())
    def test_self_pair_intersecting_when_full_exists(self, poly):
        grid = IntervalGrid(poly.mbr, level=4)
        approx = IntervalApproximation.build(poly, grid)
        if approx.full_cell_count:
            assert (
                classify_intervals(approx, approx)
                is IntervalVerdict.INTERSECTING
            )


class TestIndex:
    def test_encodings_memoized_by_digest(self):
        index = IntervalIndex(IntervalGrid(FIXTURE_WORLD, level=4))
        first = index.encode(SQUARE)
        rebuilt = Polygon.from_coords([(0, 0), (8, 0), (8, 8), (0, 8)])
        assert index.encode(rebuilt) is first
        assert len(index) == 1

    def test_classify_through_index(self):
        index = IntervalIndex(IntervalGrid(FIXTURE_WORLD, level=4))
        stats = IntervalFilterStats()
        assert (
            index.classify(SQUARE, OVERLAPPING, stats)
            is IntervalVerdict.INTERSECTING
        )
        assert index.classify(SQUARE, FAR, stats) is IntervalVerdict.DISJOINT
        assert stats.tests == 2 and stats.resolved == 2

    def test_for_datasets_requires_data(self):
        with pytest.raises(ValueError):
            IntervalIndex.for_datasets([])
