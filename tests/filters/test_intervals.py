"""Tests for the raster-interval second filter (repro.filters.intervals).

Ports the retired ``raster_approx`` three-state classification tests onto
the interval layer (same fixtures, same soundness claims), then adds what
the interval representation itself must guarantee: the floor-based cell
range (the ``int()`` truncation regression), run compression agreeing
with brute-force cell sets, the clipped-pair escape hatch, the
digest-memoized index, and its batch classify against the per-pair test
(the oracle) with two named mutants of the row-keyed merge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.datasets import load
from repro.datasets.dataset import SpatialDataset
from repro.filters import (
    IntervalApproximation,
    IntervalGrid,
    IntervalIndex,
    IntervalVerdict,
    classify_intervals,
)
from repro.filters import intervals
from repro.filters.intervals import _runs_overlap
from repro.geometry import Polygon, Rect
from repro.query import IntersectionSelection
from tests.oracles.raster import classify_pairs_one_by_one, interval_runs_one_by_one
from tests.strategies import candidate_lists, polygon_pairs_nearby, star_polygons

SQUARE = Polygon.from_coords([(0, 0), (8, 0), (8, 8), (0, 8)])
OVERLAPPING = Polygon.from_coords([(4, 4), (12, 4), (12, 12), (4, 12)])
FAR = Polygon.from_coords([(20, 20), (24, 20), (24, 24), (20, 24)])
C_SHAPE = Polygon.from_coords(
    [(0, 0), (8, 0), (8, 2), (2, 2), (2, 6), (8, 6), (8, 8), (0, 8)]
)
IN_NOTCH = Polygon.from_coords([(4, 3), (7, 3), (7, 5), (4, 5)])

#: A world covering every fixture, so no fixture encoding is clipped.
FIXTURE_WORLD = Rect(0.0, 0.0, 24.0, 24.0)


def square(x: float, y: float, side: float) -> Polygon:
    return Polygon.from_coords([(x, y), (x + side, y), (x + side, y + side), (x, y + side)])


def grid_for(polygon: Polygon, level: int) -> IntervalGrid:
    return IntervalGrid(polygon.mbr, level=level)


class TestGrid:
    def test_level_validation(self):
        """Only a non-bool int in [0, 12]: 8.5 made 362.04 cells per side
        and float cell ids; True passed as level 1."""
        for level in (-1, 13, 8.5, 8.0, True, False, "8", None):
            with pytest.raises(ValueError):
                IntervalGrid(FIXTURE_WORLD, level=level)

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

    def test_cell_range_of_a_finite_window_far_outside(self):
        """Quotients that overflow to +-inf are clamped before flooring
        (math.floor(inf) raised OverflowError)."""
        grid = IntervalGrid(Rect(0.0, 0.0, 1.0, 1.0), level=3)
        assert grid.cell_range(Rect(-3e307, -3e307, 3e307, 3e307)) == (0, 0, 7, 7)
        assert grid.cell_range(Rect(-1e308, -1e308, 1.7e308, 1.7e308)) == (0, 0, 7, 7)
        assert grid.cell_range(Rect(-1.7e308, 0.0, -1e308, 1.0)) is None
        assert grid.cell_range(Rect(1e308, 1e308, 1.7e308, 1.7e308)) is None

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
                    _runs_overlap(a.starts, a.ends, b.starts, b.ends).any() == brute
                )

    @pytest.mark.parametrize("side", [6e307, 3e152, 2.0**25])
    def test_polygon_beyond_the_rasterizers_range_is_all_partial(self, side):
        """Cell coordinates that overflow (6e307), that the fill's products
        overflow on (3e152 gave an empty encoding: a false DISJOINT), or
        beyond 2^24 encode every cell of the clamped range as PARTIAL."""
        huge = square(-side / 2, -side / 2, side)
        grid = IntervalGrid(Rect(0.0, 0.0, 3.0, 3.0), level=3)
        approx = IntervalApproximation.build(huge, grid)
        assert approx.cell_count == 64 and approx.full_cell_count == 0

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
        assert classify_intervals(a, b) is IntervalVerdict.INTERSECTING

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
        assert index.classify_batch([(SQUARE, OVERLAPPING), (SQUARE, FAR)]) == [
            IntervalVerdict.INTERSECTING,
            IntervalVerdict.DISJOINT,
        ]
        assert index.classify_batch([]) == []

    def test_for_datasets_keeps_each_datasets_rows(self):
        """Each pre-encoded dataset's read-only row array, in order: a
        polygon repeated across datasets shares its row, and the rows
        classify as the polygons do."""
        first = SpatialDataset("first", [SQUARE, FAR])
        second = SpatialDataset("second", [OVERLAPPING, SQUARE, FAR])
        index = IntervalIndex.for_datasets([first, second], level=4)
        rows_a, rows_b = index.dataset_rows
        assert rows_a.tolist() == [0, 1] and rows_b.tolist() == [2, 0, 1]
        assert len(index) == 3
        with pytest.raises(ValueError):
            rows_a[0] = 1
        codes = index.classify_rows(rows_a.take([0, 0, 1]), rows_b.take([0, 2, 2]))
        assert intervals._VERDICTS.take(codes).tolist() == index.classify_batch(
            [(SQUARE, OVERLAPPING), (SQUARE, FAR), (FAR, FAR)]
        )
        assert IntervalIndex(index.grid).dataset_rows == ()

    def test_for_datasets_on_the_join_layers_equals_one_by_one(self):
        """The ``join-wp-intervals`` benchmark's layers at level 8: every
        encoding's runs are those of its polygon built alone, with the
        boundary drawn arc by arc."""
        layers = [load("WATER", n_scale=0.003), load("PRISM", n_scale=0.03)]
        index = IntervalIndex.for_datasets(layers, level=8)
        polygons = [p for ds in layers for p in ds.polygons]
        got = [
            (e.starts.tolist(), e.ends.tolist(), e.full_starts.tolist(),
             e.full_ends.tolist(), e.clipped)
            for e in map(index.encode, polygons)
        ]
        assert got == interval_runs_one_by_one(polygons, index.grid)

    def test_for_datasets_requires_data(self):
        with pytest.raises(ValueError):
            IntervalIndex.for_datasets([])


class TestFarQueries:
    """A finite query far larger than the grid: intervals on == off."""

    DATA = SpatialDataset(
        "three", [square(0, 0, 1), square(1.5, 0.2, 1.2), square(0.3, 2, 0.9)]
    )

    @pytest.mark.parametrize(
        "query",
        [
            square(-3e307, -3e307, 6e307),
            Polygon.from_coords(
                [(-1e308, -1e308), (1.7e308, -1e308), (1.7e308, 1.7e308), (-1e308, 1.7e308)]
            ),
        ],
    )
    @pytest.mark.parametrize(
        "make_engine",
        [SoftwareEngine, lambda: HardwareEngine(HardwareConfig())],
        ids=["software", "hardware"],
    )
    def test_intervals_on_equals_off(self, query, make_engine):
        def ids(use_intervals):
            selection = IntersectionSelection(
                self.DATA, make_engine(), use_intervals=use_intervals
            )
            return selection.run(query).ids

        assert ids(True) == ids(False) == [0, 1, 2]


class TestBatchEqualsPerPair:
    @settings(max_examples=80, deadline=None)
    @given(candidate_lists(), st.booleans())
    def test_batch_equals_the_per_pair_loop(self, case, prebuilt):
        grid, pairs = case
        index = IntervalIndex(grid)
        if prebuilt:
            # Rows in reverse first-seen order, packed before the batch.
            for a, b in reversed(pairs):
                index.encode(b)
                index.encode(a)
        assert index.classify_batch(pairs) == classify_pairs_one_by_one(grid, pairs)

    @settings(max_examples=30, deadline=None)
    @given(candidate_lists())
    def test_batches_append_rows(self, case):
        """Classifying a list in pieces (rows appended batch by batch, the
        store growing) answers what one batch answers."""
        grid, pairs = case
        index = IntervalIndex(grid)
        pieces = [index.classify_batch(pairs[i : i + 3]) for i in range(0, len(pairs), 3)]
        assert sum(pieces, []) == classify_pairs_one_by_one(grid, pairs)
        assert len(index) == len({p.digest for pair in pairs for p in pair})

    @settings(max_examples=30, deadline=None)
    @given(candidate_lists(), st.sampled_from([1, 2, 3, 7]))
    def test_merge_steps_and_a_reused_workspace(self, case, step):
        """Gathered runs merged a few at a time, a pair's runs split across
        steps, answer what one step answers - twice, the second batch in
        the workspace the first one grew."""
        grid, pairs = case
        index = IntervalIndex(grid)
        expected = classify_pairs_one_by_one(grid, pairs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intervals, "_OVERLAP_STEP", step)
            assert index.classify_batch(pairs) == expected
            assert index.classify_batch(pairs[::-1]) == expected[::-1]


# Row-keyed merge literal, on a 4 x 4 grid of unit cells (M = 16 cells):
# row 0 holds a run ending at cell M, row 2 one starting at cell 0, and
# row 1 two runs touching neither corner.  Every pair is disjoint.
CORNER_HIGH = square(3.25, 3.25, 0.5)  # cell 15: run [15, 16)
COLUMN = Polygon.from_coords([(1.25, 0.25), (1.75, 0.25), (1.75, 1.75), (1.25, 1.75)])
CORNER_LOW = square(0.25, 0.25, 0.5)  # cell 0: run [0, 1)
ROW_PAIRS = [
    (CORNER_LOW, COLUMN),  # keyed [16, 17) meets row 0's end at 16
    (COLUMN, CORNER_LOW),
    (CORNER_HIGH, COLUMN),  # keyed [31, 32) meets row 2's start at 32
    (COLUMN, CORNER_HIGH),
]


def row_keyed_index() -> IntervalIndex:
    index = IntervalIndex(IntervalGrid(Rect(0.0, 0.0, 4.0, 4.0), level=2))
    for polygon in (CORNER_HIGH, COLUMN, CORNER_LOW):
        index.encode(polygon)
    return index


def _ends_searched_left(starts_q, ends_q, starts, ends):
    lo = np.searchsorted(ends, starts_q, side="left")
    hi = np.searchsorted(starts, ends_q, side="left")
    return hi > lo


@pytest.fixture
def ends_searched_left(monkeypatch):
    """Mutant of the half-open merge: a keyed run ending exactly where a
    query run starts counts as overlapping it - across a row boundary,
    the previous row's last cell."""
    monkeypatch.setattr(intervals, "_runs_overlap", _ends_searched_left)


@pytest.fixture
def keyed_by_m_minus_1(monkeypatch):
    """Mutant of the row key: rows ``M - 1`` apart overlap by one cell."""

    class KeyedByMMinus1(intervals._PackedRuns):
        def __init__(self, stride):
            super().__init__(stride - 1)

    monkeypatch.setattr(intervals, "_PackedRuns", KeyedByMMinus1)


class TestRowBoundary:
    def test_literal_runs(self):
        index = row_keyed_index()
        assert index.encode(CORNER_HIGH).starts.tolist() == [15]
        assert index.encode(CORNER_HIGH).ends.tolist() == [16]
        assert index.encode(COLUMN).starts.tolist() == [1, 5]
        assert index.encode(CORNER_LOW).ends.tolist() == [1]

    def test_runs_touching_across_a_row_boundary_never_match(self):
        index = row_keyed_index()
        expected = [IntervalVerdict.DISJOINT] * len(ROW_PAIRS)
        assert classify_pairs_one_by_one(index.grid, ROW_PAIRS) == expected
        assert index.classify_batch(ROW_PAIRS) == expected

    def test_mutant_ends_searched_left_matches_across_the_boundary(
        self, ends_searched_left
    ):
        assert row_keyed_index().classify_batch(ROW_PAIRS)[0] is IntervalVerdict.UNKNOWN

    def test_mutant_keyed_by_m_minus_1_matches_across_the_boundary(
        self, keyed_by_m_minus_1
    ):
        verdicts = row_keyed_index().classify_batch(ROW_PAIRS)
        assert verdicts[0] is verdicts[2] is IntervalVerdict.UNKNOWN
