"""A named mutant of each certificate's own condition, and the test that
kills it.

Four of the proofs exactness rests on (ROADMAP item 10) are pinned here by
breaking their condition in the source (``tests/oracles/mutants.py``) and
running one literal against the edited module:

1. hardware "no shared pixel" - every cell the width-``w`` rectangle meets
   is colored: the half width shrunk by one ulp loses the cells on the
   footprint's bound;
2. interval "no shared cell" - every cell the boundary touches is encoded:
   PARTIAL cells whose centre lies outside the polygon encoded as EMPTY
   turn an intersecting pair DISJOINT; and it proves nothing when both
   encodings are clipped to the world: without that guard, in the per-pair
   and the batched classifier, two polygons that meet only outside the
   world read DISJOINT;
3. the interior filter's cover - the closed tile range of the object's
   MBR (``IntervalGrid.cell_range``, read by ``IntervalApproximation.covers``
   on the query's own grid): a half-open range (``<`` for ``<=`` at the
   upper tile edge) stops an MBR side lying on a tile edge from reaching
   the tile beyond it.  That answer would still be sound (the shared side
   belongs to the interior tile), so the literal pins the cover's stated
   rule, not a false positive;
5. the 1-Object upper bound - the larger of a side's two corner distances:
   a corner omitted makes the bound smaller than the true distance.
"""

import math

import numpy as np
import pytest

from repro.filters import intervals, object_filters
from repro.geometry import Polygon, Rect
from repro.gpu import raster_bulk
from tests.oracles.geometry import polygon_distance_brute_force
from tests.oracles.mutants import mutant
from tests.oracles.raster import draw_edges

WIDE = 6.0
#: The row bound ``((0 + hv) + 0.5) + eps`` of a horizontal edge of width 6:
#: ``hv = 3`` has an ulp that survives the additions.
BOUND = ((0.0 + WIDE * 0.5) + 0.5) + raster_bulk.COVERAGE_EPS
#: A horizontal edge just below the buffer whose offset to row 3's centre
#: is exactly the bound (both subtractions are exact).
EDGE_Y = 3.5 - BOUND


def footprint_reaches_its_bound(module):
    assert 3.5 - EDGE_Y == BOUND
    edge = np.array([[2.0, EDGE_Y, 9.0, EDGE_Y]])
    mask = module.edges_coverage_mask((16, 16), edge, WIDE)
    assert np.array_equal(mask, draw_edges((16, 16), edge, WIDE))
    assert mask[3].any()


#: Two slivers overlapping inside cell 0 of a 4 x 4 grid of unit cells,
#: neither holding that cell's centre.
SLIVER_A = Polygon.from_coords([(0.1, 0.1), (0.4, 0.1), (0.4, 0.4), (0.1, 0.4)])
SLIVER_B = Polygon.from_coords([(0.3, 0.3), (0.45, 0.3), (0.45, 0.45), (0.3, 0.45)])


def touched_cells_are_encoded(module):
    grid = module.IntervalGrid(Rect(0.0, 0.0, 4.0, 4.0), level=2)
    a = module.IntervalApproximation.build(SLIVER_A, grid)
    b = module.IntervalApproximation.build(SLIVER_B, grid)
    assert module.classify_intervals(a, b) is not module.IntervalVerdict.DISJOINT


#: Two rectangles that stick out of the 4 x 4 world and overlap only outside
#: it (x 4.5-6, y 0.2-0.4).
OUTSIDE_A = Polygon.from_coords([(3.2, 0.2), (6, 0.2), (6, 0.4), (3.2, 0.4)])
OUTSIDE_B = Polygon.from_coords([(4.5, 0.1), (7, 0.1), (7, 0.5), (4.5, 0.5)])


def both_clipped_pair_is_unknown(module):
    grid = module.IntervalGrid(Rect(0.0, 0.0, 4.0, 4.0), level=2)
    a = module.IntervalApproximation.build(OUTSIDE_A, grid)
    b = module.IntervalApproximation.build(OUTSIDE_B, grid)
    assert a.clipped and b.clipped
    unknown = module.IntervalVerdict.UNKNOWN
    assert module.classify_intervals(a, b) is unknown
    assert module.IntervalIndex(grid).classify_batch([(OUTSIDE_A, OUTSIDE_B)]) == [unknown]


#: At level 2 the square's interior tiles are the centre 2 x 2, [1, 3]^2.
QUERY = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])


def cover_is_the_closed_tile_range(module):
    f = module.IntervalApproximation.build(QUERY, module.IntervalGrid(QUERY.mbr, level=2))
    assert f.covers(Rect(1.5, 1.5, 2.5, 2.5))
    # xmax on the edge between interior tile 2 and boundary tile 3.
    assert not f.covers(Rect(1.5, 1.5, 3.0, 2.5))


#: A square and a triangle whose MBR corner nearest the square is not on it.
NEAR = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
CUT_CORNER = Polygon.from_coords([(12, 10), (12, 12), (10, 12)])


def one_object_bound_is_an_upper_bound(module):
    true_d = polygon_distance_brute_force(NEAR, CUT_CORNER)
    assert module.one_object_upper_bound(NEAR, CUT_CORNER.mbr) >= true_d


#: Named mutant -> (module, its ``(source text, replacement)`` edits, the
#: check that kills it).
MUTANTS = {
    "footprint_shrunk_by_an_ulp": (
        raster_bulk,
        [(
            "hv = widths * 0.5 if widths.ndim == 0",
            "hv = np.nextafter(widths * 0.5, 0.0) if widths.ndim == 0",
        )],
        footprint_reaches_its_bound,
    ),
    "partial_cell_encoded_empty": (
        intervals,
        [(
            "js, is_ = np.nonzero(full_mask | touched_mask)",
            "js, is_ = np.nonzero(full_mask | (touched_mask & inside))",
        )],
        touched_cells_are_encoded,
    ),
    "both_clipped_guard_dropped": (
        intervals,
        [("not (a.clipped and b.clipped) and ", ""), (" & ~both_clipped", "")],
        both_clipped_pair_is_unknown,
    ),
    "cover_upper_tile_half_open": (
        intervals,
        [(
            "ix1 = math.floor(min(max((window.xmax - self.world.xmin) / self.cell_w, -1.0), n))",
            "ix1 = math.ceil(min(max((window.xmax - self.world.xmin) / self.cell_w, -1.0), n)) - 1",
        )],
        cover_is_the_closed_tile_range,
    ),
    "one_object_corner_omitted": (
        object_filters,
        [(
            "bound = max(math.hypot(dxs[x0], dys[y0]), math.hypot(dxs[x1], dys[y1]))",
            "bound = math.hypot(dxs[x0], dys[y0])",
        )],
        one_object_bound_is_an_upper_bound,
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_certificate_mutant_is_killed(name):
    module, edits, check = MUTANTS[name]
    check(module)
    with pytest.raises(AssertionError):
        check(mutant(module, *edits[0], *edits[1:]))


def test_the_one_object_literal_needs_both_corners():
    """The literal's nearest MBR corner is closer than the triangle."""
    corner = math.hypot(10 - 4, 10 - 4)
    assert corner < polygon_distance_brute_force(NEAR, CUT_CORNER)
