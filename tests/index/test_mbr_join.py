"""Tests for the MBR join (filtering stage of spatial joins)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import SpatialDataset
from repro.geometry import Polygon, Rect
from repro.index import mbr_join
from repro.index import plane_sweep_mbr_join
from repro.index.mbr_join import mbr_join_indices
from tests.oracles.index import nested_loop_mbr_join, plane_sweep_loop
from tests.oracles.mutants import mutant
from tests.strategies import rects

rect_lists = st.lists(rects(), min_size=0, max_size=40)
distances = st.floats(min_value=0.0, max_value=8.0)


class TestPlaneSweep:
    def test_empty_inputs(self):
        assert plane_sweep_mbr_join([], [Rect(0, 0, 1, 1)]) == []
        assert plane_sweep_mbr_join([Rect(0, 0, 1, 1)], []) == []

    def test_simple_overlap(self):
        a = [Rect(0, 0, 2, 2)]
        b = [Rect(1, 1, 3, 3), Rect(5, 5, 6, 6)]
        assert plane_sweep_mbr_join(a, b) == [(0, 0)]

    def test_touching_counts(self):
        a = [Rect(0, 0, 1, 1)]
        b = [Rect(1, 1, 2, 2)]
        assert plane_sweep_mbr_join(a, b) == [(0, 0)]

    def test_distance_join(self):
        a = [Rect(0, 0, 1, 1)]
        b = [Rect(3, 0, 4, 1)]
        assert plane_sweep_mbr_join(a, b, distance=2.0) == [(0, 0)]
        assert plane_sweep_mbr_join(a, b, distance=1.5) == []

    def test_gap_equal_to_the_distance_is_kept_in_both_orders(self):
        """The active list's prune rounds as the within test does: an x gap
        of exactly ``d`` stays a candidate."""
        a, b = Rect(0.0, 0.0, 0.1, 1.0), Rect(1.2999999999999998, 0.0, 2.3, 1.0)
        d = b.xmin - a.xmax
        assert a.within_distance(b, d)
        assert plane_sweep_mbr_join([a], [b], distance=d) == [(0, 0)]
        assert plane_sweep_mbr_join([b], [a], distance=d) == [(0, 0)]

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            plane_sweep_mbr_join([], [], distance=-1.0)

    def test_self_join_shape(self):
        rects_list = [Rect(i, 0, i + 1.5, 1) for i in range(5)]
        pairs = plane_sweep_mbr_join(rects_list, rects_list)
        # Every rect pairs with itself and its immediate neighbors.
        assert all((i, i) in pairs for i in range(5))

    @settings(max_examples=60)
    @given(rect_lists, rect_lists, distances)
    def test_matches_nested_loop(self, a, b, d):
        got = sorted(plane_sweep_mbr_join(a, b, distance=d))
        expected = sorted(nested_loop_mbr_join(a, b, distance=d))
        assert got == expected


def _shifted(rects_, dx, dy):
    return [Rect(r.xmin + dx, r.ymin + dy, r.xmax + dx, r.ymax + dy) for r in rects_]


#: Adversarial families, each ``(mbrs_a, mbrs_b)``: the join must return the
#: per-event sweep's pairs in the sweep's order on every one.
FAMILIES = {
    # Equal xmin within one side, and across the two sides.
    "equal-xmin": (
        [Rect(0, 0, 2, 2), Rect(0, 1, 3, 3), Rect(0, 5, 1, 6), Rect(1, 0, 2, 1)],
        [Rect(0, 0, 1, 1), Rect(0, 2, 4, 4), Rect(-1, 0, 0, 6), Rect(0, 5, 0, 5)],
    ),
    # Zero-width, zero-height and point boxes.
    "degenerate": (
        [Rect(1, 0, 1, 4), Rect(0, 2, 4, 2), Rect(1, 2, 1, 2), Rect(3, 3, 3, 3)],
        [Rect(1, 1, 1, 3), Rect(0, 2, 2, 2), Rect(1, 2, 1, 2), Rect(0, 0, 3, 3)],
    ),
    # Boxes that touch at an edge or only at a corner.
    "touching": (
        [Rect(0, 0, 1, 1), Rect(2, 2, 3, 3), Rect(1, 1, 2, 2)],
        [Rect(1, 0, 2, 1), Rect(3, 3, 4, 4), Rect(0, 1, 1, 2), Rect(-1, -1, 0, 0)],
    ),
}
FAMILIES["far-offset"] = tuple(_shifted(side, 1e15, -1e15) for side in FAMILIES["equal-xmin"])
FAMILIES["far-touching"] = tuple(_shifted(side, -1e15, 1e15) for side in FAMILIES["touching"])

class TestSweepOrder:
    """The array kernel reproduces the per-event sweep, order included.
    The ``plane_sweep_loop`` entry of ``tests/oracles/test_twins.py`` holds
    it to the sweep on the strategies' MBR sets and the rounding, tie and
    infinity literals; these are the named geometric families."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("d", [0.0, 0.5, 1.0, math.inf])
    def test_adversarial_families(self, family, d):
        a, b = FAMILIES[family]
        for x, y in ((a, b), (b, a), (a, a)):
            expected = plane_sweep_loop(x, y, d)
            assert plane_sweep_mbr_join(x, y, d) == expected
            assert sorted(expected) == nested_loop_mbr_join(x, y, d)
        assert plane_sweep_loop(a, b, 0.0), family  # the family meets

    def test_steps_of_the_expansion_keep_the_order(self, monkeypatch):
        """Candidates tested a few at a time come out as from one step."""
        a, b = FAMILIES["equal-xmin"]
        expected = plane_sweep_loop(a * 3, b * 3, 1.0)
        monkeypatch.setattr(mbr_join, "_JOIN_STEP", 2)
        assert plane_sweep_mbr_join(a * 3, b * 3, 1.0) == expected

    def test_side_a_first_tie_rule_mutant_is_killed(self):
        """Treating side b as first on equal ``xmin`` keeps the pair set but
        not the sweep's order."""
        edited = mutant(
            mbr_join,
            'np.searchsorted(xs_b, xmin[:n], side="left")',
            'np.searchsorted(xs_b, xmin[:n], side="right")',
            ('np.searchsorted(xs_a, xmin[n:], side="right") + m', 'np.searchsorted(xs_a, xmin[n:], side="left") + m'),
        )
        a, b = FAMILIES["equal-xmin"]
        got = edited.plane_sweep_mbr_join(a, b)
        assert sorted(got) == sorted(plane_sweep_loop(a, b))
        assert got != plane_sweep_loop(a, b)


class TestCandidateTable:
    def test_dataset_mbr_block(self):
        polygons = [Polygon.from_coords([(0, 0), (2, 0), (1, 3)]), Polygon.from_coords([(5, 1), (6, 1), (6, 2)])]
        ds = SpatialDataset("two", polygons)
        assert ds.mbr_array.shape == (2, 4) and ds.mbr_array.dtype == np.float64
        assert [tuple(row) for row in ds.mbr_array.tolist()] == [r.as_tuple() for r in ds.mbrs]
        with pytest.raises(ValueError):
            ds.mbr_array[0, 0] = 1.0

    def test_index_arrays_match_the_adapter(self):
        a, b = FAMILIES["touching"]
        ia, ib = mbr_join_indices(Rect.array_of(a), Rect.array_of(b), 0.5)
        assert list(zip(ia.tolist(), ib.tolist())) == plane_sweep_mbr_join(a, b, 0.5)
        empty = mbr_join_indices(Rect.array_of(a), np.zeros((0, 4)))
        assert [side.size for side in empty] == [0, 0]

    @pytest.mark.parametrize("d", [-1.0, math.nan])
    def test_kernel_refuses_what_the_adapter_refuses(self, d):
        with pytest.raises(ValueError):
            mbr_join_indices(np.zeros((1, 4)), np.zeros((1, 4)), d)
