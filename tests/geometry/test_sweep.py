"""Tests for the red-blue boundary sweep (software segment intersection test)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Polygon,
    Rect,
    SweepStats,
    boundaries_intersect,
    polygons_intersect,
)
from repro.geometry import sweep
from repro.geometry.sweep import _restricted
from tests.oracles.geometry import (
    _flatten_edges_edge_by_edge,
    boundaries_intersect_brute_force,
    boundaries_intersect_by_loops,
)
from tests.strategies import (
    adversarial_rings,
    arbitrary_polygons,
    lattices,
    polygon_pairs_nearby,
    star_polygons,
)

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
SHIFTED = Polygon.from_coords([(2, 2), (6, 2), (6, 6), (2, 6)])
FAR = Polygon.from_coords([(10, 10), (12, 10), (12, 12), (10, 12)])
INNER = Polygon.from_coords([(1, 1), (3, 1), (3, 3), (1, 3)])


def _columns(records):
    return [tuple(r) for r in records.T.tolist()]


@st.composite
def _rings_with_window(draw):
    """Two adversarial rings and a window, all on one lattice, so edges end
    exactly on the window's sides as often as inside or outside it."""
    cells = draw(lattices)
    a = Polygon(draw(adversarial_rings(cells)))
    b = Polygon(draw(adversarial_rings(cells)))
    xs = sorted((draw(cells), draw(cells)))
    ys = sorted((draw(cells), draw(cells)))
    return a, b, Rect(xs[0], ys[0], xs[1], ys[1])


class TestBoundariesIntersect:
    def test_overlapping_squares(self):
        assert boundaries_intersect(SQUARE, SHIFTED)

    def test_disjoint(self):
        assert not boundaries_intersect(SQUARE, FAR)

    def test_contained_boundaries_do_not_touch(self):
        # Containment is invisible to the boundary test by design.
        assert not boundaries_intersect(SQUARE, INNER)

    def test_touching_corner(self):
        corner = Polygon.from_coords([(4, 4), (6, 4), (6, 6), (4, 6)])
        assert boundaries_intersect(SQUARE, corner)

    def test_shared_edge(self):
        neighbor = Polygon.from_coords([(4, 0), (8, 0), (8, 4), (4, 4)])
        assert boundaries_intersect(SQUARE, neighbor)

    def test_restriction_equivalent(self):
        pairs = [(SQUARE, SHIFTED), (SQUARE, FAR), (SQUARE, INNER)]
        for a, b in pairs:
            assert boundaries_intersect(a, b, True) == boundaries_intersect(
                a, b, False
            )

    def test_stats_populated(self):
        stats = SweepStats()
        boundaries_intersect(SQUARE, SHIFTED, stats=stats)
        assert stats.edges_considered == 8
        assert stats.edges_after_restriction <= 8
        assert stats.intersections_found == 1

    def test_restriction_reduces_edges(self):
        # A long thin polygon crossing a big one: most edges lie outside the
        # MBR intersection window.
        big = Polygon.from_coords([(0, 0), (100, 0), (100, 10), (0, 10)])
        zig = Polygon.from_coords(
            [(50, -5), (51, -5)]
            + [(51 + k * 0.01, 20 + (k % 2)) for k in range(50)]
        )
        stats_restricted = SweepStats()
        boundaries_intersect(big, zig, True, stats_restricted)
        stats_full = SweepStats()
        boundaries_intersect(big, zig, False, stats_full)
        assert (
            stats_restricted.edges_after_restriction
            < stats_full.edges_after_restriction
        )

    @settings(max_examples=150)
    @given(polygon_pairs_nearby())
    def test_agrees_with_brute_force(self, pair):
        a, b = pair
        expected = boundaries_intersect_brute_force(a, b)
        assert boundaries_intersect(a, b, True) == expected
        assert boundaries_intersect(a, b, False) == expected

    @given(arbitrary_polygons(), arbitrary_polygons())
    def test_nonsimple_agrees_with_brute_force(self, a, b):
        expected = boundaries_intersect_brute_force(a, b)
        assert boundaries_intersect(a, b) == expected

    @given(star_polygons())
    def test_self_pair_intersects(self, poly):
        # A polygon's boundary trivially intersects itself.
        assert boundaries_intersect(poly, poly)


class TestPolygonsIntersect:
    def test_containment_is_intersection(self):
        assert polygons_intersect(SQUARE, INNER)
        assert polygons_intersect(INNER, SQUARE)

    def test_overlap(self):
        assert polygons_intersect(SQUARE, SHIFTED)

    def test_disjoint(self):
        assert not polygons_intersect(SQUARE, FAR)

    def test_mbr_overlap_but_disjoint(self):
        # L-shaped polygon whose MBR overlaps the small square's MBR while
        # the polygons themselves are disjoint.
        l_shape = Polygon.from_coords(
            [(0, 0), (10, 0), (10, 1), (1, 1), (1, 10), (0, 10)]
        )
        probe = Polygon.from_coords([(5, 5), (7, 5), (7, 7), (5, 7)])
        assert not polygons_intersect(l_shape, probe)
        assert l_shape.mbr.intersects(probe.mbr)

    def test_vertex_touch(self):
        touching = Polygon.from_coords([(4, 4), (5, 5), (4, 6)])
        assert polygons_intersect(SQUARE, touching)

    @settings(max_examples=150)
    @given(polygon_pairs_nearby())
    def test_reference_equivalence(self, pair):
        a, b = pair
        expected = boundaries_intersect_brute_force(a, b) or (
            a.contains_point(b.vertices[0]) or b.contains_point(a.vertices[0])
        )
        assert polygons_intersect(a, b) == expected

    @given(polygon_pairs_nearby())
    def test_symmetric(self, pair):
        a, b = pair
        assert polygons_intersect(a, b) == polygons_intersect(b, a)


class TestFlattenAgainstTheEdgeByEdgeLoop:
    """The cached records, restricted per call, must be the scalar loop's
    records in the order ``sorted()`` gives them."""

    @given(_rings_with_window())
    def test_identical_records_with_and_without_a_window(self, case):
        a, _, window = case
        for w in (None, window, a.mbr):
            records = a.sweep_records if w is None else _restricted(a.sweep_records, *w)
            assert _columns(records) == sorted(_flatten_edges_edge_by_edge(a, w))
            # Plain Python floats: what the sweep's loop compares.
            assert all(type(v) is float for row in records.tolist() for v in row)

    @given(_rings_with_window())
    def test_edges_after_restriction_counts_the_loops_survivors(self, case):
        a, b, _ = case
        restricted, unrestricted = SweepStats(), SweepStats()
        hit = boundaries_intersect(a, b, True, restricted)
        assert hit == boundaries_intersect(a, b, False, unrestricted)
        assert hit == boundaries_intersect_brute_force(a, b)
        assert unrestricted.edges_after_restriction == a.num_vertices + b.num_vertices
        window = a.mbr.intersection(b.mbr)
        expected = 0
        if window is not None:
            expected = len(_flatten_edges_edge_by_edge(a, window)) + len(
                _flatten_edges_edge_by_edge(b, window)
            )
        assert restricted.edges_after_restriction == expected

    def test_window_sides_are_closed(self):
        # Edges that only touch the window's side or corner survive.
        records = _restricted(SQUARE.sweep_records, 4, 4, 6, 6)
        assert _columns(records) == sorted(_flatten_edges_edge_by_edge(SQUARE, Rect(4, 4, 6, 6)))
        assert records.shape == (8, 2)
        assert _restricted(SQUARE.sweep_records, 5, 5, 6, 6).shape == (8, 0)


#: Two lattice triangles whose sweeps meet equal ``xmin`` keys across
#: colours: the event order on those ties decides how many candidate tests
#: run before the first crossing (1 in the loops' order, 2 with blue first).
TIE_RED = Polygon.from_coords([(0, 1), (2, 4), (2, 3)])
TIE_BLUE = Polygon.from_coords([(1, 0), (1, 2), (3, 0)])


class _BlueFirstOnTies:
    """``numpy`` as the sweep sees it, except that ``argsort`` hands equal
    keys back last-first: blue before red, each colour reversed."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def argsort(keys, kind=None):
        return len(keys) - 1 - np.argsort(keys[::-1], kind="stable")


@pytest.fixture
def blue_first_on_ties(monkeypatch):
    """The mutant of the merge-order argument: the event sort loses its
    stability, so ties no longer leave red first in ``sorted()`` order."""
    monkeypatch.setattr(sweep, "np", _BlueFirstOnTies())


class TestPresortedSweepAgainstTheLoops:
    """Verdict and every ``SweepStats`` counter, restricted or not, equal the
    sweep over records flattened and sorted per call."""

    @staticmethod
    def assert_same(a, b):
        for restrict in (True, False):
            got, expected = SweepStats(), SweepStats()
            assert boundaries_intersect(a, b, restrict, got) == boundaries_intersect_by_loops(
                a, b, restrict, expected
            )
            assert got == expected

    @given(_rings_with_window())
    def test_adversarial_rings(self, case):
        a, b, _ = case
        self.assert_same(a, b)
        self.assert_same(b, a)

    @settings(max_examples=150)
    @given(polygon_pairs_nearby())
    def test_nearby_star_polygons(self, pair):
        self.assert_same(*pair)

    @given(arbitrary_polygons(), arbitrary_polygons())
    def test_nonsimple_rings(self, a, b):
        self.assert_same(a, b)

    def test_equal_xmin_ties_across_colours(self):
        self.assert_same(TIE_RED, TIE_BLUE)
        self.assert_same(TIE_BLUE, TIE_RED)
        # Every edge starts at x = 0: the whole merge is one tie.
        fan = Polygon.from_coords([(0, 0), (4, 1), (0, 2), (3, 3), (0, 4)])
        self.assert_same(fan, fan.translated(0, 1))

    def test_duplicated_edges(self):
        twice = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 0), (4, 0), (4, 4)])
        repeated = Polygon.from_coords([(1, -1), (1, -1), (3, 5), (3, 5), (2, 6)])
        self.assert_same(twice, repeated)
        self.assert_same(twice, twice)

    def test_negative_and_positive_zero(self):
        pos = Polygon.from_coords([(0.0, 0.0), (2.0, 1.0), (0.0, 2.0), (-1.0, 1.0)])
        neg = Polygon.from_coords([(-0.0, 1.0), (1.0, -0.0), (-0.0, -0.0), (-0.0, 3.0)])
        self.assert_same(pos, neg)
        self.assert_same(neg, pos)

    def test_mutant_changes_candidate_tests(self, blue_first_on_ties):
        got, expected = SweepStats(), SweepStats()
        assert boundaries_intersect(TIE_RED, TIE_BLUE, True, got)
        assert boundaries_intersect_by_loops(TIE_RED, TIE_BLUE, True, expected)
        assert (got.candidate_tests, expected.candidate_tests) == (2, 1)
