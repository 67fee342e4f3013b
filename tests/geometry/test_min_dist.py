"""Tests for polygon distances: brute-force references and frontier-chain minDist."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    MinDistStats,
    Polygon,
    boundary_distance_brute_force,
    min_boundary_distance,
    polygon_distance_brute_force,
    polygons_within_distance,
    polygons_within_distance_brute_force,
)
from repro.geometry.sweep import _flatten_edges
from tests.strategies import adversarial_rings, polygon_pairs_nearby, star_polygons

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
FAR = Polygon.from_coords([(10, 10), (12, 10), (12, 12), (10, 12)])
INNER = Polygon.from_coords([(1, 1), (3, 1), (3, 3), (1, 3)])


def _flat_edges_edge_by_edge(polygon):
    """The scalar loop minDist used to flatten edges with, in its own layout
    ``(ax, ay, bx, by, xmin, ymin, xmax, ymax)``; kept as the oracle."""
    out = []
    verts = list(polygon.vertices)
    ax, ay = verts[-1].x, verts[-1].y
    for v in verts:
        bx, by = v.x, v.y
        out.append((ax, ay, bx, by, min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)))
        ax, ay = bx, by
    return out


class TestBruteForce:
    def test_boundary_distance_known(self):
        # Closest approach: corner (4,4) to corner (10,10).
        assert boundary_distance_brute_force(SQUARE, FAR) == math.hypot(6, 6)

    def test_boundary_distance_contained(self):
        assert boundary_distance_brute_force(SQUARE, INNER) == 1.0

    def test_region_distance_contained_is_zero(self):
        assert polygon_distance_brute_force(SQUARE, INNER) == 0.0

    def test_region_distance_disjoint(self):
        assert polygon_distance_brute_force(SQUARE, FAR) == math.hypot(6, 6)

    def test_within_distance_predicate(self):
        d = math.hypot(6, 6)
        assert polygons_within_distance_brute_force(SQUARE, FAR, d)
        assert not polygons_within_distance_brute_force(SQUARE, FAR, d - 0.01)

    def test_within_distance_rejects_negative(self):
        with pytest.raises(ValueError):
            polygons_within_distance_brute_force(SQUARE, FAR, -1.0)


class TestMinBoundaryDistance:
    def test_known_distance(self):
        assert min_boundary_distance(SQUARE, FAR) == math.hypot(6, 6)

    def test_touching_is_zero(self):
        touching = Polygon.from_coords([(4, 0), (8, 0), (8, 4)])
        assert min_boundary_distance(SQUARE, touching) == 0.0

    def test_contained_boundary_distance(self):
        assert min_boundary_distance(SQUARE, INNER) == 1.0

    def test_early_exit_returns_bound_below_target(self):
        d = min_boundary_distance(SQUARE, FAR, early_exit_at=100.0)
        assert d <= 100.0
        # Early exit may overshoot the true minimum but never undershoots it.
        assert d >= math.hypot(6, 6) - 1e-9

    def test_stats_track_pruning(self):
        stats = MinDistStats()
        min_boundary_distance(SQUARE, FAR, stats=stats)
        assert stats.edge_pairs_total == 16
        assert stats.frontier_pairs <= stats.edge_pairs_total
        assert stats.pairs_tested <= stats.frontier_pairs

    @settings(max_examples=120)
    @given(polygon_pairs_nearby())
    def test_exact_vs_brute_force(self, pair):
        a, b = pair
        expected = boundary_distance_brute_force(a, b)
        got = min_boundary_distance(a, b)
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)

    @given(polygon_pairs_nearby())
    def test_ablation_flags_preserve_exactness(self, pair):
        a, b = pair
        expected = boundary_distance_brute_force(a, b)
        for frontier in (True, False):
            for extended in (True, False):
                got = min_boundary_distance(
                    a, b, use_frontier=frontier, use_extended_mbr=extended
                )
                assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)

    @given(polygon_pairs_nearby(), st.integers(0, 40))
    def test_early_exit_consistent_with_predicate(self, pair, d_eighths):
        a, b = pair
        d = d_eighths / 8.0
        exact = boundary_distance_brute_force(a, b)
        approx = min_boundary_distance(a, b, early_exit_at=d)
        # The early-exit result decides the predicate identically.
        assert (approx <= d) == (exact <= d)


class TestEdgeRecords:
    """minDist reads the sweep's records; they must carry what its own
    flattening loop computed."""

    @given(st.one_of(adversarial_rings().map(Polygon), star_polygons()))
    def test_records_carry_the_old_loops_values(self, poly):
        records = _flatten_edges(poly, None)
        old = _flat_edges_edge_by_edge(poly)
        assert len(records) == len(old) == poly.num_vertices
        for (xmin, xmax, ymin, ymax, *ends), o in zip(records, old):
            assert tuple(ends) == o[:4]
            assert (xmin, ymin, xmax, ymax) == o[4:]

    @given(adversarial_rings().map(Polygon), adversarial_rings().map(Polygon))
    def test_exact_on_adversarial_rings(self, a, b):
        stats = MinDistStats()
        assert min_boundary_distance(a, b, stats=stats) == boundary_distance_brute_force(a, b)
        assert stats.edge_pairs_total == a.num_vertices * b.num_vertices
        assert stats.edges_scanned == 2 * (a.num_vertices + b.num_vertices)


class TestWithinDistance:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            polygons_within_distance(SQUARE, FAR, -0.5)

    def test_zero_distance_means_intersection(self):
        assert polygons_within_distance(SQUARE, INNER, 0.0)
        assert not polygons_within_distance(SQUARE, FAR, 0.0)

    @settings(max_examples=150)
    @given(polygon_pairs_nearby(), st.integers(0, 64))
    def test_matches_brute_force(self, pair, d_eighths):
        a, b = pair
        d = d_eighths / 8.0
        assert polygons_within_distance(
            a, b, d
        ) == polygons_within_distance_brute_force(a, b, d)

    @given(star_polygons())
    def test_self_within_zero(self, poly):
        assert polygons_within_distance(poly, poly, 0.0)
