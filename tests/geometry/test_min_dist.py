"""Tests for polygon distances: brute-force references and frontier-chain minDist."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    MinDistStats,
    Point,
    Polygon,
    boundary_distance_brute_force,
    min_boundary_distance,
    point_segment_distance,
    point_to_boundary_distance,
    polygon_distance_brute_force,
    polygons_within_distance,
    polygons_within_distance_brute_force,
    segment_segment_distance,
)
from repro.geometry.min_dist import (
    _chain,
    _edge_edge_mbr_distance,
    _edge_rect_distance,
    _initial_upper_bound,
)
from repro.geometry.sweep import _edge_records
from tests.strategies import HYPOT_FAR as FAR_VERTEX
from tests.strategies import HYPOT_NEAR as NEAR_VERTEX
from tests.strategies import (
    adversarial_rings,
    lattices,
    polygon_pairs_nearby,
    rings_with_query_point,
    star_polygons,
)

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


def point_to_boundary_edge_loop(p, polygon):
    """The edge-by-edge walk ``point_to_boundary_distance`` used to be (and
    ``_initial_upper_bound`` repeated), kept as the kernel's oracle."""
    best = math.inf
    for a, b in polygon.edges():
        d = point_segment_distance(p, a, b)
        if d < best:
            best = d
            if best == 0.0:
                break
    return best


def initial_upper_bound_loop(a, b):
    """``_initial_upper_bound`` as two ``Point`` loops, kept as its oracle."""
    b_mbr = b.mbr
    best_vertex = None
    best_rect_d = math.inf
    for v in a.vertices:
        d = b_mbr.distance_to_point(v)
        if d < best_rect_d:
            best_rect_d = d
            best_vertex = v
    assert best_vertex is not None
    return point_to_boundary_edge_loop(best_vertex, b)


def _box_meets(e, ext):
    return e[0] <= ext.xmax and ext.xmin <= e[1] and e[2] <= ext.ymax and ext.ymin <= e[3]


def min_boundary_distance_loops(
    a, b, early_exit_at=None, use_frontier=True, use_extended_mbr=True, stats=None
):
    """``min_boundary_distance`` with its seed and both chain filters as
    loops over every edge record, kept as the oracle for the value and for
    every ``MinDistStats`` counter.  The best-first pair loop is the one the
    routine still runs."""
    edges_a = _edge_records(a, None)
    edges_b = _edge_records(b, None)
    if stats is not None:
        stats.edge_pairs_total += len(edges_a) * len(edges_b)
        stats.edges_scanned += 2 * (len(edges_a) + len(edges_b))
    upper = min(initial_upper_bound_loop(a, b), initial_upper_bound_loop(b, a))
    target = early_exit_at if early_exit_at is not None else -math.inf
    if upper <= target:
        if stats is not None:
            stats.early_exits += 1
        return upper
    if use_frontier:
        edges_a = [e for e in edges_a if _edge_rect_distance(e, b.mbr) <= upper]
        edges_b = [e for e in edges_b if _edge_rect_distance(e, a.mbr) <= upper]
    if use_extended_mbr:
        radius = upper if early_exit_at is None else min(upper, early_exit_at)
        edges_a = [e for e in edges_a if _box_meets(e, b.mbr.expand(radius))]
        edges_b = [e for e in edges_b if _box_meets(e, a.mbr.expand(radius))]
    if stats is not None:
        stats.frontier_pairs += len(edges_a) * len(edges_b)
    best = upper
    tested = 0
    for e in edges_a:
        if _edge_rect_distance(e, b.mbr) > best:
            continue
        pa = Point(e[4], e[5])
        pb = Point(e[6], e[7])
        for f in edges_b:
            if _edge_edge_mbr_distance(e, f) > best:
                continue
            tested += 1
            d = segment_segment_distance(pa, pb, Point(f[4], f[5]), Point(f[6], f[7]))
            if d < best:
                best = d
                if best <= target:
                    if stats is not None:
                        stats.pairs_tested += tested
                        stats.early_exits += 1
                    return best
                if best == 0.0:
                    if stats is not None:
                        stats.pairs_tested += tested
                    return 0.0
    if stats is not None:
        stats.pairs_tested += tested
    return best


ORIGIN = Point(0.0, 0.0)
#: A legal, fully degenerate ring: its MBR is the point (0, 0).
ORIGIN_RING = Polygon.from_coords([(0.0, 0.0)] * 3)


def spike(tip):
    """Two vertices beyond ``tip`` (as seen from the origin) and the tip
    between them: the point of both edges nearest the origin is ``tip``."""
    x, y = tip
    return [(2 * x - 0.1 * y, 2 * y + 0.1 * x), tip, (2 * x + 0.1 * y, 2 * y - 0.1 * x)]


#: Nearest the origin at ``NEAR_VERTEX`` by ``hypot``, at ``FAR_VERTEX`` by squares.
TWO_SPIKES = Polygon.from_coords(spike(FAR_VERTEX) + spike(NEAR_VERTEX))


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


class TestKernelsEqualTheirLoops:
    """Values, not verdicts: each array kernel against the scalar loop it
    replaced, with float equality."""

    @given(rings_with_query_point())
    def test_point_to_boundary_on_adversarial_rings(self, ring_and_point):
        # Query points on a vertex or an edge make the minimum exactly zero.
        ring, p = ring_and_point
        poly = Polygon(ring)
        assert point_to_boundary_distance(p, poly) == point_to_boundary_edge_loop(p, poly)

    @given(star_polygons(), st.integers(-200, 200), st.integers(-200, 200))
    def test_point_to_boundary_on_star_polygons(self, poly, x, y):
        p = Point(x / 8.0, y / 8.0)
        assert point_to_boundary_distance(p, poly) == point_to_boundary_edge_loop(p, poly)

    @given(st.data())
    def test_initial_upper_bound(self, data):
        # One lattice for both rings: shared vertices (a zero minimum) and
        # exactly tied vertices are the norm; MBRs are often segments.
        cells = data.draw(lattices)
        a = Polygon(data.draw(adversarial_rings(cells)))
        b = Polygon(data.draw(adversarial_rings(cells)))
        assert _initial_upper_bound(a, b) == initial_upper_bound_loop(a, b)
        assert _initial_upper_bound(b, a) == initial_upper_bound_loop(b, a)

    @given(polygon_pairs_nearby())
    def test_initial_upper_bound_on_nearby_pairs(self, pair):
        a, b = pair
        assert _initial_upper_bound(a, b) == initial_upper_bound_loop(a, b)

    @given(polygon_pairs_nearby(), st.sampled_from(["at", "under", "over", "none"]),
           st.booleans(), st.booleans())
    def test_value_and_counters(self, pair, where, use_frontier, use_extended_mbr):
        """``early_exit_at`` at, one ulp under and one ulp over the seed
        bound: the value and all five counters are the oracle's."""
        a, b = pair
        seed = min(initial_upper_bound_loop(a, b), initial_upper_bound_loop(b, a))
        early = {
            "at": seed,
            "under": math.nextafter(seed, -math.inf),
            "over": math.nextafter(seed, math.inf),
            "none": None,
        }[where]
        got, expected = MinDistStats(), MinDistStats()
        kwargs = dict(
            early_exit_at=early, use_frontier=use_frontier, use_extended_mbr=use_extended_mbr
        )
        assert min_boundary_distance(a, b, stats=got, **kwargs) == min_boundary_distance_loops(
            a, b, stats=expected, **kwargs
        )
        assert got == expected

    @given(adversarial_rings().map(Polygon), adversarial_rings().map(Polygon))
    def test_value_and_counters_on_adversarial_rings(self, a, b):
        got, expected = MinDistStats(), MinDistStats()
        assert min_boundary_distance(a, b, stats=got) == min_boundary_distance_loops(
            a, b, stats=expected
        )
        assert got == expected


class TestSquaredOrderAndHypotOrderInvert:
    """The regime the slack exists for, built into a polygon against a
    point MBR per kernel; the ``SLACK = 1.0`` mutant must get each wrong."""

    def test_nearest_vertex_to_the_mbr(self):
        a = Polygon.from_coords([FAR_VERTEX, NEAR_VERTEX, (5.0, 5.0)])
        assert initial_upper_bound_loop(a, ORIGIN_RING) == math.hypot(*NEAR_VERTEX)
        assert _initial_upper_bound(a, ORIGIN_RING) == math.hypot(*NEAR_VERTEX)

    def test_mutant_picks_the_wrong_vertex(self, no_slack):
        a = Polygon.from_coords([FAR_VERTEX, NEAR_VERTEX, (5.0, 5.0)])
        assert _initial_upper_bound(a, ORIGIN_RING) == math.hypot(*FAR_VERTEX)

    def test_point_to_boundary(self):
        assert point_to_boundary_edge_loop(ORIGIN, TWO_SPIKES) == math.hypot(*NEAR_VERTEX)
        assert point_to_boundary_distance(ORIGIN, TWO_SPIKES) == math.hypot(*NEAR_VERTEX)

    def test_mutant_picks_the_wrong_edge(self, no_slack):
        assert point_to_boundary_distance(ORIGIN, TWO_SPIKES) == math.hypot(*FAR_VERTEX)

    def frontier_by_loop(self):
        # Each spike's two edge boxes have their corner nearest the origin
        # at the tip.  FAR_VERTEX is not within hypot(NEAR_VERTEX), though
        # its square is within the squared bound - and NEAR_VERTEX's is not.
        upper = math.hypot(*NEAR_VERTEX)
        mbr = ORIGIN_RING.mbr
        records = _edge_records(TWO_SPIKES, None)
        return upper, [e for e in records if _edge_rect_distance(e, mbr) <= upper]

    def test_frontier_chain(self):
        upper, expected = self.frontier_by_loop()
        assert [e[4:] for e in expected] == [
            (*spike(NEAR_VERTEX)[0], *NEAR_VERTEX),
            (*NEAR_VERTEX, *spike(NEAR_VERTEX)[2]),
        ]
        assert _chain(TWO_SPIKES, ORIGIN_RING.mbr, upper, None) == expected

    def test_mutant_keeps_the_wrong_spike(self, no_slack):
        upper, expected = self.frontier_by_loop()
        assert _chain(TWO_SPIKES, ORIGIN_RING.mbr, upper, None) != expected


class TestWhereSquaresUnderOrOverflow:
    """Offsets of 1e-170 square to zero and coordinates of 1e160 to inf:
    the ranking decides nothing there and the kernels still equal the loops."""

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_scaled_pair(self, scale):
        a = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)]).scaled(scale, ORIGIN)
        b = Polygon.from_coords([(7, 1), (9, 2), (8, 5), (6, 3)]).scaled(scale, ORIGIN)
        for p, q in ((a, b), (b, a)):
            assert _initial_upper_bound(p, q) == initial_upper_bound_loop(p, q)
            for v in p.vertices:
                assert point_to_boundary_distance(v, q) == point_to_boundary_edge_loop(v, q)
        got, expected = MinDistStats(), MinDistStats()
        assert min_boundary_distance(a, b, stats=got) == min_boundary_distance_loops(
            a, b, stats=expected
        )
        assert got == expected

    def test_tiny_offsets_from_a_large_coordinate_free_origin(self):
        # The seed is ~1e-170 (its square underflows) between unit-size rings.
        a = Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon.from_coords([(-1, 0.5), (-1e-170, 0.5), (-1, 1)])
        got, expected = MinDistStats(), MinDistStats()
        assert min_boundary_distance(a, b, stats=got) == min_boundary_distance_loops(
            a, b, stats=expected
        )
        assert got == expected
        assert min_boundary_distance(a, b) == 1e-170


class TestEdgeRecords:
    """minDist reads the sweep's records; they must carry what its own
    flattening loop computed."""

    @given(st.one_of(adversarial_rings().map(Polygon), star_polygons()))
    def test_records_carry_the_old_loops_values(self, poly):
        records = _edge_records(poly, None)
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
