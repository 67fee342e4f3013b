"""Tests for polygon distances: brute-force references and frontier-chain minDist."""

import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    MinDistStats,
    Point,
    Polygon,
    min_boundary_distance,
    point_to_boundary_distance,
    polygons_within_distance,
    segments_intersect,
)
from repro.geometry.distance import segment_offsets
from repro.geometry import hypot_order, min_dist
from repro.geometry.min_dist import _chain, _initial_upper_bounds
from tests.oracles.geometry import (
    _edge_records,
    _edge_rect_distance,
    boundary_distance_brute_force,
    initial_upper_bound_loop,
    min_boundary_distance_loops,
    point_segment_distance,
    point_to_boundary_edge_loop,
    polygon_distance_brute_force,
    polygons_within_distance_brute_force,
    segment_segment_distance,
)
from tests.oracles.mutants import mutant
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


def chain_records(columns):
    """A ``_chain`` array's columns as ``_edge_records`` tuples."""
    return [tuple(c) for c in columns[[0, 2, 1, 3, 4, 5, 6, 7]].T.tolist()]


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
        assert _initial_upper_bounds(a, b) == (
            initial_upper_bound_loop(a, b), initial_upper_bound_loop(b, a)
        )

    @given(polygon_pairs_nearby())
    def test_initial_upper_bound_on_nearby_pairs(self, pair):
        a, b = pair
        assert _initial_upper_bounds(a, b) == (
            initial_upper_bound_loop(a, b), initial_upper_bound_loop(b, a)
        )

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
        # The fused seed's first direction is ``a``'s vertex against the
        # other ring, its second the other ring's vertex against ``a``:
        # the case in either half.
        a = Polygon.from_coords([FAR_VERTEX, NEAR_VERTEX, (5.0, 5.0)])
        assert initial_upper_bound_loop(a, ORIGIN_RING) == math.hypot(*NEAR_VERTEX)
        assert _initial_upper_bounds(a, ORIGIN_RING) == (
            math.hypot(*NEAR_VERTEX), initial_upper_bound_loop(ORIGIN_RING, a)
        )
        assert _initial_upper_bounds(ORIGIN_RING, a) == (
            initial_upper_bound_loop(ORIGIN_RING, a), math.hypot(*NEAR_VERTEX)
        )

    def test_mutant_picks_the_wrong_vertex(self, no_slack):
        a = Polygon.from_coords([FAR_VERTEX, NEAR_VERTEX, (5.0, 5.0)])
        assert _initial_upper_bounds(a, ORIGIN_RING)[0] == math.hypot(*FAR_VERTEX)
        assert _initial_upper_bounds(ORIGIN_RING, a)[1] == math.hypot(*FAR_VERTEX)

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
        records = _edge_records(TWO_SPIKES)
        return upper, [e for e in records if _edge_rect_distance(e, mbr) <= upper]

    def test_frontier_chain(self):
        upper, expected = self.frontier_by_loop()
        assert [e[4:] for e in expected] == [
            (*spike(NEAR_VERTEX)[0], *NEAR_VERTEX),
            (*NEAR_VERTEX, *spike(NEAR_VERTEX)[2]),
        ]
        assert chain_records(_chain(TWO_SPIKES, ORIGIN_RING.mbr, upper, None)) == expected

    def test_mutant_keeps_the_wrong_spike(self, no_slack):
        upper, expected = self.frontier_by_loop()
        assert chain_records(_chain(TWO_SPIKES, ORIGIN_RING.mbr, upper, None)) != expected


class TestWhereSquaresUnderOrOverflow:
    """Offsets of 1e-170 square to zero and coordinates of 1e160 to inf:
    the ranking decides nothing there and the kernels still equal the loops."""

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_scaled_pair(self, scale):
        a = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)]).scaled(scale, ORIGIN)
        b = Polygon.from_coords([(7, 1), (9, 2), (8, 5), (6, 3)]).scaled(scale, ORIGIN)
        assert _initial_upper_bounds(a, b) == (
            initial_upper_bound_loop(a, b), initial_upper_bound_loop(b, a)
        )
        for p, q in ((a, b), (b, a)):
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
    """minDist's edge records are the columns of its chains, cut from the
    polygon's cached arrays; with both filters off they must carry what its
    own flattening loop computed, in boundary order."""

    @given(st.one_of(adversarial_rings().map(Polygon), star_polygons()))
    def test_records_carry_the_old_loops_values(self, poly):
        columns = _chain(poly, poly.mbr, None, None)
        old = _flat_edges_edge_by_edge(poly)
        assert columns.shape == (8, poly.num_vertices) == (8, len(old))
        for (xmin, ymin, xmax, ymax, *ends), o in zip(columns.T.tolist(), old):
            assert tuple(ends) == o[:4]
            assert (xmin, ymin, xmax, ymax) == o[4:]

    @given(adversarial_rings().map(Polygon), adversarial_rings().map(Polygon))
    def test_exact_on_adversarial_rings(self, a, b):
        stats = MinDistStats()
        assert min_boundary_distance(a, b, stats=stats) == boundary_distance_brute_force(a, b)
        assert stats.edge_pairs_total == a.num_vertices * b.num_vertices
        assert stats.edges_scanned == 2 * (a.num_vertices + b.num_vertices)


#: Nearly collinear edges whose boxes are 0.02 apart, yet whose rounded
#: cross products read as a proper crossing: ``segments_intersect`` says
#: True and the loop takes 0.0.  A kernel that ran the crossing test only on
#: pairs with zero box gaps would return their endpoint distance instead.
ROUNDED_CROSSING = (
    (2.7181066959490896, -1.7266770190427043),
    (1.7973260033928469, -0.6679582561546921),
    (1.7769064486921016, -0.6444797385594977),
    (1.6707590790984816, -0.5224309024702142),
)

#: Two edges a parallel 0.6504… apart: of their four endpoint offsets the
#: smallest square (the third, ``q1`` against ``p``) has the larger
#: ``hypot`` (…674 against …673 for the second), so the pair's distance is
#: taken from the band, not from the argmin of squares.
INVERTED_PAIR = (
    (0.377, 1.142),
    (-0.16133136128567938, 2.0047796664935236),
    (-0.3557079307431169, 1.0874821232257497),
    (-0.8940392920287963, 1.9502617897192738),
)

#: An edge longer than ~1.34e154, whose squared length overflows.
BIG = Polygon.from_coords([(0, 0), (1e300, 0), (1, 1e300)])
TRI = Polygon.from_coords([(7, -1), (9, -2), (8, -5)])


def replay_loop(row, row_h, box_h, d, best, target):
    """The best-first loop's control flow over per-pair values in loop
    order, kept as the oracle of ``min_dist._replay``."""
    tested, current, skip = 0, None, False
    for r, rh, bh, x in zip(row, row_h, box_h, d):
        if r != current:
            current, skip = r, rh > best
        if skip or bh > best:
            continue
        tested += 1
        if x < best:
            best = x
            if best <= target or best == 0.0:
                return best, tested, True
    return best, tested, False


NAN, INF = math.nan, math.inf

#: ``(row, row_h, box_h, d, best, target)`` no geometry produces.
REPLAY_CASES = {
    # Untested (box 12 > 10) but d = 1 below the best: the fixpoint drops it.
    "untested_pair_below_its_box": ([0, 0], [0, 0], [12, 5], [1, 7], 10, -INF),
    "untested_pair_then_exit": ([0, 0, 0], [0, 0, 0], [12, 5, 5], [1, 7, 3], 10, 4),
    "nan_distances": ([0, 0, 1], [0, 0, 1], [1, 2, 3], [NAN, 5, 4], 10, -INF),
    "nan_first_then_zero": ([0, 0], [0, 0], [1, 1], [NAN, 0.0], 10, -INF),
    # Row 1 is skipped (9.5 > 9 once row 0 lowered the best) though its
    # pair's box is within the starting best; then its d is below too.
    "skipped_row_holds_a_member": ([0, 1, 2], [0, 9.5, 2], [3, 9.6, 2.5], [9, 12, 8], 10, -INF),
    "skipped_row_below_the_best": ([0, 1, 2], [0, 9.5, 2], [3, 9.6, 2.5], [9, 3, 8], 10, -INF),
    "box_equal_to_best": ([0], [5], [10], [4], 10, -INF),
    "row_equal_to_best": ([0, 0], [10, 10], [10, 3], [11, 4], 10, -INF),
    "exit_at_target": ([0, 0, 0], [1, 1, 1], [1, 1, 1], [8, 5, 1], 10, 6),
    "exit_at_zero": ([0, 0, 0], [1, 1, 1], [1, 1, 1], [8, 0.0, 1], 10, -INF),
    "no_improvement": ([0, 1], [1, 1], [1, 1], [10, 11], 10, 2),
    "empty": ([], [], [], [], 10, 3),
}


def check_replay(case):
    row, row_h, box_h, d, best, target = REPLAY_CASES[case]
    columns = [np.array(v, dtype=np.float64) for v in (row_h, box_h, d)]
    got = min_dist._replay(np.array(row, dtype=np.int64), *columns, best, target)
    assert got == replay_loop(row, row_h, box_h, d, best, target)


def check_inverted_pair():
    p1, p2, q1, q2 = INVERTED_PAIR
    p = np.array([[p1[0]], [p1[1]], [p2[0]], [p2[1]]])
    q = np.array([[q1[0]], [q1[1]], [q2[0]], [q2[1]]])
    expected = segment_segment_distance(*(Point(*v) for v in INVERTED_PAIR))
    assert min_dist._segment_distances(p, q).tolist() == [expected]


class TestReplay:
    """``_replay`` against the loop's control flow on the same arrays."""

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_case_equals_the_loop(self, case):
        check_replay(case)

    @given(st.data())
    def test_random_arrays_equal_the_loop(self, data):
        values = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, NAN, INF])
        n = data.draw(st.integers(0, 12))
        row = sorted(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        per_row = data.draw(st.lists(st.sampled_from([0.0, 2.0, 5.0, 9.0]), min_size=4, max_size=4))
        box_h = data.draw(st.lists(values.filter(lambda v: v == v), min_size=n, max_size=n))
        d = data.draw(st.lists(values, min_size=n, max_size=n))
        best = data.draw(st.sampled_from([5.0, 9.0, INF]))
        target = data.draw(st.sampled_from([-INF, 0.0, 2.0, 5.0]))
        row_h = [per_row[r] for r in row]
        columns = [np.array(v, dtype=np.float64) for v in (row_h, box_h, d)]
        got = min_dist._replay(np.array(row, dtype=np.int64), *columns, best, target)
        assert got == replay_loop(row, row_h, box_h, d, best, target)


class TestPairKernel:
    def test_distances_of_the_inverted_pair(self):
        check_inverted_pair()

    def test_mutant_without_slack_takes_the_argmin(self, no_slack):
        with pytest.raises(AssertionError):
            check_inverted_pair()

    def test_rounded_crossing_of_apart_boxes(self):
        p1, p2, q1, q2 = ROUNDED_CROSSING
        assert segments_intersect(*(Point(*v) for v in ROUNDED_CROSSING))
        a = Polygon.from_coords([p1, p2, (3.5, -0.5)])
        b = Polygon.from_coords([q1, q2, (0.5, -1.0)])
        for p, q in ((a, b), (b, a)):
            got, expected = MinDistStats(), MinDistStats()
            assert min_boundary_distance(p, q, stats=got) == 0.0
            assert min_boundary_distance_loops(p, q, stats=expected) == 0.0
            assert got == expected

    def test_square_and_far_counters(self):
        # The seed is the corner-to-corner distance, which the pair of edges
        # at those corners meets with a box distance equal to it.
        got, expected = MinDistStats(), MinDistStats()
        assert min_dist.min_boundary_distance(SQUARE, FAR, stats=got) == math.hypot(6, 6)
        min_boundary_distance_loops(SQUARE, FAR, stats=expected)
        assert got == expected

    @settings(max_examples=60)
    @given(
        st.one_of(polygon_pairs_nearby(), st.tuples(*[adversarial_rings().map(Polygon)] * 2)),
        st.sampled_from([None, 0.0, 0.5, 2.0]),
    )
    def test_one_row_per_chunk_changes_nothing(self, pair, early):
        a, b = pair
        for use_frontier in (True, False):
            for use_extended_mbr in (True, False):
                kwargs = dict(
                    early_exit_at=early,
                    use_frontier=use_frontier,
                    use_extended_mbr=use_extended_mbr,
                )
                whole, chunked = MinDistStats(), MinDistStats()
                value = min_boundary_distance(a, b, stats=whole, **kwargs)
                with mock.patch.object(min_dist, "_PAIR_BUDGET", 1):
                    assert min_boundary_distance(a, b, stats=chunked, **kwargs) == value
                assert chunked == whole


class TestOverflowingEdge:
    """``ab . ab`` overflows to inf for an edge longer than ~1.34e154; the
    projection used to clamp to the edge's start (7.07… here, not 1.0)."""

    def test_point_segment_distance(self):
        assert point_segment_distance(Point(7, -1), Point(0, 0), Point(1e300, 0)) == 1.0

    def test_boundary_distances(self):
        assert point_to_boundary_distance(Point(7, -1), BIG) == 1.0
        assert boundary_distance_brute_force(BIG, TRI) == 1.0
        assert min_boundary_distance(BIG, TRI) == 1.0
        assert min_boundary_distance(TRI, BIG) == 1.0

    def test_within_distance(self):
        assert polygons_within_distance(BIG, TRI, 2.0)
        assert polygons_within_distance_brute_force(BIG, TRI, 2.0)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e155, 1e300])
    def test_offsets_equal_the_scalar(self, scale):
        rng = np.random.default_rng(7)
        px, py, ax, ay, bx, by = rng.uniform(-1.0, 1.0, size=(6, 400)) * scale
        dx, dy = segment_offsets(px, py, ax, ay, bx, by)
        for i in range(400):
            expected = point_segment_distance(
                Point(px[i], py[i]), Point(ax[i], ay[i]), Point(bx[i], by[i])
            )
            assert math.hypot(dx[i], dy[i]) == expected


#: Named mutants of the pair kernel: (module, source text, replacement,
#: the check that must fail under it).
MUTANTS = {
    "minimum_not_fmin": (
        min_dist,
        "np.fmin.accumulate",
        "np.minimum.accumulate",
        lambda: check_replay("nan_distances"),
    ),
    "box_strict": (
        min_dist,
        "(box_h <= before)",
        "(box_h < before)",
        lambda: check_replay("box_equal_to_best"),
    ),
    "consistency_unchecked": (
        min_dist,
        "        if broken.size:\n",
        "        if False:\n",
        lambda: check_replay("untested_pair_below_its_box"),
    ),
    "band_by_argmin_only": (
        hypot_order,
        "band = (squares <= s_min * SLACK) & ((mx != fx) | (my != fy)) & sure",
        "band = np.zeros(squares.shape, dtype=bool)",
        check_inverted_pair,
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_named_mutant_is_killed(name, monkeypatch):
    """The module's source with one named edit, exec'd fresh; every
    function of it ``min_dist`` names replaces that name for the check."""
    module, old, new, check = MUTANTS[name]
    check()
    edited = mutant(module, old, new)
    for key, value in vars(edited).items():
        if isinstance(value, types.FunctionType) and hasattr(min_dist, key):
            monkeypatch.setattr(min_dist, key, value)
    with pytest.raises(AssertionError):
        check()


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
