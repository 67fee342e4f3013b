"""Tests for the ray-crossing point-in-polygon test."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, PointLocation, Polygon, locate_point
from repro.geometry import point_in_polygon
from repro.geometry import polygon as polygon_module
from repro.geometry.point_in_polygon import EdgeSlabs, edge_slabs, locate_xy
from tests.oracles.geometry import (
    locate_point_by_sampling,
    locate_point_edge_by_edge,
    locate_xy_over_rows,
)
from tests.oracles.mutants import LESS_EQUAL_CROSSING, mutant
from tests.oracles.test_twins import PIP_LITERALS
from tests.strategies import (
    adversarial_rings,
    arbitrary_polygons,
    lattices,
    points,
    rings_with_query_point,
    star_polygons,
)

SQUARE = [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]
# Concave "C" shape opening to the right.
C_SHAPE = [
    Point(0, 0),
    Point(4, 0),
    Point(4, 1),
    Point(1, 1),
    Point(1, 3),
    Point(4, 3),
    Point(4, 4),
    Point(0, 4),
]
BOWTIE = [Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)]


class TestSquare:
    def test_center_inside(self):
        assert locate_point(Point(2, 2), SQUARE) is PointLocation.INSIDE

    def test_outside(self):
        assert locate_point(Point(5, 2), SQUARE) is PointLocation.OUTSIDE
        assert locate_point(Point(2, -1), SQUARE) is PointLocation.OUTSIDE

    def test_edge_is_boundary(self):
        assert locate_point(Point(4, 2), SQUARE) is PointLocation.BOUNDARY
        assert locate_point(Point(2, 0), SQUARE) is PointLocation.BOUNDARY

    def test_vertex_is_boundary(self):
        assert locate_point(Point(0, 0), SQUARE) is PointLocation.BOUNDARY

    def test_ray_through_vertex_no_double_count(self):
        # Upward ray from below a vertex: classic failure mode of naive
        # crossing counters.
        diamond = [Point(0, 2), Point(2, 0), Point(4, 2), Point(2, 4)]
        assert locate_point(Point(2, 1), diamond) is PointLocation.INSIDE
        assert locate_point(Point(2, -1), diamond) is PointLocation.OUTSIDE


class TestConcave:
    def test_notch_is_outside(self):
        assert locate_point(Point(3, 2), C_SHAPE) is PointLocation.OUTSIDE

    def test_arms_are_inside(self):
        assert locate_point(Point(2, 0.5), C_SHAPE) is PointLocation.INSIDE
        assert locate_point(Point(2, 3.5), C_SHAPE) is PointLocation.INSIDE
        assert locate_point(Point(0.5, 2), C_SHAPE) is PointLocation.INSIDE


class TestNonSimple:
    def test_bowtie_even_odd(self):
        # Left triangle interior.
        assert locate_point(Point(0.5, 1.0), BOWTIE) is PointLocation.INSIDE
        # The crossing point region: center of the X is on the boundary.
        assert locate_point(Point(1, 1), BOWTIE) is PointLocation.BOUNDARY
        assert locate_point(Point(3, 1), BOWTIE) is PointLocation.OUTSIDE


class TestHelpers:
    def test_too_few_vertices_raises(self):
        with pytest.raises(ValueError):
            locate_point(Point(0, 0), [Point(0, 0), Point(1, 1)])

    def test_point_in_polygon_includes_boundary(self):
        assert Polygon(SQUARE).contains_point(Point(0, 0))


class TestProperties:
    @given(star_polygons(), points)
    def test_matches_reference_on_simple(self, poly, p):
        assert locate_point(p, poly.vertices) == locate_point_by_sampling(
            p, poly.vertices
        )

    @given(arbitrary_polygons(), points)
    def test_matches_reference_on_arbitrary(self, poly, p):
        assert locate_point(p, poly.vertices) == locate_point_by_sampling(
            p, poly.vertices
        )

    @given(star_polygons())
    def test_vertices_are_boundary(self, poly):
        for v in poly.vertices:
            assert locate_point(v, poly.vertices) is PointLocation.BOUNDARY

    @given(star_polygons(), points)
    def test_outside_mbr_is_outside(self, poly, p):
        if not poly.mbr.contains_point(p):
            assert locate_point(p, poly.vertices) is PointLocation.OUTSIDE

    @given(star_polygons(), points)
    def test_polygon_method_agrees(self, poly, p):
        assert poly.contains_point(p) == (
            locate_point(p, poly.vertices) is not PointLocation.OUTSIDE
        )


class TestKernelAgainstTheEdgeByEdgeScan:
    """The NumPy kernel must decide exactly as the scalar loop it replaced."""

    @given(rings_with_query_point())
    def test_identical_location_on_the_adversarial_corpus(self, case):
        ring, p = case
        expected = locate_point_edge_by_edge(p, ring)
        assert locate_point(p, Polygon(ring).vertices) is expected
        assert locate_point(p, ring) is expected  # a plain list is converted
        assert Polygon(ring).locate_point(p) is expected

    @given(st.one_of(star_polygons(), arbitrary_polygons()), points)
    def test_identical_location_on_the_eighth_grid(self, poly, p):
        assert locate_point(p, poly.vertices) is locate_point_edge_by_edge(
            p, poly.vertices
        )

    def test_half_open_rule_at_a_vertex_level_with_the_point(self):
        # The ray from (0, 1) passes exactly through the vertex (2, 1).
        spike = [Point(1, 0), Point(3, 0), Point(2, 1), Point(3, 2), Point(1, 2)]
        for p in (Point(0, 1), Point(1.5, 1), Point(2.5, 1)):
            assert locate_point(p, spike) is locate_point_edge_by_edge(p, spike)
        assert locate_point(Point(1.5, 1), spike) is PointLocation.INSIDE
        assert locate_point(Point(2.5, 1), spike) is PointLocation.OUTSIDE

    def test_level_with_a_horizontal_edge_but_beyond_it(self):
        assert locate_point(Point(5, 0), SQUARE) is PointLocation.OUTSIDE
        assert locate_point(Point(-1, 4), SQUARE) is PointLocation.OUTSIDE

    def test_repeated_vertices_do_not_change_the_answer(self):
        doubled = [v for v in SQUARE for _ in range(2)]
        assert locate_point(Point(2, 2), doubled) is PointLocation.INSIDE
        assert locate_point(Point(4, 4), doubled) is PointLocation.BOUNDARY

    def test_near_1e15_every_product_rounds(self):
        base = 1e15
        ring = [Point(base + x, base + y) for x, y in ((0, 0), (3, 0.125), (2.875, 3), (0.125, 2))]
        for dx, dy in ((1.5, 0.0625), (1, 1), (3, 0.125), (-1, 1), (2.875, 1.5)):
            p = Point(base + dx, base + dy)
            assert locate_point(p, ring) is locate_point_edge_by_edge(p, ring)


def _locate_point_full_scan(p, polygon):
    """``locate_point``'s whole-array arithmetic over every edge row of the
    ring: the oracle for the one-slab scan."""
    edges = polygon.edges_array
    px, py = p.x, p.y
    ax, ay, bx, by = edges.T
    run_rise = (bx - ax) * (py - ay)
    rise_run = (by - ay) * (px - ax)
    collinear = run_rise == rise_run
    if collinear.any():
        starts, ends = edges[collinear, :2], edges[collinear, 2:]
        in_box = (np.minimum(starts, ends) <= (px, py)) & ((px, py) <= np.maximum(starts, ends))
        if in_box.all(axis=1).any():
            return PointLocation.BOUNDARY
    crossing = ((ay > py) != (by > py)) & ((rise_run - run_rise < 0) != (by < ay))
    return PointLocation.INSIDE if np.count_nonzero(crossing) & 1 else PointLocation.OUTSIDE


def _slab_of(slabs, y):
    k = len(slabs.offsets) - 1
    return int(np.clip(np.floor((y - slabs.y0) / slabs.height), 0, k - 1))


def _probes(polygon, extra=()):
    """Points where a slab scan could go wrong: on every slab boundary
    ``y0 + i * h``, level with and on every vertex, outside the MBR."""
    slabs = polygon.edge_slabs
    k = len(slabs.offsets) - 1
    coords = polygon.coords_array.tolist()
    xs = sorted({x for x, _ in coords})
    ys = {y for _, y in coords}
    if k > 1:
        ys |= {slabs.y0 + i * slabs.height for i in range(k + 1)}
    mbr = polygon.mbr
    xs += [mbr.xmin - 1.0, mbr.xmax + 1.0, (mbr.xmin + mbr.xmax) / 2]
    ys |= {mbr.ymin - 1.0, mbr.ymax + 1.0}
    return [Point(x, y) for x in xs for y in sorted(ys)] + list(extra)


#: 16 vertices (k = 4 slabs of height 1 over y in [0, 4]): a bar along the
#: bottom with two teeth, so the notch's floor - the horizontal edge from
#: (6, 2) to (2, 2) - lies exactly on the slab boundary y = 2, and the outer
#: sides span three slabs each.
COMB = [(0, 0), *((x, 0) for x in range(1, 8)), (8, 0), (8, 1), (8, 4), (6, 4),
        (6, 2), (2, 2), (2, 4), (0, 4)]


class TestSlabsAgainstTheFullScan:
    """Scanning one slab must decide as scanning every edge does."""

    @given(lattices.flatmap(lambda cells: adversarial_rings(cells, 3, 40)), st.data())
    def test_identical_location_on_lattice_rings(self, ring, data):
        polygon = Polygon(ring)
        extra = [Point(*data.draw(st.tuples(*[st.sampled_from(ring).map(lambda v: v.x)] * 2)))]
        for p in _probes(polygon, extra):
            expected = _locate_point_full_scan(p, polygon)
            assert locate_point(p, polygon.vertices) is expected
            assert locate_point(p, ring) is expected  # one slab of its own ring

    @given(star_polygons(3, 40), points)
    def test_identical_location_on_star_polygons(self, polygon, p):
        for q in _probes(polygon, [p]):
            assert locate_point(q, polygon.vertices) is _locate_point_full_scan(q, polygon)

    @given(st.one_of(star_polygons(3, 40), arbitrary_polygons(3, 30)))
    def test_each_edge_sits_in_every_slab_its_y_range_touches(self, polygon):
        slabs, edges = polygon.edge_slabs, polygon.edges_array
        k = len(slabs.offsets) - 1
        assert k == math.isqrt(polygon.num_vertices) or slabs.height == math.inf
        lo = np.minimum(edges[:, 1], edges[:, 3])
        hi = np.maximum(edges[:, 1], edges[:, 3])
        for s in range(k):
            entries = slice(slabs.offsets[s], slabs.offsets[s + 1])
            members = [
                i for i in range(len(edges))
                if _slab_of(slabs, lo[i]) <= s <= _slab_of(slabs, hi[i])
            ]
            ax, ay, bx, by = edges.take(members, axis=0).T
            expected = np.array([ax, ay, bx - ax, by - ay, by]).reshape(5, -1)
            assert np.array_equal(slabs.columns[:, entries], expected)
            assert np.array_equal(slabs.descending[entries], by < ay)

    def test_horizontal_edge_on_a_slab_boundary(self):
        comb = Polygon.from_coords(COMB)
        slabs = comb.edge_slabs
        assert (len(slabs.offsets) - 1, slabs.y0, slabs.height) == (4, 0.0, 1.0)
        grid = [Point(x / 2, y / 2) for x in range(-2, 19) for y in range(-2, 11)]
        for p in _probes(comb, grid):
            assert locate_point(p, comb.vertices) is _locate_point_full_scan(p, comb)
        assert comb.locate_point(Point(4, 2)) is PointLocation.BOUNDARY
        assert comb.locate_point(Point(4, 3)) is PointLocation.OUTSIDE
        assert comb.locate_point(Point(4, 1)) is PointLocation.INSIDE
        assert comb.locate_point(Point(7, 3)) is PointLocation.INSIDE

    def test_three_vertices_and_zero_height_rings_are_one_slab(self):
        triangle = Polygon.from_coords([(0, 0), (4, 1), (1, 3)])
        flat = Polygon.from_coords([(0, 1), (3, 1), (5, 1), (2, 1)])
        for polygon in (triangle, flat):
            assert len(polygon.edge_slabs.offsets) == 2
            for p in _probes(polygon, [Point(1, 1), Point(4, 1), Point(6, 1)]):
                assert locate_point(p, polygon.vertices) is _locate_point_full_scan(p, polygon)
        assert flat.edge_slabs.height == math.inf
        assert flat.locate_point(Point(4, 1)) is PointLocation.BOUNDARY

    def test_far_infinite_and_nan_heights_fall_in_an_end_slab(self):
        comb = Polygon.from_coords(COMB)
        for y in (-1e308, 1e308, -math.inf, math.inf, math.nan):
            p = Point(3.0, y)
            assert locate_point(p, comb.vertices) is _locate_point_full_scan(p, comb)


def _ymin_slab_only(edges):
    """The slab index built with each edge in the slab of its ``ymin`` only."""
    slabs = edge_slabs(edges)
    k = len(slabs.offsets) - 1
    ymin = np.minimum(edges[:, 1], edges[:, 3])
    slab = np.clip(np.floor((ymin - slabs.y0) / slabs.height), 0, k - 1).astype(np.intp)
    offsets = [0, *np.cumsum(np.bincount(slab, minlength=k)).tolist()]
    return EdgeSlabs(slabs.y0, slabs.height, offsets, np.argsort(slab, kind="stable"), edges)


@pytest.fixture
def ymin_slab_only(monkeypatch):
    """The mutant of the slab argument: an edge spanning several slabs is
    stored in its lowest one only, so a ray starting higher up misses it."""
    monkeypatch.setattr(polygon_module, "edge_slabs", _ymin_slab_only)


def test_mutant_misses_an_edge_spanning_slabs(ymin_slab_only):
    comb = Polygon.from_coords(COMB)  # built under the mutant
    p = Point(7, 3)
    assert _locate_point_full_scan(p, comb) is PointLocation.INSIDE
    assert locate_point(p, comb.vertices) is not PointLocation.INSIDE


DBL_MAX = sys.float_info.max
DBL_MIN = sys.float_info.min  # the smallest normal
TINY = math.ulp(0.0)  # the smallest subnormal

#: ``(a, b, a < b)``: the crossing compare ``rise_run < run_rise`` against
#: the difference form ``rise_run - run_rise < 0`` it replaced.  Rounding
#: keeps the sign of a nonzero difference (gradual underflow makes a
#: difference of distinct doubles nonzero, and an overflowing one is an
#: infinity of its sign); ``inf - inf`` is NaN and ``inf < inf`` false; a
#: NaN operand makes both false; ``0.0 - -0.0`` is ``0.0``.
LESS_TABLE = (
    (1.0, 2.0, True),
    (2.0, 1.0, False),
    (1.0, 1.0, False),
    (0.0, -0.0, False),
    (-0.0, 0.0, False),
    (0.0, TINY, True),
    (-TINY, 0.0, True),
    (TINY, 2 * TINY, True),
    (DBL_MIN, DBL_MIN + TINY, True),
    (DBL_MIN + TINY, DBL_MIN, False),
    (-DBL_MAX, DBL_MAX, True),
    (DBL_MAX, -DBL_MAX, False),
    (DBL_MAX, math.inf, True),
    (-math.inf, -DBL_MAX, True),
    (math.inf, math.inf, False),
    (-math.inf, -math.inf, False),
    (-math.inf, math.inf, True),
    (math.inf, -math.inf, False),
    (math.nan, 1.0, False),
    (1.0, math.nan, False),
    (math.nan, math.nan, False),
    (-math.inf, math.nan, False),
)


@pytest.mark.parametrize("a, b, less", LESS_TABLE)
def test_less_is_the_sign_of_the_difference(a, b, less):
    with np.errstate(over="ignore", invalid="ignore"):
        pair = np.array([a]), np.array([b])
        assert bool(np.less(*pair)[0]) is less
        assert bool((np.subtract(*pair) < 0)[0]) is less
    assert (a < b) is less and (a - b < 0) is less


def test_less_and_the_difference_agree_on_every_special_pair():
    values = [v for a, b, _ in LESS_TABLE for v in (a, b)] + [-DBL_MIN, 0.5, -1.0]
    x, y = np.meshgrid(np.array(values), np.array(values))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(np.less(x, y), np.subtract(x, y) < 0)


def test_less_equal_crossing_mutant_is_killed():
    """The mutant reads the overflowing edge of ``PIP_LITERALS`` as crossed;
    production and the row-by-row oracle do not."""
    locate = mutant(point_in_polygon, *LESS_EQUAL_CROSSING).locate_xy
    killed = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x, y, slabs in PIP_LITERALS:
            expected = locate_xy_over_rows(x, y, slabs)
            assert locate_xy(x, y, slabs) is expected
            if locate(x, y, slabs) is not expected:
                killed.append((x, y))
    assert (1.5e300, 0.0) in killed
