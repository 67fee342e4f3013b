"""One differential harness: every oracle against its production twin.

``TWINS`` registers each public function of ``tests/oracles/geometry.py``,
``raster.py`` and ``index.py`` once, with the production function it is the
reference for, the cases it runs on - ``tests/strategies.py``'s corpus plus
the literals below - and how the two answers are compared (``==`` unless an
entry says otherwise).  :func:`test_twin_agrees` runs every entry, and fails
an entry whose cases never run; :func:`test_every_oracle_is_registered`
fails when an oracle module defines a public function ``TWINS`` does not
hold.  The pipeline rows run whole joins on every engine, cache and
interval configuration against the brute-force oracles.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.datasets import GeneratorConfig, SpatialDataset, VertexCountModel, generate_layer
from repro.datasets.dataset import base_distance
from repro.filters import (
    IntervalGrid,
    IntervalIndex,
    one_object_upper_bound,
    zero_object_upper_bound,
)
from repro.geometry import (
    MinDistStats,
    Point,
    Polygon,
    Rect,
    SweepStats,
    boundaries_intersect,
    locate_point,
    min_boundary_distance,
    point_to_boundary_distance,
    polygons_within_distance,
)
from repro.geometry import min_dist
from repro.geometry.distance import segment_offsets
from repro.geometry.hypot_order import first_min_hypot
from repro.geometry.edge_store import EdgeStore
from repro.gpu import polygon_fill_coverage_mask
from repro.gpu.pipeline import cull_boxes, window_columns, window_scales
from repro.gpu.raster_bulk import edges_coverage_mask, edges_coverage_masks_grouped
from repro.gpu.tiled import _gather
from repro.index import plane_sweep_mbr_join, rtree_nearest, str_bulk_load
from repro.query import IntersectionJoin, WithinDistanceJoin
from tests.oracles import geometry, index, raster
from tests.strategies import HYPOT_FAR, HYPOT_NEAR
from tests.strategies import (
    adversarial_rings,
    arbitrary_polygons,
    candidate_lists,
    lattices,
    points,
    polygon_pairs_nearby,
    rects,
    rings_with_query_point,
    segments,
    star_polygons,
)

# -- literals ----------------------------------------------------------------

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
#: A ring of three collinear vertices: no area, and it leaves the square
#: through its right side.
ZERO_AREA = Polygon.from_coords([(1, 2), (3, 2), (6, 2)])
#: Shares the stretch x in [2, 4] of the square's top side.
COLLINEAR = Polygon.from_coords([(2, 4), (6, 4), (6, 8), (2, 8)])
#: Meets the square in its corner (4, 4) and nowhere else.
TOUCHING = Polygon.from_coords([(4, 4), (6, 5), (5, 6)])
#: Two unit squares whose MBR distance, by ``math.hypot``, is also their
#: exact distance; ``dx*dx + dy*dy <= d*d`` says they are farther apart.
TIE_A = Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
TIE_B = TIE_A.translated(1 + 76.37982415147164, 1 + 25.514351883684775)
TIE_D = TIE_A.mbr.min_distance(TIE_B.mbr)
#: An x gap equal to the distance: ``xmin - other.xmax`` is 1.1999999999999997,
#: and ``other.xmax < xmin - distance`` rounds the other way.
GAP_A = Rect(0.0, 0.0, 0.1, 1.0)
GAP_B = Rect(1.2999999999999998, 0.0, 2.3, 1.0)
GAP_D = GAP_B.xmin - GAP_A.xmax

LITERAL_PAIRS = [
    (SQUARE, ZERO_AREA),
    (SQUARE, COLLINEAR),
    (SQUARE, TOUCHING),
    (TIE_A, TIE_B),
]
PAIRS_BOTH_WAYS = tuple(LITERAL_PAIRS + [(b, a) for a, b in LITERAL_PAIRS])


#: Edge pairs of the literals: zero-length, collinear overlap, touching at a
#: vertex, crossing.
LITERAL_SEGMENT_PAIRS = (
    (Point(1, 2), Point(1, 2), Point(0, 0), Point(4, 0)),
    (Point(0, 4), Point(4, 4), Point(2, 4), Point(6, 4)),
    (Point(4, 0), Point(4, 4), Point(4, 4), Point(6, 5)),
    (Point(1, 2), Point(6, 2), Point(4, 0), Point(4, 4)),
)

# -- cases -------------------------------------------------------------------


def _lattice_pair(cells):
    ring = adversarial_rings(cells).map(Polygon)
    return st.tuples(ring, ring)


polygon_pairs = st.one_of(
    polygon_pairs_nearby(),
    lattices.flatmap(_lattice_pair),
    st.tuples(arbitrary_polygons(), arbitrary_polygons()),
)
lattice_points = lattices.flatmap(lambda cells: st.builds(Point, cells, cells))
point_triples = st.one_of(
    st.tuples(points, points, points), st.tuples(lattice_points, lattice_points, lattice_points)
)
segment_pairs = st.one_of(
    st.tuples(segments(), segments()).map(lambda s: (*s[0], *s[1])),
    lattices.flatmap(lambda cells: st.tuples(*[st.builds(Point, cells, cells)] * 4)),
)


@st.composite
def pairs_at_distances(draw):
    """A polygon pair and a distance: fixed ones, their MBR distance and
    their exact distance - the two ties a guard can round away."""
    a, b = draw(polygon_pairs)
    d = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, "mbr", "exact"]))
    if d == "mbr":
        d = a.mbr.min_distance(b.mbr)
    elif d == "exact":
        d = geometry.polygon_distance_brute_force(a, b)
    return a, b, d


half_coords = st.integers(-8, 24).map(lambda v: v / 2.0)
grid_coords = st.integers(-32, 96).map(lambda v: v / 8.0)
float_coords = st.floats(min_value=-4.0, max_value=20.0, allow_nan=False)
raster_coords = st.one_of(half_coords, grid_coords, float_coords)
shapes = st.sampled_from([(8, 8), (5, 9), (9, 5), (1, 7), (16, 16)])
widths = st.one_of(st.sampled_from([math.sqrt(2.0), 1.0, 4.0]), st.floats(0.25, 6.0))
edge_arrays = st.lists(st.tuples(*[raster_coords] * 4), max_size=10).map(
    lambda rows: np.array(rows, dtype=np.float64).reshape(-1, 4)
)
fill_vertices = st.lists(
    st.tuples(st.one_of(half_coords, grid_coords), st.one_of(half_coords, grid_coords)),
    min_size=3,
    max_size=10,
).map(lambda rows: np.array(rows, dtype=np.float64))


@st.composite
def grouped_draws(draw):
    """``(shape, edges, sizes, widths, cap_points)`` of one grouped draw,
    with empty groups and scalar or per-group widths."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*[raster_coords] * 4), min_size=sum(sizes), max_size=sum(sizes)))
    edges = np.array(rows, dtype=np.float64).reshape(-1, 4)
    w = draw(st.one_of(widths, st.lists(widths, min_size=len(sizes), max_size=len(sizes))))
    return draw(shapes), edges, sizes, np.asarray(w, dtype=np.float64), draw(st.booleans())


#: Windows whose scale overflows (extents below 8 / DBL_MAX), whose pixel is
#: near one ulp, and whose extent is zero on one axis or both.
ODD_WINDOWS = (
    Rect(0.0, 0.0, 1e-308, 1e-308),
    Rect(0.0, 0.0, 1e-300, 2e-300),
    Rect(1e15, 0.0, 1e15 + 0.125, 0.125),
    Rect(1.0, 2.0, 1.0, 5.0),
    Rect(3.0, 3.0, 3.0, 3.0),
)


@st.composite
def tile_windows(draw):
    """``(width, height, windows, pads)`` of one atlas batch."""
    height, width = draw(shapes)
    windows = draw(
        st.lists(st.one_of(rects(), st.sampled_from(ODD_WINDOWS)), min_size=1, max_size=6)
    )
    pads = draw(st.lists(widths, min_size=len(windows), max_size=len(windows)))
    return width, height, windows, [w + 1.0 for w in pads]


@st.composite
def culled_tiles(draw):
    """``(edge_sets, boxes)``: up to five tiles of up to 80 edges on one
    lattice (rows of several 32-edge blocks), each with a cull box whose
    sides sit on the lattice, one ``nextafter`` off it, or at infinity."""
    cells = draw(lattices)
    grid = sorted(set(draw(st.lists(cells, min_size=2, max_size=11))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_grid = st.sampled_from(grid).flatmap(
        lambda v: st.sampled_from([v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)])
    )
    lo, hi = st.one_of(on_grid, st.just(-math.inf)), st.one_of(on_grid, st.just(math.inf))
    edge_sets, boxes = [], []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from([0, 3, 31, 32, 33, 80]))
        edge_sets.append(rng.choice(grid, size=(n, 4)))
        boxes.append((draw(lo), draw(lo), draw(hi), draw(hi)))
    return edge_sets, boxes


# -- comparisons -------------------------------------------------------------


def _equal(oracle, twin, args):
    assert twin(*args) == oracle(*args)


def _same_stats(stats_type):
    """The value and every counter of a ``stats=`` keyword."""

    def compare(oracle, twin, args):
        got, expected = stats_type(), stats_type()
        assert twin(*args, stats=got) == oracle(*args, stats=expected)
        assert got == expected

    return compare


def _offset_hypot(oracle, twin, args):
    p, a, b = args
    dx, dy = twin(*(np.array([v]) for v in (p.x, p.y, a.x, a.y, b.x, b.y)))
    assert math.hypot(dx[0], dy[0]) == oracle(p, a, b)


def _column_distance(oracle, twin, args):
    p1, p2, q1, q2 = args
    columns = [np.array([[v.x], [v.y]]) for v in args]
    p, q = np.concatenate(columns[:2]), np.concatenate(columns[2:])
    assert twin(p, q).tolist() == [oracle(p1, p2, q1, q2)]


def _within_threshold(oracle, twin, args):
    """The oracle's distance is exactly where the within predicate turns."""
    a, b = args
    d = oracle(a, b)
    assert twin(a, b, d)
    if d > 0.0:
        assert not twin(a, b, math.nextafter(d, 0.0))


def _first_min(oracle, twin, args):
    dx, dy = args
    assert twin(np.array(dx, dtype=np.float64), np.array(dy, dtype=np.float64)) == oracle(dx, dy)


def _point_mask(oracle, twin, args):
    shape, x, y, size = args
    buffer = np.zeros(shape, dtype=np.float32)
    written = oracle(buffer, x, y, size)
    mask = twin(shape, np.array([[x, y, x, y]]), size)
    assert np.array_equal(buffer > 0, mask)
    assert written == np.count_nonzero(mask)


def _line_mask(oracle, twin, args):
    shape, x0, y0, x1, y1, w, caps = args
    buffer = np.zeros(shape, dtype=np.float32)
    written = oracle(buffer, x0, y0, x1, y1, width_px=w, cap_points=caps)
    mask = twin(shape, np.array([[x0, y0, x1, y1]]), w, cap_points=caps)
    assert np.array_equal(buffer > 0, mask)
    assert written == np.count_nonzero(mask)


def _same_mask(oracle, twin, args):
    assert np.array_equal(twin(*args), oracle(*args))


def _fill_mask(oracle, twin, args):
    shape, vertices = args
    buffer = np.zeros(shape, dtype=np.float32)
    written = oracle(buffer, vertices)
    mask = twin(shape, vertices)
    assert np.array_equal(buffer > 0, mask)
    assert written == np.count_nonzero(mask)


def _tile_transforms(oracle, twin, args):
    width, height, windows, pads = args
    bounds = window_columns(windows)
    scales = twin(width, height, bounds)
    boxes = cull_boxes(bounds[0], bounds[1], scales, np.array(pads), width, height)
    expected_scales, expected_boxes = oracle(width, height, windows, pads)
    assert scales.tolist() == expected_scales
    assert boxes.T.tolist() == [list(box) for box in expected_boxes]


def _gathered(oracle, twin, args):
    """One store, and the tiles alternating between two stores: the batch
    groups tiles by store and must still return them in tile order."""
    edge_sets, boxes = args
    expected_tile, expected_edges = oracle(edge_sets, boxes)
    one = EdgeStore.of_edges(edge_sets)
    two = EdgeStore.of_edges(edge_sets[0::2]), EdgeStore.of_edges(edge_sets[1::2])
    for side in (
        [(one, k) for k in range(len(edge_sets))],
        [(two[k % 2], k // 2) for k in range(len(edge_sets))],
    ):
        tile, edges, submitted = twin(side, np.array(boxes, dtype=np.float64).T)
        assert tile.tolist() == expected_tile.tolist()
        assert np.array_equal(edges, expected_edges)
        assert submitted == sum(len(e) for e in edge_sets)


def _batch_classify(oracle, twin, args):
    grid, pairs = args
    assert twin(IntervalIndex(grid), pairs) == oracle(grid, pairs)


def _same_pair_set(oracle, twin, args):
    mbrs_a, mbrs_b, d = args
    expected = sorted(oracle(mbrs_a, mbrs_b, d))
    assert sorted(twin(mbrs_a, mbrs_b, d)) == expected
    assert sorted((i, j) for j, i in twin(mbrs_b, mbrs_a, d)) == expected


def _nearest_distances(oracle, twin, args):
    rect_list, query, k = args

    def fn(oid):
        return rect_list[oid].distance_to_point(query)

    tree = str_bulk_load([(r, i) for i, r in enumerate(rect_list)], max_entries=4)
    expected = [d for d, _ in oracle(list(range(len(rect_list))), fn, k)]
    # Ids may differ under exact ties; the distances may not.
    assert [d for d, _ in twin(tree, query, fn, k)] == expected


# -- the registry ------------------------------------------------------------


@dataclass(frozen=True)
class Twin:
    """An oracle, its production twin, what it runs on and how the answers
    are compared: ``compare(oracle, twin, args)`` raises on a disagreement."""

    oracle: Callable
    twin: Callable
    cases: st.SearchStrategy
    literals: Tuple[tuple, ...]
    compare: Callable = _equal


TWINS = {
    twin.oracle.__name__: twin
    for twin in [
        # -- geometry: distances
        Twin(
            geometry.point_segment_distance,
            segment_offsets,
            point_triples,
            (
                (Point(7, -1), Point(0, 0), Point(1e300, 0)),
                (Point(3, 4), Point(0, 0), Point(0, 0)),
                (Point(3, 4), Point(4, 4), Point(0, 4)),
            ),
            _offset_hypot,
        ),
        Twin(
            geometry.segment_segment_distance,
            min_dist._segment_distances,
            segment_pairs,
            LITERAL_SEGMENT_PAIRS,
            _column_distance,
        ),
        Twin(
            geometry.boundary_distance_brute_force,
            min_boundary_distance,
            polygon_pairs,
            PAIRS_BOTH_WAYS,
        ),
        Twin(
            geometry.polygon_distance_brute_force,
            polygons_within_distance,
            polygon_pairs,
            PAIRS_BOTH_WAYS,
            _within_threshold,
        ),
        Twin(
            geometry.polygons_within_distance_brute_force,
            polygons_within_distance,
            pairs_at_distances(),
            tuple((a, b, d) for a, b in PAIRS_BOTH_WAYS for d in (0.0, 0.5, TIE_D)),
        ),
        Twin(
            geometry.point_to_boundary_edge_loop,
            point_to_boundary_distance,
            rings_with_query_point().map(lambda case: (case[1], Polygon(case[0]))),
            tuple((v, b) for a, b in PAIRS_BOTH_WAYS for v in a.vertices),
        ),
        Twin(
            geometry.initial_upper_bound_loop,
            min_dist._initial_upper_bound,
            polygon_pairs,
            PAIRS_BOTH_WAYS,
        ),
        Twin(
            geometry.min_boundary_distance_loops,
            min_boundary_distance,
            st.tuples(polygon_pairs, st.sampled_from([None, 0.0, 0.5, 2.0])).map(
                lambda case: (*case[0], case[1])
            ),
            tuple((a, b, early) for a, b in PAIRS_BOTH_WAYS for early in (None, TIE_D)),
            _same_stats(MinDistStats),
        ),
        # -- geometry: point in polygon
        Twin(
            geometry.locate_point_by_sampling,
            locate_point,
            st.tuples(points, st.one_of(star_polygons(), arbitrary_polygons())).map(
                lambda case: (case[0], case[1].vertices)
            ),
            tuple((v, a.vertices) for a, b in PAIRS_BOTH_WAYS for v in b.vertices),
        ),
        Twin(
            geometry.locate_point_edge_by_edge,
            locate_point,
            rings_with_query_point().map(lambda case: (case[1], case[0])),
            tuple((v, a.vertices) for a, b in PAIRS_BOTH_WAYS for v in b.vertices),
        ),
        # -- geometry: boundary intersection
        Twin(
            geometry.boundaries_intersect_brute_force,
            boundaries_intersect,
            polygon_pairs,
            PAIRS_BOTH_WAYS,
        ),
        Twin(
            geometry.boundaries_intersect_by_loops,
            boundaries_intersect,
            st.tuples(polygon_pairs, st.booleans()).map(lambda case: (*case[0], case[1])),
            tuple((a, b, restrict) for a, b in PAIRS_BOTH_WAYS for restrict in (True, False)),
            _same_stats(SweepStats),
        ),
        # -- geometry: distance bounds
        Twin(
            geometry.zero_object_side_pair_loop,
            zero_object_upper_bound,
            st.one_of(
                st.tuples(rects(), rects()),
                polygon_pairs.map(lambda pair: (pair[0].mbr, pair[1].mbr)),
            ),
            tuple((a.mbr, b.mbr) for a, b in PAIRS_BOTH_WAYS),
        ),
        Twin(
            geometry.one_object_vertex_loop,
            one_object_upper_bound,
            polygon_pairs.map(lambda pair: (pair[0], pair[1].mbr)),
            tuple((a, b.mbr) for a, b in PAIRS_BOTH_WAYS),
        ),
        Twin(
            geometry.first_min_hypot_loop,
            first_min_hypot,
            lattices.flatmap(lambda cells: st.lists(st.tuples(cells, cells), min_size=1)).map(
                lambda rows: ([x for x, _ in rows], [y for _, y in rows])
            ),
            (
                ([HYPOT_FAR[0], HYPOT_NEAR[0]], [HYPOT_FAR[1], HYPOT_NEAR[1]]),
                ([3.0, 0.0, 4.0], [4.0, 5.0, 3.0]),
            ),
            _first_min,
        ),
        # -- raster
        Twin(
            raster.rasterize_point_conservative,
            edges_coverage_mask,
            st.tuples(shapes, raster_coords, raster_coords, widths),
            (((8, 8), 3.5, 3.5, 2.0), ((8, 8), 0.0, 8.0, math.sqrt(2.0))),
            _point_mask,
        ),
        Twin(
            raster.rasterize_line_aa_conservative,
            edges_coverage_mask,
            st.tuples(shapes, *[raster_coords] * 4, widths, st.booleans()),
            (
                ((8, 8), 2.0, 2.0, 2.0, 2.0, 1.0, False),
                ((8, 8), 0.0, 4.0, 4.0, 4.0, math.sqrt(2.0), True),
                ((8, 8), 4.0, 0.0, 4.0, 4.0, math.sqrt(2.0), False),
            ),
            _line_mask,
        ),
        Twin(
            raster.draw_edges,
            edges_coverage_mask,
            st.tuples(shapes, edge_arrays, widths, st.booleans()),
            (
                ((8, 8), np.array([[0.0, 4.0, 4.0, 4.0], [2.0, 4.0, 6.0, 4.0]]), 1.0, False),
                ((8, 8), np.array([[4.0, 0.0, 4.0, 4.0], [4.0, 4.0, 6.0, 5.0]]), 1.0, True),
                ((8, 8), np.array([[3.0, 3.0, 3.0, 3.0]]), 2.0, False),
            ),
            _same_mask,
        ),
        Twin(
            raster.cube_masks,
            edges_coverage_masks_grouped,
            grouped_draws(),
            (
                ((8, 8), np.array([[0.0, 4.0, 4.0, 4.0], [2.0, 4.0, 6.0, 4.0]]), [1, 0, 1], 1.0, True),
                ((8, 8), np.empty((0, 4)), [0], 1.0, False),
            ),
            _same_mask,
        ),
        Twin(
            raster.rasterize_polygon_evenodd,
            polygon_fill_coverage_mask,
            st.tuples(shapes, fill_vertices),
            (
                ((8, 8), SQUARE.coords_array),
                ((8, 8), ZERO_AREA.coords_array),
                ((8, 8), COLLINEAR.coords_array),
            ),
            _fill_mask,
        ),
        Twin(
            raster.polygon_coverage_mask,
            polygon_fill_coverage_mask,
            st.tuples(shapes, fill_vertices),
            (((8, 8), SQUARE.coords_array), ((8, 8), TOUCHING.coords_array)),
            _same_mask,
        ),
        Twin(
            raster.brute_force_evenodd,
            polygon_fill_coverage_mask,
            st.tuples(shapes, fill_vertices),
            (((8, 8), SQUARE.coords_array), ((8, 8), ZERO_AREA.coords_array)),
            _same_mask,
        ),
        Twin(
            raster.tile_transform_loop,
            window_scales,
            tile_windows(),
            tuple((8, 8, [w, Rect(0.0, 0.0, 8.0, 8.0)], [2.5, 9.0]) for w in ODD_WINDOWS),
            _tile_transforms,
        ),
        Twin(
            raster.cull_loop,
            _gather,
            culled_tiles(),
            (
                # An empty tile, a tile whose last block alone meets its box,
                # and a box open on every side.
                (
                    [np.empty((0, 4)), np.arange(280.0).reshape(70, 4), SQUARE.edges_array],
                    [(0.0, 0.0, 1.0, 1.0), (272.0, 273.0, 300.0, 300.0),
                     (-math.inf, -math.inf, math.inf, math.inf)],
                ),
            ),
            _gathered,
        ),
        Twin(
            raster.classify_pairs_one_by_one,
            IntervalIndex.classify_batch,
            candidate_lists(),
            tuple(
                (IntervalGrid(a.mbr.union(b.mbr), 3), [(a, b), (b, a), (a, a)])
                for a, b in LITERAL_PAIRS
            ),
            _batch_classify,
        ),
        # -- index
        Twin(
            index.nested_loop_mbr_join,
            plane_sweep_mbr_join,
            st.tuples(
                st.lists(rects(), max_size=20),
                st.lists(rects(), max_size=20),
                st.sampled_from([0.0, 0.125, 0.5, 1.0, 2.5]),
            ),
            (
                ([GAP_A], [GAP_B], GAP_D),
                ([TIE_A.mbr], [TIE_B.mbr], TIE_D),
                ([a.mbr for a, _ in LITERAL_PAIRS], [b.mbr for _, b in LITERAL_PAIRS], 0.0),
            ),
            _same_pair_set,
        ),
        Twin(
            index.linear_nearest,
            rtree_nearest,
            st.tuples(st.lists(rects(), min_size=1, max_size=30), points, st.integers(1, 4)),
            (([a.mbr for a, _ in LITERAL_PAIRS], Point(4, 4), 3),),
            _nearest_distances,
        ),
    ]
}


@pytest.mark.parametrize("name", sorted(TWINS))
def test_twin_agrees(name):
    """The entry's literals, then its corpus; an entry whose corpus never
    produces a case has not run, and fails."""
    twin = TWINS[name]
    for args in twin.literals:
        twin.compare(twin.oracle, twin.twin, args)
    ran = []

    @settings(max_examples=40)
    @given(twin.cases)
    def corpus(args):
        twin.compare(twin.oracle, twin.twin, args)
        ran.append(args)

    corpus()
    assert twin.literals and ran, f"{name} did not run"


def test_every_oracle_is_registered():
    """Each public function of an oracle module is one ``TWINS`` entry."""
    public = {
        f"{module.__name__}.{name}"
        for module in (geometry, raster, index)
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__
        and not name.startswith("_")
    }
    registered = [f"{t.oracle.__module__}.{t.oracle.__name__}" for t in TWINS.values()]
    assert len(registered) == len(set(registered))
    assert set(registered) == public


# -- the pipeline row --------------------------------------------------------


WORLD = Rect(0.0, 0.0, 100.0, 100.0)


def _layer(seed: int, count: int, extra) -> list:
    config = GeneratorConfig(
        world=WORLD,
        count=count,
        vertex_model=VertexCountModel(vmin=3, vmax=16, mean=8.0),
        coverage=0.5,
        cluster_count=3,
        cluster_spread=0.1,
        roughness=0.35,
    )
    return list(generate_layer(config, seed)) + list(extra)


LAYER_A = SpatialDataset("A", _layer(81, 12, [SQUARE, TIE_A]), world=WORLD)
LAYER_B = SpatialDataset("B", _layer(82, 14, [ZERO_AREA, COLLINEAR, TOUCHING, TIE_B]), world=WORLD)

ENGINES = {
    "software": lambda cache: SoftwareEngine(cache=cache),
    "hardware8": lambda cache: HardwareEngine(HardwareConfig(resolution=8, cache=cache)),
}
CACHES = {"cache-off": CacheConfig.disabled(), "cache-on": CacheConfig()}


def _all_pairs():
    return [
        (i, j, a, b)
        for i, a in enumerate(LAYER_A.polygons)
        for j, b in enumerate(LAYER_B.polygons)
    ]


@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_pipelines_equal_the_brute_force_oracles(engine, cache):
    """Both joins, on both engines, with the cache off and on - the
    intersection join with intervals off and on, the within-distance join
    at 0.5, 1 and 2 x BaseD and at the literal tie - give exactly the pairs
    the brute-force oracles give."""
    make = ENGINES[engine]
    meets = sorted(
        (i, j) for i, j, a, b in _all_pairs()
        if geometry.polygon_distance_brute_force(a, b) == 0.0
    )
    for use_intervals in (False, True):
        join = IntersectionJoin(LAYER_A, LAYER_B, make(CACHES[cache]), use_intervals=use_intervals)
        assert sorted(join.run().pairs) == meets
    base = base_distance(LAYER_A, LAYER_B)
    within = WithinDistanceJoin(LAYER_A, LAYER_B, make(CACHES[cache]))
    for d in (0.5 * base, base, 2.0 * base, TIE_D):
        expected = sorted(
            (i, j) for i, j, a, b in _all_pairs()
            if geometry.polygons_within_distance_brute_force(a, b, d)
        )
        assert sorted(within.run(d).pairs) == expected
