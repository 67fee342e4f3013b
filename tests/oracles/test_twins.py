"""One differential harness: every oracle against its production twin.

``TWINS`` registers each public function of ``tests/oracles/geometry.py``,
``raster.py``, ``index.py``, ``accounting.py`` and ``health.py`` once, with the production function it is the
reference for, the cases it runs on - ``tests/strategies.py``'s corpus plus
the literals below - and how the two answers are compared (``==`` unless an
entry says otherwise).  :func:`test_twin_agrees` runs every entry, and fails
an entry whose cases never run; :func:`test_every_oracle_is_registered`
fails when an oracle module defines a public function ``TWINS`` does not
hold.  The pipeline rows run whole joins on every engine, cache and
interval configuration against the brute-force oracles.
"""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
    IntervalApproximation,
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
from repro.geometry.point_in_polygon import locate_xy
from repro.geometry.predicates import segments_intersect_xy
from repro.geometry.hypot_order import first_min_hypot
from repro.geometry.edge_store import EdgeStore
from repro.geometry.runs import expand_runs
from repro.geometry.workspace import Workspace
from repro.gpu import polygon_fill_coverage_mask
from repro.gpu.pipeline import GraphicsPipeline, tile_transforms, window_columns
from repro.gpu.raster_bulk import edges_coverage_mask, edges_coverage_masks_grouped
from repro.gpu.tiled import _gather
from repro.index import plane_sweep_mbr_join, rtree_nearest, str_bulk_load
from repro.query import IntersectionJoin, WithinDistanceJoin
from repro.serve import (
    AdmissionConfig,
    HealthConfig,
    QueryRequest,
    QueryService,
    ServiceHealth,
    SlowLogConfig,
    build_health,
)
from tests.oracles import accounting, geometry, health, index, raster
from tests.strategies import HYPOT_FAR, HYPOT_NEAR, ROUNDED_CROSSING
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

#: MBRs at the ends of the range: sides at +-1e300 (differences near
#: 2e300, squares overflow), infinite sides (``inf - inf`` differences are
#: NaN, so ``max`` and the minimum meet NaN in the loops' order) and zero
#: extent on one axis or both.
ODD_MBRS = (
    Rect(-1e300, -1e300, 1e300, 1e300),
    Rect(1e300, 0.0, 1e300, 1e300),
    Rect(-math.inf, -math.inf, math.inf, math.inf),
    Rect(-math.inf, 0.0, math.inf, 0.0),
    Rect(-math.inf, 1.0, math.inf, 1.0),
    Rect(0.0, -math.inf, 2.0, 3.0),
    Rect(2.0, 2.0, 2.0, 2.0),
    Rect(0.0, 5.0, 4.0, 5.0),
)
#: Rings for the 1-Object bound against ``ODD_MBRS``: one at 1e300.
ODD_RINGS = (
    Polygon.from_coords([(0, 0), (1e300, 0), (1e300, 1e300)]),
    Polygon.from_coords([(2, 2), (2, 2), (2, 2)]),
)

LITERAL_PAIRS = [
    (SQUARE, ZERO_AREA),
    (SQUARE, COLLINEAR),
    (SQUARE, TOUCHING),
    (TIE_A, TIE_B),
]
PAIRS_BOTH_WAYS = tuple(LITERAL_PAIRS + [(b, a) for a, b in LITERAL_PAIRS])


def _comb(shift: float, closed_above: bool) -> Polygon:
    """A 60-tooth zigzag, ``y = shift`` at even and ``shift + 1`` at odd
    ``x``, closed by a rectangle below it (or above it)."""
    side = 2.5 if closed_above else -1.0
    teeth = [(float(x), (x % 2) + shift) for x in range(61)]
    return Polygon.from_coords(teeth + [(60.0, side + shift), (0.0, side + shift)])


def _on_tooth(x: float) -> Polygon:
    """A small triangle whose base touches the tooth of ``_comb(0)`` at
    ``x`` and reaches back past the tooth's first ``x``."""
    rise = x - int(x)
    y = rise if int(x) % 2 == 0 else 1.0 - rise
    return Polygon.from_coords([(x - 0.125, y), (x + 0.125, y), (x, y + 0.5)])


COMB = _comb(0.0, closed_above=False)
#: The sweep's events become lists :data:`repro.geometry.sweep._EVENT_CHUNK`
#: (32) at a time.  ``(a, b, restrict, SweepStats fields)``: unrestricted
#: sweeps whose first crossing is event 31, 32 and 33 - both sides of the
#: first chunk edge - and a comb 0.5 above ``COMB``, parallel to it, whose
#: sweep exhausts 122 (restricted) and 126 events, four chunks, with no
#: crossing.
CHUNK_EDGE_SWEEPS = (
    (COMB, _on_tooth(28.0625), False, (66, 66, 31, 1, 1)),
    (COMB, _on_tooth(29.0625), False, (66, 66, 32, 1, 1)),
    (COMB, _on_tooth(30.0625), False, (66, 66, 33, 1, 1)),
    (COMB, _comb(0.5, closed_above=True), True, (126, 122, 122, 180, 0)),
    (COMB, _comb(0.5, closed_above=True), False, (126, 126, 126, 180, 0)),
)

#: Edge pairs of the literals: zero-length, collinear overlap, touching at a
#: vertex, crossing.
LITERAL_SEGMENT_PAIRS = (
    (Point(1, 2), Point(1, 2), Point(0, 0), Point(4, 0)),
    (Point(0, 4), Point(4, 4), Point(2, 4), Point(6, 4)),
    (Point(4, 0), Point(4, 4), Point(4, 4), Point(6, 5)),
    (Point(1, 2), Point(6, 2), Point(4, 0), Point(4, 4)),
)

#: The adversarial corpus of the float predicates: magnitudes where every
#: product rounds (1e15) or overflows (near 1e154 and 1e300), PR 34's
#: ``ROUNDED_CROSSING`` (rounding reads the apart segments as crossing),
#: shared and repeated vertices, and ``-0.0`` beside ``0.0``.
ADVERSARIAL_RINGS = (
    [(1e15 + x, 1e15 + y) for x, y in ((0, 0), (3, 0.125), (2.875, 3), (0.125, 2))],
    [(0.0, 0.0), (3e154, 1e154), (1e154, 3e154)],
    [(-1e300, -1e300), (1e300, -5e299), (0.0, 1e300)],
    # Edge (0, -1e300) -> (1e300, 1e300) gives the point (1.5e300, 0) two
    # products that both overflow to +inf: equal, so collinear, and out of
    # the edge's box; ``<`` of the two says no crossing, ``<=`` says one.
    [(0.0, -1e300), (1e300, 1e300), (0.0, 1e300)],
    list(ROUNDED_CROSSING),
    [(0, 0), (4, 0), (4, 4), (0, 0), (4, 0), (4, 4)],
    [(-0.0, 1.0), (1.0, -0.0), (-0.0, -0.0), (-0.0, 3.0)],
)
ADVERSARIAL_POINTS = (
    (1e15 + 1.5, 1e15 + 0.0625), (1e15 + 1, 1e15 + 1), (1e15 + 2.875, 1e15 + 1.5),
    (2e154, 2e154), (1e154, 1e154), (2.5e154, 1e154), (1e154, 0.0),
    (0.0, 0.0), (1e300, 0.0), (1.5e300, 0.0), (-1e300, 0.0), (5e299, 5e299),
    *ROUNDED_CROSSING, (2.0, -1.0), (1.7769064486921016, -0.6),
    (2.0, 2.0), (4.0, 4.0), (4.0, 2.0), (0.0, 1.0), (-0.0, 0.5), (0.5, -0.0), (-0.0, 3.0),
)
PIP_LITERALS = tuple(
    (x, y, Polygon.from_coords(ring).edge_slabs)
    for ring in ADVERSARIAL_RINGS
    for x, y in ADVERSARIAL_POINTS + tuple(ring)
)
ADVERSARIAL_SEGMENT_PAIRS = tuple(
    tuple(Point(*v) for v in pair)
    for pair in (
        ROUNDED_CROSSING,
        ((1e15, 1e15), (1e15 + 3, 1e15 + 0.125), (1e15 + 1, 1e15 - 1), (1e15 + 2, 1e15 + 1)),
        ((0.0, 0.0), (2e154, 2e154), (0.0, 2e154), (2e154, 0.0)),
        ((0.0, 0.0), (3e154, 1e154), (1e154, 3e154), (2e154, -1e154)),
        ((-1e300, 0.0), (1e300, 0.0), (0.0, -1e300), (0.0, 1e300)),
        ((0.0, -1e300), (1e300, 1e300), (1.5e300, 0.0), (1.5e300, 1e300)),
        ((0, 0), (1, 1), (1, 1), (2, 0)),
        ((0, 0), (4, 0), (4, 0), (0, 0)),
        ((-0.0, 0.0), (1, 1), (0.0, -0.0), (1, -1)),
        ((-0.0, -0.0), (0.0, 2.0), (0.0, 1.0), (-0.0, 3.0)),
    )
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


def _coordinates(oracle, twin, args):
    """The twin takes the coordinates of the oracle's ``Point`` arguments."""
    assert twin(*(v for p in args for v in (p.x, p.y))) == oracle(*args)


def _same_stats(stats_type):
    """The value and every counter of a ``stats=`` keyword."""

    def compare(oracle, twin, args):
        got, expected = stats_type(), stats_type()
        assert twin(*args, stats=got) == oracle(*args, stats=expected)
        assert got == expected

    return compare


def _run_columns(runs):
    """``(starts, counts)`` arrays of ``(start, count)`` runs."""
    return tuple(np.array([run[i] for run in runs], dtype=np.intp) for i in (0, 1))


def _expanded_runs(oracle, twin, args):
    """In a fresh workspace, and in an arena already holding an array."""
    expected = oracle(*(a.tolist() for a in args))
    ws = Workspace(reserve=1 << 16)
    ws.array(3)
    for workspace in (None, ws):
        run, index = twin(*args, workspace)
        assert (run.tolist(), index.tolist()) == expected


def _offset_hypot(oracle, twin, args):
    p, a, b = args
    dx, dy = twin(*(np.array([v]) for v in (p.x, p.y, a.x, a.y, b.x, b.y)))
    assert math.hypot(dx[0], dy[0]) == oracle(p, a, b)


def _column_distance(oracle, twin, args):
    p1, p2, q1, q2 = args
    columns = [np.array([[v.x], [v.y]]) for v in args]
    p, q = np.concatenate(columns[:2]), np.concatenate(columns[2:])
    assert twin(p, q).tolist() == [oracle(p1, p2, q1, q2)]


def _both_directions(oracle, twin, args):
    """A fused twin answers ``(oracle(a, b), oracle(b, a))``."""
    a, b = args
    assert twin(a, b) == (oracle(a, b), oracle(b, a))


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
    scales, boxes = twin(width, height, window_columns(windows), np.array(pads))
    expected_scales, expected_boxes = oracle(width, height, windows, pads)
    assert scales.tolist() == expected_scales
    assert boxes.T.tolist() == [list(box) for box in expected_boxes]


def _pipeline_scale(oracle, twin, args):
    """The per-pair pipeline's projection scale after ``set_data_window``."""
    (height, width), window = args
    pipeline = GraphicsPipeline(width, height)
    twin(pipeline, window)
    assert pipeline.scale == oracle(width, height, window)


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
        tile, edges, submitted = twin(
            side, np.array(boxes, dtype=np.float64).T, Workspace()
        )
        assert tile.tolist() == expected_tile.tolist()
        assert np.array_equal(edges, expected_edges)
        assert submitted == sum(len(e) for e in edge_sets)


@st.composite
def interior_probes(draw):
    """``(query, level, probes)``: a corpus polygon, a level in 0-8 and
    rects inside its MBR whose sides sit on fractions of it (on tile edges
    at the low levels), plus rects anywhere."""
    query = draw(st.one_of(
        star_polygons(),
        arbitrary_polygons(),
        lattices.flatmap(lambda cells: adversarial_rings(cells).map(Polygon)),
    ))
    mbr = query.mbr
    fractions = st.sampled_from([0.0, 0.25, 0.375, 0.4, 0.5, 0.55, 0.625, 0.75, 1.0])
    probes = []
    for _ in range(draw(st.integers(1, 6))):
        x0, x1 = sorted(draw(st.tuples(fractions, fractions)))
        y0, y1 = sorted(draw(st.tuples(fractions, fractions)))
        probes.append(Rect(
            mbr.xmin + x0 * mbr.width, mbr.ymin + y0 * mbr.height,
            mbr.xmin + x1 * mbr.width, mbr.ymin + y1 * mbr.height,
        ))
    probes += draw(st.lists(rects(), max_size=3))
    return query, draw(st.integers(0, 8)), probes


def _interior_cover(oracle, twin, args):
    """The FULL cells of the query's encoding on a grid over its own MBR are
    the oracle's interior bitmap, and ``covers`` is its prefix-sum cover."""
    query, level, probes = args
    encoding = IntervalApproximation.build(query, IntervalGrid(query.mbr, level))
    ids, covered = oracle(query, level, probes)
    assert encoding.full_cell_ids().tolist() == ids
    assert [twin(encoding, rect) for rect in probes] == covered


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


def _serve_mix(seed):
    """A seeded ok / shed / timeout / error mix through one fresh service;
    returns the service and its ``(request, response)`` outcomes.

    With both engines held, two arrivals queue and time out and the next
    ones are shed.  Then two threads call ``submit`` and an event loop
    awaits ``asubmit`` for the rest at once: selections, a join, a
    within-distance query and out-of-range selections (errors).
    """
    rng = random.Random(seed)
    service = QueryService(
        workers=2,
        admission=AdmissionConfig(max_queue=2, timeout_s=0.05),
        slowlog=SlowLogConfig(threshold_s=0.01),
    )
    outcomes = []
    queries = len(service.workload.queries)

    def serve(requests):
        for request in requests:
            outcomes.append((request, service.submit(request)))

    def selection(index):
        return QueryRequest(op="selection", query_index=index)

    held = [service.pool.admit()[0] for _ in range(2)]
    queued = [threading.Thread(target=serve, args=([selection(i)],)) for i in (0, 1)]
    for thread in queued:
        thread.start()
    while service.pool.queue_depth < 2:
        time.sleep(0.001)
    serve([selection(rng.randrange(queries)) for _ in range(rng.randint(1, 3))])
    for thread in queued:
        thread.join()
    for engine in held:
        service.pool.release(engine)

    requests = [selection(rng.randrange(queries)) for _ in range(24)]
    requests += [selection(queries + rng.randrange(5)) for _ in range(3)]
    requests += [
        QueryRequest(op="join"),
        QueryRequest(
            op="within_distance",
            distance=rng.choice([0.5, 1.0, 2.0]) * service.workload.base_distance,
        ),
    ]
    rng.shuffle(requests)

    async def asubmit_all(batch):
        with ThreadPoolExecutor(max_workers=service.capacity) as executor:
            responses = await asyncio.gather(
                *(service.asubmit(request, executor) for request in batch)
            )
        outcomes.extend(zip(batch, responses))

    threads = [
        threading.Thread(target=serve, args=(requests[0::3],)),
        threading.Thread(target=serve, args=(requests[1::3],)),
        threading.Thread(target=asyncio.run, args=(asubmit_all(requests[2::3]),)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return service, outcomes


def _accounting_view(snapshot):
    """A snapshot with each timing histogram (``*_s``) cut to its count."""
    view = dict(snapshot)
    view["histograms"] = {
        key: {"count": hist["count"]} if key.split("{")[0].endswith("_s") else hist
        for key, hist in snapshot["histograms"].items()
    }
    return view


def _same_accounting(oracle, twin, args):
    """The service's folded registry equals the direct writes' replay."""
    service, outcomes = _serve_mix(*args)
    try:
        assert {response.status for _, response in outcomes} == {
            "ok", "shed", "timeout", "error"
        }
        assert _accounting_view(twin(service)) == _accounting_view(
            oracle(service, outcomes)
        )
    finally:
        service.close()


#: A 3 s telemetry window of 1 s buckets; 4 s / 24 s burn-rate windows.
HEALTH = HealthConfig(window_width_s=1.0, window_buckets=3, slo_fast_s=4.0, slo_slow_s=24.0)


def _health_steps(seed):
    """A seeded, clock-driven ok / shed / timeout / error sequence of
    ``(advance_s, outcomes)`` steps.  Steps of 1 s and 2 s retire single
    buckets, a 30 s step skips every ring whole, and the only timeouts
    come first, so their series drains and stays listed at zero.  Latencies
    straddle the stock 2.5 s latency objective, and error runs burn the
    availability budget, so alerts fire and resolve."""
    rng = random.Random(seed)

    def outcomes(statuses):
        return [
            (rng.choice(["selection", "join"]), status, rng.choice([0.0, 0.01, 0.5, 3.0, 7.25]))
            for status in statuses
        ]

    steps = [(0.0, outcomes(["timeout", "ok", "error", "timeout"]))]
    for _ in range(rng.randint(6, 10)):
        statuses = rng.choices(["ok", "ok", "ok", "shed", "error"], k=rng.randint(0, 6))
        steps.append((rng.choice([0.0, 0.25, 1.0, 1.0, 2.0]), outcomes(statuses)))
    steps += [(30.0, []), (0.5, outcomes(["ok", "shed", "error"]))]
    return steps


def _same_health(oracle, twin, args):
    """After each step, the monitor's health read reports the ``window``
    and ``slo`` sections the per-series instruments do."""
    steps = _health_steps(*args)
    now = [0.0]
    monitor = ServiceHealth(dataclasses.replace(HEALTH, clock=lambda: now[0]))
    sections = []
    for advance_s, outcomes in steps:
        now[0] += advance_s
        for op, status, total_s in outcomes:
            monitor.record(op, status, total_s)
        doc = twin(monitor, queue_depth=0, inflight=0, max_queue=0, workers=[])
        sections.append({"window": doc["window"], "slo": doc["slo"]})
    assert sections == oracle(HEALTH, steps)


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
            min_dist._initial_upper_bounds,
            polygon_pairs,
            PAIRS_BOTH_WAYS,
            _both_directions,
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
        Twin(
            geometry.locate_xy_over_rows,
            locate_xy,
            st.one_of(
                rings_with_query_point().map(lambda case: (case[1], Polygon(case[0]))),
                st.tuples(points, star_polygons(3, 40)),
            ).map(lambda case: (case[0].x, case[0].y, case[1].edge_slabs)),
            PIP_LITERALS,
        ),
        # -- geometry: segments
        Twin(
            geometry.segments_intersect_points,
            segments_intersect_xy,
            segment_pairs,
            LITERAL_SEGMENT_PAIRS + ADVERSARIAL_SEGMENT_PAIRS,
            _coordinates,
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
            tuple((a, b, restrict) for a, b in PAIRS_BOTH_WAYS for restrict in (True, False))
            + tuple((a, b, restrict) for a, b, restrict, _ in CHUNK_EDGE_SWEEPS),
            _same_stats(SweepStats),
        ),
        # -- geometry: CSR run expansion
        Twin(
            geometry.expand_runs_run_by_run,
            expand_runs,
            st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 4)), max_size=8).map(
                _run_columns
            ),
            (
                (np.array([5, 9, 2], dtype=np.intp), np.array([0, 3, 0], dtype=np.intp)),
                (np.array([7, 1], dtype=np.intp), np.array([2, 0], dtype=np.intp)),
            ),
            _expanded_runs,
        ),
        # -- geometry: distance bounds
        Twin(
            geometry.zero_object_side_pair_loop,
            zero_object_upper_bound,
            st.one_of(
                st.tuples(rects(), rects()),
                polygon_pairs.map(lambda pair: (pair[0].mbr, pair[1].mbr)),
            ),
            tuple((a.mbr, b.mbr) for a, b in PAIRS_BOTH_WAYS)
            + tuple((a, b) for a in ODD_MBRS for b in ODD_MBRS + (SQUARE.mbr,))
            + tuple((SQUARE.mbr, b) for b in ODD_MBRS),
        ),
        Twin(
            geometry.one_object_vertex_loop,
            one_object_upper_bound,
            polygon_pairs.map(lambda pair: (pair[0], pair[1].mbr)),
            tuple((a, b.mbr) for a, b in PAIRS_BOTH_WAYS)
            + tuple((a, r) for a in ODD_RINGS + (SQUARE, ZERO_AREA) for r in ODD_MBRS)
            + tuple((a, b.mbr) for a in ODD_RINGS for b in (SQUARE, TOUCHING)),
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
            lambda *draw: edges_coverage_masks_grouped(*draw, workspace=Workspace()),
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
            tile_transforms,
            tile_windows(),
            tuple((8, 8, [w, Rect(0.0, 0.0, 8.0, 8.0)], [2.5, 9.0]) for w in ODD_WINDOWS),
            _tile_transforms,
        ),
        Twin(
            raster.uniform_window_scale,
            GraphicsPipeline.set_data_window,
            st.tuples(shapes, st.one_of(rects(), st.sampled_from(ODD_WINDOWS))),
            tuple(((4, 8), w) for w in (*ODD_WINDOWS, Rect(0.0, 0.0, 8.0, 8.0))),
            _pipeline_scale,
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
        Twin(
            raster.interior_tiles_by_prefix_sum,
            IntervalApproximation.covers,
            interior_probes(),
            (
                # The square's tile edges at level 2 are x = 1, 2, 3.
                (SQUARE, 2, [Rect(1.5, 1.5, 2.5, 2.5), Rect(1.5, 1.5, 3.0, 2.5),
                             Rect(1.0, 1.0, 3.0, 3.0), Rect(2.0, 2.0, 2.0, 2.0)]),
                (SQUARE, 0, [SQUARE.mbr, Rect(1.0, 1.0, 2.0, 2.0)]),
                (SQUARE, 8, [Rect(0.5, 0.5, 3.5, 3.5), Rect(-1.0, 1.0, 2.0, 2.0)]),
                (ZERO_AREA, 3, [ZERO_AREA.mbr, Rect(2.0, 2.0, 2.0, 2.0)]),
                (COLLINEAR, 4, [Rect(3.0, 5.0, 5.0, 7.0), COLLINEAR.mbr]),
            ),
            _interior_cover,
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
        # -- accounting
        Twin(
            accounting.account_directly,
            QueryService.metrics_snapshot,
            st.sampled_from([(5,), (23,)]),
            ((41,),),
            _same_accounting,
        ),
        Twin(
            health.health_directly,
            build_health,
            st.tuples(st.integers(0, 2**16)),
            ((2003,),),
            _same_health,
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


@pytest.mark.parametrize(
    "a, b, restrict, fields", CHUNK_EDGE_SWEEPS, ids=["31", "32", "33", "neg-restricted", "neg"]
)
def test_sweep_chunk_edges(a, b, restrict, fields):
    """The chunk literals sit where they say: all five counters, which the
    twin above also holds to the loops."""
    stats = SweepStats()
    assert boundaries_intersect(a, b, restrict, stats) == bool(fields[-1])
    assert dataclasses.astuple(stats) == fields


def test_every_oracle_is_registered():
    """Each public function of an oracle module is one ``TWINS`` entry."""
    public = {
        f"{module.__name__}.{name}"
        for module in (accounting, geometry, health, raster, index)
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
