"""Shared hypothesis strategies for geometric property-based tests.

Coordinates are drawn from a modest grid-aligned range: GIS data has 4-6
digit decimal coordinates (paper section 3), and grid alignment makes the
exact predicates deterministic while still exercising degenerate
configurations (collinear points, shared endpoints, touching boundaries)
far more often than uniform floats would.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from hypothesis import strategies as st

from repro.filters import IntervalGrid
from repro.geometry import Point, Polygon, Rect

#: Coordinates are multiples of 1/8 in [-16, 16]: exactly representable,
#: so cross products up to the needed magnitude are exact in binary floats.
coordinates = st.integers(min_value=-128, max_value=128).map(lambda v: v / 8.0)

points = st.builds(Point, coordinates, coordinates)

#: Two offsets whose squared order and ``math.hypot`` order invert:
#: ``HYPOT_NEAR`` has the larger ``x*x + y*y`` (…575 against …574) and the
#: smaller ``hypot`` (…605 against …607) - 780 such pairs turned up in
#: 667 k near-equal-norm draws.  The regime ``hypot_order.SLACK`` exists for.
HYPOT_NEAR = (0.628659352285357, 0.6598426200294377)
HYPOT_FAR = (0.7056733717285377, 0.5767408056106612)

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


@st.composite
def rects(draw) -> Rect:
    x1 = draw(coordinates)
    x2 = draw(coordinates)
    y1 = draw(coordinates)
    y2 = draw(coordinates)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@st.composite
def segments(draw) -> Tuple[Point, Point]:
    return (draw(points), draw(points))


@st.composite
def star_polygons(draw, min_vertices: int = 3, max_vertices: int = 24) -> Polygon:
    """Simple star-shaped polygons with grid-ish vertices.

    Vertices are placed at strictly increasing angles around a center with
    varying radii, then snapped to the 1/8 grid; snapping can very rarely
    produce coincident consecutive vertices, which are dropped.
    """
    n = draw(st.integers(min_vertices, max_vertices))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = random.Random(seed)
    cx = draw(coordinates)
    cy = draw(coordinates)
    # Radius scales with the vertex count so grid snapping cannot fold
    # adjacent vertices over each other (keeps the ring simple).
    radius = draw(st.integers(max(2, n), 40)) / 4.0
    verts: List[Point] = []
    for i in range(n):
        theta = 2.0 * math.pi * (i + rng.uniform(-0.3, 0.3)) / n
        r = radius * rng.uniform(0.4, 1.0)
        x = round((cx + r * math.cos(theta)) * 8.0) / 8.0
        y = round((cy + r * math.sin(theta)) * 8.0) / 8.0
        p = Point(x, y)
        if not verts or verts[-1] != p:
            verts.append(p)
    if len(verts) > 1 and verts[0] == verts[-1]:
        verts.pop()
    if len(verts) < 3:
        verts = [Point(cx, cy), Point(cx + 1.0, cy), Point(cx, cy + 1.0)]
    return Polygon(verts)


@st.composite
def arbitrary_polygons(draw, min_vertices: int = 3, max_vertices: int = 10) -> Polygon:
    """Possibly self-intersecting polygons: raw vertex lists.

    Consecutive duplicate vertices are allowed (they occur in dirty GIS
    data); the library must not crash or disagree across algorithms.
    """
    n = draw(st.integers(min_vertices, max_vertices))
    verts = [draw(points) for _ in range(n)]
    # Ensure the ring is not completely degenerate (all points equal).
    if all(v == verts[0] for v in verts):
        verts[-1] = Point(verts[0].x + 1.0, verts[0].y)
        verts.append(Point(verts[0].x, verts[0].y + 1.0))
    return Polygon(verts)


@st.composite
def polygon_pairs_nearby(draw) -> Tuple[Polygon, Polygon]:
    """Pairs of star polygons whose MBRs usually interact."""
    a = draw(star_polygons())
    b = draw(star_polygons())
    # Translate b near a's MBR so intersecting and near-miss cases dominate.
    shift_x = draw(st.integers(-8, 8)) / 2.0
    shift_y = draw(st.integers(-8, 8)) / 2.0
    target = a.mbr.center
    b_center = b.mbr.center
    b = b.translated(
        target.x - b_center.x + shift_x, target.y - b_center.y + shift_y
    )
    return a, b


#: Lattices ``offset + k * step`` that stress exact arithmetic in different
#: ways: the 1/8 grid, half-integer pixel centres, and magnitudes near 1e15
#: where one ulp is 1/8 and every product rounds.
lattices = st.sampled_from(
    [(0.0, 0.125), (0.5, 1.0), (0.0, 1.0), (1e15, 0.125), (-1e15, 0.25)]
).map(lambda lattice: st.integers(-5, 5).map(lambda k: lattice[0] + k * lattice[1]))


@st.composite
def lattice_rects(draw, cells) -> Rect:
    """A box with corners on ``cells``: zero width or height, shared sides
    and shared corners are common."""
    x0, x1 = sorted(draw(st.tuples(cells, cells)))
    y0, y1 = sorted(draw(st.tuples(cells, cells)))
    return Rect(x0, y0, x1, y1)


@st.composite
def mbr_join_cases(draw):
    """``(mbrs_a, mbrs_b, distance)`` for the MBR join: boxes on one of the
    ``lattices`` (equal ``xmin`` within a side and across the two, zero
    width or height, boxes touching at an edge or a corner, offsets near
    1e15), sometimes mixed with ``rects()``, and a distance of 0, a few
    lattice steps or ``inf``."""
    cells = draw(lattices)
    boxes = st.one_of(lattice_rects(cells), rects()) if draw(st.booleans()) else lattice_rects(cells)
    a = draw(st.lists(boxes, max_size=14))
    b = draw(st.lists(boxes, max_size=14))
    if a and draw(st.booleans()):
        b.insert(draw(st.integers(0, len(b))), a[draw(st.integers(0, len(a) - 1))])
    distance = draw(st.sampled_from([0.0, 0.0, 0.125, 0.25, 1.0, 2.5, math.inf]))
    return a, b, distance


@st.composite
def adversarial_rings(draw, cells=None, min_vertices: int = 3, max_vertices: int = 9):
    """Raw vertex rings on one small lattice: bow-ties, repeated vertices,
    collinear runs and horizontal edges (paper footnote 1) are the norm."""
    if cells is None:
        cells = draw(lattices)
    n = draw(st.integers(min_vertices, max_vertices))
    return [Point(draw(cells), draw(cells)) for _ in range(n)]


@st.composite
def rings_with_query_point(draw) -> Tuple[List[Point], Point]:
    """An adversarial ring plus a query point placed where point-in-polygon
    tests go wrong: on a vertex, on an edge, level with a vertex or with a
    horizontal edge, or anywhere on the ring's own lattice."""
    cells = draw(lattices)
    ring = draw(adversarial_rings(cells))
    i = draw(st.integers(0, len(ring) - 1))
    kind = draw(st.sampled_from(["vertex", "edge", "level", "lattice", "lattice"]))
    if kind == "vertex":
        p = ring[i]
    elif kind == "edge":
        p = ring[i - 1].midpoint(ring[i])
    elif kind == "level":
        p = Point(draw(cells), ring[i].y)
    else:
        p = Point(draw(cells), draw(cells))
    return ring, p


@st.composite
def candidate_lists(draw):
    """An index world, its polygons and a candidate list over them.

    The world is the union of the first few polygons' MBRs, so later ones
    may be clipped or lie entirely outside (an empty encoding); index
    pairs repeat and pair polygons with themselves."""
    polygons = list(draw(polygon_pairs_nearby()))
    polygons += draw(st.lists(star_polygons(), max_size=3))
    polygons += [Polygon(r) for r in draw(st.lists(adversarial_rings(), max_size=2))]
    k = draw(st.integers(1, len(polygons)))
    world = Rect.union_all([p.mbr for p in polygons[:k]])
    if draw(st.booleans()):
        polygons.append(polygons[0].translated(3 * world.width + 40, 0.0))
    n = len(polygons) - 1
    pairs = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=24))
    level = draw(st.sampled_from([0, 1, 3, 8]))
    return IntervalGrid(world, level), [(polygons[i], polygons[j]) for i, j in pairs]
