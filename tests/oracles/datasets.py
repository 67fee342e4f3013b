"""Dataset oracles: the tessellation generator built cell by cell.

Each cell traces every one of its borders itself, so each border shared by
two cells is displaced twice, by recursive midpoint displacement, and both
copies must agree for the layer to be gap-free.  Each public function is
registered with its production twin in ``tests/oracles/test_twins.py``:

* the recursive displacement, against the production stack;
* one directed border, against a lookup in the production border table
  (either orientation, a miss or a hit);
* a whole layer, cell by cell, against ``generate_tessellation``.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from repro.datasets.tessellation import (
    TessellationConfig,
    _bounded_voronoi_cells,
    _clustered_seeds,
)
from repro.geometry import Polygon


def _edge_rng(
    p: Tuple[float, float], q: Tuple[float, float], layer_seed: int
) -> Tuple[random.Random, bool]:
    """Deterministic RNG for an undirected edge, plus orientation flag.

    Endpoints are rounded to a fine grid before hashing so the float noise
    of Voronoi vertices shared between cells cannot desynchronize the seed.
    """
    a = (round(p[0], 9), round(p[1], 9))
    b = (round(q[0], 9), round(q[1], 9))
    flipped = b < a
    lo, hi = (b, a) if flipped else (a, b)
    seed = hash((lo, hi, layer_seed))
    return random.Random(seed), flipped


def displaced_polyline(
    p: Tuple[float, float],
    q: Tuple[float, float],
    detail_len: float,
    roughness: float,
    rng: random.Random,
) -> List[Tuple[float, float]]:
    """Fractal polyline from ``p`` to ``q`` (excluding ``q``): recursive
    midpoint displacement, each level perturbing the midpoint perpendicular
    to the chord by an amount proportional to the chord's length."""
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    length = math.hypot(dx, dy)
    if length <= detail_len:
        return [p]
    offset = rng.gauss(0.0, roughness * length * 0.45)
    limit = 0.35 * length
    offset = max(-limit, min(limit, offset))
    mx = (p[0] + q[0]) * 0.5 - dy / length * offset
    my = (p[1] + q[1]) * 0.5 + dx / length * offset
    mid = (mx, my)
    return displaced_polyline(p, mid, detail_len, roughness, rng) + displaced_polyline(
        mid, q, detail_len, roughness, rng
    )


def detail_polyline(
    p: Tuple[float, float],
    q: Tuple[float, float],
    detail_len: float,
    roughness: float,
    layer_seed: int,
) -> List[Tuple[float, float]]:
    """The border from ``p`` to ``q`` (``q`` excluded), displaced afresh in
    its canonical orientation and flipped as needed."""
    rng, flipped = _edge_rng(p, q, layer_seed)
    if flipped:
        pts = displaced_polyline(q, p, detail_len, roughness, rng)
        pts = pts + [p]
        pts.reverse()
        return pts[:-1]
    return displaced_polyline(p, q, detail_len, roughness, rng)


def tessellation_cell_by_cell(config: TessellationConfig, seed: int) -> List[Polygon]:
    """The tessellation layer with every cell built independently: its
    borders displaced by :func:`detail_polyline`, clamped to the world point
    by point, and deduplicated in a Python loop."""
    rng = random.Random(seed)
    seeds = _clustered_seeds(config, rng)
    vertices, ids = _bounded_voronoi_cells(seeds, config.world)
    rings = [[tuple(vertices[v]) for v in ring] for ring in ids]

    total_perimeter = 0.0
    for ring in rings:
        for k in range(len(ring)):
            p = ring[k]
            q = ring[(k + 1) % len(ring)]
            total_perimeter += math.hypot(q[0] - p[0], q[1] - p[1])
    detail_len = max(total_perimeter / (config.mean_vertices * len(rings)), 1e-12)
    world = config.world

    def clamp(pt):
        return (
            min(max(pt[0], world.xmin), world.xmax),
            min(max(pt[1], world.ymin), world.ymax),
        )

    def build(dl: float) -> List[Polygon]:
        out = []
        for ring in rings:
            coords = []
            n = len(ring)
            for k in range(n):
                coords.extend(
                    clamp(pt)
                    for pt in detail_polyline(
                        ring[k], ring[(k + 1) % n], dl, config.roughness, seed
                    )
                )
            deduped = []
            for pt in coords:
                if not deduped or deduped[-1] != pt:
                    deduped.append(pt)
            if len(deduped) > 1 and deduped[0] == deduped[-1]:
                deduped.pop()
            if len(deduped) < 3:
                deduped = list(ring)
            out.append(Polygon.from_coords(deduped))
        return out

    polygons = build(detail_len)
    measured_mean = sum(p.num_vertices for p in polygons) / len(polygons)
    if measured_mean > config.mean_vertices * 1.15:
        polygons = build(detail_len * measured_mean / config.mean_vertices)
    return polygons
