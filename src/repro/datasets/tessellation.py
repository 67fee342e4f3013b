"""Voronoi tessellation layers with fractal boundary detail.

The paper's polygonal layers are mostly *partitions of space*: land-cover
patches, ownership parcels, precipitation zones, and state boundaries tile
their extent.  That structure drives the experiments in a way blob soups
cannot: when a partition layer is overlaid with another layer, a candidate
pair whose MBRs overlap is very often a *negative* whose boundaries are
clearly separated inside the common window (an object lies inside one cell,
and the neighbor cell's boundary passes along one side of the window) - the
expensive software case the hardware filter eliminates.

Construction:

1. clustered seed points in the world rectangle; the Voronoi diagram is
   bounded by mirroring all seeds across the four world edges (every
   original seed's region is then finite and inside the world);
2. every Voronoi edge is replaced by a fractal midpoint-displacement
   polyline whose detail length is chosen so the layer hits a target mean
   vertex count.  Each border is displaced once per build, traced by both
   cells: the second cell reads the first's polyline reversed, so the layer
   remains a gap-free tessellation.  The displacement RNG is seeded from
   the *undirected* border's endpoints, so the curve does not depend on
   which cell meets the border first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import Voronoi

from ..geometry.polygon import Polygon
from ..geometry.rect import Rect


@dataclass(frozen=True)
class TessellationConfig:
    """Parameters of one tessellation layer."""

    world: Rect
    cell_count: int
    #: Target mean vertices per cell; boundary detail length is derived
    #: from it and the measured cell perimeters.
    mean_vertices: float
    #: Relative amplitude of the fractal boundary displacement.  0 keeps
    #: straight Voronoi edges; ~0.2 gives land-cover-like wiggle.  Kept
    #: moderate so cells stay simple polygons.
    roughness: float = 0.18
    cluster_count: int = 16
    #: Seed concentration: smaller values pack seeds tightly into their
    #: clusters, leaving large void cells between clusters - the giant
    #: patches behind Table 2's heavy-tailed maxima (a cell's vertex count
    #: grows with its perimeter).  1.0 spreads seeds almost uniformly.
    cluster_tightness: float = 1.0
    #: Cluster anisotropy: > 1 stretches seed clusters along a shared
    #: direction (banded climate zones).
    band_elongation: float = 1.0

    def __post_init__(self) -> None:
        if self.cell_count < 1:
            raise ValueError("cell_count must be >= 1")
        if self.mean_vertices < 4:
            raise ValueError("mean_vertices must be >= 4")
        if not 0.0 <= self.roughness < 0.5:
            raise ValueError("roughness must be in [0, 0.5)")


def _clustered_seeds(config: TessellationConfig, rng: random.Random) -> np.ndarray:
    world = config.world
    extent = min(world.width, world.height)
    spread = (
        extent
        / max(1.0, math.sqrt(config.cluster_count))
        * 0.9
        * config.cluster_tightness
    )
    clusters = [
        (
            rng.uniform(world.xmin, world.xmax),
            rng.uniform(world.ymin, world.ymax),
            rng.uniform(0.0, math.pi),
        )
        for _ in range(max(1, config.cluster_count))
    ]
    pts = []
    margin = extent * 1e-3
    for _ in range(config.cell_count):
        cx, cy, angle = clusters[rng.randrange(len(clusters))]
        du = rng.gauss(0.0, spread * config.band_elongation)
        dv = rng.gauss(0.0, spread / config.band_elongation)
        ca, sa = math.cos(angle), math.sin(angle)
        x = cx + ca * du - sa * dv
        y = cy + sa * du + ca * dv
        pts.append(
            (
                min(max(x, world.xmin + margin), world.xmax - margin),
                min(max(y, world.ymin + margin), world.ymax - margin),
            )
        )
    return np.array(pts, dtype=np.float64)


def _bounded_voronoi_cells(
    seeds: np.ndarray, world: Rect
) -> Tuple[Sequence[Sequence[float]], List[List[int]]]:
    """The Voronoi vertices, and each seed's finite cell as a ring of vertex
    ids, bounded by the world rect.

    Uses the reflection trick: mirroring every seed across each world edge
    makes each original region finite and clipped to the world.  The
    vertices are SciPy's ``(V, 2)`` array; a single seed's cell is the
    world's four corners, as Python floats.
    """
    if len(seeds) == 1:
        return [(world.xmin, world.ymin), (world.xmax, world.ymin),
                (world.xmax, world.ymax), (world.xmin, world.ymax)], [[0, 1, 2, 3]]
    mirrored = [seeds]
    for axis, value in (
        (0, world.xmin),
        (0, world.xmax),
        (1, world.ymin),
        (1, world.ymax),
    ):
        reflected = seeds.copy()
        reflected[:, axis] = 2.0 * value - reflected[:, axis]
        mirrored.append(reflected)
    all_points = np.vstack(mirrored)
    vor = Voronoi(all_points)
    rings = [
        [v for v in vor.regions[vor.point_region[i]] if v != -1]
        for i in range(len(seeds))
    ]
    return vor.vertices, rings


def _displaced_polyline(
    p: Tuple[float, float],
    q: Tuple[float, float],
    detail_len: float,
    roughness: float,
    rng: random.Random,
) -> List[Tuple[float, float]]:
    """Fractal polyline from ``p`` to ``q`` (excluding ``q``).

    Midpoint displacement: a chord longer than ``detail_len`` has its
    midpoint perturbed perpendicular to it, with amplitude proportional to
    its length, and both halves are displaced in turn - straight Voronoi
    borders become digitized-looking boundaries with detail at every scale
    down to ``detail_len``.  The stack pops a chord's first half before its
    second, so the offsets draw from ``rng`` in the pre-order of the
    recursive definition (``tests/oracles/datasets.py``).
    """
    out: List[Tuple[float, float]] = []
    stack = [(p[0], p[1], q[0], q[1])]
    pop, push, gauss = stack.pop, stack.append, rng.gauss
    while stack:
        px, py, qx, qy = pop()
        dx = qx - px
        dy = qy - py
        length = math.hypot(dx, dy)
        if length <= detail_len:
            out.append((px, py))
            continue
        offset = gauss(0.0, roughness * length * 0.45)
        # Clamp so adjacent chords cannot fold back over each other.
        limit = 0.35 * length
        offset = max(-limit, min(limit, offset))
        mx = (px + qx) * 0.5 - dy / length * offset
        my = (py + qy) * 0.5 + dx / length * offset
        push((mx, my, qx, qy))
        push((px, py, mx, my))
    return out


class _BorderTable:
    """One build's fractal borders, each undirected border displaced once.

    A border is displaced from its canonical end - the one whose rounded
    key sorts first - and stored with both ends, keyed by the canonical
    pair of vertex ids, i.e. by the exact endpoint floats (ids, not float
    values, because ``-0.0 == 0.0``).  The cell that meets it second reads
    it reversed, so the two cells sharing it trace the identical curve in
    opposite directions (gap-free tessellation).  Its RNG is seeded from
    the *undirected* border's rounded keys, so a border traced from either
    end on a miss is the same curve.
    """

    __slots__ = ("xy", "keys", "detail_len", "roughness", "layer_seed", "borders")

    def __init__(
        self,
        xy: Dict[int, Tuple[float, float]],
        keys: Dict[int, Tuple[float, float]],
        detail_len: float,
        roughness: float,
        layer_seed: int,
    ) -> None:
        self.xy = xy
        #: Each vertex rounded to a fine grid before hashing, so the float
        #: noise of Voronoi vertices shared between cells cannot
        #: desynchronize the seed.
        self.keys = keys
        self.detail_len = detail_len
        self.roughness = roughness
        self.layer_seed = layer_seed
        self.borders: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}

    def trace(self, a: int, b: int) -> List[Tuple[float, float]]:
        """The border from vertex ``a`` to vertex ``b``, ``b`` excluded."""
        keys = self.keys
        flipped = keys[b] < keys[a]
        lo, hi = (b, a) if flipped else (a, b)
        border = self.borders.get((lo, hi))
        if border is None:
            rng = random.Random(hash((keys[lo], keys[hi], self.layer_seed)))
            border = _displaced_polyline(
                self.xy[lo], self.xy[hi], self.detail_len, self.roughness, rng
            )
            border.append(self.xy[hi])
            self.borders[lo, hi] = border
        return border[:0:-1] if flipped else border[:-1]


def _clamped_ring(
    coords: List[Tuple[float, float]], low: np.ndarray, high: np.ndarray
) -> Optional[np.ndarray]:
    """``coords`` clamped to the box ``[low, high]``, consecutive duplicates
    dropped, and the closing duplicate too; None when fewer than three
    points remain.

    Displacement may push border detail outside the world rectangle;
    clamping is applied identically by both cells sharing a border, so the
    tessellation stays gap-free, and it can collapse consecutive detail
    points onto the world border, which would leave degenerate edges.  The
    clamp takes ``low`` only where it is greater and ``high`` only where
    it is less, the choice ``min(max(v, low), high)`` makes on ties.
    """
    c = np.array(coords, dtype=np.float64).reshape(-1, 2)
    c = np.where(low > c, low, c)
    c = np.where(high < c, high, c)
    keep = np.ones(len(c), dtype=bool)
    np.any(c[1:] != c[:-1], axis=1, out=keep[1:])
    c = c[keep]
    if len(c) > 1 and (c[0] == c[-1]).all():
        c = c[:-1]
    return c if len(c) >= 3 else None


def generate_tessellation(config: TessellationConfig, seed: int) -> List[Polygon]:
    """Generate the tessellation layer (deterministic per seed)."""
    rng = random.Random(seed)
    seeds = _clustered_seeds(config, rng)
    vertices, rings = _bounded_voronoi_cells(seeds, config.world)
    # Once per layer, for each vertex a ring uses: its coordinates, and its
    # hash key, rounded from the vertex's own scalars (NumPy's round for
    # Voronoi vertices, which can differ from Python's in the last bit).
    xy: Dict[int, Tuple[float, float]] = {}
    keys: Dict[int, Tuple[float, float]] = {}
    for v in {v for ring in rings for v in ring}:
        x, y = vertices[v]
        xy[v] = (float(x), float(y))
        keys[v] = (float(round(x, 9)), float(round(y, 9)))

    total_perimeter = 0.0
    for ring in rings:
        for k in range(len(ring)):
            p = xy[ring[k]]
            q = xy[ring[(k + 1) % len(ring)]]
            total_perimeter += math.hypot(q[0] - p[0], q[1] - p[1])
    # Each border is traced by two cells; mean vertices per cell is
    # (perimeter / detail_len) so detail_len follows from the target.
    wanted_total_vertices = config.mean_vertices * len(rings)
    detail_len = max(total_perimeter / wanted_total_vertices, 1e-12)

    world = config.world
    low = np.array([world.xmin, world.ymin])
    high = np.array([world.xmax, world.ymax])

    def build(dl: float) -> List[Polygon]:
        table = _BorderTable(xy, keys, dl, config.roughness, seed)
        out: List[Polygon] = []
        for ring in rings:
            coords: List[Tuple[float, float]] = []
            n = len(ring)
            for k in range(n):
                coords += table.trace(ring[k], ring[(k + 1) % n])
            cell = _clamped_ring(coords, low, high)
            out.append(Polygon([xy[v] for v in ring] if cell is None else cell))
        return out

    # Midpoint displacement lengthens the borders, so a first build
    # overshoots the vertex target; one corrective pass recalibrates the
    # detail length with a table of its own (deterministic: same per-border
    # RNG seeds).
    polygons = build(detail_len)
    measured_mean = sum(p.num_vertices for p in polygons) / len(polygons)
    if measured_mean > config.mean_vertices * 1.15:
        polygons = build(detail_len * measured_mean / config.mean_vertices)
    return polygons
