"""Synthetic polygon generation.

The paper evaluates on real GIS layers (Wyoming land cover / ownership, US
state boundaries, precipitation zones, hydrography).  Those shapefiles are
not redistributable here, so this module generates synthetic stand-ins whose
*query-relevant* properties match: heavy-tailed vertex counts (Table 2),
irregular concave boundaries (Figure 1), and clustered spatial placement
(land-cover polygons form contiguous mosaics, so MBRs overlap heavily).

Construction: each polygon is a *star-shaped* ring around a center - a
radial function built from a random low-order Fourier series, sampled at
strictly increasing angles.  Star-shapedness guarantees simplicity while the
Fourier roughness produces the deep concavities visible in the paper's
Figure 1.  The non-simple polygons the paper's footnote 1 observes in real
data are not generated; the library's predicates stay well-defined on such
rings (even-odd semantics), which the tests exercise with bow-tie rings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geometry.point import Point
from ..geometry.polygon import Polygon
from ..geometry.rect import Rect


@dataclass(frozen=True)
class VertexCountModel:
    """Heavy-tailed vertex-count distribution clipped to ``[vmin, vmax]``.

    A lognormal body reproduces the Table 2 pattern of small means with
    maxima two orders of magnitude larger (e.g. WATER: mean 91, max 39360).
    ``sigma`` controls tail weight; ``mu`` is solved so the un-clipped mean
    matches ``mean``.
    """

    vmin: int
    vmax: int
    mean: float
    sigma: float = 1.1
    #: Probability that a polygon is drawn from the extreme tail (log-uniform
    #: between 5x the mean and vmax).  Real GIS layers owe their Table-2
    #: maxima - 2-3 orders of magnitude above the mean - to a handful of
    #: digitized giants (state-sized shorelines, basin boundaries); a plain
    #: lognormal loses them entirely in scaled-down samples, and with them
    #: the expensive negative candidate pairs the refinement filters target.
    tail_fraction: float = 0.03

    def __post_init__(self) -> None:
        if not 3 <= self.vmin <= self.vmax:
            raise ValueError(f"need 3 <= vmin <= vmax, got {self.vmin}..{self.vmax}")
        if self.mean < self.vmin:
            raise ValueError(f"mean {self.mean} below vmin {self.vmin}")
        if not 0.0 <= self.tail_fraction < 1.0:
            raise ValueError(f"tail_fraction must be in [0, 1), got {self.tail_fraction}")

    def sample(self, rng: random.Random) -> int:
        tail_floor = 5.0 * self.mean
        if self.tail_fraction > 0.0 and self.vmax > tail_floor:
            if rng.random() < self.tail_fraction:
                n = int(round(math.exp(
                    rng.uniform(math.log(tail_floor), math.log(self.vmax))
                )))
                return max(self.vmin, min(self.vmax, n))
        mu = math.log(self.mean) - self.sigma**2 / 2.0
        n = int(round(rng.lognormvariate(mu, self.sigma)))
        return max(self.vmin, min(self.vmax, n))


def star_polygon(
    rng: random.Random,
    center: Point,
    mean_radius: float,
    n_vertices: int,
    roughness: float = 0.35,
) -> Polygon:
    """A simple, generally concave polygon star-shaped around ``center``.

    ``roughness`` in [0, ~0.45] scales the Fourier amplitudes of at most
    eight harmonics; the radial function is clamped to stay positive so
    the ring never degenerates.
    """
    if n_vertices < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if mean_radius <= 0.0:
        raise ValueError("mean_radius must be positive")
    k_count = min(max(2, n_vertices // 3), 8)
    amps = [
        roughness * rng.uniform(0.3, 1.0) / (k + 1) for k in range(k_count)
    ]
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(k_count)]

    pts: List[Tuple[float, float]] = []
    two_pi = 2.0 * math.pi
    for i in range(n_vertices):
        # Strictly increasing angles with bounded jitter keep the ring simple.
        theta = two_pi * (i + rng.uniform(-0.35, 0.35)) / n_vertices
        wobble = sum(
            a * math.cos((k + 2) * theta + ph)
            for k, (a, ph) in enumerate(zip(amps, phases))
        )
        r = mean_radius * max(0.15, 1.0 + wobble)
        pts.append((center.x + r * math.cos(theta), center.y + r * math.sin(theta)))
    return Polygon.from_coords(pts)


def _fractal_chain(
    p: Tuple[float, float],
    q: Tuple[float, float],
    budget: int,
    roughness: float,
    rng: random.Random,
) -> List[Tuple[float, float]]:
    """Fractal polyline from ``p`` (inclusive) to ``q`` (exclusive) with
    exactly ``budget`` interior points inserted by midpoint displacement."""
    if budget <= 0:
        return [p]
    dx, dy = q[0] - p[0], q[1] - p[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        return [p] * (budget + 1)
    offset = rng.gauss(0.0, roughness * length * 0.5)
    limit = 0.4 * length
    offset = max(-limit, min(limit, offset))
    mid = (
        (p[0] + q[0]) * 0.5 - dy / length * offset,
        (p[1] + q[1]) * 0.5 + dx / length * offset,
    )
    interior = budget - 1
    l1 = math.hypot(p[0] - mid[0], p[1] - mid[1])
    l2 = math.hypot(mid[0] - q[0], mid[1] - q[1])
    b1 = round(interior * (l1 / (l1 + l2))) if (l1 + l2) > 0 else interior // 2
    b1 = max(0, min(interior, b1))
    return (
        _fractal_chain(p, mid, b1, roughness, rng)
        + _fractal_chain(mid, q, interior - b1, roughness, rng)
    )


def fractalize_polygon(
    polygon: Polygon, target_vertices: int, roughness: float, rng: random.Random
) -> Polygon:
    """Refine a polygon's boundary to ``target_vertices`` by midpoint
    displacement.

    Real shorelines and patch borders are fractal (dimension ~1.2-1.3):
    detail exists at every scale, producing deep bays and headlands.  The
    bays matter for query processing - objects of another layer sit inside
    them, creating candidate pairs whose common window is full of boundary
    edges while the geometries stay clearly apart: the expensive negatives
    the paper's hardware filter eliminates.

    The vertex budget is distributed over the base edges proportionally to
    their length, so detail density is uniform along the boundary; the
    result has exactly ``target_vertices`` vertices.
    """
    n = polygon.num_vertices
    if target_vertices <= n:
        return polygon
    verts = polygon.coords()
    lengths = []
    for i in range(n):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        lengths.append(math.hypot(ax - bx, ay - by))
    total_len = sum(lengths) or 1.0
    extra = target_vertices - n
    budgets = [int(extra * (l / total_len)) for l in lengths]
    # Largest-remainder correction to hit the target exactly.
    shortfall = extra - sum(budgets)
    remainders = sorted(
        range(n),
        key=lambda i: (extra * lengths[i] / total_len) - budgets[i],
        reverse=True,
    )
    for k in range(shortfall):
        budgets[remainders[k % n]] += 1
    out: List[Tuple[float, float]] = []
    for i in range(n):
        out.extend(
            _fractal_chain(
                verts[i], verts[(i + 1) % n], budgets[i], polygon_roughness(roughness), rng
            )
        )
    return Polygon.from_coords(out)


def polygon_roughness(roughness: float) -> float:
    """Clamp boundary roughness to the range where rings stay mostly simple."""
    return max(0.0, min(roughness, 0.45))


def stretch_polygon(
    polygon: Polygon,
    rng: random.Random,
    median_elongation: float,
    angle: Optional[float] = None,
) -> Polygon:
    """Anisotropically stretch a polygon along a random axis.

    The polygon is scaled by ``lambda`` along a random direction and by
    ``1/lambda`` across it (area preserved), with ``lambda`` lognormal
    around ``median_elongation``.  A diagonal elongated shape leaves its
    axis-aligned MBR mostly empty, reproducing the low MBR fill ratios of
    real hydrography / parcel data.
    """
    if median_elongation <= 0.0:
        raise ValueError("elongation must be positive")
    lam = rng.lognormvariate(math.log(median_elongation), 0.35)
    lam = max(lam, 1.0)
    theta = angle if angle is not None else rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    ctr = polygon.mbr.center
    x = polygon.coords_array[:, 0] - ctr.x
    y = polygon.coords_array[:, 1] - ctr.y
    u = (c * x + s * y) * lam
    v = (-s * x + c * y) / lam
    return Polygon(np.column_stack((ctr.x + c * u - s * v, ctr.y + s * u + c * v)))


@dataclass(frozen=True)
class GeneratorConfig:
    """Layout parameters for one synthetic layer.

    ``coverage`` is the density knob: the mean polygon radius is
    ``extent * coverage / sqrt(count)``, so the expected fraction of the
    world covered by polygons is roughly ``pi * coverage^2`` *independent of
    count*.  Scaling a dataset down (fewer objects) therefore preserves the
    MBR-overlap rates that drive join selectivity - the property the paper's
    joins depend on (land-cover layers tile their extent).
    """

    world: Rect
    count: int
    vertex_model: VertexCountModel
    coverage: float = 1.0
    cluster_count: int = 24
    cluster_spread: float = 0.08
    roughness: float = 0.35
    #: Median anisotropy of the shapes.  Real GIS polygons - meandering
    #: shorelines, elongated land parcels - fill only a fraction of their
    #: MBR, which creates the "MBRs overlap but geometries are far apart"
    #: candidate pairs the refinement filters exist for.  1.0 = round blobs.
    elongation: float = 1.0
    #: Fraction of polygons whose stretch axis follows their cluster's
    #: shared orientation (terrain direction).  Real features align locally
    #: - parallel valleys, range-aligned climate bands, braided channels -
    #: producing side-by-side elongated neighbors: large overlap windows
    #: with many edges but clearly separated boundaries, the expensive
    #: negatives the hardware filter targets.  0.0 = independent angles.
    orientation_correlation: float = 0.0


def generate_layer(config: GeneratorConfig, seed: int) -> List[Polygon]:
    """Generate one clustered polygon layer (deterministic per seed)."""
    rng = random.Random(seed)
    world = config.world
    extent = min(world.width, world.height)
    base_radius = extent * config.coverage / math.sqrt(max(1, config.count))
    spread = extent * config.cluster_spread

    clusters = [
        (
            Point(
                rng.uniform(world.xmin, world.xmax),
                rng.uniform(world.ymin, world.ymax),
            ),
            rng.uniform(0.0, math.pi),  # the cluster's terrain direction
        )
        for _ in range(max(1, config.cluster_count))
    ]

    polygons: List[Polygon] = []
    for _ in range(config.count):
        n = config.vertex_model.sample(rng)
        c, cluster_angle = clusters[rng.randrange(len(clusters))]
        correlated = rng.random() < config.orientation_correlation
        if correlated:
            # Spread the cluster along its direction: parallel neighbors.
            du = rng.gauss(0.0, spread * 2.5)
            dv = rng.gauss(0.0, spread * 0.6)
            ca, sa = math.cos(cluster_angle), math.sin(cluster_angle)
            dx, dy = ca * du - sa * dv, sa * du + ca * dv
        else:
            dx, dy = rng.gauss(0.0, spread), rng.gauss(0.0, spread)
        center = Point(
            min(max(c.x + dx, world.xmin), world.xmax),
            min(max(c.y + dy, world.ymin), world.ymax),
        )
        # Feature size grows sublinearly with digitized vertex count
        # (shoreline detail scales with perimeter, not area) and is capped
        # so tail giants stay large-lake-sized rather than world-sized.
        size_factor = min((n / config.vertex_model.mean) ** 0.35, 2.5)
        radius = base_radius * size_factor * rng.lognormvariate(0.0, 0.4)
        radius = max(radius, extent * 1e-4)
        # Complex boundaries are built in two stages: a coarse star ring
        # for the overall shape, then fractal subdivision for shoreline
        # detail (deep bays and headlands at every scale).
        base_n = n if n <= 24 else max(12, min(48, 8 + n // 16))
        poly = star_polygon(rng, center, radius, base_n, config.roughness)
        if n > base_n:
            poly = fractalize_polygon(poly, n, config.roughness, rng)
        if config.elongation > 1.0:
            jitter = rng.gauss(0.0, 0.12)
            axis = (cluster_angle + jitter) if correlated else None
            # Vertex-rich features are rivers and coastlines: extremely
            # thin and meandering, so elongation grows with complexity.
            size_elongation = config.elongation * (
                n / config.vertex_model.mean
            ) ** 0.45
            poly = stretch_polygon(poly, rng, size_elongation, angle=axis)
        polygons.append(poly)
    return polygons
