"""The five datasets of the paper's Table 2, as synthetic stand-ins.

Each catalog entry records the real dataset's statistics (object count and
min/max/mean vertices per polygon from Table 2) and a *structural model*
matched to what the layer actually is:

* **tessellations** - LANDC (land-cover patches), LANDO (ownership
  parcels), PRISM (precipitation zones), and STATES50 (state boundaries)
  partition their extent: Voronoi cells with fractal boundary detail
  (:mod:`repro.datasets.tessellation`).  Overlaying a tessellation with
  another layer yields the candidate-pair population the paper's
  refinement experiments live on: many MBR overlaps whose geometries are
  contained in / separated from the neighbor cells.
* **feature layers** - WATER (water bodies) is a sparse collection of
  elongated, heavy-tailed blobs (:mod:`repro.datasets.generator`) sitting
  *within* the other layers' cells.

LANDC and LANDO share a Wyoming extent; STATES50, PRISM and WATER share a
conterminous-US extent, with STATES50's 31 large polygons serving as the
selection query set (paper section 4.1.2).

``load(name, n_scale, v_scale, seed)`` scales object counts and vertex
counts down so the pure-Python substrate finishes experiments in reasonable
time; the scale factors used are recorded in every experiment's parameters
and in EXPERIMENTS.md.  Scaling preserves the properties the experiments
exercise: relative complexity across datasets, tessellation structure,
MBR-overlap density, and heavy-tailed vertex counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..geometry.rect import Rect
from .dataset import SpatialDataset
from .generator import GeneratorConfig, VertexCountModel, generate_layer
from .tessellation import TessellationConfig, generate_tessellation

#: Wyoming at 1:100,000 scale (degrees, as in the source data).
WYOMING = Rect(-111.05, 40.99, -104.05, 45.01)
#: Conterminous United States at 1:2,000,000 scale.
CONUS = Rect(-124.7, 24.5, -66.9, 49.4)


@dataclass(frozen=True)
class CatalogEntry:
    """Full-scale statistics (Table 2) plus synthetic layout parameters."""

    name: str
    description: str
    #: Table 2 statistics of the real dataset.
    count: int
    vmin: int
    vmax: int
    vmean: float
    world: Rect
    #: "tessellation" or "blobs".
    kind: str
    seed: int
    # Tessellation parameters.
    roughness: float = 0.18
    cluster_count: int = 16
    cluster_tightness: float = 1.0
    band_elongation: float = 1.0
    # Blob parameters.
    coverage: float = 1.0
    elongation: float = 1.0
    orientation_correlation: float = 0.0


CATALOG: Dict[str, CatalogEntry] = {
    "LANDC": CatalogEntry(
        name="LANDC",
        description="Wyoming land cover (vegetation types), 1:100,000",
        count=14_731,
        vmin=3,
        vmax=4_397,
        vmean=192.0,
        world=WYOMING,
        kind="tessellation",
        seed=1001,
        roughness=0.22,
        cluster_count=40,
        cluster_tightness=0.3,
    ),
    "LANDO": CatalogEntry(
        name="LANDO",
        description="Wyoming land ownership and management, 1:100,000",
        count=33_860,
        vmin=3,
        vmax=8_807,
        vmean=20.0,
        world=WYOMING,
        kind="tessellation",
        seed=1002,
        roughness=0.10,  # survey parcels: straighter borders
        cluster_count=60,
        cluster_tightness=0.45,
    ),
    "STATES50": CatalogEntry(
        name="STATES50",
        description="US state boundaries (excluding islands), 1:2,000,000",
        count=31,
        vmin=4,
        vmax=10_744,
        vmean=138.0,
        world=CONUS,
        kind="tessellation",
        seed=1003,
        roughness=0.15,
        cluster_count=31,
    ),
    "PRISM": CatalogEntry(
        name="PRISM",
        description="Average annual precipitation zones, 1961-1990",
        count=6_243,
        vmin=3,
        vmax=29_556,
        vmean=68.0,
        world=CONUS,
        kind="tessellation",
        seed=1004,
        roughness=0.20,
        cluster_count=30,
        band_elongation=2.5,  # terrain-banded climate zones
    ),
    "WATER": CatalogEntry(
        name="WATER",
        description="Hydrography (water bodies), conterminous US",
        count=21_866,
        vmin=3,
        vmax=39_360,
        vmean=91.0,
        world=CONUS,
        kind="blobs",
        seed=1005,
        coverage=0.45,
        elongation=3.0,
        orientation_correlation=0.8,
        cluster_count=70,
        roughness=0.45,
    ),
}


def load(
    name: str,
    n_scale: float = 1.0,
    v_scale: float = 1.0,
    seed: Optional[int] = None,
) -> SpatialDataset:
    """Generate a (scaled) synthetic stand-in for dataset ``name``.

    ``n_scale`` scales the object count and ``v_scale`` the vertex-count
    distribution (mean and max; the minimum of 3 is a hard floor).  With
    both at 1.0 the full Table 2 statistics are targeted - feasible to
    generate, but large for pure-Python experiments; the benchmarks use
    documented fractions.
    """
    if name not in CATALOG:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(CATALOG)}")
    if not 0.0 < n_scale <= 1.0 or not 0.0 < v_scale <= 1.0:
        raise ValueError("scales must be in (0, 1]")
    entry = CATALOG[name]
    count = max(1, round(entry.count * n_scale))
    vmean = max(6.0, entry.vmean * v_scale)
    vmax = max(int(math.ceil(vmean)) + 1, round(entry.vmax * v_scale))
    actual_seed = seed if seed is not None else entry.seed

    if entry.kind == "tessellation":
        config = TessellationConfig(
            world=entry.world,
            cell_count=count,
            mean_vertices=vmean,
            roughness=entry.roughness,
            cluster_count=max(1, round(entry.cluster_count * math.sqrt(n_scale))),
            cluster_tightness=entry.cluster_tightness,
            band_elongation=entry.band_elongation,
        )
        layer = generate_tessellation(config, actual_seed)
    else:
        model = VertexCountModel(vmin=entry.vmin, vmax=vmax, mean=vmean)
        blob_config = GeneratorConfig(
            world=entry.world,
            count=count,
            vertex_model=model,
            coverage=entry.coverage,
            elongation=entry.elongation,
            orientation_correlation=entry.orientation_correlation,
            cluster_count=max(1, round(entry.cluster_count * math.sqrt(n_scale))),
            roughness=entry.roughness,
        )
        layer = generate_layer(blob_config, actual_seed)
    suffix = "" if n_scale == 1.0 and v_scale == 1.0 else f"@n{n_scale:g}v{v_scale:g}"
    return SpatialDataset(f"{entry.name}{suffix}", layer, world=entry.world)
