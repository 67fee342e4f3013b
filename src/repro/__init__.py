"""repro: Hardware Acceleration for Spatial Selections and Joins.

A full reproduction of Sun, Agrawal & El Abbadi (SIGMOD 2003): spatial
selections and joins whose refinement step is accelerated by a graphics
pipeline - here a faithful software simulation of the OpenGL rasterization
machinery the paper relies on.

Quickstart::

    from repro import datasets, HardwareEngine, SoftwareEngine, IntersectionJoin

    landc = datasets.load("LANDC", n_scale=0.01, v_scale=0.25)
    lando = datasets.load("LANDO", n_scale=0.01, v_scale=0.25)
    result = IntersectionJoin(landc, lando, HardwareEngine()).run()
    print(len(result.pairs), "intersecting pairs", result.cost.total_s, "s")

Packages:

* :mod:`repro.geometry` - computational-geometry substrate
* :mod:`repro.gpu` - simulated graphics hardware
* :mod:`repro.index` - R-tree and MBR joins
* :mod:`repro.filters` - interior / 0-Object / 1-Object filters
* :mod:`repro.core` - the paper's hardware-assisted refinement tests
* :mod:`repro.query` - selection and join pipelines
* :mod:`repro.datasets` - synthetic Table-2 datasets
* :mod:`repro.bench` - experiment drivers for every table and figure
"""

from . import datasets
from .core import (
    OVERLAP_METHODS,
    PLATFORM_2003,
    HardwareConfig,
    HardwareEngine,
    HardwareSegmentTest,
    HardwareVerdict,
    RefinementEngine,
    RefinementStats,
    SoftwareEngine,
)
from .datasets import SpatialDataset, base_distance
from .geometry import Point, Polygon, Rect
from .gpu import DeviceLimits, GraphicsPipeline
from .obs import Tracer, use_tracer
from .query import (
    ContainmentSelection,
    CostBreakdown,
    IntersectionJoin,
    IntersectionSelection,
    NearestNeighborQuery,
    WithinDistanceJoin,
)

__version__ = "1.0.0"

__all__ = [
    "ContainmentSelection",
    "CostBreakdown",
    "DeviceLimits",
    "GraphicsPipeline",
    "HardwareConfig",
    "HardwareEngine",
    "HardwareSegmentTest",
    "HardwareVerdict",
    "IntersectionJoin",
    "IntersectionSelection",
    "NearestNeighborQuery",
    "OVERLAP_METHODS",
    "PLATFORM_2003",
    "Point",
    "Polygon",
    "Rect",
    "RefinementEngine",
    "RefinementStats",
    "SoftwareEngine",
    "SpatialDataset",
    "Tracer",
    "WithinDistanceJoin",
    "__version__",
    "base_distance",
    "datasets",
    "use_tracer",
]
