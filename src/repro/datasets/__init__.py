"""Datasets: synthetic stand-ins for the paper's five GIS layers.

See DESIGN.md section 2 for the substitution rationale: the experiments
depend on the datasets only through polygon complexity, spatial clustering,
and boundary irregularity, all of which the generators match (Table 2
statistics) at configurable scale.
"""

from .catalog import CATALOG, CONUS, WYOMING, CatalogEntry, load
from .dataset import DatasetStats, SpatialDataset, base_distance
from .generator import (
    GeneratorConfig,
    VertexCountModel,
    generate_layer,
    star_polygon,
)
from .io import (
    load_dataset,
    load_dataset_wkt,
    polygon_from_wkt,
    polygon_to_wkt,
    save_dataset,
    save_dataset_wkt,
)

__all__ = [
    "CATALOG",
    "CONUS",
    "CatalogEntry",
    "DatasetStats",
    "GeneratorConfig",
    "SpatialDataset",
    "VertexCountModel",
    "WYOMING",
    "base_distance",
    "generate_layer",
    "load",
    "load_dataset",
    "load_dataset_wkt",
    "polygon_from_wkt",
    "polygon_to_wkt",
    "save_dataset",
    "save_dataset_wkt",
    "star_polygon",
]
