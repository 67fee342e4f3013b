"""Spatial index substrate: R-tree, STR bulk loading, and the MBR join."""

from .mbr_join import nested_loop_mbr_join, plane_sweep_mbr_join
from .nearest import NearestStats, linear_nearest, rtree_nearest
from .rtree import DEFAULT_MAX_ENTRIES, RTree, RTreeNode
from .str_pack import str_bulk_load

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "RTree",
    "RTreeNode",
    "NearestStats",
    "linear_nearest",
    "nested_loop_mbr_join",
    "rtree_nearest",
    "plane_sweep_mbr_join",
    "str_bulk_load",
]
