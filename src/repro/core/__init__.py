"""The paper's contribution: hardware-assisted refinement tests.

Algorithm 3.1 (hybrid intersection test), its within-distance and
containment extensions - one staged implementation, :mod:`.refine` - the
projection strategies of section 3.2, the ``sw_threshold`` adaptation of
section 4.3, and the engine abstraction the query pipelines plug into.
"""

from .config import OVERLAP_METHODS, OVERLAP_THRESHOLD, HardwareConfig
from .engine import HardwareEngine, RefinementEngine, SoftwareEngine
from .hardware_test import HardwareSegmentTest, HardwareVerdict
from .platform import PLATFORM_2003, Platform2003
from .projection import distance_window, intersection_window, union_window
from .refine import OPS, refine_items
from .stats import RefinementStats

__all__ = [
    "HardwareConfig",
    "HardwareEngine",
    "HardwareSegmentTest",
    "HardwareVerdict",
    "OPS",
    "OVERLAP_METHODS",
    "OVERLAP_THRESHOLD",
    "PLATFORM_2003",
    "Platform2003",
    "RefinementEngine",
    "RefinementStats",
    "SoftwareEngine",
    "distance_window",
    "intersection_window",
    "refine_items",
    "union_window",
]
