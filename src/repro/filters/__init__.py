"""Intermediate filters: runtime filters and the interval second filter.

The runtime filters are the paper's section 4.1.1 intermediate filters -
they need no pre-processing or index changes, only MBRs and (for the
1-Object filter) one retrieved geometry, so they combine freely with the
hardware-assisted refinement step.  The interval filter
(:mod:`repro.filters.intervals`) is the pre-processed family: per-polygon
sorted-interval encodings on a pair-common grid, built once per dataset,
deciding candidate pairs with pure interval algebra before any rendering.
The paper's interior filter is one such encoding of the query polygon on
a grid over its own MBR (:meth:`IntervalApproximation.covers`).
"""

from .intervals import (
    DEFAULT_INTERVAL_LEVEL,
    IntervalApproximation,
    IntervalGrid,
    IntervalIndex,
    IntervalVerdict,
    classify_intervals,
)
from .progressive import ConvexHullFilter, HullFilterStats
from .object_filters import (
    one_object_upper_bound,
    zero_object_upper_bound,
)

__all__ = [
    "ConvexHullFilter",
    "DEFAULT_INTERVAL_LEVEL",
    "HullFilterStats",
    "IntervalApproximation",
    "IntervalGrid",
    "IntervalIndex",
    "IntervalVerdict",
    "classify_intervals",
    "one_object_upper_bound",
    "zero_object_upper_bound",
]
