"""Discrete distance fields over the pixel grid.

The paper's section 5 closes with: "We are currently working on a new
approach that is insensitive to query distances" - the widened-line distance
test degrades as D grows (thicker lines cost more pixels) and dies at the
device's maximum anti-aliased line width.  The era's known alternative,
which the paper's reference [12] (Hoff et al.) built Voronoi diagrams from,
is the *distance field*: render each boundary once at default width, then
let the hardware compute, for every pixel, the distance to the nearest
covered pixel (on 2003 hardware: by rendering per-pixel depth cones; in
this simulation: an exact Euclidean distance transform).

Given conservative coverage masks of two boundaries, the minimum
center-to-center distance between covered cells bounds the true boundary
distance from below (every true boundary point lies in some covered cell,
and cell centers are within sqrt(2)/2 of any point of their cell), so

    min_center_distance > D_pixels + sqrt(2)   =>   boundaries farther than D.

The test's cost is independent of D: one thin-line render per polygon and
one field evaluation, regardless of the query distance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import distance_transform_edt

#: Slack (in pixels) between covered-cell center distance and true boundary
#: distance: each witness point lies within sqrt(2)/2 of its cell center.
CENTER_DISTANCE_SLACK = math.sqrt(2.0)


def distance_field(mask: np.ndarray) -> np.ndarray:
    """Per-pixel distance (in pixels) to the nearest covered pixel.

    Covered pixels have distance 0.  An all-empty mask yields +inf
    everywhere (nothing to be near).
    """
    if mask.dtype != bool:
        raise ValueError(f"mask must be boolean, got {mask.dtype}")
    if not mask.any():
        return np.full(mask.shape, np.inf, dtype=np.float64)
    return distance_transform_edt(~mask)
