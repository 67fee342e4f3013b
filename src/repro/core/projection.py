"""Projection strategies: choosing the data-space window to render.

Section 3.2 / Figure 7 of the paper: the choice of which region to project
onto the (tiny) rendering window has a large performance impact, because it
determines both the effective resolution of the test and how many edges the
hardware must process.

* Intersection tests project the *intersection of the two MBRs* (Figure 7a):
  every boundary crossing necessarily lies there, so nothing is lost, and
  the window resolution is spent entirely on the region that matters.
* Distance tests project the *expanded MBR of the smaller object*
  (Figure 7b): the D-neighborhood of the smaller boundary is where any
  within-D witness pair must put its smaller-object endpoint.
* The naive alternative (projecting the union of both MBRs) is provided for
  the projection ablation benchmark.
"""

from __future__ import annotations

from typing import Optional

from ..geometry.rect import Rect


def intersection_window(mbr_a: Rect, mbr_b: Rect) -> Optional[Rect]:
    """Figure 7a: the common region of the two MBRs, or None when disjoint.

    The window may be degenerate (zero width and/or height) when the MBRs
    merely touch; the pipeline handles degenerate windows by mapping the
    region to a single pixel, which keeps the test conservative.
    """
    return mbr_a.intersection(mbr_b)


def distance_window(mbr_a: Rect, mbr_b: Rect, d: float) -> Rect:
    """Figure 7b: the MBR of the smaller object, expanded by ``d`` per side.

    "Smaller" is by MBR area, matching the paper's intent of maximizing
    window-resolution utilization.  Any pair of boundary points within
    distance ``d`` has its smaller-object endpoint inside the un-expanded
    MBR and its other endpoint within ``d`` of it, hence inside the expanded
    window - so rendering both boundaries into this window preserves every
    witness.
    """
    if not d >= 0.0:
        raise ValueError("distance must be non-negative")
    smaller = mbr_a if mbr_a.area <= mbr_b.area else mbr_b
    return smaller.expand(d)


def union_window(mbr_a: Rect, mbr_b: Rect, d: float = 0.0) -> Rect:
    """The naive full-scene window (both MBRs, plus slack ``d``).

    Used only by the projection ablation: it wastes window resolution on
    regions that cannot contain a witness, which degrades the hardware
    filter's selectivity exactly as section 3.2 warns.
    """
    u = mbr_a.union(mbr_b)
    return u.expand(d) if d > 0.0 else u
