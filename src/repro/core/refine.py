"""Algorithm 3.1 over a candidate batch: the one refinement path.

Every exact predicate the pipelines ask for - intersection, its
within-distance extension (section 3.1), and proper containment (Table 1's
second interior-filter target) - is the same three-stage test:

1. *software prefilter*, per pair - the MBR test and the ``O(n + m)``
   point-in-polygon step.  It answers positively for overlapping interiors
   and for containment, the case the hardware cannot see (contained
   boundaries share no pixels);
2. *hardware filter*, **one** batched submission for every pair still
   undecided - both boundaries rendered into the window of Figure 7 (lines
   widened to ``D`` per Equation 1 for the distance test); a tile with no
   pixel touched by both boundaries **proves** they are disjoint (farther
   apart than ``D``).  Pairs with ``n + m <= sw_threshold`` skip it
   (section 4.3), as do pairs whose Equation (1) width exceeds the device
   limit (section 4.4), and ``hw=None`` skips the stage altogether - which
   is all the software baseline is;
3. *software decision*, per surviving pair - the restricted plane sweep, or
   the frontier-chain minDist with early exit at ``D``.

The stages differ per op only in their prefilter, their projection window,
and what "boundaries provably disjoint" means: a negative for intersection
and within-distance, a *positive* for containment (the prefilter already
placed a vertex of ``b`` inside ``a``, so ``b`` is contained with no sweep
at all).

:class:`~repro.core.stats.RefinementStats` counters are additive over
pairs, so one call over N items and N one-item calls report identical
totals; only the number of hardware submissions -
the fixed per-test overhead ``sw_threshold`` exists to dodge - changes.
Each hardware submission is a ``geometry.hw_batch`` span on the ambient
tracer (with the per-atlas ``gpu.tile_batch`` spans underneath).
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence, Tuple

from ..cache import MemoCache
from ..geometry.distance import either_contains
from ..geometry.min_dist import MinDistStats, min_boundary_distance
from ..geometry.point_in_polygon import PointLocation, locate_point
from ..geometry.polygon import Polygon
from ..geometry.sweep import SweepStats, boundaries_intersect
from ..obs.scope import current_scope
from .hardware_test import HardwareSegmentTest, HardwareVerdict, PairWindow
from .projection import distance_window, intersection_window
from .stats import RefinementStats

#: The predicates :func:`refine_items` evaluates.
OPS = ("intersect", "within_distance", "contains")

#: One unit of refinement work: an opaque result key (pair index, object
#: id, ...) plus the two geometries to compare.
WorkItem = Tuple[Any, Polygon, Polygon]


def _prefilter_intersect(
    a: Polygon, b: Polygon, stats: RefinementStats
) -> Optional[bool]:
    """Algorithm 3.1 step 1, applied in both directions.

    Testing one vertex of each polygon against the other catches both
    containment directions; boundary contact counts as intersection.  A
    vertex can only be inside the other polygon if it is inside its MBR, so
    each linear boundary scan is guarded by a free point-in-rect test -
    important when one polygon is a multi-thousand-vertex giant.
    """
    if not a.mbr.intersects(b.mbr):
        return False
    va = a.vertices[0]
    if b.mbr.contains_point(va):
        stats.pip_edges += b.num_vertices
        if locate_point(va, b.vertices) is not PointLocation.OUTSIDE:
            return True
    vb = b.vertices[0]
    if a.mbr.contains_point(vb):
        stats.pip_edges += a.num_vertices
        if locate_point(vb, a.vertices) is not PointLocation.OUTSIDE:
            return True
    return None


def _prefilter_within(
    a: Polygon, b: Polygon, d: float, stats: RefinementStats
) -> Optional[bool]:
    """``minDist(MBR_a, MBR_b) > d`` proves the negative; containment or
    overlap means distance 0."""
    if not a.mbr.within_distance(b.mbr, d):
        return False
    if a.mbr.intersects(b.mbr):
        # Both scans are charged, but either_contains stops at its first hit, so
        # that hit charges a scan never run; the fix moves wd-ll's modeled cost
        # and its replay in benchmarks/perf together (ROADMAP item 20(b)).
        if b.mbr.contains_point(a.vertices[0]):
            stats.pip_edges += b.num_vertices
        if a.mbr.contains_point(b.vertices[0]):
            stats.pip_edges += a.num_vertices
        if either_contains(a, b):
            return True
    return None


def _prefilter_contains(
    a: Polygon, b: Polygon, stats: RefinementStats
) -> Optional[bool]:
    """For a simple container, ``contains_properly(a, b)`` decomposes into
    ``b.v0 inside a`` AND ``boundaries disjoint``; this is the first half.
    Never answers positively - the second half still has to be shown."""
    if not a.mbr.contains_rect(b.mbr):
        return False
    stats.pip_edges += a.num_vertices
    if locate_point(b.vertices[0], a.vertices) is not PointLocation.INSIDE:
        return False
    return None


def _hardware_verdicts(
    hw: HardwareSegmentTest,
    op: str,
    pairs: List[PairWindow],
    d: Optional[float],
) -> List[HardwareVerdict]:
    """One batched hardware call under a ``geometry.hw_batch`` span."""
    start = time.perf_counter()
    if op == "within_distance":
        verdicts = hw.distance_verdicts_batch(pairs, d)
    else:
        verdicts = hw.intersection_verdicts_batch(pairs)
    tracer = current_scope().tracer
    if tracer is not None:
        tracer.record(
            "geometry.hw_batch",
            time.perf_counter() - start,
            op=op,
            pairs=len(pairs),
        )
    return verdicts


def refine_items(
    op: str,
    items: Sequence[WorkItem],
    distance: Optional[float],
    hw: Optional[HardwareSegmentTest],
    stats: RefinementStats,
    sweep_stats: SweepStats,
    mindist_stats: MinDistStats,
    restrict_search_space: bool = True,
    cache: Optional[MemoCache] = None,
) -> List[Any]:
    """Decide ``op`` for every ``(key, a, b)`` item; return matching keys.

    Keys return in item order.  ``hw=None`` runs stages 1 and 3 only.
    ``cache`` memoizes the stage-3 booleans by polygon content; a hit
    still counts as a decision in ``stats`` but adds nothing to the
    sweep/minDist work counters.
    """
    if op not in OPS:
        raise ValueError(f"unknown op {op!r}; expected one of {OPS}")
    within = op == "within_distance"
    if within:
        if distance is None:
            raise ValueError("op 'within_distance' requires a distance")
        if not distance >= 0.0:
            raise ValueError("distance must be non-negative")
    contains = op == "contains"

    decisions = [False] * len(items)
    hw_idx: List[int] = []
    hw_pairs: List[PairWindow] = []
    soft_idx: List[int] = []
    for k, (_, a, b) in enumerate(items):
        stats.pairs_tested += 1
        if within:
            settled = _prefilter_within(a, b, distance, stats)
        elif contains:
            settled = _prefilter_contains(a, b, stats)
        else:
            settled = _prefilter_intersect(a, b, stats)
        if settled is False:
            stats.prefilter_drops += 1
        elif settled:
            stats.pip_hits += 1
            stats.positives += 1
            decisions[k] = True
        elif hw is None:
            soft_idx.append(k)
        elif hw.config.use_hardware_for(a.num_vertices + b.num_vertices):
            stats.hw_tests += 1
            hw_idx.append(k)
            window = (
                distance_window(a.mbr, b.mbr, distance)
                if within
                else intersection_window(a.mbr, b.mbr)
            )
            hw_pairs.append((a, b, window))
        else:
            stats.threshold_bypasses += 1
            soft_idx.append(k)

    hw_maybe = set()
    if hw_pairs:
        verdicts = _hardware_verdicts(hw, op, hw_pairs, distance)
        for k, verdict in zip(hw_idx, verdicts):
            if verdict is HardwareVerdict.DISJOINT:
                stats.hw_rejects += 1
                if contains:
                    stats.positives += 1
                    decisions[k] = True
                continue
            if verdict is HardwareVerdict.UNSUPPORTED:
                stats.width_limit_fallbacks += 1
            else:
                hw_maybe.add(k)
            soft_idx.append(k)

    for k in soft_idx:
        _, a, b = items[k]
        if within:
            stats.sw_distance_tests += 1
            # The early exit changes the reported distance, never which
            # side of ``distance`` it falls on, so the boolean memoizes.
            memo, param = "mindist", float(distance)

            def decide() -> bool:
                return (
                    min_boundary_distance(
                        a, b, early_exit_at=distance, stats=mindist_stats
                    )
                    <= distance
                )
        else:
            stats.sw_segment_tests += 1
            # ``restrict`` changes work, never the answer; it is keyed so
            # the cache never equates differently-configured runs.
            memo, param = "sweep", bool(restrict_search_space)

            def decide() -> bool:
                return boundaries_intersect(
                    a, b, restrict_search_space, sweep_stats
                )

        if cache is None:
            boundaries_meet = decide()
        else:
            boundaries_meet = cache.memo(
                memo, (a.digest, b.digest, param), decide
            )
        if k in hw_maybe and not boundaries_meet:
            # A shared pixel but no actual contact: the conservative
            # filter's false positive (it has no false negatives).
            stats.hw_false_positives += 1
        decisions[k] = not boundaries_meet if contains else boundaries_meet
        if decisions[k]:
            stats.positives += 1
    return [item[0] for item, hit in zip(items, decisions) if hit]

