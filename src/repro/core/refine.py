"""Algorithm 3.1 over a candidate batch: the one refinement path.

Every exact predicate the pipelines ask for - intersection, its
within-distance extension (section 3.1), and proper containment (Table 1's
second interior-filter target) - is the same three stages over the item
list, each timed as one span on the ambient tracer:

1. *software prefilter* (``geometry.pip``), per pair - the MBR test and the
   ``O(n + m)`` point-in-polygon step.  It answers positively for
   overlapping interiors and for containment, the case the hardware cannot
   see (contained boundaries share no pixels);
2. *hardware filter* (``geometry.hw_batch``, the atlas's ``gpu.tile_batch``
   spans underneath), **one** batched submission for every pair still
   undecided - both boundaries rendered into the window of Figure 7 (lines
   widened to ``D`` per Equation 1 for the distance test); a tile with no
   pixel touched by both boundaries **proves** they are disjoint (farther
   apart than ``D``).  Pairs with ``n + m <= sw_threshold`` skip it
   (section 4.3), as do pairs whose Equation (1) width exceeds the device
   limit (section 4.4), and ``hw=None`` skips the stage altogether - which
   is all the software baseline is;
3. *software decision* (``geometry.sweep`` | ``geometry.mindist``), per
   surviving pair - the restricted plane sweep, or the frontier-chain
   minDist with early exit at ``D``.

The predicates differ only in their row of :data:`_OPS`: prefilter,
window, hardware call, decision routine, and what "boundaries provably
disjoint" means - a negative for intersection and within-distance, a
*positive* for containment (the prefilter already placed a vertex of ``b``
inside ``a``, so ``b`` is contained with no sweep at all).

:class:`~repro.core.stats.RefinementStats` counters are additive over
pairs, so one call over N items and N one-item calls report identical
totals; only the number of hardware submissions -
the fixed per-test overhead ``sw_threshold`` exists to dodge - changes.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..cache import MISSING, MemoCache
from ..geometry.distance import either_contains
from ..geometry.min_dist import MinDistStats, min_boundary_distance
from ..geometry.point_in_polygon import PointLocation, locate_xy
from ..geometry.polygon import Polygon
from ..geometry.sweep import SweepStats, boundaries_intersect
from ..obs.scope import current_scope
from .hardware_test import HardwareSegmentTest, HardwareVerdict, PairWindow
from .projection import distance_window, intersection_window
from .stats import RefinementStats

#: One unit of refinement work: an opaque result key (pair index, object
#: id, ...) plus the two geometries to compare.
WorkItem = Tuple[Any, Polygon, Polygon]


def _prefilter_intersect(
    a: Polygon, b: Polygon, d: Optional[float], stats: RefinementStats
) -> Optional[bool]:
    """Algorithm 3.1 step 1, applied in both directions: one vertex of
    each polygon against the other catches both containment directions;
    boundary contact counts as intersection."""
    if not a.mbr.intersects(b.mbr):
        return False
    return True if either_contains(a, b, stats) else None


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
        if b.mbr.contains_xy(*a.coords_array[0].tolist()):
            stats.pip_edges += b.num_vertices
        if a.mbr.contains_xy(*b.coords_array[0].tolist()):
            stats.pip_edges += a.num_vertices
        if either_contains(a, b):
            return True
    return None


def _prefilter_contains(
    a: Polygon, b: Polygon, d: Optional[float], stats: RefinementStats
) -> Optional[bool]:
    """For a simple container, ``contains_properly(a, b)`` decomposes into
    ``b.v0 inside a`` AND ``boundaries disjoint``; this is the first half.
    Never answers positively - the second half still has to be shown."""
    if not a.mbr.contains_rect(b.mbr):
        return False
    stats.pip_edges += a.num_vertices
    x, y = b.coords_array[0].tolist()
    if locate_xy(x, y, a.edge_slabs) is not PointLocation.INSIDE:
        return False
    return None


def _intersection_window(mbr_a, mbr_b, d):
    return intersection_window(mbr_a, mbr_b)


def _intersection_verdicts(hw, pairs, d):
    return hw.intersection_verdicts_batch(pairs)


def _distance_verdicts(hw, pairs, d):
    return hw.distance_verdicts_batch(pairs, d)


def _sweep(a, b, d, restrict, sweep_stats, mindist_stats) -> bool:
    return boundaries_intersect(a, b, restrict, sweep_stats)


def _mindist(a, b, d, restrict, sweep_stats, mindist_stats) -> bool:
    # The early exit changes the reported distance, never which side of
    # ``d`` it falls on, so the boolean memoizes.
    return min_boundary_distance(a, b, early_exit_at=d, stats=mindist_stats) <= d


class _Op(NamedTuple):
    """One predicate's part in each stage (``d`` is the distance)."""

    #: Stage 1, ``(a, b, d, stats)``: the answer, or None if unsettled.
    prefilter: Callable[..., Optional[bool]]
    #: Figure 7's window ``(mbr_a, mbr_b, d)`` and stage 2's one
    #: submission ``(hw, pairs, d)``.
    window: Callable[..., Any]
    verdicts: Callable[..., List[HardwareVerdict]]
    #: Stage 3, ``(a, b, d, restrict, sweep_stats, mindist_stats)``: do the
    #: boundaries meet?  Memoized in table ``memo``, timed as span
    #: ``span``, counted in the :class:`RefinementStats` field ``counter``.
    decide: Callable[..., bool]
    memo: str
    span: str
    counter: str
    #: The answer when the boundaries are proven disjoint.
    disjoint: bool


_OPS = {
    "intersect": _Op(
        _prefilter_intersect, _intersection_window, _intersection_verdicts,
        _sweep, "sweep", "geometry.sweep", "sw_segment_tests", disjoint=False,
    ),
    "within_distance": _Op(
        _prefilter_within, distance_window, _distance_verdicts,
        _mindist, "mindist", "geometry.mindist", "sw_distance_tests", disjoint=False,
    ),
    "contains": _Op(
        _prefilter_contains, _intersection_window, _intersection_verdicts,
        _sweep, "sweep", "geometry.sweep", "sw_segment_tests", disjoint=True,
    ),
}

#: The predicates :func:`refine_items` evaluates.
OPS = tuple(_OPS)


def _untraced(name: str, **attributes: Any) -> nullcontext:
    return nullcontext()


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
    sweep/minDist work counters.  Stage 3 visits the items the prefilter
    sent to software first, then the hardware survivors in batch order.
    With no tracer in scope a call reads the scope once and opens no span.
    """
    spec = _OPS.get(op)
    if spec is None:
        raise ValueError(f"unknown op {op!r}; expected one of {OPS}")
    if op == "within_distance":
        if distance is None:
            raise ValueError("op 'within_distance' requires a distance")
        if not distance >= 0.0:
            raise ValueError("distance must be non-negative")
    tracer = current_scope().tracer
    span = _untraced if tracer is None else tracer.span

    decisions = [False] * len(items)
    hw_idx: List[int] = []
    hw_pairs: List[PairWindow] = []
    soft_idx: List[int] = []
    if items:
        with span("geometry.pip"):
            prefilter, window = spec.prefilter, spec.window
            stats.pairs_tested += len(items)
            for k, (_, a, b) in enumerate(items):
                settled = prefilter(a, b, distance, stats)
                if settled is False:
                    stats.prefilter_drops += 1
                elif settled:
                    stats.pip_hits += 1
                    decisions[k] = True
                elif hw is None:
                    soft_idx.append(k)
                elif hw.config.use_hardware_for(a.num_vertices + b.num_vertices):
                    stats.hw_tests += 1
                    hw_idx.append(k)
                    hw_pairs.append((a, b, window(a.mbr, b.mbr, distance)))
                else:
                    stats.threshold_bypasses += 1
                    soft_idx.append(k)

    hw_maybe = set()
    if hw_pairs:
        with span("geometry.hw_batch", op=op, pairs=len(hw_pairs)):
            verdicts = spec.verdicts(hw, hw_pairs, distance)
        for k, verdict in zip(hw_idx, verdicts):
            if verdict is HardwareVerdict.DISJOINT:
                stats.hw_rejects += 1
                decisions[k] = spec.disjoint
                continue
            if verdict is HardwareVerdict.UNSUPPORTED:
                stats.width_limit_fallbacks += 1
            else:
                hw_maybe.add(k)
            soft_idx.append(k)

    if soft_idx:
        with span(spec.span):
            decide, restrict = spec.decide, bool(restrict_search_space)
            tests = getattr(stats, spec.counter) + len(soft_idx)
            setattr(stats, spec.counter, tests)
            for k in soft_idx:
                _, a, b = items[k]
                args = (a, b, distance, restrict, sweep_stats, mindist_stats)
                if cache is None:
                    meet = decide(*args)
                else:
                    # ``restrict`` changes work, never the answer; it is keyed
                    # so the cache never equates differently-configured runs.
                    key = (a.digest, b.digest, distance, restrict)
                    meet = cache.lookup(spec.memo, key)
                    if meet is MISSING:
                        meet = decide(*args)
                        cache.store(spec.memo, key, meet)
                if k in hw_maybe and not meet:
                    # A shared pixel but no actual contact: the conservative
                    # filter's false positive (it has no false negatives).
                    stats.hw_false_positives += 1
                decisions[k] = bool(meet) is not spec.disjoint
    stats.positives += sum(decisions)
    return [item[0] for item, hit in zip(items, decisions) if hit]
