"""Plane-sweep segment intersection detection for polygon boundaries.

This is the "Software Segment Intersection Test" of the paper (section 3.1),
with the *restricted search space* optimization of section 4.1.1: only edges
that intersect both MBRs participate, which the paper measured at a 30-40%
improvement without changing the asymptotic complexity.

The sweep is an x-ordered sweep-and-prune: edges of both polygons are merged
in order of their lower x coordinate; an active set per color holds edges
whose x range spans the sweep line; each arriving edge is tested exactly
against the active edges of the *other* color whose y ranges overlap.  Unlike
a neighbor-only Shamos-Hoey status walk, this formulation is insensitive to
the degeneracies real GIS polygons exhibit (shared endpoints, collinear
edges, self-intersections of non-simple rings) because every candidate pair
gets the exact closed-segment test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .distance import either_contains
from .polygon import Polygon
from .predicates import segments_intersect_xy
from .workspace import Workspace

# Edge record (xmin, xmax, ymin, ymax, ax, ay, bx, by) of Python floats: a
# list from a Polygon.sweep_records column.
_Edge = Sequence[float]

#: Merged events converted to Python lists at a time: a positive pair's
#: sweep stops at its first crossing, so the events past it never are.
_EVENT_CHUNK = 32


class _PerThread(threading.local):
    """Each thread's workspace for the sweep's event tables, made on the
    thread's first sweep.  One per thread, not per engine: a served engine
    sweeps on an event loop's thread while others sweep on executor
    threads, and a :class:`Workspace` has one owner and no lock."""

    def __init__(self) -> None:
        self.workspace = Workspace()


_per_thread = _PerThread()


@dataclass
class SweepStats:
    """Work counters for one or many red-blue sweeps (ablation support)."""

    edges_considered: int = 0
    edges_after_restriction: int = 0
    #: Edges whose events the sweep actually consumed before terminating.
    #: For negative pairs this equals ``edges_after_restriction`` (the sweep
    #: must exhaust every event to prove disjointness); for positive pairs
    #: it stops at the first crossing - the cost asymmetry that makes
    #: negative candidates the expensive case in software.
    edges_processed: int = 0
    candidate_tests: int = 0
    intersections_found: int = 0


def _kept(
    records: np.ndarray, xmin: float, ymin: float, xmax: float, ymax: float
) -> np.ndarray:
    """The indices, in order, of the ``(8, n)`` sweep records (columns)
    whose edge box meets the closed window ``[xmin, xmax] x [ymin, ymax]``.

    Every boundary crossing lies in the window (the intersection of the two
    object MBRs), so restriction never loses a crossing.
    """
    # The records are sorted on xmin, so ``xmin <= xmax`` holds on a prefix.
    stop = records[0].searchsorted(xmax, "right")
    _, hi_x, lo_y, hi_y = records[:4, :stop]
    keep = xmin <= hi_x
    keep &= lo_y <= ymax
    keep &= ymin <= hi_y
    return keep.nonzero()[0]


def boundaries_intersect(
    a: Polygon,
    b: Polygon,
    restrict_search_space: bool = True,
    stats: Optional[SweepStats] = None,
) -> bool:
    """True when the boundaries of ``a`` and ``b`` share at least one point.

    With ``restrict_search_space`` (the default, as in the paper), only edges
    intersecting the common MBR window are swept.  Containment (one polygon
    strictly inside the other) is invisible to this test by design; the
    point-in-polygon step of the full intersection test covers it.

    Each polygon's records arrive presorted (``Polygon.sweep_records``) and
    the restriction keeps that order, so red (``a``) and blue (``b``) merge
    into the event sequence with one stable sort on ``xmin``: equal keys
    keep red before blue, then each colour's own order.  A candidate pair
    is tested with :func:`segments_intersect_xy` of the two records'
    endpoint coordinates.  The kept records and the sorted events are
    gathered into this thread's workspace, so a warm thread takes no fresh
    memory for them.
    """
    if stats is not None:
        stats.edges_considered += a.num_vertices + b.num_vertices
    red, blue = a.sweep_records, b.sweep_records
    if restrict_search_space:
        # The MBRs' common window, as Rect.intersection computes it.
        ra, rb = a.mbr, b.mbr
        x0, y0 = max(ra.xmin, rb.xmin), max(ra.ymin, rb.ymin)
        x1, y1 = min(ra.xmax, rb.xmax), min(ra.ymax, rb.ymax)
        if x0 > x1 or y0 > y1:
            return False
        red_kept, blue_kept = _kept(red, x0, y0, x1, y1), _kept(blue, x0, y0, x1, y1)
    else:
        red_kept, blue_kept = np.arange(red.shape[1]), np.arange(blue.shape[1])
    n_red, n_blue = red_kept.shape[0], blue_kept.shape[0]
    if stats is not None:
        stats.edges_after_restriction += n_red + n_blue
    if not n_red or not n_blue:
        return False
    ws = _per_thread.workspace
    with ws.frame():
        # The merged records (red then blue) and the same in event order.
        # The kept records of each colour are gathered where the events
        # go, which only the last take overwrites.
        records, events = ws.array((2, 8, n_red + n_blue))
        gathered = events.reshape(-1)
        red = red.take(red_kept, axis=1, out=gathered[: 8 * n_red].reshape(8, n_red), mode="clip")
        blue = blue.take(
            blue_kept, axis=1, out=gathered[8 * n_red :].reshape(8, n_blue), mode="clip"
        )
        np.concatenate((red, blue), axis=1, out=records)
        order = np.argsort(records[0], kind="stable")
        records.take(order, axis=1, out=events, mode="clip")
        events = events.T
        blue_event = order >= n_red

        # Active sets: lists pruned lazily as the sweep advances.  Each
        # arriving edge is checked against the other color's active list.
        active: List[List[_Edge]] = [[], []]
        tests = 0
        processed = 0
        try:
            # A positive pair stops at its first crossing, so the events
            # become Python lists only a chunk at a time, as the sweep
            # reaches them.
            for start in range(0, len(order), _EVENT_CHUNK):
                stop = start + _EVENT_CHUNK
                for edge, color in zip(
                    events[start:stop].tolist(), blue_event[start:stop].tolist()
                ):
                    processed += 1
                    x = edge[0]
                    others = active[1 - color]
                    if others:
                        # Prune expired edges in place while scanning for
                        # candidates.
                        kept: List[_Edge] = []
                        ymin, ymax = edge[2], edge[3]
                        for other in others:
                            if other[1] < x:
                                continue
                            kept.append(other)
                            if other[2] <= ymax and ymin <= other[3]:
                                tests += 1
                                if segments_intersect_xy(
                                    edge[4], edge[5], edge[6], edge[7],
                                    other[4], other[5], other[6], other[7],
                                ):
                                    if stats is not None:
                                        stats.intersections_found += 1
                                    return True
                        active[1 - color] = kept
                    active[color].append(edge)
            return False
        finally:
            if stats is not None:
                stats.candidate_tests += tests
                stats.edges_processed += processed


def polygons_intersect(a: Polygon, b: Polygon) -> bool:
    """Full software intersection test: point-in-polygon plus boundary sweep.

    This is the reference software algorithm of the paper's section 3.1:
    first the linear point-in-polygon step (which also resolves containment),
    then the plane sweep over the restricted boundary edges.
    """
    if not a.mbr.intersects(b.mbr):
        return False
    if either_contains(a, b):
        return True
    return boundaries_intersect(a, b)
