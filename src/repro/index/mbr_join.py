"""The MBR join: the filtering stage of spatial joins.

Figure 8's first stage for joins produces candidate *pairs* whose MBRs
intersect (intersection join) or lie within distance D (within-distance
join).  :func:`mbr_join_indices` is the one algorithm: the classic
in-memory plane sweep over both MBR sets sorted by ``xmin``, which needs no
index build, run over the datasets' ``(n, 4)`` MBR blocks
(:attr:`~repro.datasets.dataset.SpatialDataset.mbr_array`) with the
candidate list coming back as two index arrays (Tsitsigkos et al.'s flat
arrays of MBRs and ids, PAPERS.md).  :func:`plane_sweep_mbr_join` is its
list-of-tuples adapter over ``Rect`` sequences.  The per-event sweep it
replaces is the order oracle in ``tests/oracles/index.py``, and the
quadratic nested loop is the set oracle beside it.

The contract, which tile batches, memo key order and capture digests read:

* **the pairs** are exactly those whose ``Rect.within_distance`` holds,
  computed from the same float gaps: closed overlap (``dx == dy == 0``) at
  ``d == 0``, :func:`~repro.geometry.hypot_order.hypot_at_most` above it;
* **their order** is the sweep's: events are both sets' boxes in a stable
  sort on ``xmin`` (side ``a`` first on ties), and a pair comes out when
  its later box arrives, in the arrival order of its earlier one.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from ..geometry.hypot_order import hypot_at_most
from ..geometry.rect import Rect
from ..geometry.runs import expand_runs

#: Candidate pairs (the x-range superset) expanded and tested per step, so
#: no temporary grows with the layers.
_JOIN_STEP = 1 << 13

#: Relative widening of an x reach ``xmax + d`` that covers every later box
#: whose rounded gap ``xmin - xmax`` is at most ``d``: that gap is within an
#: ulp of ``d`` and the reach's own rounding within half an ulp of the sum,
#: far inside ``2**-49`` of ``|xmax| + d``.
_REACH_SLACK = 2.0**-49


def _py_max(x: np.ndarray, y: Union[np.ndarray, float]) -> np.ndarray:
    """The builtin ``max(x, y)`` entry by entry: ``y`` only where ``y > x``
    (so a NaN ``y`` never wins and a NaN ``x`` always stays)."""
    return np.where(y > x, y, x)


def mbr_join_indices(
    boxes_a: np.ndarray, boxes_b: np.ndarray, distance: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Rows ``(ia, ib)`` of every pair of ``(n, 4)`` / ``(m, 4)`` box rows
    ``(xmin, ymin, xmax, ymax)`` within ``distance``, in the sweep's order
    (module docstring).

    Each box is the earlier box of the pairs whose other box arrives after
    it in the event order and starts by its x reach: a range of the other
    side's sorted ``xmin`` that two ``searchsorted`` calls find (its lower
    end by the tie rule, its upper end the reach widened by
    :data:`_REACH_SLACK`, a superset).  The ranges are expanded
    :data:`_JOIN_STEP` candidates at a time and tested exactly; the
    survivors are ordered by their later and then earlier box's event
    position.
    """
    if not distance >= 0.0:
        raise ValueError("distance must be non-negative")
    n, m = len(boxes_a), len(boxes_b)
    if not n or not m:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    boxes = np.concatenate((boxes_a, boxes_b))
    xmin, xmax = boxes[:, 0], boxes[:, 2]
    events = xmin.argsort(kind="stable")
    position = np.empty(n + m, dtype=np.intp)
    position.put(events, np.arange(n + m))
    from_a = events < n
    sorted_a, sorted_b = events.compress(from_a), events.compress(~from_a)
    xs_a, xs_b = xmin.take(sorted_a), xmin.take(sorted_b)
    reach = xmax
    if distance != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            reach = xmax + distance + (np.abs(xmax) + distance) * _REACH_SLACK
    # Later boxes of side b start at or after an a box's xmin (a is first
    # on ties); later a boxes start strictly after a b box's.
    lo = np.concatenate((
        np.searchsorted(xs_b, xmin[:n], side="left"),
        np.searchsorted(xs_a, xmin[n:], side="right") + m,
    ))
    hi = np.concatenate((
        np.searchsorted(xs_b, reach[:n], side="right"),
        np.searchsorted(xs_a, reach[n:], side="right") + m,
    ))
    later_of = np.concatenate((sorted_b, sorted_a))
    counts = np.maximum(hi - lo, 0)
    ends = counts.cumsum()
    survivors: List[Tuple[np.ndarray, np.ndarray]] = []
    first = 0
    while first < n + m:
        base = int(ends[first] - counts[first])
        last = max(int(np.searchsorted(ends, base + _JOIN_STEP, side="right")), first + 1)
        earlier, at = expand_runs(lo[first:last], counts[first:last])
        earlier += first
        later = later_of.take(at)
        met = _within(boxes.take(earlier, axis=0), boxes.take(later, axis=0), distance)
        survivors.append((earlier.compress(met), later.compress(met)))
        first = last
    earlier = np.concatenate([pair[0] for pair in survivors])
    later = np.concatenate([pair[1] for pair in survivors])
    order = (position.take(later) * (n + m) + position.take(earlier)).argsort()
    earlier, later = earlier.take(order), later.take(order)
    # Side a's rows are the global ids below n, side b's the rest.
    return np.minimum(earlier, later), np.maximum(earlier, later) - n


def _within(earlier: np.ndarray, later: np.ndarray, distance: float) -> np.ndarray:
    """``Rect.within_distance`` of each earlier box (the sweep's active one,
    ``other``) to its later box (``rect``), from the same gaps rounded the
    same way: ``max(other.xmin - rect.xmax, 0.0, rect.xmin - other.xmax)``
    and likewise on y."""
    ex0, ey0, ex1, ey1 = earlier.T
    lx0, ly0, lx1, ly1 = later.T
    with np.errstate(over="ignore", invalid="ignore"):
        dx = _py_max(_py_max(ex0 - lx1, 0.0), lx0 - ex1)
        dy = _py_max(_py_max(ey0 - ly1, 0.0), ly0 - ey1)
    if distance == 0.0:
        return (dx == 0.0) & (dy == 0.0)
    return hypot_at_most(dx, dy, distance)


def plane_sweep_mbr_join(
    mbrs_a: Sequence[Rect],
    mbrs_b: Sequence[Rect],
    distance: float = 0.0,
) -> List[Tuple[int, int]]:
    """Index pairs ``(i, j)`` with ``minDist(a_i, b_j) <= distance``, in the
    sweep's order: :func:`mbr_join_indices` over the rectangles' rows.

    With ``distance == 0`` this is the plain MBR-intersection join.
    """
    ia, ib = mbr_join_indices(
        Rect.array_of(mbrs_a), Rect.array_of(mbrs_b), distance
    )
    return list(zip(ia.tolist(), ib.tolist()))
