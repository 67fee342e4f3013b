"""The MBR join: the filtering stage of spatial joins.

Figure 8's first stage for joins produces candidate *pairs* whose MBRs
intersect (intersection join) or lie within distance D (within-distance
join).  :func:`plane_sweep_mbr_join` is the one algorithm: sort both MBR
sets by xmin and sweep, the classic in-memory MBR join, which needs no index
build; distance joins sweep with rectangles conceptually expanded by D.
Its quadratic oracle is the nested loop in ``tests/oracles/index.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..geometry.rect import Rect


def plane_sweep_mbr_join(
    mbrs_a: Sequence[Rect],
    mbrs_b: Sequence[Rect],
    distance: float = 0.0,
) -> List[Tuple[int, int]]:
    """Index pairs ``(i, j)`` with ``minDist(a_i, b_j) <= distance``.

    With ``distance == 0`` this is the plain MBR-intersection join.  Runs in
    ``O(n log n + k)``-ish time via an x-sweep with lazily pruned active
    lists.
    """
    if not distance >= 0.0:
        raise ValueError("distance must be non-negative")
    events: List[Tuple[float, int, int, Rect]] = []
    for i, r in enumerate(mbrs_a):
        events.append((r.xmin, 0, i, r))
    for j, r in enumerate(mbrs_b):
        events.append((r.xmin, 1, j, r))
    events.sort(key=lambda e: e[0])

    active: List[List[Tuple[int, Rect]]] = [[], []]
    out: List[Tuple[int, int]] = []
    for xmin, side, idx, rect in events:
        kept: List[Tuple[int, Rect]] = []
        for other_idx, other in active[1 - side]:
            # The within test's own x gap, rounded as it rounds it: a pair
            # pruned here fails that test, and since ``xmin`` only grows
            # (and rounding is monotone) so does every later pair of it.
            if xmin - other.xmax > distance:
                continue
            kept.append((other_idx, other))
            if other.within_distance(rect, distance):
                out.append((idx, other_idx) if side == 0 else (other_idx, idx))
        active[1 - side] = kept
        active[side].append((idx, rect))
    return out
