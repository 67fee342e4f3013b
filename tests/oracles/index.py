"""Index oracles: the quadratic MBR join, the per-event plane sweep (the
MBR join's order) and the linear nearest-neighbour scan.  Each is
registered with its production twin in ``tests/oracles/test_twins.py``."""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.geometry import Rect


def nested_loop_mbr_join(
    mbrs_a: Sequence[Rect],
    mbrs_b: Sequence[Rect],
    distance: float = 0.0,
) -> List[Tuple[int, int]]:
    """Every index pair ``(i, j)`` whose MBRs lie within ``distance``."""
    if not distance >= 0.0:
        raise ValueError("distance must be non-negative")
    return [
        (i, j)
        for i, a in enumerate(mbrs_a)
        for j, b in enumerate(mbrs_b)
        if a.within_distance(b, distance)
    ]


def plane_sweep_loop(
    mbrs_a: Sequence[Rect],
    mbrs_b: Sequence[Rect],
    distance: float = 0.0,
) -> List[Tuple[int, int]]:
    """The MBR join as a per-event x-sweep with lazily pruned active lists:
    the pairs of :func:`nested_loop_mbr_join`, in the order the production
    join must reproduce."""
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


def linear_nearest(
    oids: List[object],
    distance_fn: Callable[[object], float],
    k: int = 1,
) -> List[Tuple[float, object]]:
    """The ``k`` nearest objects by exact distance to every object."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # Key on distance alone: ids may not be orderable, and the stable sort
    # keeps equal-distance ids in input order.
    scored = sorted(((distance_fn(oid), oid) for oid in oids), key=lambda pair: pair[0])
    return scored[:k]
