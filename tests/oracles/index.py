"""Index oracles: the quadratic MBR join and the linear nearest-neighbour
scan.  Each is registered with its production twin in
``tests/oracles/test_twins.py``."""

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
