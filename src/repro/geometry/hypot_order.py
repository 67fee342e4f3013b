"""Ordering ``math.hypot`` values from their squares: the exactness argument.

The distance bounds (Chan's 0/1-Object filters, ``minDist``'s seed and
frontier filters) are minima, or ``<=`` tests, over
``math.hypot(dx, dy)`` of many ``(dx, dy)``.  The differences are plain IEEE
operations NumPy reproduces bit for bit; only ``hypot`` is not (``np.hypot``
and ``math.hypot`` may differ in the last ulp).  A minimum does not need it:

With ``u = 2**-53`` and no under/overflow, ``s = dx*dx + dy*dy`` computed in
float64 is ``S * (1 + e)``, ``|e| <= 2u + u**2 < 3u``, for the exact
``S = dx**2 + dy**2``.  CPython >= 3.10 documents ``math.hypot``'s error as
under one ulp, and an ulp is at most ``2u`` relative, so
``h = math.hypot(dx, dy)`` lies within a factor ``1 +- 2u`` of ``sqrt(S)``.
Hence ``h_A > h_B`` is *proven* whenever
``S_A / S_B > ((1 + 2u) / (1 - 2u))**2`` (about ``1 + 8u``), which
``s_A / s_B > (1 + 8u) * (1 + 3u) / (1 - 3u)`` (about ``1 + 14u``) implies,
and with one more ``u`` for rounding the product ``s_B * SLACK`` itself,
``s_A > s_B * (1 + 15u)`` suffices.  :data:`SLACK` is ``1 + 32u``: twice the
need, which absorbs every second-order term, and still a band so thin that
only genuine ties fall in it.

So the kernels rank by ``s`` over whole arrays and call ``math.hypot`` only
on the *tie set* ``s <= s_min * SLACK``, in index order, returning that
scalar value: every bound keeps its exact value, not just its side of ``D``.
Inside the band the squared order and the ``hypot`` order really do invert
(``tests/geometry/test_hypot_order.py`` keeps literal cases), which is why
the band is evaluated and not trusted.

The error bounds need ``s`` (or ``bound**2``) to be a normal number well
clear of both ends of the range: a square that underflows carries an
absolute error up to ``2**-1074``, negligible against ``2**-960`` and
fatal against ``0.0``.  Outside ``[2**-960, 2**960]`` - a zero minimum,
subnormal offsets, overflowing squares, a NaN - the band is simply
everything: the same routine evaluates every entry with ``math.hypot``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Relative width of the band in which squares do not decide ``hypot``
#: order: ``1 + 32u`` against a proven need of ``1 + 15u`` (module docstring).
SLACK = 1.0 + 2.0**-48

_TINY = 2.0**-960
_HUGE = 2.0**960


def hypot_min_candidates(squares: np.ndarray) -> np.ndarray:
    """Flat indices, ascending, of the entries that may hold the minimum.

    ``squares`` ranks the entries: ``dx*dx + dy*dy``, or the ``maximum`` of
    two such columns when the entry's value is the larger of two ``hypot``s
    (an entry whose larger square clears the band clears both of the
    other's).  Every index left out has a ``hypot`` *strictly* above that
    of the smallest square, so the first strict minimum over the returned
    set, in order, is the first strict minimum over all of them.
    """
    s_min = squares.min()
    if _TINY <= s_min <= _HUGE:
        return np.flatnonzero(squares.ravel() <= s_min * SLACK)
    return np.arange(squares.size)


def first_min_hypot(dx: np.ndarray, dy: np.ndarray) -> Tuple[int, float]:
    """``(i, d)`` of the first strict minimum ``d = math.hypot(dx[i], dy[i])``:
    what ``if d < best`` finds walking the columns in order (``(-1, inf)``
    when no entry compares below ``inf``, i.e. all are NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        ties = hypot_min_candidates(dx * dx + dy * dy)
    best_i, best = -1, math.inf
    for i, x, y in zip(ties.tolist(), dx.take(ties).tolist(), dy.take(ties).tolist()):
        d = math.hypot(x, y)
        if d < best:
            best_i, best = i, d
    return best_i, best


def hypot_at_most(dx: np.ndarray, dy: np.ndarray, bound: float) -> np.ndarray:
    """Boolean mask of ``math.hypot(dx[i], dy[i]) <= bound``.

    The threshold form of the same argument: squares at most
    ``bound**2 * (2 - SLACK)`` are proven inside, squares above
    ``bound**2 * SLACK`` proven outside, and only the band between them is
    evaluated.
    """
    with np.errstate(over="ignore"):
        squares = dx * dx + dy * dy
    limit = bound * bound
    if _TINY <= limit <= _HUGE:
        inside = squares <= limit * (2.0 - SLACK)
        band = np.flatnonzero((squares <= limit * SLACK) & ~inside)
    else:
        inside = np.zeros(squares.shape, dtype=bool)
        band = np.arange(squares.size)
    for i, x, y in zip(band.tolist(), dx.take(band).tolist(), dy.take(band).tolist()):
        inside[i] = math.hypot(x, y) <= bound
    return inside
