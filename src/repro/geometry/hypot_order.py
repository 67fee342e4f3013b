"""Ordering ``math.hypot`` values from their squares: the exactness argument.

The distance bounds (Chan's 0/1-Object filters, ``minDist``'s seed and
frontier filters) and ``minDist``'s pair kernel (its row, box and segment
distances) are minima, or ``<=`` tests, over
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
One zero minimum needs no walk: a first zero square whose entry is an
exact ``(0, 0)`` is the first strict minimum (:func:`_first_min`).
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
    flat = squares.ravel()
    # ``argmin`` stops at the first NaN, so ``s_min`` is NaN exactly when
    # ``min`` would be, and it is the cheaper call.
    s_min = flat[flat.argmin()]
    if _TINY <= s_min <= _HUGE:
        return (flat <= s_min * SLACK).nonzero()[0]
    return np.arange(flat.size)


def first_min_hypot(dx: np.ndarray, dy: np.ndarray) -> Tuple[int, float]:
    """``(i, d)`` of the first strict minimum ``d = math.hypot(dx[i], dy[i])``:
    what ``if d < best`` finds walking the columns in order (``(-1, inf)``
    when no entry compares below ``inf``, i.e. all are NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = dx * dx + dy * dy
    return _first_min(dx, dy, squares)


def first_min_hypots(
    dx: np.ndarray, dy: np.ndarray, cut: int
) -> Tuple[Tuple[int, float], Tuple[int, float]]:
    """:func:`first_min_hypot` of ``[:cut]`` and of ``[cut:]`` (indices
    counted from each half's start), the squares computed once for both."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = dx * dx + dy * dy
    return (
        _first_min(dx[:cut], dy[:cut], squares[:cut]),
        _first_min(dx[cut:], dy[cut:], squares[cut:]),
    )


def _first_min(dx: np.ndarray, dy: np.ndarray, squares: np.ndarray) -> Tuple[int, float]:
    """:func:`first_min_hypot` given the squares.

    A zero minimum square whose entry is an exact ``(0, 0)`` is decided
    there: ``hypot`` is zero only at ``(0, 0)``, nothing is below it, and
    every exact zero squares to zero, so none comes before ``argmin``'s
    first zero square.  A zero square that underflowed is evaluated like
    every other guard regime.
    """
    first = int(squares.argmin())
    s_min = squares[first]
    if _TINY <= s_min <= _HUGE:
        ties = (squares <= s_min * SLACK).nonzero()[0]
        if ties.size == 1:
            return first, math.hypot(dx[first], dy[first])
    elif s_min == 0.0 and dx[first] == 0.0 and dy[first] == 0.0:
        return first, 0.0
    else:
        ties = np.arange(squares.size)
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
        band = ((squares <= limit * SLACK) & ~inside).nonzero()[0]
    else:
        inside = np.zeros(squares.shape, dtype=bool)
        band = np.arange(squares.size)
    for i, x, y in zip(band.tolist(), dx.take(band).tolist(), dy.take(band).tolist()):
        inside[i] = math.hypot(x, y) <= bound
    return inside


def hypots(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot`` of every entry of two 1-D arrays, as a float64 array."""
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=np.float64)


def min_hypot_columns(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``min(map(math.hypot, dx[:, j], dy[:, j]))`` for every column ``j``
    of two ``(k, m)`` arrays: the builtin ``min``, whose first NaN wins.

    The argmin of each column's squares is evaluated, and so is every
    member of its band whose ``(|dx|, |dy|)`` differs from the argmin's:
    equal magnitudes give an equal ``hypot``, and that is how almost every
    band member ties (the endpoint-to-endpoint offsets of two disjoint
    segments, seen from either end).  A column whose minimum square is
    outside ``[2**-960, 2**960]`` or NaN is evaluated whole, in order.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = dx * dx + dy * dy
    cols = np.arange(squares.shape[1])
    first = squares.argmin(axis=0)
    s_min = squares[first, cols]
    mx, my = np.abs(dx), np.abs(dy)
    fx, fy = mx[first, cols], my[first, cols]
    out = hypots(fx, fy)
    sure = (_TINY <= s_min) & (s_min <= _HUGE)
    band = (squares <= s_min * SLACK) & ((mx != fx) | (my != fy)) & sure
    band_cols = np.nonzero(band)[1]
    for j, x, y in zip(band_cols.tolist(), mx[band].tolist(), my[band].tolist()):
        d = math.hypot(x, y)
        if d < out[j]:
            out[j] = d
    for j in np.flatnonzero(~sure).tolist():
        out[j] = min(map(math.hypot, dx[:, j].tolist(), dy[:, j].tolist()))
    return out
