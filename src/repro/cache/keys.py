"""Canonical cache-key material: window bytes, polygon digests, test identity.

Cache keys must satisfy one property: **equal key implies bit-identical
cached computation**.  The ingredients here are exact, not approximate:

* :func:`window_key` serializes a projection window's four float64
  coordinates byte for byte, collapsing IEEE ``-0.0`` onto ``+0.0`` first.
  The projection subtracts ``xmin``/``ymin`` and divides by extents, and
  ``x - (-0.0) == x - 0.0`` for every ``x``, so the two zeros render
  identically - they *are* the same window.  Any other bit difference in a
  coordinate can change the rasterization and therefore keys separately.
* Polygon identity is the polygon's content digest
  (:attr:`~repro.geometry.polygon.Polygon.digest`): SHA-256 over the
  vertex coordinate bytes, computed once per polygon object and shared by
  every cache.  Distinct polygon objects with identical vertices (the
  duplicate geometries of a skewed join) hash equal, which is precisely
  what makes the caches effective across objects, not just across repeated
  Python references.
* :func:`verdict_key` is the full identity of one hardware test.  The
  simulated pipeline is deterministic and shares no state across tests, so
  a verdict is a pure function of (operation, overlap method, the two
  boundaries, the projection window, the query distance, the window
  resolution) - exactly that tuple.
"""

from __future__ import annotations

import struct
from typing import Hashable, Tuple

_PACK4 = struct.Struct("<4d").pack


def window_key(window) -> bytes:
    """The canonical byte form of a projection window (a Rect-like).

    Adding ``0.0`` maps ``-0.0`` to ``+0.0`` and is the identity for every
    other float, so windows that render identically share a key.
    """
    return _PACK4(
        window.xmin + 0.0,
        window.ymin + 0.0,
        window.xmax + 0.0,
        window.ymax + 0.0,
    )


def verdict_key(
    op: str, method: str, a, b, window, d: float, resolution: int
) -> Tuple[Hashable, ...]:
    """The identity of one hardware test; ``a``/``b`` are Polygon-likes
    with ``digest``, ``window`` a Rect-like."""
    return (op, method, a.digest, b.digest, window_key(window), float(d), resolution)


__all__ = ["verdict_key", "window_key"]
