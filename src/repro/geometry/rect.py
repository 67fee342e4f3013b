"""Axis-aligned rectangles (minimum bounding rectangles).

MBRs drive the filtering step of every spatial query in the paper, the
R-tree, the 0-Object distance filter, and the projection of data space onto
the rendering window (paper section 3.2).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .point import Point


class Rect:
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    Degenerate rectangles (zero width and/or height) are allowed; they arise
    naturally as MBRs of horizontal/vertical segments and of single points.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float) -> None:
        if xmin > xmax or ymin > ymax:
            raise ValueError(
                f"invalid Rect: ({xmin}, {ymin}, {xmax}, {ymax}) has negative extent"
            )
        object.__setattr__(self, "xmin", float(xmin))
        object.__setattr__(self, "ymin", float(ymin))
        object.__setattr__(self, "xmax", float(xmax))
        object.__setattr__(self, "ymax", float(ymax))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    def __reduce__(self):
        # Explicit copy/pickle support for the slotted immutable (see Point).
        return (Rect, (self.xmin, self.ymin, self.xmax, self.ymax))

    # -- construction -----------------------------------------------------

    @staticmethod
    def union_all(rects: Sequence["Rect"]) -> "Rect":
        """Bounding rectangle of a non-empty collection of rectangles."""
        if not rects:
            raise ValueError("Rect.union_all requires at least one rectangle")
        xmin = min(r.xmin for r in rects)
        ymin = min(r.ymin for r in rects)
        xmax = max(r.xmax for r in rects)
        ymax = max(r.ymax for r in rects)
        return Rect(xmin, ymin, xmax, ymax)

    @staticmethod
    def array_of(rects: Sequence["Rect"]) -> np.ndarray:
        """The rectangles as one read-only ``(n, 4)`` float64 block of rows
        ``(xmin, ymin, xmax, ymax)``."""
        block = np.array([r.as_tuple() for r in rects], dtype=np.float64).reshape(-1, 4)
        block.setflags(write=False)
        return block

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (
            self.xmin == other.xmin
            and self.ymin == other.ymin
            and self.xmax == other.xmax
            and self.ymax == other.ymax
        )

    def __hash__(self) -> int:
        return hash((self.xmin, self.ymin, self.xmax, self.ymax))

    def __repr__(self) -> str:
        return f"Rect({self.xmin:g}, {self.ymin:g}, {self.xmax:g}, {self.ymax:g})"

    def __iter__(self) -> Iterator[float]:
        yield self.xmin
        yield self.ymin
        yield self.xmax
        yield self.ymax

    # -- basic measures ----------------------------------------------------

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xmin + self.xmax) * 0.5, (self.ymin + self.ymax) * 0.5)

    def corners(self) -> List[Point]:
        """The four corners in counter-clockwise order starting at (xmin, ymin)."""
        return [
            Point(self.xmin, self.ymin),
            Point(self.xmax, self.ymin),
            Point(self.xmax, self.ymax),
            Point(self.xmin, self.ymax),
        ]

    # -- topology ------------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """True if ``p`` lies in the closed rectangle."""
        return self.contains_xy(p.x, p.y)

    def contains_xy(self, x: float, y: float) -> bool:
        """True if the point ``(x, y)`` lies in the closed rectangle."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely within this (closed) rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the closed rectangles share at least one point."""
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The common rectangle, or None when the rectangles are disjoint."""
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmin > xmax or ymin > ymax:
            return None
        return Rect(xmin, ymin, xmax, ymax)

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both rectangles."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def expand(self, margin: float) -> "Rect":
        """Grow (or shrink, for negative margins) the rectangle on every side.

        This is the "extend the MBRs by D in each direction" operation used by
        the paper's within-distance optimizations (section 4.1.1) and by the
        distance-test projection (Figure 7b).
        """
        r = Rect.__new__(Rect)
        object.__setattr__(r, "xmin", self.xmin - margin)
        object.__setattr__(r, "ymin", self.ymin - margin)
        object.__setattr__(r, "xmax", self.xmax + margin)
        object.__setattr__(r, "ymax", self.ymax + margin)
        if r.xmin > r.xmax or r.ymin > r.ymax:
            raise ValueError(f"expand({margin}) collapses {self!r}")
        return r

    # -- metric -------------------------------------------------------------

    def distance_to_point(self, p: Point) -> float:
        """Minimum distance from ``p`` to the (closed) rectangle."""
        dx = max(self.xmin - p.x, 0.0, p.x - self.xmax)
        dy = max(self.ymin - p.y, 0.0, p.y - self.ymax)
        return math.hypot(dx, dy)

    def min_distance(self, other: "Rect") -> float:
        """Minimum distance between the two rectangles (0 when they overlap).

        This is a lower bound on the distance between any two objects bounded
        by the rectangles, which is exactly what MBR filtering for the
        within-distance join relies on (paper section 4.1.1).
        """
        dx = max(self.xmin - other.xmax, 0.0, other.xmin - self.xmax)
        dy = max(self.ymin - other.ymax, 0.0, other.ymin - self.ymax)
        return math.hypot(dx, dy)

    def max_distance(self, other: "Rect") -> float:
        """Maximum distance between any point of this rect and any of ``other``.

        An (untight) upper bound on the distance between objects bounded by
        the rectangles; the 0-Object filter refines it.
        """
        dx = max(self.xmax - other.xmin, other.xmax - self.xmin)
        dy = max(self.ymax - other.ymin, other.ymax - self.ymin)
        return math.hypot(dx, dy)

    def within_distance(self, other: "Rect", d: float) -> bool:
        """True when ``min_distance(other) <= d``.

        Decided on :meth:`min_distance` itself, so the guard and the MBR
        distance minDist and the exact tests compare against agree at ties
        (a squared comparison rounds differently from ``hypot``).
        """
        return self.min_distance(other) <= d

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)
