"""2D point primitive.

The whole library works in a plain Cartesian data space (the paper's GIS
datasets use longitude/latitude treated as planar coordinates).  ``Point`` is
deliberately tiny: two float slots, value semantics, and the handful of vector
operations the geometry kernels need.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple


class Point:
    """An immutable 2D point / vector.

    >>> Point(1.0, 2.0) + Point(0.5, 0.5)
    Point(1.5, 2.5)
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Point is immutable")

    def __reduce__(self):
        # Slotted immutables need explicit pickle support (the default
        # protocol restores state through the blocked __setattr__); copy,
        # deepcopy and pickle all go through it.
        return (Point, (self.x, self.y))

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point({self.x:g}, {self.y:g})"

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)`` as a plain tuple."""
        return (self.x, self.y)

    # -- vector arithmetic ------------------------------------------------

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def dot(self, other: "Point") -> float:
        """Dot product with ``other``."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z component of the 3D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        """Point halfway between this point and ``other``."""
        return Point((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
