"""Simple (and possibly non-simple) polygons.

The paper's datasets contain concave and occasionally non-simple polygons
(footnote 1): self-intersecting boundaries and repeated vertices occur in the
real land-cover data.  ``Polygon`` therefore makes no simplicity assumption;
predicates that require simplicity say so explicitly.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from .edge_store import EdgeStore
from .point import Point
from .point_in_polygon import EdgeSlabs, PointLocation, edge_slabs, locate_point
from .rect import Rect


class VertexView(Sequence[Point]):
    """``Polygon.vertices``: the coordinate array read as ``Point`` objects.

    Indexing builds just the points asked for.  A full iteration builds all
    of them once and keeps them on the polygon, so a loop that walks
    ``Point`` objects pays for the objects on its first pass only.
    """

    __slots__ = ("_polygon",)

    def __init__(self, polygon: "Polygon") -> None:
        self._polygon = polygon

    @property
    def edge_slabs(self) -> EdgeSlabs:
        """The polygon's cached edge slabs: what ``locate_point`` scans."""
        return self._polygon.edge_slabs

    def __len__(self) -> int:
        return len(self._polygon.coords_array)

    def __getitem__(self, index):
        points = self._polygon._points
        if points is not None:
            return points[index]
        picked = self._polygon.coords_array[index].tolist()
        if isinstance(index, slice):
            return tuple(Point(x, y) for x, y in picked)
        return Point(*picked)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._polygon._all_points())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VertexView):
            return self._polygon == other._polygon
        if isinstance(other, (tuple, list)):
            return self._polygon._all_points() == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"VertexView(<{len(self)} vertices>)"


class Polygon:
    """A closed polygon defined by its boundary vertices.

    The boundary is implicitly closed: an edge connects the last vertex back
    to the first.  Vertices are stored as given (no deduplication or
    reorientation) to stay faithful to how GIS sources deliver geometry.

    The polygon *is* one C-contiguous, read-only float64 ``(n, 2)`` array,
    the ``coords_array`` slot; every kernel reads that array or the edge rows
    derived from it, and ``Point`` objects exist only where a caller asks
    for them through :attr:`vertices` or :meth:`edges`.
    """

    __slots__ = (
        "coords_array", "_edge_row", "_edges_array", "_edge_bounds", "_edge_slabs",
        "_sweep_records", "_points", "_mbr", "_signed_area", "_digest",
    )

    def __init__(
        self, vertices: Union[np.ndarray, Iterable[Union[Point, Tuple[float, float]]]]
    ) -> None:
        if not isinstance(vertices, np.ndarray):
            vertices = [(v.x, v.y) if isinstance(v, Point) else v for v in vertices]
        # np.array copies, so a caller's array can never alias the polygon.
        coords = np.array(vertices, dtype=np.float64, order="C")
        if len(coords) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(coords)}")
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"polygon needs (n, 2) coordinates, got shape {coords.shape}")
        finite = np.isfinite(coords)
        if not finite.all():
            index = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise ValueError(
                f"polygon vertex {index} has a non-finite coordinate: "
                f"{tuple(coords[index].tolist())}"
            )
        coords.setflags(write=False)
        object.__setattr__(self, "coords_array", coords)
        for slot in self.__slots__[1:]:
            object.__setattr__(self, slot, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polygon is immutable")

    def __reduce__(self):
        # One buffer, not n Point reductions; the caches rebuild lazily and
        # deterministically on the copy.
        return (Polygon, (self.coords_array,))

    @staticmethod
    def from_coords(coords: Sequence[Tuple[float, float]]) -> "Polygon":
        """Build a polygon from ``[(x, y), ...]`` coordinate pairs."""
        return Polygon(np.array(coords, dtype=np.float64))

    # -- basic accessors -----------------------------------------------------

    @property
    def vertices(self) -> VertexView:
        return VertexView(self)

    def _all_points(self) -> Tuple[Point, ...]:
        if self._points is None:
            points = tuple(Point(x, y) for x, y in self.coords_array.tolist())
            object.__setattr__(self, "_points", points)
        return self._points

    @property
    def num_vertices(self) -> int:
        """Vertex count: the complexity measure used throughout the paper."""
        return len(self.coords_array)

    def __len__(self) -> int:
        return len(self.coords_array)

    def __repr__(self) -> str:
        return f"Polygon(<{self.num_vertices} vertices>, mbr={self.mbr!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return np.array_equal(self.coords_array, other.coords_array)

    def __hash__(self) -> int:
        # ``+ 0.0`` folds -0.0 into 0.0: the two compare equal, so they must
        # hash equal, which their raw bytes would not.
        return hash((self.coords_array + 0.0).tobytes())

    @property
    def mbr(self) -> Rect:
        """Minimum bounding rectangle (cached)."""
        if self._mbr is None:
            # Column by column: numpy reduces a long 1-D column far faster
            # than it reduces an (n, 2) array along its long axis.
            x, y = self.coords_array.T
            object.__setattr__(self, "_mbr", Rect(x.min(), y.min(), x.max(), y.max()))
        return self._mbr

    def edges(self) -> Iterator[Tuple[Point, Point]]:
        """Iterate boundary edges as ``(start, end)`` pairs, closing the ring."""
        verts = self._all_points()
        return zip(verts[-1:] + verts[:-1], verts)

    def coords(self) -> List[Tuple[float, float]]:
        """Vertices as plain ``(x, y)`` tuples (for rasterization and IO)."""
        return list(map(tuple, self.coords_array.tolist()))

    @property
    def edge_row(self) -> Tuple[EdgeStore, int]:
        """``(store, row)``: where this polygon's edges live.

        A dataset packs its polygons into one :class:`EdgeStore`
        (:func:`pack_polygons`); a polygon that belongs to no dataset gets a
        one-row store on first use.  The atlas batch reads the store's
        columns, not the polygon."""
        if self._edge_row is None:
            pack_polygons([self])
        return self._edge_row

    @property
    def edges_array(self) -> np.ndarray:
        """Boundary edges as a read-only ``(n, 4)`` array of
        ``[x0, y0, x1, y1]`` rows, closing the ring (cached): a view into
        :attr:`edge_row`'s store.

        Edge ``i`` runs from vertex ``i-1`` to vertex ``i``, matching
        :meth:`edges`.  The hardware path's draw calls read these rows;
        the point-in-polygon slabs and the sweep records are built from them.
        """
        if self._edges_array is None:
            store, row = self.edge_row
            object.__setattr__(self, "_edges_array", store.edges_of(row))
        return self._edges_array

    @property
    def edge_bounds(self) -> np.ndarray:
        """Each edge's bounding box as a read-only ``(4, n)`` array, rows
        ``xmin, ymin, xmax, ymax`` over :attr:`edges_array` (cached): a view
        into :attr:`edge_row`'s store.

        ``minDist``'s chain filters and the sweep records test these rows
        against a window instead of recomputing the four min/max passes on
        every call.
        """
        if self._edge_bounds is None:
            store, row = self.edge_row
            object.__setattr__(self, "_edge_bounds", store.bounds_of(row))
        return self._edge_bounds

    @property
    def edge_slabs(self) -> EdgeSlabs:
        """:attr:`edges_array` bucketed into ``isqrt(n)`` horizontal slabs
        (cached): ``locate_point`` scans only the slab its ray starts in."""
        if self._edge_slabs is None:
            object.__setattr__(self, "_edge_slabs", edge_slabs(self.edges_array))
        return self._edge_slabs

    @property
    def sweep_records(self) -> np.ndarray:
        """The red-blue sweep's edge records as a read-only ``(8, n)`` array,
        rows ``xmin, xmax, ymin, ymax, ax, ay, bx, by``, with the records
        (columns) in the order ``sorted()`` puts those tuples - ties in
        boundary order (cached).

        ``np.lexsort`` is stable and, like tuple comparison, holds ``-0.0``
        and ``0.0`` equal, so one sort here stands for the ``sorted()`` every
        sweep used to run; any column subset is still in that order.
        """
        if self._sweep_records is None:
            xmin, ymin, xmax, ymax = self.edge_bounds
            ax, ay, bx, by = self.edges_array.T
            records = np.stack([xmin, xmax, ymin, ymax, ax, ay, bx, by])
            # lexsort's primary key is its last.
            records = records.take(np.lexsort(records[::-1]), axis=1)
            records.setflags(write=False)
            object.__setattr__(self, "_sweep_records", records)
        return self._sweep_records

    @property
    def digest(self) -> bytes:
        """SHA-256 over the vertex coordinate bytes (computed once, cached).

        A *content* identity: two polygon objects with bit-identical vertex
        sequences share a digest, however they were constructed.  The cache
        layer (:mod:`repro.cache`) keys on it, which is what lets memoized
        verdicts and renders apply across duplicate geometries, not just
        across repeated references to one object.
        """
        if self._digest is None:
            digest = hashlib.sha256(self.coords_array.tobytes()).digest()
            object.__setattr__(self, "_digest", digest)
        return self._digest

    # -- measures --------------------------------------------------------------

    def _edge_crosses(self) -> np.ndarray:
        """The shoelace term ``ax * by - bx * ay`` of every edge."""
        e = self.edges_array
        return e[:, 0] * e[:, 3] - e[:, 2] * e[:, 1]

    @property
    def signed_area(self) -> float:
        """Shoelace signed area; positive for counter-clockwise rings."""
        if self._signed_area is None:
            # cumsum adds strictly left to right, as the scalar loop did;
            # np.sum's pairwise order would round differently.
            total = float(np.cumsum(self._edge_crosses())[-1])
            object.__setattr__(self, "_signed_area", total * 0.5)
        return self._signed_area

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def is_ccw(self) -> bool:
        return self.signed_area > 0.0

    @property
    def centroid(self) -> Point:
        """Area centroid; falls back to the vertex mean for zero-area rings."""
        a6 = self.signed_area * 6.0
        if a6 == 0.0:
            return Point(*(np.cumsum(self.coords_array, axis=0)[-1] / self.num_vertices))
        e = self.edges_array
        weighted = (e[:, :2] + e[:, 2:]) * self._edge_crosses()[:, None]
        return Point(*(np.cumsum(weighted, axis=0)[-1] / a6))

    # -- topology ---------------------------------------------------------------

    def locate_point(self, p: Point) -> PointLocation:
        """Classify ``p`` as inside / outside / on the boundary."""
        return locate_point(p, self.vertices)

    def contains_point(self, p: Point) -> bool:
        """True when ``p`` is inside or on the boundary (even-odd rule)."""
        return locate_point(p, self.vertices) is not PointLocation.OUTSIDE

    # -- derived polygons ----------------------------------------------------------

    def reversed(self) -> "Polygon":
        """Same ring with opposite orientation."""
        return Polygon(self.coords_array[::-1])

    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon(self.coords_array + (dx, dy))

    def scaled(self, factor: float, origin: Point | None = None) -> "Polygon":
        o = origin if origin is not None else self.mbr.center
        o = np.array(o.as_tuple())
        return Polygon(o + (self.coords_array - o) * factor)


def pack_polygons(polygons: Sequence[Polygon]) -> None:
    """Put every polygon of ``polygons`` into one :class:`EdgeStore`.

    If they all live in one store already (a reordering of another
    dataset), nothing moves.  Otherwise a new store holds them as rows, in
    order; each polygon's :attr:`~Polygon.edge_row` moves to it and its edge
    caches become views into it, so the polygon keeps no second copy.
    """
    stores = {p._edge_row[0] if p._edge_row else None for p in polygons}
    if len(stores) == 1 and None not in stores:
        return
    store = EdgeStore.of_rings([p.coords_array for p in polygons])
    for row, polygon in enumerate(polygons):
        object.__setattr__(polygon, "_edge_row", (store, row))
        object.__setattr__(polygon, "_edges_array", None)
        object.__setattr__(polygon, "_edge_bounds", None)
