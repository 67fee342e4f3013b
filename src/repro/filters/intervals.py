"""Raster-interval object approximations: the render-free second filter.

Georgiadis et al. ("Raster Interval Object Approximations for Spatial
Intersection Joins", PAPERS.md) sharpen Zimbrão and Souza's three-state
tile filter into something a join can afford per pair: rasterize every
polygon **once**, at build time, onto a grid the pair *shares*, store the
non-empty cells as sorted integer intervals of row-major cell ids, and
decide candidate pairs with pure interval algebra - no per-pair rendering.
Each cell keeps the classic three-state classification:

* ``EMPTY``   - no part of the polygon's region touches the cell;
* ``FULL``    - the (closed) cell lies entirely in the polygon's interior;
* ``PARTIAL`` - the boundary passes through the cell.

Because the region (restricted to the grid's world) is covered by
FULL + PARTIAL cells and FULL cells are certified interior, a pair of
encodings decides in *both* directions:

* some FULL cell of A is also a FULL cell of B   =>  INTERSECTING (proof:
  the shared cell has positive area inside both interiors);
* no non-EMPTY cell of A is non-EMPTY in B       =>  DISJOINT (proof: any
  shared point would make its cell non-EMPTY in both encodings);
* otherwise                                      =>  UNKNOWN (the
  hardware/software refinement step decides).

The DISJOINT certificate additionally requires at least one side's MBR to
lie entirely inside the grid world: the encodings only cover the region
*clipped to the world*, so two polygons that both stick outside could meet
beyond the grid's edge.  Encodings carry a ``clipped`` flag and the pair
test degrades to UNKNOWN in that (rare - dataset polygons are inside their
dataset's world by construction) case rather than claim a false proof.

Cell classification is sound by construction: the conservative
segment-footprint rasterizer marks every cell whose closed extent the
boundary touches, and an even-odd scanline fill classifies the untouched
cells (uniformly inside or outside, so the center decides).  Both
soundness arguments are property-tested against the exact software
predicate in ``tests/filters/test_intervals.py``.

The paper's interior filter (section 4.1.1, Figure 9a) is the same
encoding on a grid over the query polygon's own MBR: its interior tiles
are the FULL cells, and :meth:`IntervalApproximation.covers` is its
coverage test.

The pair test is a vectorized merge of sorted half-open run lists (two
``searchsorted`` calls), replacing the retired ``raster_approx`` O(tiles_a
x tiles_b) Python loop.  :class:`IntervalIndex` packs every encoding into
one row-keyed run list per list kind, so a whole candidate list is one
such merge per kind (Georgiadis et al.'s list-against-list join).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.polygon import Polygon
from ..geometry.rect import Rect
from ..geometry.runs import expand_runs
from ..geometry.workspace import Workspace
from ..gpu.raster_vector import (
    polygon_fill_coverage_mask,
    ring_boundary_coverage_mask,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..datasets.dataset import SpatialDataset

#: Default grid refinement: 2^8 x 2^8 cells over the shared world.
DEFAULT_INTERVAL_LEVEL = 8

#: Width (in cell units) of the conservative boundary footprint.  Any value
#: > 0 covers all cells the segment touches; keep it tiny so no cell
#: adjacent to the boundary is given up as PARTIAL unnecessarily.
_BOUNDARY_FOOTPRINT = 1e-9

#: Largest cell coordinate rasterized: the footprint test's rounding (~2^24 *
#: 2^-51) stays inside ``COVERAGE_EPS`` (1e-7).  Beyond it (from ~1e152 the
#: fill's products overflow) a polygon's cells are all PARTIAL.
_MAX_CELL_COORD = 2.0**24

_EMPTY_RUNS = (
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.int64),
)


class IntervalVerdict(Enum):
    """Outcome of a pairwise interval-approximation comparison."""

    DISJOINT = "disjoint"
    INTERSECTING = "intersecting"
    UNKNOWN = "unknown"


_VERDICTS = np.array(list(IntervalVerdict), dtype=object)

#: Gathered runs :meth:`_PackedRuns.overlaps` merges per step.
#: ``searchsorted`` takes no ``out=``, so its results are the step's size
#: (at most 64 KiB each), which the heap reuses instead of mapping afresh.
_OVERLAP_STEP = 1 << 13


def check_interval_level(level: object, name: str = "level") -> None:
    """Refuse a grid level that is not a (non-bool) ``int`` in [0, 12]."""
    if isinstance(level, bool) or not isinstance(level, int) or not 0 <= level <= 12:
        raise ValueError(f"{name} must be in [0, 12], got {level!r}")


class IntervalGrid:
    """A ``2^level x 2^level`` cell grid over a shared world rectangle.

    Both members of a candidate pair must be encoded on the *same* grid
    for the certificates to hold; :class:`IntervalIndex` enforces that by
    construction.  Value semantics (eq/hash on world + level) let the
    pair test verify grid identity cheaply.
    """

    __slots__ = ("world", "level", "cells_per_side", "cell_w", "cell_h")

    def __init__(self, world: Rect, level: int = DEFAULT_INTERVAL_LEVEL) -> None:
        check_interval_level(level)
        self.world = world
        self.level = level
        n = 2**level
        self.cells_per_side = n
        self.cell_w = world.width / n if world.width else 0.0
        self.cell_h = world.height / n if world.height else 0.0

    @property
    def degenerate(self) -> bool:
        """True when the world has zero extent on either axis."""
        return self.cell_w == 0.0 or self.cell_h == 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalGrid):
            return NotImplemented
        return self.world == other.world and self.level == other.level

    def __hash__(self) -> int:
        return hash((self.world, self.level))

    def __repr__(self) -> str:
        return f"IntervalGrid({self.world!r}, level={self.level})"

    def cell_range(self, window: Rect) -> Optional[Tuple[int, int, int, int]]:
        """Clamped indices ``(ix0, iy0, ix1, iy1)`` of cells meeting ``window``.

        ``None`` when the window lies entirely outside the grid (or the
        grid is degenerate).  Indices come from ``math.floor``, *not*
        ``int()``: truncation rounds negative offsets toward zero, which
        silently maps a window strictly left of / below the world onto
        column/row 0 - the retired ``raster_approx.tile_range`` had
        exactly that bug, masked by an upstream ``mbr.intersects`` guard.
        Flooring first and rejecting empty ranges *before* clamping makes
        the answer correct with no guard at all (regression-tested with
        boundary-straddling windows).  Quotients are clamped to ``[-1, n]``
        first, so a finite window far outside cannot overflow to ``inf``.
        """
        if self.degenerate:
            return None
        n = self.cells_per_side
        ix0 = math.floor(min(max((window.xmin - self.world.xmin) / self.cell_w, -1.0), n))
        ix1 = math.floor(min(max((window.xmax - self.world.xmin) / self.cell_w, -1.0), n))
        iy0 = math.floor(min(max((window.ymin - self.world.ymin) / self.cell_h, -1.0), n))
        iy1 = math.floor(min(max((window.ymax - self.world.ymin) / self.cell_h, -1.0), n))
        if ix1 < 0 or iy1 < 0 or ix0 > n - 1 or iy0 > n - 1:
            return None
        return (max(ix0, 0), max(iy0, 0), min(ix1, n - 1), min(iy1, n - 1))

    def cell_rect(self, cell_id: int) -> Rect:
        """Data-space rectangle of one row-major cell id."""
        n = self.cells_per_side
        j, i = divmod(int(cell_id), n)
        return Rect(
            self.world.xmin + i * self.cell_w,
            self.world.ymin + j * self.cell_h,
            self.world.xmin + (i + 1) * self.cell_w,
            self.world.ymin + (j + 1) * self.cell_h,
        )


def _runs_from_ids(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Maximal half-open runs ``[start, end)`` of a sorted id array."""
    if ids.size == 0:
        return _EMPTY_RUNS
    breaks = np.flatnonzero(np.diff(ids) != 1)
    starts = ids[np.concatenate(([0], breaks + 1))]
    ends = ids[np.concatenate((breaks, [ids.size - 1]))] + 1
    return starts, ends


def _runs_overlap(
    starts_q: np.ndarray, ends_q: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Per query run ``[sq, eq)``: does it share a cell with a run ``[s, e)``?

    The runs are sorted and disjoint, so those meeting ``[sq, eq)`` are the
    index range ``[lo, hi)``: ``lo`` counts runs with ``e <= sq`` (a run
    ending *at* ``sq`` lacks cell ``sq``), ``hi`` those with ``s < eq``.
    The filter's one merge rule; the query runs need no order.
    """
    lo = np.searchsorted(ends, starts_q, side="right")
    hi = np.searchsorted(starts, ends_q, side="left")
    return hi > lo


class IntervalApproximation:
    """One polygon's sorted-interval encoding on a shared grid."""

    __slots__ = ("grid", "starts", "ends", "full_starts", "full_ends", "clipped")

    def __init__(
        self,
        grid: IntervalGrid,
        starts: np.ndarray,
        ends: np.ndarray,
        full_starts: np.ndarray,
        full_ends: np.ndarray,
        clipped: bool,
    ) -> None:
        self.grid = grid
        #: Half-open runs of non-EMPTY (FULL or PARTIAL) cell ids.
        self.starts = starts
        self.ends = ends
        #: Half-open runs of FULL (certified-interior) cell ids.
        self.full_starts = full_starts
        self.full_ends = full_ends
        #: True when the polygon's MBR is not entirely inside the grid
        #: world, i.e. the encoding covers only the clipped region.
        self.clipped = clipped

    @classmethod
    def build(cls, polygon: Polygon, grid: IntervalGrid) -> "IntervalApproximation":
        """Rasterize ``polygon`` onto ``grid`` and compress to runs.

        Work is proportional to the polygon's footprint on the grid (its
        MBR cell range), not to the whole ``2^level`` square, so a
        dataset-wide build at level 8 stays cheap for small objects.
        """
        mbr = polygon.mbr
        clipped = not grid.world.contains_rect(mbr)
        rng = grid.cell_range(mbr)
        if rng is None:
            # Entirely outside the grid (or a degenerate world): nothing
            # of the region is representable, so the encoding proves
            # nothing on its own.
            return cls(grid, *_EMPTY_RUNS, *_EMPTY_RUNS, clipped=True)
        ix0, iy0, ix1, iy1 = rng
        width = ix1 - ix0 + 1
        height = iy1 - iy0 + 1
        # Vertices in local cell coordinates of the footprint window; the
        # rasterizers clip to the buffer, so out-of-window (clipped)
        # geometry still marks every in-window cell it touches.
        with np.errstate(over="ignore"):
            coords = (
                polygon.coords_array - (grid.world.xmin, grid.world.ymin)
            ) / (grid.cell_w, grid.cell_h) - (ix0, iy0)
        if np.abs(coords).max() <= _MAX_CELL_COORD:
            inside = polygon_fill_coverage_mask((height, width), coords)
            touched_mask = ring_boundary_coverage_mask(
                (height, width), coords, _BOUNDARY_FOOTPRINT
            )
        else:  # every cell PARTIAL: sound, where no cells is a false DISJOINT
            inside = np.zeros((height, width), dtype=bool)
            touched_mask = ~inside
        full_mask = inside & ~touched_mask
        n = grid.cells_per_side
        js, is_ = np.nonzero(full_mask | touched_mask)
        ids = (iy0 + js.astype(np.int64)) * n + (ix0 + is_.astype(np.int64))
        full_js, full_is = np.nonzero(full_mask)
        full_ids = (iy0 + full_js.astype(np.int64)) * n + (
            ix0 + full_is.astype(np.int64)
        )
        # np.nonzero walks row-major, so both id arrays are already sorted.
        return cls(
            grid,
            *_runs_from_ids(ids),
            *_runs_from_ids(full_ids),
            clipped=clipped,
        )

    @property
    def cell_count(self) -> int:
        """Number of non-EMPTY cells covered by the runs."""
        return int((self.ends - self.starts).sum())

    @property
    def full_cell_count(self) -> int:
        """Number of FULL (certified-interior) cells."""
        return int((self.full_ends - self.full_starts).sum())

    def covers(self, rect: Rect) -> bool:
        """True when every cell of ``rect``'s closed cell range is FULL.

        The range is :meth:`IntervalGrid.cell_range`'s: closed, so an MBR
        side lying on a cell edge reaches the cell beyond it.  A ``rect``
        not inside the grid world is never covered.  True proves ``rect``
        lies in the polygon's open interior (the interior filter's
        positive); False proves nothing.  The cells of one grid row form
        one id range, which lies in one maximal FULL run or is not all FULL.
        """
        if not self.grid.world.contains_rect(rect):
            return False
        rng = self.grid.cell_range(rect)
        if rng is None:
            return False
        ix0, iy0, ix1, iy1 = rng
        n = self.grid.cells_per_side
        for row in range(iy0 * n, iy1 * n + 1, n):
            k = bisect_right(self.full_starts, row + ix0) - 1
            if k < 0 or self.full_ends[k] <= row + ix1:
                return False
        return True

    def cell_ids(self) -> np.ndarray:
        """All non-EMPTY cell ids, expanded (for tests and diagnostics)."""
        return expand_runs(self.starts, self.ends - self.starts)[1]

    def full_cell_ids(self) -> np.ndarray:
        """All FULL cell ids, expanded (for tests and diagnostics)."""
        return expand_runs(self.full_starts, self.full_ends - self.full_starts)[1]


def classify_intervals(
    a: IntervalApproximation, b: IntervalApproximation
) -> IntervalVerdict:
    """Compare two interval encodings (both certificates are proofs)."""
    if a.grid is not b.grid and a.grid != b.grid:
        raise ValueError(
            f"approximations must share a grid: {a.grid!r} vs {b.grid!r}"
        )
    if _runs_overlap(a.full_starts, a.full_ends, b.full_starts, b.full_ends).any():
        return IntervalVerdict.INTERSECTING
    if not (a.clipped and b.clipped) and not _runs_overlap(
        a.starts, a.ends, b.starts, b.ends
    ).any():
        return IntervalVerdict.DISJOINT
    return IntervalVerdict.UNKNOWN


def _reserve(array: np.ndarray, size: int) -> np.ndarray:
    """``array``, or a copy with twice the room if it holds < ``size``."""
    room = array.shape[-1]
    if size <= room:
        return array
    grown = np.empty(array.shape[:-1] + (max(size, 2 * room),), array.dtype)
    grown[..., :room] = array
    return grown


class _PackedRuns:
    """One list kind (non-EMPTY or FULL) of every encoding of an index.

    CSR: row ``r``'s runs are columns ``offsets[r]:offsets[r + 1]`` of
    ``keyed`` (starts, ends), plus ``r * stride``, the grid's cell count.
    Runs lie in ``[0, stride]``, so all rows form one sorted disjoint list.
    """

    def __init__(self, stride: int) -> None:
        self.stride = stride
        self.rows = self.size = 0
        self.offsets = np.zeros(1, dtype=np.int64)
        self.keyed = np.empty((2, 0), dtype=np.int64)

    def append(self, starts: np.ndarray, ends: np.ndarray) -> None:
        row, size = self.rows, self.size
        self.rows, self.size = row + 1, size + starts.size
        self.keyed = _reserve(self.keyed, self.size)
        self.keyed[:, size : self.size] = (starts, ends)
        self.keyed[:, size : self.size] += row * self.stride
        self.offsets = _reserve(self.offsets, self.rows + 1)
        self.offsets[self.rows] = self.size

    def overlaps(self, rows_a: np.ndarray, rows_b: np.ndarray, ws: Workspace) -> np.ndarray:
        """Per pair ``k``: do rows ``rows_a[k]``, ``rows_b[k]`` share a cell?
        Gathers the shorter row's runs, moved to the other row's keys, into
        ``ws`` and merges them :data:`_OVERLAP_STEP` at a time."""
        offsets = self.offsets
        count_a = offsets.take(rows_a + 1) - offsets.take(rows_a)
        count_b = offsets.take(rows_b + 1) - offsets.take(rows_b)
        a_shorter = count_a <= count_b
        counts = np.minimum(count_a, count_b)
        shift = np.where(a_shorter, rows_b - rows_a, rows_a - rows_b) * self.stride
        starts, ends = self.keyed[:, : self.size]
        met = np.zeros(counts.size, dtype=bool)
        with ws.frame():
            pair, index = expand_runs(
                offsets.take(np.where(a_shorter, rows_a, rows_b)), counts, ws
            )
            query = ws.array((3, min(index.size, _OVERLAP_STEP)), np.int64)
            for lo in range(0, index.size, _OVERLAP_STEP):
                at, owner = index[lo : lo + _OVERLAP_STEP], pair[lo : lo + _OVERLAP_STEP]
                q_starts, q_ends, q_shift = query[:, : at.size]
                shift.take(owner, out=q_shift, mode="clip")
                starts.take(at, out=q_starts, mode="clip")
                ends.take(at, out=q_ends, mode="clip")
                q_starts += q_shift
                q_ends += q_shift
                met.put(owner.compress(_runs_overlap(q_starts, q_ends, starts, ends)), True)
        return met


class IntervalIndex:
    """Digest-keyed interval encodings of one or more datasets.

    Encodings are memoized on :attr:`~repro.geometry.polygon.Polygon.digest`
    (the same SHA-256 content key :mod:`repro.cache` uses), so duplicated
    geometry content - skewed layers, repeated queries - encodes exactly
    once, and a query polygon seen twice reuses its encoding across runs.
    Each encoding is a row, in first-seen order, of two packed run stores.
    """

    def __init__(self, grid: IntervalGrid) -> None:
        self.grid = grid
        self._rows: Dict[str, int] = {}
        self._encodings: List[IntervalApproximation] = []
        self._any = _PackedRuns(grid.cells_per_side**2)
        self._full = _PackedRuns(grid.cells_per_side**2)
        self._clipped = np.zeros(0, dtype=bool)
        #: :meth:`classify_batch`'s gathered runs: one owner, like the index.
        self._workspace = Workspace()

    @classmethod
    def for_datasets(
        cls,
        datasets: Sequence["SpatialDataset"],
        level: int = DEFAULT_INTERVAL_LEVEL,
    ) -> "IntervalIndex":
        """An index on the union world of ``datasets``, pre-encoding all.

        The shared grid spans the union of the datasets' worlds, so every
        pair drawn from them is encoded on common cells - the pair-common
        grid the certificates require.  Pre-encoding happens at build
        time (like the R-tree pack and hull pre-processing, it is not
        part of the paper's measured query cost).
        """
        if not datasets:
            raise ValueError("IntervalIndex needs at least one dataset")
        world = Rect.union_all([ds.world for ds in datasets])
        index = cls(IntervalGrid(world, level))
        for ds in datasets:
            for polygon in ds.polygons:
                index.encode(polygon)
        return index

    def __len__(self) -> int:
        return len(self._encodings)

    def encode(self, polygon: Polygon) -> IntervalApproximation:
        """The polygon's encoding on this index's grid (memoized)."""
        return self._encodings[self._row(polygon)]

    def _row(self, polygon: Polygon) -> int:
        row = self._rows.get(polygon.digest)
        if row is None:
            encoding = IntervalApproximation.build(polygon, self.grid)
            row = self._rows[polygon.digest] = len(self._encodings)
            self._encodings.append(encoding)
            self._any.append(encoding.starts, encoding.ends)
            self._full.append(encoding.full_starts, encoding.full_ends)
            self._clipped = _reserve(self._clipped, row + 1)
            self._clipped[row] = encoding.clipped
        return row

    def classify_batch(
        self, pairs: Sequence[Tuple[Polygon, Polygon]]
    ) -> List[IntervalVerdict]:
        """``[classify_intervals(encode(a), encode(b)) for a, b in pairs]``:
        FULL runs, then non-EMPTY runs of pairs not INTERSECTING and not
        both clipped, one merge each.  Equal by construction: with ``M`` the
        cell count, a query run ``[s, e)`` (``0 <= s < e <= M``) of one side
        is searched as ``[s + t*M, e + t*M)``, ``t`` the other side's row, in
        the keyed store, one sorted list of disjoint half-open runs.  A row
        ``r < t`` run ends at or before ``(r + 1)*M <= s + t*M``, a row ``r >
        t`` one starts at or after ``r*M >= e + t*M``: neither overlaps it
        (touching is not sharing a cell).  Row ``t``'s runs, shifted by the
        same ``t*M``, overlap it iff they do unshifted: the per-pair merge,
        which is symmetric in the side gathered.
        """
        rows = np.fromiter((self._row(p) for ab in pairs for p in ab), np.int64, 2 * len(pairs))
        rows_a, rows_b = rows[0::2], rows[1::2]
        # Codes index _VERDICTS: 0 DISJOINT, 1 INTERSECTING, 2 UNKNOWN.
        ws = self._workspace
        codes = np.where(self._full.overlaps(rows_a, rows_b, ws), 1, 2)
        both_clipped = self._clipped.take(rows_a) & self._clipped.take(rows_b)
        open_ = np.flatnonzero((codes == 2) & ~both_clipped)
        meet = self._any.overlaps(rows_a.take(open_), rows_b.take(open_), ws)
        codes[open_.compress(~meet)] = 0
        return _VERDICTS.take(codes).tolist()


__all__ = [
    "DEFAULT_INTERVAL_LEVEL",
    "IntervalApproximation",
    "IntervalGrid",
    "IntervalIndex",
    "IntervalVerdict",
    "check_interval_level",
    "classify_intervals",
]
