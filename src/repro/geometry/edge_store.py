"""One packed store of edge columns for many boundaries.

The atlas batch (:mod:`repro.gpu.tiled`) culls, transforms and draws the
edges of up to a few hundred pair sides at once.  Reading them polygon by
polygon costs one NumPy call per side, which on small polygons costs more
than the arithmetic.  An :class:`EdgeStore` packs every ring of a dataset
into flat columns, the layout PR 28's interval runs use and Tsitsigkos et
al. (PAPERS.md) use for in-memory joins:

* ``offsets`` - CSR: row ``r``'s edges are ``offsets[r]:offsets[r + 1]``;
* ``edges`` - one read-only ``(E, 4)`` array of ``[x0, y0, x1, y1]`` rows;
* ``bounds`` - one read-only ``(4, E)`` array of edge boxes, rows ``xmin,
  ymin, xmax, ymax``;
* ``block_boxes`` - one ``(4, B)`` array of boxes over runs of
  :data:`BLOCK` consecutive edges of one row (``block_offsets`` is the
  per-row CSR over blocks, ``block_edges`` the per-block CSR over edges).

A block box is the exact ``min``/``max`` of its members' boxes, so a block
that fails a closed box test holds no edge that passes it: :meth:`EdgeStore.cull`
tests blocks first and edges only inside the blocks that pass.  A polygon's
``edges_array`` and ``edge_bounds`` are views into its store.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .point_in_polygon import edge_bounds
from .runs import expand_runs
from .workspace import Workspace, compress

#: Edges per block box (16 and 64 cull slower on the join workloads).
BLOCK = 32
_LANES = np.arange(BLOCK)


def boxes_meet(
    boxes: np.ndarray, cull: np.ndarray, workspace: Optional[Workspace] = None
) -> np.ndarray:
    """The closed cull test: does each ``(4, ...)`` column ``xmin, ymin,
    xmax, ymax`` of ``boxes`` meet the matching column ``lo_x, lo_y, hi_x,
    hi_y`` of ``cull`` (which broadcasts against it: a ``(4, 1)`` cull box
    meets every column)?  The answer and its one scratch plane are taken
    from ``workspace`` (a fresh one when None) in its caller's frame."""
    ws = Workspace() if workspace is None else workspace
    xmin, ymin, xmax, ymax = boxes
    lo_x, lo_y, hi_x, hi_y = cull
    near, test = ws.array((2, *xmin.shape), bool)
    np.greater_equal(xmax, lo_x, out=near)
    near &= np.less_equal(xmin, hi_x, out=test)
    near &= np.greater_equal(ymax, lo_y, out=test)
    near &= np.less_equal(ymin, hi_y, out=test)
    return near


class EdgeStore:
    """The edges of many rings as CSR columns (see the module docstring)."""

    __slots__ = ("offsets", "edges", "bounds", "block_offsets", "block_edges", "block_boxes")

    def __init__(self, edges: np.ndarray, offsets: np.ndarray) -> None:
        self.offsets = offsets
        self.edges = edges
        self.bounds = edge_bounds(edges)
        edges.setflags(write=False)
        self.bounds.setflags(write=False)
        counts = np.diff(offsets)
        blocks = -(-counts // BLOCK)
        self.block_offsets = np.concatenate(([0], np.cumsum(blocks)))
        row = np.repeat(np.arange(blocks.size), blocks)
        starts = offsets.take(row) + BLOCK * (
            np.arange(row.size) - self.block_offsets.take(row)
        )
        self.block_edges = np.append(starts, len(edges))
        if starts.size:
            # fmin/fmax skip a NaN member, as the edge test skips its edge.
            self.block_boxes = np.stack([
                np.fmin.reduceat(self.bounds[0], starts),
                np.fmin.reduceat(self.bounds[1], starts),
                np.fmax.reduceat(self.bounds[2], starts),
                np.fmax.reduceat(self.bounds[3], starts),
            ])
        else:
            self.block_boxes = np.empty((4, 0))

    @classmethod
    def of_rings(cls, rings: Sequence[np.ndarray]) -> "EdgeStore":
        """One row per closed ring of ``(n, 2)`` vertices; edge ``i`` of a row
        runs from vertex ``i-1`` to vertex ``i`` (``ring_edges``' rows)."""
        counts = np.fromiter(map(len, rings), dtype=np.intp, count=len(rings))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        coords = np.concatenate(rings) if rings else np.empty((0, 2))
        prev = np.arange(-1, len(coords) - 1)
        prev[offsets[:-1]] = offsets[1:] - 1
        return cls(np.hstack([coords.take(prev, axis=0), coords]), offsets)

    @classmethod
    def of_edges(cls, edge_sets: Sequence[np.ndarray]) -> "EdgeStore":
        """One row per ``(n, 4)`` edge array (a capture's or a test's)."""
        counts = np.fromiter(map(len, edge_sets), dtype=np.intp, count=len(edge_sets))
        edges = np.concatenate([np.empty((0, 4)), *edge_sets], dtype=np.float64)
        return cls(edges, np.concatenate(([0], np.cumsum(counts))))

    def edges_of(self, row: int) -> np.ndarray:
        """Row ``row``'s ``(n, 4)`` edges: a read-only view."""
        return self.edges[self.offsets[row]:self.offsets[row + 1]]

    def bounds_of(self, row: int) -> np.ndarray:
        """Row ``row``'s ``(4, n)`` edge boxes: a read-only view."""
        return self.bounds[:, self.offsets[row]:self.offsets[row + 1]]

    def edge_counts(self, rows: np.ndarray) -> np.ndarray:
        """How many edges each of ``rows`` holds."""
        return self.offsets.take(rows + 1) - self.offsets.take(rows)

    def cull(
        self, rows: np.ndarray, boxes: np.ndarray, ws: Workspace
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(tile, edge)``: the edges of row ``rows[t]`` whose box meets
        ``boxes[:, t]`` (``lo_x, lo_y, hi_x, hi_y``), tile by tile and in row
        order within a tile - one block test over the rows' block ranges,
        then one edge test over the :data:`BLOCK` lanes of every block that
        passes.  The block lists and the two results are views of ``ws``,
        taken in the caller's frame."""
        first = self.block_offsets.take(rows)
        tile, block = expand_runs(first, self.block_offsets.take(rows + 1) - first, ws)
        m = block.shape[0]
        passed = ws.array((2, m), np.intp)
        with ws.frame():
            near = boxes_meet(
                self.block_boxes.take(block, axis=1, out=ws.array((4, m)), mode="clip"),
                boxes.take(tile, axis=1, out=ws.array((4, m)), mode="clip"),
                ws,
            )
            b = compress(near, (tile, block), passed)
        tile, block = passed[:, :b]
        # At most every lane is a hit: the results are taken at that size
        # in the caller's frame and cut to the hits.
        tile_of, edge = ws.array((2, b * BLOCK), np.intp)
        with ws.frame():
            # Lane j of a block is its j-th edge, live below the next
            # block's first edge; a dead lane past the store's last edge
            # reads that edge.
            lanes = ws.array((b, BLOCK), np.intp)
            np.add(self.block_edges.take(block)[:, None], _LANES, out=lanes)
            near = boxes_meet(
                self.bounds.take(lanes, axis=1, out=ws.array((4, b, BLOCK)), mode="clip"),
                boxes.take(tile, axis=1, out=ws.array((4, b)), mode="clip")[:, :, None],
                ws,
            )
            near &= np.less(
                lanes,
                self.block_edges.take(block + 1)[:, None],
                out=ws.array((b, BLOCK), bool),
            )
            tiles = ws.array((b, BLOCK), np.intp)
            tiles[:] = tile[:, None]
            # Lanes in order are blocks in order, each block's lanes in
            # order: what is kept is tile by tile, in row order.
            k = compress(near.ravel(), (tiles.ravel(), lanes.ravel()), (tile_of, edge))
        return tile_of[:k], edge[:k]


__all__ = ["EdgeStore", "boxes_meet"]
