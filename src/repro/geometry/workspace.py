"""Grow-only scratch memory for the batch kernels.

A kernel that allocates its intermediates afresh pays for new memory on
every call: NumPy takes a large array from freshly mapped pages, and each
4 KiB page costs a minor fault on first touch.  A :class:`Workspace` is one
arena of bytes that hands out array views in stack order: a ``frame()``
block gives back, when it ends, everything taken inside it.  The arena
never shrinks; once the open frames have outgrown it, the next outermost
frame maps one of twice their peak.  So after the largest batch has run, a
kernel that takes its arrays here (and writes them with ``out=``)
allocates nothing, and what stays resident is the pages that batch's live
arrays touched.  An owner that knows it will run many batches (the atlas)
reserves address space when it builds the workspace, so its first batch
already runs in the arena and touches each page once, not once on the
heap and again in the first grown arena.

A workspace has one owner and no lock.  The atlas
(:class:`~repro.gpu.tiled.TiledPipeline`) owns one, so each engine has its
own and no two threads share one; the plane sweep
(:func:`~repro.geometry.sweep.boundaries_intersect`) keeps one per thread;
a caller with no pipeline passes a fresh one.  The module imports nothing
from the rest of :mod:`repro`.
"""

from __future__ import annotations

import mmap
from typing import List, Sequence

import numpy as np

#: Every array starts on a multiple of this many bytes of the arena.
_ALIGN = 64

#: Mask entries :func:`compress` scans per step: its one temporary, the
#: step's hit indices (at most 64 KiB), does not grow with the mask.
_COMPRESS_STEP = 1 << 13


class Workspace:
    """A grow-only arena of array views; see the module docstring."""

    __slots__ = ("_arena", "_marks", "_top", "_peak")

    def __init__(self, reserve: int = 0) -> None:
        """``reserve``: bytes of arena to map at once (0: none until a
        frame has outgrown the empty arena)."""
        self._arena = np.empty(0, dtype=np.uint8)
        #: Where each open frame started.
        self._marks: List[int] = []
        self._top = 0
        self._peak = 0
        if reserve:
            self._map(reserve)

    def array(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialized C-contiguous ``shape`` array of ``dtype``, valid
        until the frame it was taken in ends.  Past the end of the arena it
        is a fresh array; the next outermost frame grows the arena."""
        start = self._top
        out = None
        if self._arena.size:
            try:
                out = np.ndarray(shape, dtype, self._arena, start)
            except TypeError:  # the arena is too small for it
                pass
        if out is None:
            out = np.empty(shape, dtype)
        self._top = top = start + -(-out.nbytes // _ALIGN) * _ALIGN
        if top > self._peak:
            self._peak = top
        return out

    def frame(self) -> "Workspace":
        """A ``with`` block that gives back, on exit, every array taken
        inside it.  An outermost one first grows the arena to what the
        earlier ones needed, so a workspace used once never maps one."""
        return self

    def __enter__(self) -> None:
        self._marks.append(self._top)
        if self._top == 0 and self._arena.size < self._peak:
            self._grow()

    def __exit__(self, *exc) -> None:
        self._top = self._marks.pop()

    def _grow(self) -> None:
        # Twice the peak: a page nothing has touched takes no memory, and a
        # slightly larger batch later finds room.
        self._map(2 * self._peak)

    def _map(self, size: int) -> None:
        # A mapping of its own, not the heap's, so an outgrown arena goes
        # back to the system instead of staying resident.  Private: a first
        # touch of a private anonymous page costs less than of a shared one
        # (about 1.5 against 2.4 us on a 2-vCPU Linux VM).
        arena = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self._arena = np.frombuffer(arena, dtype=np.uint8)


def compress(
    mask: np.ndarray, sources: Sequence[np.ndarray], outs: Sequence[np.ndarray]
) -> int:
    """Write ``source.compress(mask, axis=0)`` into the first rows of the
    matching ``out`` (a 1-d ``mask`` over the sources' rows) and return
    how many rows that is.  A ``None`` source stands for the row numbers
    themselves: its ``out`` gets ``mask.nonzero()[0]``.

    NumPy's ``compress`` and ``flatnonzero`` find the hits in a fresh index
    array as long as the mask, which a batch-sized mask takes from newly
    mapped pages; this finds them a step at a time.
    """
    at = 0
    for start in range(0, mask.shape[0], _COMPRESS_STEP):
        hits = mask[start : start + _COMPRESS_STEP].nonzero()[0]
        hits += start
        stop = at + hits.shape[0]
        for source, out in zip(sources, outs):
            if source is None:
                out[at:stop] = hits
            else:
                source.take(hits, axis=0, out=out[at:stop], mode="clip")
        at = stop
    return at


__all__ = ["Workspace", "compress"]
