"""R-tree spatial index (static, STR-packed).

The paper's filtering step "uses the minimal bounding rectangles (MBRs) of
the objects and spatial indexes such as R-tree [1] to quickly determine a
set of candidate results".  Datasets never change during an experiment, so
the tree is static: Sort-Tile-Recursive bulk loading
(:func:`repro.index.str_pack.str_bulk_load`) packs it once, and this module
holds the node layout, the queries and the structural diagnostics.  Nothing
is added to or removed from a built tree.

Entries are ``(Rect, object id)``; the index never touches geometry, exactly
like the filtering stage of Figure 8.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..geometry.rect import Rect

DEFAULT_MAX_ENTRIES = 16


class RTreeNode:
    """A node holding child entries; leaves hold ``(mbr, oid)`` pairs."""

    __slots__ = ("is_leaf", "entries", "mbr")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        # Leaf entries: (Rect, oid).  Inner entries: (Rect, RTreeNode).
        self.entries: List[Tuple[Rect, object]] = []
        self.mbr: Optional[Rect] = None

    def recompute_mbr(self) -> None:
        self.mbr = Rect.union_all([e[0] for e in self.entries]) if self.entries else None


class RTree:
    """Static R-tree over ``(Rect, oid)`` entries.

    ``max_entries`` is the node fan-out M.  A directly constructed tree is
    empty; :func:`repro.index.str_pack.str_bulk_load` builds populated ones.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        self.max_entries = max_entries
        self.root = RTreeNode(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- queries -----------------------------------------------------------

    def search(self, query: Rect) -> List[object]:
        """Object ids whose MBRs intersect ``query`` (MBR filtering)."""
        out: List[object] = []
        if self.root.mbr is None:
            return out
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for mbr, oid in node.entries:
                    if mbr.intersects(query):
                        out.append(oid)
            else:
                for mbr, child in node.entries:
                    if mbr.intersects(query):
                        stack.append(child)  # type: ignore[arg-type]
        return out

    def search_within_distance(self, query: Rect, d: float) -> List[object]:
        """Object ids whose MBRs are within ``d`` of ``query``.

        The MBR distance lower-bounds the object distance, so this is the
        MBR-filtering stage of the within-distance join (section 4.1.1).
        """
        if not d >= 0.0:
            raise ValueError("distance must be non-negative")
        out: List[object] = []
        if self.root.mbr is None:
            return out
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for mbr, oid in node.entries:
                    if mbr.within_distance(query, d):
                        out.append(oid)
            else:
                for mbr, child in node.entries:
                    if mbr.within_distance(query, d):
                        stack.append(child)  # type: ignore[arg-type]
        return out

    def all_entries(self) -> Iterator[Tuple[Rect, object]]:
        """All leaf entries, in no particular order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(child for _, child in node.entries)  # type: ignore[misc]

    # -- diagnostics ---------------------------------------------------------------

    def height(self) -> int:
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.entries[0][1]  # type: ignore[assignment]
            h += 1
        return h

    def check_invariants(self) -> None:
        """Raise AssertionError when structural invariants are violated.

        No minimum fill is enforced: the last STR-packed node of a level
        may be underfull by construction.
        """

        def walk(node: RTreeNode, depth: int) -> int:
            assert len(node.entries) <= self.max_entries, "overfull node"
            if node.entries:
                assert node.mbr == Rect.union_all(
                    [e[0] for e in node.entries]
                ), "stale node MBR"
            if node.is_leaf:
                return depth
            depths = set()
            for mbr, child in node.entries:
                assert isinstance(child, RTreeNode)
                assert mbr == child.mbr, "entry MBR differs from child MBR"
                depths.add(walk(child, depth + 1))
            assert len(depths) == 1, "leaves at different depths"
            return depths.pop()

        walk(self.root, 0)
        assert self._size == sum(1 for _ in self.all_entries()), "size drift"
