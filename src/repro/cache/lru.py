"""A bounded LRU mapping, and the labelled memo table built on it.

The cache subsystem never caps correctness - every cached value is a
deterministic function of its key - so the only policy decision is *what to
forget* when the capacity bound is hit, and plain least-recently-used is the
right default for the workloads the caches target (repeated query polygons,
skewed joins: the hot keys are the recently-touched ones by construction).

Hit/miss/eviction tallies are kept as plain integers on the cache itself
(always, they are just increments) and additionally committed to the
metrics registry of the ambient :func:`~repro.obs.scope.current_scope` when
it has one - the same zero-overhead-by-default pattern the rest of the instrumentation
uses.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Any, Hashable

from ..obs.metrics import metric_key
from ..obs.scope import current_scope

#: Returned by :meth:`LruCache.get` on a miss; never a legal cached value
#: (``None`` and ``False`` are legal - verdicts and predicate results).
MISSING = object()


class LruCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` evicts the least recently used entry
    once ``capacity`` is exceeded.  Counts its own hits, misses, and
    evictions.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The cached value, or :data:`MISSING` (refreshes recency on hit)."""
        value = self._entries.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> bool:
        """Store ``key -> value``; True when an older entry was evicted."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            entries[key] = value
            return False
        entries[key] = value
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            return True
        return False


@functools.lru_cache(maxsize=None)
def _keys(label: str, op: str):
    """The metric keys of one ``(cache, op)``: miss, hit, eviction, occupancy."""
    return (
        metric_key("cache_misses", cache=label, op=op),
        metric_key("cache_hits", cache=label, op=op),
        metric_key("cache_evictions", cache=label, op=op),
        metric_key("cache_occupancy", cache=label),
    )


def publish_lookup(label: str, op: str, hit: bool) -> None:
    """Commit one lookup outcome to the ambient metrics registry."""
    registry = current_scope().registry
    if registry is None:
        return
    acc = registry.accumulator()
    with acc.lock:
        acc.add(_keys(label, op)[hit])


def publish_store(label: str, op: str, evicted: bool, occupancy: int) -> None:
    """Commit one store (and its possible eviction) to the registry."""
    registry = current_scope().registry
    if registry is None:
        return
    _, _, evictions, occupancy_key = _keys(label, op)
    acc = registry.accumulator()
    with acc.lock:
        if evicted:
            acc.add(evictions)
        acc.set(occupancy_key, occupancy)


class MemoCache(LruCache):
    """One labelled memo table: an :class:`LruCache` that commits metrics.

    Keys are namespaced by ``op``; every lookup and store lands in the
    ``cache_hits|misses|evictions{cache=label,op}`` counters and the
    ``cache_occupancy{cache=label}`` gauge of the ambient registry.
    ``None`` and ``False`` are legal values, so a miss is :data:`MISSING`.
    """

    __slots__ = ("label",)

    def __init__(self, label: str, capacity: int) -> None:
        super().__init__(capacity)
        self.label = label

    def lookup(self, op: str, key: Hashable) -> Any:
        """The value stored under ``(op, key)``, or :data:`MISSING`."""
        value = self.get((op, key))
        publish_lookup(self.label, op, hit=value is not MISSING)
        return value

    def store(self, op: str, key: Hashable, value: Any) -> None:
        evicted = self.put((op, key), value)
        publish_store(self.label, op, evicted, len(self))


__all__ = ["LruCache", "MISSING", "MemoCache", "publish_lookup", "publish_store"]
