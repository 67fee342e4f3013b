"""A bounded LRU mapping, and the shared, single-flight memo table on it.

The cache subsystem never caps correctness - every cached value is a
deterministic function of its key - so the only policy decision is *what to
forget* when the capacity bound is hit, and plain least-recently-used is the
right default for the workloads the caches target (repeated query polygons,
skewed joins: the hot keys are the recently-touched ones by construction).

A memo table may be shared by several engines on several threads (a
serving pool's engines share one).  Its entries, the keys being computed
and its occupancy live under one lock; each engine holds its own
:class:`MemoCache` handle on the table, which tallies that engine's
lookups.  A key is computed once: the first handle to miss it *claims*
it, and a handle that meets a claimed key leaves it out of its own work,
waits for the value after finishing that work, and counts a hit.

Hit/miss/eviction tallies are kept as plain integers on the table and on
each handle and additionally committed to the metrics registry of the
ambient :func:`~repro.obs.scope.current_scope` when it has one - the same
zero-overhead-by-default pattern the rest of the instrumentation uses.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

from ..obs.metrics import MetricKey, metric_key
from ..obs.scope import current_scope

#: Returned by :meth:`LruCache.get` on a miss, and by :meth:`MemoCache.claim`
#: for a key the caller now computes; never a legal cached value (``None``
#: and ``False`` are legal - verdicts and predicate results).
MISSING = object()

#: Returned by :meth:`MemoCache.claim` for a key another handle is
#: computing: leave it out, then :meth:`MemoCache.wait` for it.
PENDING = object()


class LruCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` evicts the least recently used entry
    once ``capacity`` is exceeded.  Counts its own hits, misses, and
    evictions.  Not synchronized: :class:`MemoCache` guards one.
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


def publish_lookup(label: str, op: str, hit: bool, count: int = 1) -> None:
    """Commit ``count`` lookup outcomes to the ambient metrics registry."""
    registry = current_scope().registry
    if registry is None:
        return
    acc = registry.accumulator()
    with acc.lock:
        acc.add(_keys(label, op)[hit], count)


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


class _Table(LruCache):
    """What every handle of one memo table shares: the entries, the
    claimed keys (``(op, key) -> owning handle``) and the table-wide
    tallies, all under ``cond``'s lock."""

    __slots__ = ("label", "cond", "claims")

    def __init__(self, label: str, capacity: int) -> None:
        super().__init__(capacity)
        self.label = label
        self.cond = threading.Condition()
        self.claims: Dict[Tuple[str, Hashable], "MemoCache"] = {}


class MemoCache:
    """One engine's handle on a labelled, thread-safe memo table.

    ``MemoCache(label, capacity)`` makes a table and its first handle;
    :meth:`share` makes another handle on the same table.  Keys are
    namespaced by ``op``; every lookup and store lands in the
    ``cache_hits|misses|evictions{cache=label,op}`` counters and the
    ``cache_occupancy{cache=label}`` gauge of the ambient registry, and in
    the tallies of both the table and the handle that made it.  ``None``
    and ``False`` are legal values.

    Single flight: :meth:`claim` answers each key with its value (a hit),
    :data:`MISSING` (a miss: the key is now this handle's to
    :meth:`store`, or to :meth:`release` on failure) or :data:`PENDING`
    (another handle holds it; not tallied yet).  A handle waits only
    after storing or releasing every key it holds, so no two handles ever
    wait on each other.  A key this handle already holds answers
    :data:`MISSING` again (a duplicate within one batch).  :meth:`memoize`
    is that protocol over one batch, and the only way the refinement
    stages use a table.  One handle is used by one thread at a time.
    """

    __slots__ = ("table", "hits", "misses", "evictions")

    def __init__(self, label: str, capacity: int) -> None:
        self._attach(_Table(label, capacity))

    def _attach(self, table: _Table) -> None:
        self.table = table
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def share(self) -> "MemoCache":
        """A new handle on this table, with its own (zero) tallies."""
        handle = MemoCache.__new__(MemoCache)
        handle._attach(self.table)
        return handle

    @property
    def label(self) -> str:
        return self.table.label

    @property
    def capacity(self) -> int:
        return self.table.capacity

    def __len__(self) -> int:
        return len(self.table)

    def occupancy_gauge(self) -> Tuple[MetricKey, int]:
        """``(cache_occupancy{cache=label}, entries)``, read under the lock."""
        table = self.table
        with table.cond:
            return metric_key("cache_occupancy", cache=table.label), len(table)

    def claim(self, op: str, keys: Sequence[Hashable]) -> List[Any]:
        """Each key's value, :data:`MISSING` or :data:`PENDING`, all decided
        at once under the table's lock."""
        with self.table.cond:
            out, hits, misses = self._claim(op, keys)
        self._publish(op, hits, misses)
        return out

    def memoize(
        self,
        op: str,
        keys: Sequence[Hashable],
        compute: Callable[[List[int]], Iterable[Any]],
        claim_repeats: bool = False,
    ) -> List[Any]:
        """Each key's value: the whole batch claimed at once, the keys this
        handle holds computed, the keys other handles hold waited for.

        ``compute(positions)`` yields the values of ``keys[i]`` for those
        positions, in order; each is stored as it comes, and a failure
        releases the keys not stored yet (a waiter computes them) before it
        propagates.  Then the keys another handle held are waited for - a
        hit, or, released, computed here in one more round.

        A key repeated within ``keys`` is computed once, by its first
        position.  By default a repeat is looked up once its first position
        is resolved (a hit, as a second lookup in a loop would be); with
        ``claim_repeats`` it is claimed beside it and tallied like it.
        """
        first: Dict[Hashable, int] = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        values: List[Any] = [MISSING] * len(keys)
        todo = list(range(len(keys))) if claim_repeats else list(first.values())
        states = self.claim(op, [keys[i] for i in todo])
        while todo:
            held: List[int] = []
            waiting: List[int] = []
            for i, state in zip(todo, states):
                if state is PENDING:
                    waiting.append(i)
                elif state is not MISSING:
                    values[i] = state
                elif first[keys[i]] == i:
                    held.append(i)
            if held:
                try:
                    for i, value in zip(held, compute(held)):
                        self.store(op, keys[i], value)
                        values[i] = value
                except BaseException:
                    self.release(op, [keys[i] for i in held])
                    raise
            todo = waiting
            if todo:
                states = self.wait(op, [keys[i] for i in todo])
        repeats = (
            [i for i, key in enumerate(keys) if first[key] != i]
            if len(first) < len(keys)
            else []
        )
        if repeats and not claim_repeats:
            found = self.claim(op, [keys[i] for i in repeats])
            for i, state in zip(repeats, found):
                if state is MISSING:
                    # Evicted since its first position stored it.
                    self.store(op, keys[i], values[first[keys[i]]])
        for i in repeats:
            values[i] = values[first[keys[i]]]
        return values

    def wait(self, op: str, keys: Sequence[Hashable]) -> List[Any]:
        """Block until no other handle holds any of ``keys``, then claim
        them: a stored key is a hit, and a released (or evicted) one is a
        miss this handle now holds.  Never :data:`PENDING`."""
        table = self.table
        claims = table.claims
        slots = [(op, key) for key in keys]
        with table.cond:
            table.cond.wait_for(
                lambda: all(claims.get(slot, self) is self for slot in slots)
            )
            out, hits, misses = self._claim(op, keys)
        self._publish(op, hits, misses)
        return out

    def store(self, op: str, key: Hashable, value: Any) -> None:
        """Store ``value`` under a key this handle computed; wakes waiters."""
        registry = current_scope().registry
        if registry is not None:
            # Made before the table's lock is taken: a registry read holds
            # the registry's lock while it reads the occupancy under ours.
            registry.accumulator()
        table = self.table
        slot = (op, key)
        with table.cond:
            evicted = table.put(slot, value)
            if evicted:
                self.evictions += 1
            if table.claims.get(slot) is self:
                del table.claims[slot]
            table.cond.notify_all()
            publish_store(table.label, op, evicted, len(table))

    def release(self, op: str, keys: Sequence[Hashable]) -> None:
        """Give up the keys this handle holds among ``keys`` unstored (its
        computation failed): a waiter then computes them itself."""
        table = self.table
        claims = table.claims
        with table.cond:
            for key in keys:
                slot = (op, key)
                if claims.get(slot) is self:
                    del claims[slot]
            table.cond.notify_all()

    def _claim(self, op: str, keys: Sequence[Hashable]) -> Tuple[List[Any], int, int]:
        """:meth:`claim` with the table's lock held: the answers and the
        hits and misses, already tallied on the handle and the table."""
        table = self.table
        entries, claims = table._entries, table.claims
        out: List[Any] = []
        hits = misses = 0
        for key in keys:
            slot = (op, key)
            value = entries.get(slot, MISSING)
            if value is not MISSING:
                entries.move_to_end(slot)
                hits += 1
            elif claims.setdefault(slot, self) is self:
                misses += 1
            else:
                value = PENDING
            out.append(value)
        self.hits += hits
        self.misses += misses
        table.hits += hits
        table.misses += misses
        return out, hits, misses

    def _publish(self, op: str, hits: int, misses: int) -> None:
        """Commit the tallies after the table's lock is released."""
        label = self.table.label
        if hits:
            publish_lookup(label, op, True, hits)
        if misses:
            publish_lookup(label, op, False, misses)


__all__ = [
    "LruCache",
    "MISSING",
    "MemoCache",
    "PENDING",
    "publish_lookup",
    "publish_store",
]
