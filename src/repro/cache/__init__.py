"""Memoization for the refinement stack: two memo tables, one switch.

Real spatial workloads redecide the same things constantly: a skewed join
meets the same geometry pair (by content, not by Python identity) again
and again, and benchmark query sets repeat whole queries.  This package
removes that redundancy without ever changing an answer.  An engine with
caching on holds two :class:`~repro.cache.lru.MemoCache` tables:

* ``verdict`` - hardware test verdicts under
  :func:`~repro.cache.keys.verdict_key` (op, method, polygon digests,
  window bytes, D, resolution).  Only DISJOINT/MAYBE are stored:
  UNSUPPORTED is a width comparison with no rendering to save;
* ``predicate`` - exact software decisions (plane sweep, ``minDist <= D``)
  keyed by digests + parameters.  The early exit changes the reported
  distance, never which side of ``D`` it falls on, so the boolean memoizes.
  It also holds the prefilter's answers (op ``pip``, keyed by the refine
  op, the digests and ``D``), each with the ``pip_edges`` its scans
  charged, which a hit adds to :class:`~repro.core.stats.RefinementStats`.

Every stage memoizes a whole batch through one routine,
:meth:`~repro.cache.lru.MemoCache.memoize`.

Every cached value is a deterministic pure function of its key, and
:class:`~repro.core.stats.RefinementStats` counts decisions *requested*,
which a hit still is (and a prefilter hit replays its charge) - so
cache-on runs are bit-identical to cache-off runs in results,
RefinementStats, and the derived explain funnels; only the work executed
(GPU cost counters, sweep/minDist step counts, point locations, wall
time) shrinks.  Lookups commit ``cache_hits`` / ``cache_misses`` /
``cache_evictions{cache,op}`` counters and a ``cache_occupancy{cache}``
gauge to the ambient metrics registry.

Who memoizes:

* a **serving pool** always does, through one bundle whose tables every
  engine of the process shares (:meth:`CacheBundle.share` gives each
  engine its own handles, so a request's own lookups stay countable).
  The tables are thread-safe and single-flight: a key one request is
  computing is never computed by a second at the same time - the second
  leaves it out of its own prefilter, hardware batch or sweep, finishes
  its own misses, then waits for the value and counts a hit.  One table makes the
  served counters independent of which engine a request lands on;
* a **direct engine** does only when its caller passes an enabled
  :class:`CacheConfig` (``--cache`` on ``python -m repro.bench``).  Off
  is the default, so the paper's experiments count the work each
  operation does and every modeled clock stays that of the paper's
  algorithm.

This package imports nothing from :mod:`repro.core`, :mod:`repro.gpu`, or
:mod:`repro.geometry` - keys and values are opaque here - and the
simulated card (:mod:`repro.gpu`) imports nothing from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .keys import verdict_key, window_key
from .lru import MISSING, PENDING, LruCache, MemoCache

#: Entries each memo table may retain before evicting least-recently-used.
CAPACITY = 4096


@dataclass(frozen=True)
class CacheConfig:
    """Whether an engine memoizes.

    Travels on :class:`~repro.core.config.HardwareConfig` (and on the
    software engine's constructor), frozen.  There is no process-wide
    default: an engine built without one runs :meth:`disabled`, which
    keeps every baseline bit-identical unless a run opts in.
    """

    enabled: bool = True

    @classmethod
    def disabled(cls) -> "CacheConfig":
        """Memoization off (what an unconfigured engine runs)."""
        return cls(enabled=False)


@dataclass
class CacheStats:
    """One cache's lookup tallies (plain ints, additive)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


class CacheBundle:
    """An engine's handles on the two memo tables of one :class:`CacheConfig`.

    Both are ``None`` when caching is off so call sites can gate on a
    single attribute test (the zero-overhead path).  :meth:`stats` counts
    the lookups made through these handles: on a shared table, this
    engine's own.
    """

    __slots__ = ("config", "verdict", "predicate")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        on = config.enabled
        self.verdict: Optional[MemoCache] = (
            MemoCache("verdict", CAPACITY) if on else None
        )
        self.predicate: Optional[MemoCache] = (
            MemoCache("predicate", CAPACITY) if on else None
        )

    def share(self) -> "CacheBundle":
        """Another engine's bundle on these same tables, its tallies zero."""
        twin = CacheBundle.__new__(CacheBundle)
        twin.config = self.config
        twin.verdict = None if self.verdict is None else self.verdict.share()
        twin.predicate = None if self.predicate is None else self.predicate.share()
        return twin

    def _tables(self):
        return (self.verdict, self.predicate) if self.config.enabled else ()

    def stats(self) -> Dict[str, CacheStats]:
        """Per-cache tallies, keyed by cache label; empty when off."""
        return {
            cache.label: CacheStats(cache.hits, cache.misses, cache.evictions)
            for cache in self._tables()
        }

    def totals(self) -> CacheStats:
        """Summed tallies across both tables."""
        total = CacheStats()
        for stats in self.stats().values():
            total.hits += stats.hits
            total.misses += stats.misses
            total.evictions += stats.evictions
        return total


__all__ = [
    "CAPACITY",
    "CacheBundle",
    "CacheConfig",
    "CacheStats",
    "LruCache",
    "MISSING",
    "MemoCache",
    "PENDING",
    "verdict_key",
    "window_key",
]
