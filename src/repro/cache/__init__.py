"""Memoization for the refinement stack (verdicts, renders, predicates).

Real spatial workloads redecide the same things constantly: a selection
renders its one query polygon against thousands of candidates, a skewed
join meets the same geometry pair (by content, not by Python identity)
again and again, and benchmark query sets repeat whole queries.  This
package removes that redundancy without ever changing an answer:

* :class:`~repro.cache.verdict.VerdictCache` - hardware test verdicts
  keyed by (op, method, polygon digests, window bytes, D, resolution);
* :class:`~repro.cache.render.RenderCache` - per-polygon edge coverage
  masks keyed by (digest, window bytes, line width, caps, viewport);
* :class:`~repro.cache.predicate.PredicateCache` - exact software
  decisions (plane sweep, minDist threshold) keyed by digests + params.

Every cached value is a deterministic pure function of its key, so
cache-on runs are bit-identical to cache-off runs in results,
:class:`~repro.core.stats.RefinementStats`, and the derived explain
funnels; only the work executed (GPU cost counters, sweep/minDist step
counts, wall time) shrinks.  Configuration rides on
:class:`~repro.cache.config.CacheConfig` (off by default; see
``--cache`` on ``python -m repro.bench``); lookups publish
``cache_hits`` / ``cache_misses`` / ``cache_evictions{cache,op}`` counters
and a ``cache_occupancy{cache}`` gauge into the installed metrics
registry.

This package imports nothing from :mod:`repro.core`, :mod:`repro.gpu`, or
:mod:`repro.geometry` - keys and values are opaque here - so every layer
of the stack can use it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .config import CacheConfig
from .keys import window_key
from .lru import MISSING, LruCache
from .predicate import PredicateCache
from .render import RenderCache
from .verdict import VerdictCache


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
    """The per-engine set of caches built from one :class:`CacheConfig`.

    Disabled layers are ``None`` so call sites can gate on a single
    attribute test (the zero-overhead path when caching is off).
    """

    __slots__ = ("config", "verdict", "render", "predicate")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.verdict: Optional[VerdictCache] = (
            VerdictCache(config.verdict_capacity) if config.verdicts else None
        )
        self.render: Optional[RenderCache] = (
            RenderCache(config.render_capacity) if config.renders else None
        )
        self.predicate: Optional[PredicateCache] = (
            PredicateCache(config.predicate_capacity) if config.predicates else None
        )

    def reset(self) -> None:
        """Drop all cached entries and tallies (capacities unchanged)."""
        for cache in (self.verdict, self.render, self.predicate):
            if cache is not None:
                cache.clear()

    def stats(self) -> Dict[str, CacheStats]:
        """Per-cache tallies, keyed by cache label, enabled caches only."""
        out: Dict[str, CacheStats] = {}
        for label, cache in (
            ("verdict", self.verdict),
            ("render", self.render),
            ("predicate", self.predicate),
        ):
            if cache is not None:
                out[label] = CacheStats(cache.hits, cache.misses, cache.evictions)
        return out

    def totals(self) -> CacheStats:
        """Summed tallies across the enabled caches."""
        total = CacheStats()
        for stats in self.stats().values():
            total.hits += stats.hits
            total.misses += stats.misses
            total.evictions += stats.evictions
        return total


__all__ = [
    "CacheBundle",
    "CacheConfig",
    "CacheStats",
    "LruCache",
    "MISSING",
    "PredicateCache",
    "RenderCache",
    "VerdictCache",
    "window_key",
]
