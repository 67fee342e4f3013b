"""Tests for the bounded LRU storage layer and its metrics publishing."""

import pytest

from repro.cache import MISSING, LruCache
from repro.cache.lru import publish_lookup, publish_store
from repro.obs import MetricsRegistry, use_registry


class TestLruBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LruCache(0)
        with pytest.raises(ValueError):
            LruCache(-3)

    def test_miss_returns_missing_sentinel(self):
        cache = LruCache(4)
        assert cache.get("absent") is MISSING
        assert cache.misses == 1
        assert cache.hits == 0

    def test_none_and_false_are_legal_values(self):
        # MISSING exists precisely because None and False are cacheable.
        cache = LruCache(4)
        cache.put("none", None)
        cache.put("false", False)
        assert cache.get("none") is None
        assert cache.get("false") is False
        assert cache.hits == 2

    def test_put_get_roundtrip_counts(self):
        cache = LruCache(4)
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert len(cache) == 1
        assert (cache.hits, cache.misses, cache.evictions) == (1, 0, 0)

    def test_overwrite_same_key_does_not_evict(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) is False
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.evictions == 0


class TestEvictionOrder:
    def test_least_recently_used_is_evicted(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("c", 3) is True  # evicts "a"
        assert cache.evictions == 1
        assert cache.get("a") is MISSING
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_get_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now the least recently used
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is MISSING

    def test_put_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # "b" is now the least recently used
        cache.put("c", 3)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 10

    def test_capacity_one(self):
        cache = LruCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 1
        assert cache.get("b") == 2
        assert cache.evictions == 1


class TestMetricsPublishing:
    def test_publish_without_registry_is_a_noop(self):
        # Zero-overhead-by-default: no registry installed, nothing raises.
        publish_lookup("verdict", "intersect", hit=True)
        publish_store("verdict", "intersect", evicted=True, occupancy=3)

    def test_publish_lookup_routes_hit_and_miss(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            publish_lookup("verdict", "intersect", hit=True)
            publish_lookup("verdict", "intersect", hit=True)
            publish_lookup("verdict", "intersect", hit=False)
        snap = registry.snapshot()["counters"]
        assert snap["cache_hits{cache=verdict,op=intersect}"] == 2
        assert snap["cache_misses{cache=verdict,op=intersect}"] == 1

    def test_publish_store_records_eviction_and_occupancy(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            publish_store("render", "edges", evicted=False, occupancy=1)
            publish_store("render", "edges", evicted=True, occupancy=2)
        snap = registry.snapshot()
        assert snap["counters"]["cache_evictions{cache=render,op=edges}"] == 1
        assert snap["gauges"]["cache_occupancy{cache=render}"] == 2

    def test_no_eviction_means_no_eviction_counter(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            publish_store("render", "edges", evicted=False, occupancy=1)
        assert "cache_evictions{cache=render,op=edges}" not in (
            registry.snapshot()["counters"]
        )
