"""Tests for the memo table, the verdict key, the per-engine bundle, and
the on/off configuration."""

import pickle

import pytest

from repro.cache import (
    CAPACITY,
    MISSING,
    CacheBundle,
    CacheConfig,
    MemoCache,
    verdict_key,
)
from repro.core import HardwareVerdict
from repro.geometry import Polygon, Rect


def _polygons():
    a = Polygon.from_coords([(0, 4), (10, 4), (10, 6), (0, 6)])
    b = Polygon.from_coords([(4, 0), (6, 0), (6, 10), (4, 10)])
    return a, b


class TestVerdictKey:
    def test_key_is_content_based(self):
        a, b = _polygons()
        window = Rect(0.0, 0.0, 10.0, 10.0)
        k1 = verdict_key("intersect", "accum", a, b, window, 0.0, 32)
        a2 = Polygon.from_coords([(0, 4), (10, 4), (10, 6), (0, 6)])
        k2 = verdict_key("intersect", "accum", a2, b, window, 0.0, 32)
        assert k1 == k2

    def test_key_separates_every_parameter(self):
        a, b = _polygons()
        w = Rect(0.0, 0.0, 10.0, 10.0)
        base = verdict_key("intersect", "accum", a, b, w, 0.0, 32)
        assert base != verdict_key("distance", "accum", a, b, w, 0.0, 32)
        assert base != verdict_key("intersect", "blend", a, b, w, 0.0, 32)
        assert base != verdict_key("intersect", "accum", b, a, w, 0.0, 32)
        assert base != verdict_key(
            "intersect", "accum", a, b, Rect(0, 0, 10, 11), 0.0, 32
        )
        assert base != verdict_key("intersect", "accum", a, b, w, 1.5, 32)
        assert base != verdict_key("intersect", "accum", a, b, w, 0.0, 64)


class TestMemoCache:
    def test_lookup_miss_then_hit(self):
        a, b = _polygons()
        cache = MemoCache("verdict", capacity=8)
        key = verdict_key("intersect", "accum", a, b, a.mbr, 0.0, 32)
        assert cache.claim("intersect", [key])[0] is MISSING
        cache.store("intersect", key, HardwareVerdict.MAYBE)
        assert cache.claim("intersect", [key])[0] is HardwareVerdict.MAYBE
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_falsy_values_are_cached(self):
        cache = MemoCache("predicate", capacity=8)
        assert cache.claim("sweep", [("x",)])[0] is MISSING
        cache.store("sweep", ("x",), False)  # falsy results must be cached too
        assert cache.claim("sweep", [("x",)])[0] is False
        assert (cache.hits, cache.misses) == (1, 1)

    def test_ops_namespace_keys(self):
        cache = MemoCache("predicate", capacity=8)
        cache.store("sweep", ("x",), 1)
        cache.store("mindist", ("x",), 2)
        assert cache.claim("sweep", [("x",)])[0] == 1
        assert cache.claim("mindist", [("x",)])[0] == 2
        assert len(cache) == 2


class TestCacheConfig:
    def test_frozen_hashable_picklable(self):
        config = CacheConfig()
        with pytest.raises(AttributeError):
            config.enabled = False
        assert hash(config) == hash(CacheConfig())
        assert pickle.loads(pickle.dumps(config)) == config

    def test_disabled_and_any_enabled(self):
        assert not CacheConfig.disabled().enabled
        assert CacheConfig().enabled
        assert CacheConfig.disabled() == CacheConfig(enabled=False)

    def test_default_is_disabled(self):
        # An engine built without a cache argument has every layer off,
        # whatever ran before it: there is no process default to inherit.
        from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine

        assert HardwareConfig().cache == CacheConfig.disabled()
        cached = [
            SoftwareEngine(cache=CacheConfig()),
            HardwareEngine(HardwareConfig(cache=CacheConfig())),
        ]
        assert all(e.caches.stats() for e in cached)
        for engine in (SoftwareEngine(), HardwareEngine(), HardwareEngine(HardwareConfig())):
            assert engine.caches.config == CacheConfig.disabled()
            assert engine.caches.stats() == {}


class TestCacheBundle:
    def test_disabled_layers_are_none(self):
        bundle = CacheBundle(CacheConfig.disabled())
        assert bundle.verdict is None
        assert bundle.predicate is None
        assert bundle.stats() == {}
        assert bundle.totals().total == 0

    def test_enabled_layers_and_capacities(self):
        config = CacheConfig()
        bundle = CacheBundle(config)
        assert bundle.verdict.capacity == CAPACITY
        assert bundle.predicate.capacity == CAPACITY
        assert bundle.verdict is not bundle.predicate
        assert bundle.config is config
        assert set(bundle.stats()) == {"verdict", "predicate"}

    def test_stats_and_totals_aggregate(self):
        bundle = CacheBundle(CacheConfig())
        assert bundle.predicate.claim("sweep", [("x",)])[0] is MISSING
        bundle.predicate.store("sweep", ("x",), True)
        assert bundle.predicate.claim("sweep", [("x",)])[0] is True
        assert bundle.verdict.claim("intersect", [("k",)])[0] is MISSING
        stats = bundle.stats()
        assert stats["predicate"].hits == 1
        assert stats["predicate"].misses == 1
        assert stats["predicate"].hit_rate == 0.5
        assert stats["verdict"].misses == 1
        totals = bundle.totals()
        assert (totals.hits, totals.misses) == (1, 2)
