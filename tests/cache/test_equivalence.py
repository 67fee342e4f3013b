"""Cache-on must be bit-identical to cache-off — the tentpole guarantee.

Every cached value is a deterministic pure function of its key, so turning
the caches on may change only *work executed* (GPU cost counters, sweep and
minDist step counts, wall time), never an answer: matched keys,
:class:`~repro.core.stats.RefinementStats`, and the derived explain funnels
must come out identical in every execution mode.  These tests compare
cache-on engines against fresh cache-off engines over the same inputs - per
overlap method, for all three predicates, through the paper-literal
per-pair tester and the batched path - and check that repeating work
actually registers cache hits, down to the prefilter: a warm repeat
locates no point at all, and the prefilter's memo keys its op and
distance (two named key mutants must fail that check).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
import repro.core.refine as refine_module
import repro.geometry.distance as distance_module
from repro.bench.experiments import per_pair_engine
from repro.cache import CacheConfig
from repro.core import (
    OPS,
    OVERLAP_METHODS,
    HardwareConfig,
    HardwareEngine,
    HardwareSegmentTest,
    HardwareVerdict,
)
from repro.datasets import (
    GeneratorConfig,
    SpatialDataset,
    VertexCountModel,
    generate_layer,
)
from repro.geometry import Polygon, Rect
from repro.obs.explain import funnels_from_snapshot
from repro.obs import MetricsRegistry, use_registry
from repro.query import IntersectionJoin, IntersectionSelection, WithinDistanceJoin
from tests.oracles.mutants import mutant
from tests.strategies import polygon_pairs_nearby

DISTANCE = 1.5

#: Crossing bars: MBRs overlap but neither contains the other's vertices,
#: so the pair survives every short-circuit and reaches the hardware step.
CROSS_H = Polygon.from_coords([(0, 4), (10, 4), (10, 6), (0, 6)])
CROSS_V = Polygon.from_coords([(4, 0), (6, 0), (6, 10), (4, 10)])


def pair_lists(min_size=1, max_size=10):
    return st.lists(polygon_pairs_nearby(), min_size=min_size, max_size=max_size)


def engine_pair(method="accum", resolution=8, make=HardwareEngine):
    """A (cache-off, cache-on) pair of otherwise identical engines."""
    off = make(
        HardwareConfig(
            resolution=resolution, method=method, cache=CacheConfig.disabled()
        )
    )
    on = make(
        HardwareConfig(resolution=resolution, method=method, cache=CacheConfig())
    )
    return off, on


def serial_keys(engine, op, items, distance=DISTANCE):
    """The per-pair predicates (one-item refine calls), in item order."""
    if op == "intersect":
        return [k for k, a, b in items if engine.polygons_intersect(a, b)]
    if op == "within_distance":
        return [k for k, a, b in items if engine.within_distance(a, b, distance)]
    return [k for k, a, b in items if engine.contains_properly(a, b)]


def duplicated_items(pairs, repeats=2):
    """Work items that revisit every pair ``repeats`` times (cache fodder)."""
    return [
        ((r, k), a, b)
        for r in range(repeats)
        for k, (a, b) in enumerate(pairs)
    ]


class TestSerialEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(pair_lists(), st.sampled_from(OVERLAP_METHODS), st.sampled_from(OPS))
    def test_cache_on_matches_cache_off(self, pairs, method, op):
        off, on = engine_pair(method, make=per_pair_engine)
        items = duplicated_items(pairs)
        expected = serial_keys(off, op, items)
        got = serial_keys(on, op, items)
        assert got == expected
        assert on.stats == off.stats

    def test_repeats_register_verdict_hits(self):
        _, on = engine_pair(make=per_pair_engine)
        assert on.polygons_intersect(CROSS_H, CROSS_V)
        assert on.polygons_intersect(CROSS_H, CROSS_V)
        assert on.caches.stats()["verdict"].hits >= 1

    def test_distance_repeats_register_hits(self):
        off, on = engine_pair(make=per_pair_engine)
        far = Polygon.from_coords([(20, 0), (22, 0), (22, 2), (20, 2)])
        for engine in (off, on):
            assert engine.within_distance(CROSS_V, far, 16.0)
            assert engine.within_distance(CROSS_V, far, 16.0)
        assert on.stats == off.stats
        assert on.caches.totals().hits > 0


class TestBatchedEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(pair_lists(), st.sampled_from(OVERLAP_METHODS), st.sampled_from(OPS))
    def test_cache_on_matches_cache_off(self, pairs, method, op):
        off, on = engine_pair(method)
        items = duplicated_items(pairs)
        expected = off.refine(op, items, distance=DISTANCE)
        got = on.refine(op, items, distance=DISTANCE)
        assert got == expected
        assert on.stats == off.stats

    def test_within_batch_duplicates_share_one_render(self):
        # Follower dedup: five copies of the same pair in one batch must
        # reach the atlas as a single rendered tile pair.
        off, on = engine_pair()
        items = [((k,), CROSS_H, CROSS_V) for k in range(5)]
        expected = off.refine("intersect", items)
        got = on.refine("intersect", items)
        assert got == expected
        assert on.stats == off.stats
        assert on.gpu_counters.edges_rendered < off.gpu_counters.edges_rendered

    def test_batch_matches_serial_with_caching(self):
        # The three paths must agree with each other, not just pairwise
        # with their own cache-off twins.
        _, on_serial = engine_pair(make=per_pair_engine)
        _, on_batch = engine_pair()
        items = duplicated_items([(CROSS_H, CROSS_V)], repeats=3)
        expected = serial_keys(on_serial, "intersect", items)
        got = on_batch.refine("intersect", items)
        assert got == expected
        assert on_batch.stats == on_serial.stats

    @pytest.mark.parametrize("cache", [CacheConfig.disabled(), CacheConfig()])
    @pytest.mark.parametrize("d", [0.0, 16.0])
    def test_entry_points_publish_the_same_families(self, cache, d):
        # One verdict routine under both: the per-pair entry points and the
        # batch entry points must account for the same pair list
        # identically - over-limit widths and repeated pairs included -
        # and differ only in which duration family the renders land in.
        far = Polygon.from_coords([(20, 0), (22, 0), (22, 2), (20, 2)])
        wide, narrow = Rect(0.0, 0.0, 40.0, 40.0), Rect(0.0, 0.0, 10.0, 10.0)
        pairs = [
            (CROSS_H, CROSS_V, wide),
            (CROSS_V, far, wide),
            (CROSS_H, CROSS_V, narrow),  # d=16 at 0.8 px/unit: 13 px > 10
            (CROSS_H, CROSS_V, wide),  # repeats the first
        ]
        config = HardwareConfig(resolution=8, cache=cache)
        each, batch = MetricsRegistry(), MetricsRegistry()
        with use_registry(each):
            hw = HardwareSegmentTest(config)
            one_by_one = [hw.distance_verdict(a, b, w, d) for a, b, w in pairs]
        with use_registry(batch):
            at_once = HardwareSegmentTest(config).distance_verdicts_batch(pairs, d)
        assert at_once == one_by_one
        unsupported = one_by_one.count(HardwareVerdict.UNSUPPORTED)
        assert unsupported == (1 if d else 0)

        def hw_families(registry):
            snap = registry.snapshot()
            return {
                key: value
                for key, value in {**snap["counters"], **snap["histograms"]}.items()
                if key.startswith("hw_")
            }

        durations = ("hw_test_duration_s", "hw_batch_duration_s")
        per_pair, batched = hw_families(each), hw_families(batch)
        shared = {k: v for k, v in per_pair.items() if not k.startswith(durations)}
        assert shared == {
            k: v for k, v in batched.items() if not k.startswith(durations)
        }
        assert {key.split("{")[0] for key in shared} == {
            "hw_verdicts",
            "hw_test_edges",
            *(["hw_line_width_overflow"] if d else []),
        }
        op = "within_distance" if d else "intersect"
        # One timed render per pair that is neither over the limit nor (with
        # caching on) a repeat; one shared duration per submission.
        renders = len(pairs) - unsupported - (1 if cache.enabled else 0)
        assert {k: v["count"] for k, v in per_pair.items() if k.startswith(durations)} == {
            f"hw_test_duration_s{{method=accum,op={op}}}": renders
        }
        assert {k: v["count"] for k, v in batched.items() if k.startswith(durations)} == {
            f"hw_batch_duration_s{{op={op}}}": 1
        }


def _layers(count_a=30, count_b=30):
    world = Rect(0.0, 0.0, 50.0, 50.0)
    shared = dict(
        world=world,
        vertex_model=VertexCountModel(vmin=4, vmax=32, mean=10.0),
        coverage=1.3,
        cluster_count=4,
        cluster_spread=0.2,
        roughness=0.3,
    )
    layer_a = generate_layer(GeneratorConfig(count=count_a, **shared), seed=61)
    layer_b = generate_layer(GeneratorConfig(count=count_b, **shared), seed=62)
    return (
        SpatialDataset("A", layer_a, world=world),
        SpatialDataset("B", layer_b, world=world),
    )


def _cache_hits(snapshot):
    return sum(
        value
        for key, value in snapshot["counters"].items()
        if key.startswith("cache_hits")
    )


class TestSelectionFunnels:
    def test_repeated_query_identical_funnels_and_nonzero_hits(self):
        ds, query_ds = _layers()
        queries = query_ds.polygons[:3]
        off, on = engine_pair(resolution=32)
        registry_off = MetricsRegistry()
        registry_on = MetricsRegistry()
        sel_off = IntersectionSelection(ds, off)
        sel_on = IntersectionSelection(ds, on)

        with use_registry(registry_off):
            ids_off = [sel_off.run(q).ids for q in queries for _ in (0, 1)]
        with use_registry(registry_on):
            first = [sel_on.run(q).ids for q in queries]
            hits_before_repeat = _cache_hits(registry_on.snapshot())
            repeat = [sel_on.run(q).ids for q in queries]

        # Identical answers, pass for pass, and identical refinement stats.
        assert first == ids_off[0::2]
        assert repeat == ids_off[1::2]
        assert first == repeat
        assert on.stats == off.stats

        # The derived explain funnels are bit-identical...
        snapshot_off = registry_off.snapshot()
        snapshot_on = registry_on.snapshot()
        assert funnels_from_snapshot(snapshot_on) == funnels_from_snapshot(
            snapshot_off
        )
        # ...and repeating the queries actually hit the caches.
        assert _cache_hits(snapshot_on) > hits_before_repeat
        assert _cache_hits(snapshot_off) == 0


def _spy_point_location(monkeypatch):
    """Count the prefilter's point-location calls: ``either_contains`` and
    ``locate_xy`` as :mod:`repro.core.refine` imports them, and the
    ``locate_xy`` that ``either_contains`` reaches."""
    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(refine_module, "either_contains")
    counting(refine_module, "locate_xy")
    counting(distance_module, "locate_xy")
    return calls


def _selection(layers):
    ds, query_ds = layers
    return lambda engine: [
        IntersectionSelection(ds, engine).run(q).ids for q in query_ds.polygons[:4]
    ]


def _join(layers):
    return lambda engine: IntersectionJoin(*layers, engine).run().pairs


def _within_distance(layers):
    return lambda engine: WithinDistanceJoin(*layers, engine).run(DISTANCE).pairs


#: A square, a square inside it, and a square 10 units off: the inner pair
#: is settled by the intersect prefilter and left open by the containment
#: one; the far pair is dropped at distance 1 and kept at 15.
_OUTER = Polygon.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
SEPARATION_ITEMS = [
    ("inner", _OUTER, Polygon.from_coords([(4, 4), (6, 4), (6, 6), (4, 6)])),
    ("far", _OUTER, Polygon.from_coords([(20, 0), (22, 0), (22, 2), (20, 2)])),
]
SEPARATION_CALLS = [
    ("contains", None),
    ("intersect", None),
    ("within_distance", 1.0),
    ("within_distance", 15.0),
]

#: The stage-1 memo key with the refine op, or the distance, left out.
KEY_MUTANTS = {
    "no_op": (
        "keys = [(op, a.digest, b.digest, distance) for _, a, b in items]",
        "keys = [(a.digest, b.digest, distance) for _, a, b in items]",
    ),
    "no_distance": (
        "keys = [(op, a.digest, b.digest, distance) for _, a, b in items]",
        "keys = [(op, a.digest, b.digest) for _, a, b in items]",
    ),
}


def _separation_mismatches(off, on):
    """The calls of :data:`SEPARATION_CALLS`, one after another on both
    engines, whose answers or running stats differ."""
    mismatches = []
    for op, d in SEPARATION_CALLS:
        answers = [engine.refine(op, SEPARATION_ITEMS, d) for engine in (off, on)]
        if answers[0] != answers[1] or off.stats != on.stats:
            mismatches.append((op, d, answers))
    return mismatches


class TestMemoizedPrefilter:
    """Stage 1 memoizes its answer with the ``pip_edges`` it charged."""

    @pytest.mark.parametrize("pipeline", [_selection, _join, _within_distance])
    def test_warm_repeat_locates_no_point_and_counts_the_same(
        self, pipeline, monkeypatch
    ):
        run = pipeline(_layers())
        off, on = engine_pair(resolution=16)
        calls = _spy_point_location(monkeypatch)
        cold = run(on)
        assert "locate_xy" in calls  # the spy sees the prefilter
        on.reset_stats()
        del calls[:]
        registry_on, registry_off = MetricsRegistry(), MetricsRegistry()
        with use_registry(registry_on):
            warm = run(on)
        assert calls == []
        with use_registry(registry_off):
            fresh = run(off)
        assert warm == cold == fresh
        assert on.stats == off.stats
        assert on.stats.pip_edges > 0
        assert funnels_from_snapshot(registry_on.snapshot()) == funnels_from_snapshot(
            registry_off.snapshot()
        )
        assert registry_on.snapshot()["counters"][
            "cache_hits{cache=predicate,op=pip}"
        ] > 0

    def test_ops_and_distances_keep_their_own_entries(self):
        off, on = engine_pair()
        assert _separation_mismatches(off, on) == []
        pip = [slot for slot in on.caches.predicate.table._entries if slot[0] == "pip"]
        assert len(pip) == len(SEPARATION_CALLS) * len(SEPARATION_ITEMS)

    @pytest.mark.parametrize("name", sorted(KEY_MUTANTS))
    def test_key_mutant_is_killed(self, name, monkeypatch):
        edited = mutant(refine_module, *KEY_MUTANTS[name])
        monkeypatch.setattr(engine_module, "refine_items", edited.refine_items)
        off, on = engine_pair()
        assert _separation_mismatches(off, on) != []
