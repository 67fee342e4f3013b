"""One refinement path: how a candidate list is cut into calls never matters.

``engine.refine`` packs every hardware-bound pair of a call into one atlas
submission.  That changes *how many* hardware submissions happen, never a
verdict, a matched key, or a statistics counter: one call over N items,
N one-item calls (what the per-pair predicates are), and the paper-literal
per-pair tester (:func:`repro.bench.experiments.per_pair_engine`) all
agree - for every overlap method, for all three predicates, on both
engines, and through the query pipeline.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import per_pair_engine
from repro.core import (
    OPS,
    OVERLAP_METHODS,
    HardwareConfig,
    HardwareEngine,
    HardwareSegmentTest,
    RefinementStats,
    SoftwareEngine,
    intersection_window,
    refine_items,
)
from repro.core.projection import distance_window
from repro.datasets import (
    GeneratorConfig,
    SpatialDataset,
    VertexCountModel,
    generate_layer,
)
from repro.geometry import MinDistStats, Polygon, Rect, SweepStats
from repro.query import IntersectionSelection
from tests.strategies import polygon_pairs_nearby

DISTANCE = 1.5

#: Counters of per-primitive work (as opposed to per-submission overhead):
#: identical however the pairs are batched.
PER_PRIMITIVE_COUNTERS = ("edges_rendered", "edges_clipped_away", "pixels_written")


def pair_lists(min_size=1, max_size=12):
    return st.lists(polygon_pairs_nearby(), min_size=min_size, max_size=max_size)


def windowed(pairs):
    """(a, b, window) triples for the pairs whose MBRs interact."""
    out = []
    for a, b in pairs:
        w = intersection_window(a.mbr, b.mbr)
        if w is not None:
            out.append((a, b, w))
    return out


class TestVerdictEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(pair_lists(), st.sampled_from(OVERLAP_METHODS))
    def test_intersection_batch_matches_serial(self, pairs, method):
        config = HardwareConfig(resolution=8, method=method)
        triples = windowed(pairs)
        serial = [
            HardwareSegmentTest(config).intersection_verdict(a, b, w)
            for a, b, w in triples
        ]
        batched = HardwareSegmentTest(config).intersection_verdicts_batch(
            triples
        )
        assert batched == serial

    @settings(max_examples=20, deadline=None)
    @given(pair_lists(), st.sampled_from(OVERLAP_METHODS))
    def test_distance_batch_matches_serial(self, pairs, method):
        config = HardwareConfig(resolution=8, method=method)
        triples = [
            (a, b, distance_window(a.mbr, b.mbr, DISTANCE)) for a, b in pairs
        ]
        serial = [
            HardwareSegmentTest(config).distance_verdict(a, b, w, DISTANCE)
            for a, b, w in triples
        ]
        batched = HardwareSegmentTest(config).distance_verdicts_batch(
            triples, DISTANCE
        )
        assert batched == serial

    def test_empty_batches(self):
        hw = HardwareSegmentTest(HardwareConfig())
        assert hw.intersection_verdicts_batch([]) == []
        assert hw.distance_verdicts_batch([], 1.0) == []

    def test_negative_distance_rejected(self):
        hw = HardwareSegmentTest(HardwareConfig())
        with pytest.raises(ValueError):
            hw.distance_verdicts_batch([], -1.0)


def serial_keys(engine, op, items, distance):
    """N one-item refine calls: the per-pair predicates, in item order."""
    if op == "intersect":
        return [k for k, a, b in items if engine.polygons_intersect(a, b)]
    if op == "within_distance":
        return [k for k, a, b in items if engine.within_distance(a, b, distance)]
    return [k for k, a, b in items if engine.contains_properly(a, b)]


def assert_same_work(got, expected, counters=PER_PRIMITIVE_COUNTERS):
    assert got.stats == expected.stats
    assert got.sweep_stats == expected.sweep_stats
    assert got.mindist_stats == expected.mindist_stats
    if isinstance(got, HardwareEngine):
        for name in counters:
            assert getattr(got.gpu_counters, name) == getattr(
                expected.gpu_counters, name
            ), name


def giant_and_small_pairs():
    """One 6 000-vertex ring against 40 small polygons inside its MBR, most
    of them near its boundary: the join-against-a-giant-feature shape, where
    nearly every submitted edge lies outside the pair's window."""
    rng = np.random.default_rng(19)
    angles = np.linspace(0.0, 2.0 * np.pi, 6000, endpoint=False)
    radii = 20.0 + 2.0 * np.sin(9.0 * angles) + 0.2 * np.sin(301.0 * angles)
    giant = Polygon(np.column_stack((radii * np.cos(angles), radii * np.sin(angles))))
    pairs = []
    for k in range(40):
        if k % 4 == 0:
            cx, cy = rng.uniform(-21.0, 21.0, 2)
        else:
            rho, phi = rng.uniform(17.0, 23.0), rng.uniform(0.0, 2.0 * np.pi)
            cx, cy = rho * np.cos(phi), rho * np.sin(phi)
        n = int(rng.integers(5, 12))
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        r = rng.uniform(0.3, 1.5, n)
        small = Polygon(np.column_stack((cx + r * np.cos(theta), cy + r * np.sin(theta))))
        pairs.append((giant, small))
    return pairs


class TestOneRefinementPath:
    @settings(max_examples=60, deadline=None)
    @given(
        pair_lists(max_size=8),
        st.sampled_from(OPS),
        st.sampled_from(OVERLAP_METHODS),
    )
    def test_one_call_equals_one_item_calls_equals_per_pair_tester(
        self, pairs, op, method
    ):
        self.check(pairs, op, method)

    @pytest.mark.parametrize("op", OPS)
    def test_giant_feature_against_many_small_ones(self, op):
        engine = self.check(giant_and_small_pairs(), op, "accum")
        assert engine.stats.hw_tests >= 12
        counters = engine.gpu_counters
        assert counters.edges_clipped_away > 10 * counters.edges_rendered > 0

    @staticmethod
    def check(pairs, op, method):
        items = [((k,), a, b) for k, (a, b) in enumerate(pairs)]
        config = HardwareConfig(resolution=8, method=method)
        whole, one_by_one = HardwareEngine(config), HardwareEngine(config)
        reference = per_pair_engine(config)
        keys = whole.refine(op, items, distance=DISTANCE)
        assert serial_keys(one_by_one, op, items, DISTANCE) == keys
        assert reference.refine(op, items, distance=DISTANCE) == keys
        assert_same_work(one_by_one, whole)
        # The atlas accumulates, so it writes the per-pair accum test's
        # pixels; the depth/stencil mechanisms discard fragments per pair.
        assert_same_work(
            reference,
            whole,
            PER_PRIMITIVE_COUNTERS
            if method == "accum"
            else ("edges_rendered", "edges_clipped_away"),
        )
        assert reference.gpu_counters.tile_batches == 0

        sw_whole, sw_one_by_one = SoftwareEngine(), SoftwareEngine()
        assert sw_whole.refine(op, items, distance=DISTANCE) == keys
        assert serial_keys(sw_one_by_one, op, items, DISTANCE) == keys
        assert_same_work(sw_one_by_one, sw_whole)
        return whole


class TestEngineBatchEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(pair_lists(max_size=10), st.sampled_from(OPS))
    def test_refine_batch_matches_serial(self, pairs, op):
        items = [((k,), a, b) for k, (a, b) in enumerate(pairs)]
        serial_engine = HardwareEngine()
        batch_engine = HardwareEngine()
        expected = serial_keys(serial_engine, op, items, DISTANCE)
        got = batch_engine.refine(op, items, distance=DISTANCE)
        assert got == expected
        assert batch_engine.stats == serial_engine.stats
        assert batch_engine.sweep_stats == serial_engine.sweep_stats
        assert batch_engine.mindist_stats == serial_engine.mindist_stats

    @settings(max_examples=10, deadline=None)
    @given(pair_lists(max_size=8))
    def test_sw_threshold_split_is_preserved(self, pairs):
        # With a mid-range sw_threshold some pairs bypass the hardware;
        # batching must reproduce the exact same split and totals.
        config = HardwareConfig(resolution=8, sw_threshold=24)
        items = [((k,), a, b) for k, (a, b) in enumerate(pairs)]
        serial_engine = HardwareEngine(config)
        batch_engine = HardwareEngine(config)
        expected = serial_keys(serial_engine, "intersect", items, None)
        got = batch_engine.refine("intersect", items)
        assert got == expected
        assert batch_engine.stats == serial_engine.stats

    def test_unknown_op_rejected(self):
        for engine in (SoftwareEngine(), HardwareEngine()):
            with pytest.raises(ValueError):
                engine.refine("union", [])

    def test_within_distance_requires_distance(self):
        for engine in (SoftwareEngine(), HardwareEngine()):
            with pytest.raises(ValueError):
                engine.refine("within_distance", [])

    def test_refine_batch_per_pixel_counters_match_serial(self):
        ds_a, ds_b = _layers()
        items = [
            ((i, j), a, b)
            for i, a in enumerate(ds_a.polygons)
            for j, b in enumerate(ds_b.polygons)
            if a.mbr.intersects(b.mbr)
        ]
        serial_engine = per_pair_engine(HardwareConfig())
        batch_engine = HardwareEngine()
        serial_engine.refine("intersect", items)
        batch_engine.refine("intersect", items)
        s, b = serial_engine.gpu_counters, batch_engine.gpu_counters
        # Per-primitive work is identical; only submission counts shrink.
        assert b.edges_rendered == s.edges_rendered
        assert b.edges_clipped_away == s.edges_clipped_away
        assert b.pixels_written == s.pixels_written
        assert b.draw_calls < s.draw_calls
        assert b.tile_batches > 0
        assert s.tile_batches == 0


def _layers(count_a=40, count_b=50):
    world = Rect(0.0, 0.0, 60.0, 60.0)
    shared = dict(
        world=world,
        vertex_model=VertexCountModel(vmin=4, vmax=40, mean=12.0),
        coverage=1.3,
        cluster_count=4,
        cluster_spread=0.2,
        roughness=0.3,
    )
    layer_a = generate_layer(GeneratorConfig(count=count_a, **shared), seed=101)
    layer_b = generate_layer(GeneratorConfig(count=count_b, **shared), seed=202)
    return (
        SpatialDataset("A", layer_a, world=world),
        SpatialDataset("B", layer_b, world=world),
    )


class TestPipelineBatchEquivalence:
    def test_selection_batched_matches_serial(self):
        ds, queries_ds = _layers()
        queries = queries_ds.polygons[:6]
        serial_engine = per_pair_engine(HardwareConfig())
        batch_engine = HardwareEngine()
        serial = IntersectionSelection(ds, serial_engine)
        batched = IntersectionSelection(ds, batch_engine)
        for q in queries:
            res_serial = serial.run(q)
            res_batched = batched.run(q)
            assert res_batched.ids == res_serial.ids
            assert res_batched.cost.pairs_compared == res_serial.cost.pairs_compared
        assert batch_engine.stats == serial_engine.stats
        assert batch_engine.sweep_stats == serial_engine.sweep_stats
        assert serial_engine.gpu_counters.tile_batches == 0

    def test_software_engine_takes_whole_batches(self):
        ds, queries_ds = _layers(count_a=20, count_b=20)
        engine = SoftwareEngine()
        sel = IntersectionSelection(ds, engine)
        res = sel.run(queries_ds.polygons[0])
        assert res.cost.pairs_compared == res.cost.candidates_after_mbr
        assert engine.stats.pairs_tested == res.cost.pairs_compared

    def test_refine_items_matches_engine(self):
        ds_a, ds_b = _layers(count_a=10, count_b=10)
        hw = HardwareSegmentTest(HardwareConfig())
        items = [
            ((i, j), a, b)
            for i, a in enumerate(ds_a.polygons)
            for j, b in enumerate(ds_b.polygons)
        ]
        keys = refine_items(
            "intersect", items, None, hw,
            RefinementStats(), SweepStats(), MinDistStats(),
        )
        engine = HardwareEngine()
        expected = serial_keys(engine, "intersect", items, None)
        assert keys == expected


class TestStatsComparability:
    def test_stats_are_dataclasses_with_eq(self):
        # The equivalence assertions above rely on field-wise equality.
        engine = HardwareEngine()
        assert dataclasses.is_dataclass(engine.stats)
