"""Determinism and merge tests for the parallel batch executor.

The load-bearing property: a parallel run is *indistinguishable* from a
serial run - identical result pairs, identical RefinementStats, identical
sweep/minDist work counters, identical GPU primitive counters.  Timings are
the only thing allowed to differ.
"""

import json
import pickle

import pytest

from repro.bench.experiments import per_pair_engine
from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.exec import EngineSpec, ParallelExecutor
from repro.geometry import Polygon
from repro.obs import (
    CommandRecorder,
    JsonLinesExporter,
    Tracer,
    current_scope,
    replay_events,
    use_recorder,
    use_tracer,
)
from repro.query import (
    IntersectionJoin,
    IntersectionSelection,
    WithinDistanceJoin,
)

ENGINES = {
    "software": lambda: SoftwareEngine(),
    "hardware": lambda: HardwareEngine(HardwareConfig(resolution=8)),
}


def make_executor() -> ParallelExecutor:
    # min_inline_items=1 forces the pool path even on tiny workloads so the
    # tests exercise real worker processes.
    return ParallelExecutor(workers=2, min_inline_items=1)


#: GPU counters that count *per-primitive* work: invariant under both
#: sharding and tile batching.  The submission-side counters (draw calls,
#: clears, accum/minmax ops, tile batches) count fixed per-submission
#: overhead, which legitimately depends on how pairs fall into atlas
#: sub-batches - and sharding moves those boundaries.
PER_PRIMITIVE_COUNTERS = (
    "edges_rendered",
    "edges_clipped_away",
    "pixels_written",
    "tiles_packed",
    "distance_field_pixels",
    "readback_ops",
    "pixels_transferred",
)


def assert_engines_identical(serial, parallel):
    assert serial.stats == parallel.stats
    assert serial.sweep_stats == parallel.sweep_stats
    assert serial.mindist_stats == parallel.mindist_stats
    if isinstance(serial, HardwareEngine):
        for field in PER_PRIMITIVE_COUNTERS:
            assert getattr(serial.gpu_counters, field) == getattr(
                parallel.gpu_counters, field
            ), field


class TestGeometryPickling:
    def test_polygon_round_trips(self):
        poly = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        clone = pickle.loads(pickle.dumps(poly))
        assert clone == poly
        assert clone.mbr == poly.mbr


class TestEngineSpec:
    def test_software_round_trip(self):
        spec = EngineSpec.for_engine(SoftwareEngine(restrict_search_space=False))
        rebuilt = spec.build()
        assert isinstance(rebuilt, SoftwareEngine)
        assert rebuilt.restrict_search_space is False

    def test_hardware_round_trip(self):
        config = HardwareConfig(resolution=16, sw_threshold=12)
        engine = HardwareEngine(config)
        rebuilt = EngineSpec.for_engine(engine).build()
        assert isinstance(rebuilt, HardwareEngine)
        # The cache choice rides inside the config, so the rebuilt worker
        # engine cannot disagree with the coordinator's.
        assert rebuilt.config == engine.config
        assert rebuilt.config.cache == engine.config.cache
        assert rebuilt.config.resolution == config.resolution
        assert rebuilt.config.sw_threshold == config.sw_threshold

    def test_software_spec_carries_resolved_cache(self):
        from repro.cache import CacheConfig

        engine = SoftwareEngine(cache=CacheConfig())
        spec = EngineSpec.for_engine(engine)
        assert spec.cache == CacheConfig()
        rebuilt = spec.build()
        assert rebuilt.cache_config == CacheConfig()

    def test_unknown_engine_rejected(self):
        with pytest.raises(TypeError):
            EngineSpec.for_engine(object())


class TestExecutorValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    def test_bad_op(self):
        with ParallelExecutor(workers=1) as ex:
            with pytest.raises(ValueError):
                ex.refine_pairs(SoftwareEngine(), "teleport", [])

    def test_within_distance_requires_distance(self):
        with ParallelExecutor(workers=1) as ex:
            with pytest.raises(ValueError):
                ex.refine_pairs(SoftwareEngine(), "within_distance", [])

    def test_empty_batch(self):
        with make_executor() as ex:
            assert ex.refine_pairs(SoftwareEngine(), "intersect", []) == []


@pytest.mark.parametrize("engine_kind", ["software", "hardware"])
class TestDeterminism:
    """Parallel == serial for all three query classes, both engines."""

    def test_intersection_join(self, dataset_a, dataset_b, engine_kind):
        e_serial = ENGINES[engine_kind]()
        e_parallel = ENGINES[engine_kind]()
        serial = IntersectionJoin(dataset_a, dataset_b, e_serial).run()
        with make_executor() as ex:
            parallel = IntersectionJoin(
                dataset_a, dataset_b, e_parallel, executor=ex
            ).run()
            assert ex.last_report.shards > 1  # the pool really ran
        assert parallel.pairs == serial.pairs
        assert parallel.cost.pairs_compared == serial.cost.pairs_compared
        assert parallel.cost.results == serial.cost.results
        assert_engines_identical(e_serial, e_parallel)

    def test_within_distance_join(self, dataset_a, dataset_b, engine_kind):
        d = 2.0
        e_serial = ENGINES[engine_kind]()
        e_parallel = ENGINES[engine_kind]()
        serial = WithinDistanceJoin(dataset_a, dataset_b, e_serial).run(d)
        with make_executor() as ex:
            parallel = WithinDistanceJoin(
                dataset_a, dataset_b, e_parallel, executor=ex
            ).run(d)
        assert parallel.pairs == serial.pairs
        assert parallel.cost.pairs_compared == serial.cost.pairs_compared
        assert parallel.cost.filter_positives == serial.cost.filter_positives
        assert_engines_identical(e_serial, e_parallel)

    def test_intersection_selection(self, dataset_a, dataset_b, engine_kind):
        query = dataset_a.polygons[0]
        e_serial = ENGINES[engine_kind]()
        e_parallel = ENGINES[engine_kind]()
        serial = IntersectionSelection(dataset_b, e_serial).run(query)
        with make_executor() as ex:
            parallel = IntersectionSelection(
                dataset_b, e_parallel, executor=ex
            ).run(query)
        assert parallel.ids == serial.ids
        assert parallel.cost.pairs_compared == serial.cost.pairs_compared
        assert_engines_identical(e_serial, e_parallel)


class TestInlineFallback:
    def test_single_worker_runs_inline_on_callers_engine(
        self, dataset_a, dataset_b
    ):
        e_serial = SoftwareEngine()
        e_inline = SoftwareEngine()
        serial = IntersectionJoin(dataset_a, dataset_b, e_serial).run()
        with ParallelExecutor(workers=1) as ex:
            inline = IntersectionJoin(
                dataset_a, dataset_b, e_inline, executor=ex
            ).run()
            assert ex.last_report.shards == 1
        assert inline.pairs == serial.pairs
        assert_engines_identical(e_serial, e_inline)

    def test_small_batches_stay_inline(self):
        square = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        shifted = Polygon.from_coords([(2, 2), (6, 2), (6, 6), (2, 6)])
        with ParallelExecutor(workers=4, min_inline_items=32) as ex:
            matches = ex.refine_pairs(
                SoftwareEngine(), "intersect", [(("p", 0), square, shifted)]
            )
            assert matches == [("p", 0)]
            assert ex._pool is None  # no pool was ever spawned


class TestShardTracing:
    def test_shard_spans_parent_to_stage_span(self, dataset_a, dataset_b):
        tracer = Tracer()
        engine = SoftwareEngine()
        with make_executor() as ex, use_tracer(tracer):
            IntersectionJoin(dataset_a, dataset_b, engine, executor=ex).run()
        stage_spans = {s.span_id: s for s in tracer.find("geometry")}
        shard_spans = tracer.find("geometry.shard")
        assert len(shard_spans) == ex.reports[-1].shards
        assert shard_spans
        for span in shard_spans:
            assert span.parent_id in stage_spans
            assert span.duration_s >= 0.0
            assert "pairs" in span.attributes
        # Every pipeline stage that ran is covered by a span.
        names = {s.name for s in tracer.spans}
        assert {"mbr_filter", "geometry"} <= names

    def test_workers_do_not_write_into_the_coordinators_trace(
        self, tmp_path, dataset_a, dataset_b
    ):
        # A fork-started worker inherits the coordinator's scope, tracer
        # and exporter file handle included; the shard must run blank.
        path = tmp_path / "spans.jsonl"
        engine = HardwareEngine(HardwareConfig(resolution=8))
        with JsonLinesExporter(str(path)) as exporter:
            tracer = Tracer(exporter=exporter)
            with make_executor() as ex, use_tracer(tracer):
                IntersectionJoin(
                    dataset_a, dataset_b, engine, executor=ex
                ).run()
        assert ex.reports[-1].shards > 1
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(tracer.spans)
        ids = {line["span_id"] for line in lines}
        assert len(ids) == len(lines)
        assert all(
            line["parent_id"] is None or line["parent_id"] in ids
            for line in lines
        )
        assert not {"gpu.tile_batch", "geometry.hw_batch"} & {
            line["name"] for line in lines
        }

    def test_executor_reports(self, dataset_a, dataset_b):
        engine = SoftwareEngine()
        with make_executor() as ex:
            result = IntersectionJoin(
                dataset_a, dataset_b, engine, executor=ex
            ).run()
            report = ex.last_report
        assert report.pairs == result.cost.pairs_compared
        assert len(result.pairs) == len(report.matches)
        assert report.worker_seconds > 0.0


class TestPoolReuse:
    def test_pool_rebuilds_on_engine_change(self, dataset_a, dataset_b):
        with make_executor() as ex:
            IntersectionJoin(
                dataset_a, dataset_b, SoftwareEngine(), executor=ex
            ).run()
            first_pool = ex._pool
            IntersectionJoin(
                dataset_a, dataset_b, SoftwareEngine(), executor=ex
            ).run()
            assert ex._pool is first_pool  # same spec: pool reused
            IntersectionJoin(
                dataset_a, dataset_b, HardwareEngine(), executor=ex
            ).run()
            assert ex._pool is not first_pool  # spec changed: rebuilt


class TestShardCapture:
    """Per-shard flight-recorder captures merge into one replayable stream."""

    def capture_join(self, dataset_a, dataset_b, workers=2):
        recorder = CommandRecorder()
        engine = HardwareEngine(HardwareConfig(resolution=8))
        with ParallelExecutor(
            workers=workers, min_inline_items=1
        ) as ex, use_recorder(recorder):
            IntersectionJoin(dataset_a, dataset_b, engine, executor=ex).run()
            shards = ex.last_report.shards
        return recorder, shards

    def test_shard_captures_merge_and_replay(self, dataset_a, dataset_b):
        recorder, shards = self.capture_join(dataset_a, dataset_b)
        assert shards > 1  # the pool really ran
        origins = {e["origin"] for e in recorder.events if "origin" in e}
        assert origins == {f"shard{k}" for k in range(shards)}
        # Merged pids are contiguous and first-seen ordered.
        pids = []
        for event in recorder.events:
            pid = event.get("pid")
            if pid is not None and pid not in pids:
                pids.append(pid)
        assert pids == [f"p{i}" for i in range(len(pids))]
        replay_events(recorder.events).assert_ok()

    def test_shard_capture_deterministic(self, dataset_a, dataset_b):
        first, _ = self.capture_join(dataset_a, dataset_b)
        second, _ = self.capture_join(dataset_a, dataset_b)
        assert first.events == second.events

    def test_inline_executor_records_into_callers_recorder(
        self, dataset_a, dataset_b
    ):
        recorder = CommandRecorder()
        engine = HardwareEngine(HardwareConfig(resolution=8))
        with ParallelExecutor(workers=1) as ex, use_recorder(recorder):
            IntersectionJoin(dataset_a, dataset_b, engine, executor=ex).run()
        assert recorder.events
        # Inline path records directly: no shard provenance tags.
        assert not any("origin" in e for e in recorder.events)
        replay_events(recorder.events).assert_ok()

    def test_no_recorder_no_capture_shipping(self, dataset_a, dataset_b):
        engine = HardwareEngine(HardwareConfig(resolution=8))
        with make_executor() as ex:
            IntersectionJoin(dataset_a, dataset_b, engine, executor=ex).run()
        # Nothing installed: the coordinator recorder stays absent and the
        # run is indistinguishable from the pre-capture executor.
        assert current_scope().recorder is None


class TestBatchedShards:
    """Hardware shards run the tiled batched path inside each worker."""

    def test_workers_batch_and_match_per_pair_loop(self, dataset_a, dataset_b):
        # Reference: the paper-literal tester, one submission per pair.
        e_loop = per_pair_engine(HardwareConfig())
        loop = IntersectionJoin(dataset_a, dataset_b, e_loop).run()
        e_parallel = HardwareEngine()
        with make_executor() as ex:
            parallel = IntersectionJoin(
                dataset_a, dataset_b, e_parallel, executor=ex
            ).run()
        assert parallel.pairs == loop.pairs
        assert e_parallel.stats == e_loop.stats
        assert e_parallel.sweep_stats == e_loop.sweep_stats
        # The merged counters prove every shard used the atlas path while
        # per-primitive totals stayed identical to the per-pair loop.
        assert e_parallel.gpu_counters.tile_batches > 0
        assert e_loop.gpu_counters.tile_batches == 0
        assert (
            e_parallel.gpu_counters.edges_rendered
            == e_loop.gpu_counters.edges_rendered
        )
        assert (
            e_parallel.gpu_counters.pixels_written
            == e_loop.gpu_counters.pixels_written
        )
        assert (
            e_parallel.gpu_counters.draw_calls
            < e_loop.gpu_counters.draw_calls
        )

    def test_inline_executor_batches_too(self, dataset_a, dataset_b):
        engine = HardwareEngine()
        with ParallelExecutor(workers=1) as ex:
            IntersectionJoin(dataset_a, dataset_b, engine, executor=ex).run()
        assert engine.gpu_counters.tile_batches > 0

    def test_hw_batch_spans_recorded(self, dataset_a, dataset_b):
        tracer = Tracer()
        engine = HardwareEngine()
        with ParallelExecutor(workers=1) as ex, use_tracer(tracer):
            IntersectionJoin(dataset_a, dataset_b, engine, executor=ex).run()
        batch_spans = tracer.find("geometry.hw_batch")
        tile_spans = tracer.find("gpu.tile_batch")
        assert batch_spans and tile_spans
        assert all(s.attributes["pairs"] > 0 for s in batch_spans)
        assert all(s.attributes["tiles"] > 0 for s in tile_spans)
