"""End-to-end instrumentation tests: pipelines publishing into a registry.

The load-bearing guarantee: per-pair metric families are *bit-identical*
between a serial (per-pair) run and a batched run of the same workload.
Batch-shape families (``tiles_per_batch``, ``atlas_occupancy``,
submission-side ``gpu`` counters) are excluded - they legitimately depend on how the candidate list is sliced.
"""

import pytest

from repro.bench.experiments import per_pair_engine
from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.core.hardware_test import HardwareSegmentTest, HardwareVerdict
from repro.geometry import Rect
from repro.obs.instrument import observe_pipeline
from repro.obs import MetricsRegistry, use_registry
from repro.query import IntersectionJoin, IntersectionSelection

#: Families whose totals must not depend on batching.
DETERMINISTIC_COUNTER_FAMILIES = (
    "hw_verdicts",
    "refinement",
    "funnel",
)
DETERMINISTIC_HISTOGRAM_FAMILIES = (
    "hw_test_edges",
    "candidates_after_mbr",
    "pairs_compared",
)


def hw_engine():
    return HardwareEngine(HardwareConfig(resolution=8))


def per_pair_hw_engine():
    """The "serial" reference: one hardware submission per pair."""
    return per_pair_engine(HardwareConfig(resolution=8))


def deterministic_view(snapshot):
    """The snapshot restricted to the batching-invariant families."""

    def keep(key, families):
        return key.split("{")[0] in families

    return {
        "counters": {
            k: v
            for k, v in snapshot["counters"].items()
            if keep(k, DETERMINISTIC_COUNTER_FAMILIES)
        },
        "histograms": {
            k: v
            for k, v in snapshot["histograms"].items()
            if keep(k, DETERMINISTIC_HISTOGRAM_FAMILIES)
        },
    }


def run_join(dataset_a, dataset_b, engine):
    registry = MetricsRegistry()
    with use_registry(registry):
        result = IntersectionJoin(dataset_a, dataset_b, engine).run()
    return result, registry.snapshot()


class TestZeroOverheadDefault:
    def test_no_registry_no_observer(self):
        assert observe_pipeline("join", SoftwareEngine()) is None

    def test_pipelines_untouched_without_registry(self, dataset_a, dataset_b):
        res = IntersectionJoin(dataset_a, dataset_b, SoftwareEngine()).run()
        assert res.pairs  # plain run, no registry anywhere


class TestPipelineFamilies:
    def test_join_publishes_expected_families(self, dataset_a, dataset_b):
        engine = hw_engine()
        result, snap = run_join(dataset_a, dataset_b, engine)
        counters = snap["counters"]
        assert (
            counters["funnel{pipeline=join,stage=refined}"]
            == result.cost.pairs_compared
        )
        assert counters["funnel{pipeline=join,stage=results}"] == len(result.pairs)
        assert counters["refinement{field=hw_tests}"] == engine.stats.hw_tests
        assert counters["gpu{counter=draw_calls}"] > 0
        # Each count is published once: no family restates another.
        assert {k.partition("{")[0] for k in counters} == {
            "funnel",
            "gpu",
            "hw_verdicts",
            "refinement",
        }
        # One run, one observation per distribution.
        assert snap["histograms"]["candidates_after_mbr{pipeline=join}"]["count"] == 1
        assert snap["histograms"]["pairs_compared{pipeline=join}"]["count"] == 1
        assert (
            snap["histograms"]["candidates_after_mbr{pipeline=join}"]["sum"]
            == result.cost.candidates_after_mbr
        )

    def test_stage_timings_match_cost_breakdown(self, dataset_a, dataset_b):
        result, snap = run_join(dataset_a, dataset_b, SoftwareEngine())
        hists = snap["histograms"]
        assert hists["stage_duration_s{stage=mbr_filter}"]["sum"] == pytest.approx(
            result.cost.mbr_filter_s
        )
        assert hists["stage_duration_s{stage=geometry}"]["sum"] == pytest.approx(
            result.cost.geometry_s
        )
        assert hists["stage_duration_s{stage=geometry}"]["count"] == 1

    def test_observer_publishes_deltas_not_cumulative(self, dataset_a):
        # One long-lived engine across two runs: each run's entry must carry
        # only its own work, so two identical runs double the counter.
        engine = hw_engine()
        selection = IntersectionSelection(dataset_a, engine)
        query = dataset_a.polygons[0]
        registry = MetricsRegistry()
        with use_registry(registry):
            selection.run(query)
        once = registry.snapshot()["counters"]["refinement{field=pairs_tested}"]
        registry2 = MetricsRegistry()
        with use_registry(registry2):
            selection.run(query)
            selection.run(query)
        twice = registry2.snapshot()["counters"]["refinement{field=pairs_tested}"]
        assert twice == 2 * once

    def test_verdict_counts_match_engine_stats(self, dataset_a, dataset_b):
        engine = hw_engine()
        _, snap = run_join(dataset_a, dataset_b, engine)
        counters = snap["counters"]
        verdicts = sum(
            v for k, v in counters.items() if k.startswith("hw_verdicts{")
        )
        assert verdicts == engine.stats.hw_tests

    def test_tiled_batch_shape_metrics(self, dataset_a, dataset_b):
        engine = hw_engine()
        _, snap = run_join(dataset_a, dataset_b, engine)
        tiles = snap["histograms"]["tiles_per_batch"]
        assert tiles["count"] == snap["counters"]["gpu{counter=tile_batches}"]
        assert tiles["sum"] == snap["counters"]["gpu{counter=tiles_packed}"]
        occupancy = snap["histograms"]["atlas_occupancy"]
        assert occupancy["count"] == tiles["count"]
        assert 0.0 < occupancy["max"] <= 1.0


class TestHardwareTestMetrics:
    def test_serial_records_durations(self, dataset_a, dataset_b):
        registry = MetricsRegistry()
        with use_registry(registry):
            IntersectionJoin(dataset_a, dataset_b, per_pair_hw_engine()).run()
        snap = registry.snapshot()
        hist = snap["histograms"]["hw_test_duration_s{method=accum,op=intersect}"]
        assert hist["count"] > 0
        assert hist["count"] == sum(
            v
            for k, v in snap["counters"].items()
            if k.startswith("hw_verdicts{op=intersect")
        )

    def test_unsupported_distance_recorded_without_duration(self):
        test = HardwareSegmentTest(HardwareConfig(resolution=8))
        a = _triangle(0.0, 0.0)
        b = _triangle(5.0, 0.0)
        window = Rect(0.0, 0.0, 10.0, 10.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            verdict = test.distance_verdict(a, b, window, d=1000.0)
        assert verdict is HardwareVerdict.UNSUPPORTED
        snap = registry.snapshot()
        key = "hw_verdicts{op=within_distance,verdict=unsupported}"
        assert snap["counters"][key] == 1
        assert "hw_test_duration_s{method=accum,op=within_distance}" not in (
            snap["histograms"]
        )
        assert snap["histograms"]["hw_test_edges{op=within_distance}"]["count"] == 1

    def test_delegation_records_once(self):
        # d=0 delegates to the intersection test: one verdict, op=intersect.
        test = HardwareSegmentTest(HardwareConfig(resolution=8))
        a = _triangle(0.0, 0.0)
        b = _triangle(1.0, 0.0)
        window = Rect(0.0, 0.0, 10.0, 10.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            test.distance_verdict(a, b, window, d=0.0)
        counters = registry.snapshot()["counters"]
        assert sum(counters.values()) == 1
        (key,) = counters
        assert key.startswith("hw_verdicts{op=intersect")


class TestDistanceFieldObservation:
    """Regression: every distance-field entry point is observed exactly
    once per pair - the field verdict must never bypass the per-pair
    accounting, whichever API level invoked it."""

    def setup_method(self):
        self.a = _triangle(0.0, 0.0)
        self.b = _triangle(2.0, 0.0)
        self.window = Rect(0.0, 0.0, 10.0, 10.0)

    @staticmethod
    def verdict_total(snap):
        return sum(
            v
            for k, v in snap["counters"].items()
            if k.startswith("hw_verdicts{")
        )

    def test_direct_field_verdict_records_once(self):
        test = HardwareSegmentTest(HardwareConfig(resolution=8))
        registry = MetricsRegistry()
        with use_registry(registry):
            test.distance_field_verdict(self.a, self.b, self.window, d=1.0)
        snap = registry.snapshot()
        assert self.verdict_total(snap) == 1
        hist = snap["histograms"]
        assert hist["hw_test_duration_s{method=field,op=within_distance}"][
            "count"
        ] == 1
        assert hist["hw_test_edges{op=within_distance}"]["count"] == 1

    def test_field_mode_distance_verdict_records_once(self):
        # distance_verdict delegates to the field test; the observation
        # must happen in the delegate, once, not zero or two times.
        test = HardwareSegmentTest(
            HardwareConfig(resolution=8, distance_mode="field")
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            test.distance_verdict(self.a, self.b, self.window, d=1.0)
        snap = registry.snapshot()
        assert self.verdict_total(snap) == 1
        assert snap["histograms"][
            "hw_test_duration_s{method=field,op=within_distance}"
        ]["count"] == 1

    def test_field_mode_batch_records_per_pair(self):
        test = HardwareSegmentTest(
            HardwareConfig(resolution=8, distance_mode="field")
        )
        pairs = [(self.a, self.b, self.window)] * 3
        registry = MetricsRegistry()
        with use_registry(registry):
            verdicts = test.distance_verdicts_batch(pairs, d=1.0)
        assert len(verdicts) == 3
        snap = registry.snapshot()
        assert self.verdict_total(snap) == 3
        assert snap["histograms"]["hw_test_edges{op=within_distance}"][
            "count"
        ] == 3

    def test_field_mode_never_overflows(self):
        # The field test is distance-insensitive: no widened lines, so the
        # overflow counter must stay silent even at extreme distances.
        test = HardwareSegmentTest(
            HardwareConfig(resolution=8, distance_mode="field")
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            verdict = test.distance_verdict(self.a, self.b, self.window, d=1000.0)
        assert verdict is not HardwareVerdict.UNSUPPORTED
        counters = registry.snapshot()["counters"]
        assert not any(
            k.startswith("hw_line_width_overflow{") for k in counters
        )


class TestLineWidthOverflowCounter:
    """The 10px-limit fallback increments its labelled counter (satellite)."""

    def test_per_pair_overflow_counted(self):
        test = HardwareSegmentTest(HardwareConfig(resolution=8))
        a, b = _triangle(0.0, 0.0), _triangle(5.0, 0.0)
        window = Rect(0.0, 0.0, 10.0, 10.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            verdict = test.distance_verdict(a, b, window, d=1000.0)
        assert verdict is HardwareVerdict.UNSUPPORTED
        counters = registry.snapshot()["counters"]
        key = "hw_line_width_overflow{method=accum,op=within_distance}"
        assert counters[key] == 1
        assert counters["hw_verdicts{op=within_distance,verdict=unsupported}"] == 1

    def test_batched_overflow_counted_per_pair(self):
        test = HardwareSegmentTest(HardwareConfig(resolution=8))
        a, b = _triangle(0.0, 0.0), _triangle(5.0, 0.0)
        window = Rect(0.0, 0.0, 10.0, 10.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            verdicts = test.distance_verdicts_batch(
                [(a, b, window)] * 4, d=1000.0
            )
        assert all(v is HardwareVerdict.UNSUPPORTED for v in verdicts)
        counters = registry.snapshot()["counters"]
        key = "hw_line_width_overflow{method=accum,op=within_distance}"
        assert counters[key] == 4

    def test_no_overflow_no_counter(self):
        test = HardwareSegmentTest(HardwareConfig(resolution=8))
        a, b = _triangle(0.0, 0.0), _triangle(1.0, 0.0)
        window = Rect(0.0, 0.0, 10.0, 10.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            test.distance_verdict(a, b, window, d=1.0)
        assert not any(
            k.startswith("hw_line_width_overflow{")
            for k in registry.snapshot()["counters"]
        )


class TestBatchShardInvariance:
    def test_serial_vs_batched_identical(self, dataset_a, dataset_b):
        _, serial = run_join(dataset_a, dataset_b, per_pair_hw_engine())
        _, batched = run_join(dataset_a, dataset_b, hw_engine())
        assert deterministic_view(serial) == deterministic_view(batched)


def _triangle(x: float, y: float):
    from repro.geometry import Polygon

    return Polygon.from_coords([(x, y), (x + 0.5, y), (x + 0.25, y + 0.5)])
