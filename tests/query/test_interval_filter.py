"""The interval second filter must change work, never answers.

The filter sits between the MBR stage and refinement, so every pair it
resolves is a pair the hardware never sees - but resolved pairs must be
resolved *correctly* (the certificates are proofs, property-tested in
``tests/filters/test_intervals.py``) and the surviving UNKNOWN set is
identical by construction across the serial (paper-literal, one hardware
submission per pair) and batched geometry paths.  These tests pin all of
that at the pipeline level:
filter-on result ids equal filter-off ids; with the filter on, the
refinement stats and explain funnels are bit-identical across backends
and overlap methods; the funnel identities stay exact in both
configurations; and the filter actually cuts hardware tests on a join.
"""

import pytest

from repro.bench.experiments import per_pair_engine
from repro.core import OVERLAP_METHODS, HardwareConfig, HardwareEngine
from repro.obs.explain import funnels_from_snapshot
from repro.obs import MetricsRegistry, use_registry
from repro.query import IntersectionJoin, IntersectionSelection
from tests.obs.test_explain import explained

RESOLUTION = 8
LEVEL = 6


def _engine(method="accum", backend="serial"):
    make = per_pair_engine if backend == "serial" else HardwareEngine
    return make(HardwareConfig(resolution=RESOLUTION, method=method))


def _selection_pipeline(dataset, engine, use_intervals):
    return IntersectionSelection(
        dataset,
        engine,
        use_intervals=use_intervals,
        interval_level=LEVEL,
    )


def _join_pipeline(ds_a, ds_b, engine, use_intervals):
    return IntersectionJoin(
        ds_a,
        ds_b,
        engine,
        use_intervals=use_intervals,
        interval_level=LEVEL,
    )


class TestAnswersUnchanged:
    def test_selection_ids_identical(self, dataset_a, dataset_b):
        queries = dataset_b.polygons[:8]
        off = _selection_pipeline(dataset_a, _engine(), False)
        on = _selection_pipeline(dataset_a, _engine(), True)
        for query in queries:
            assert on.run(query).ids == off.run(query).ids

    def test_join_pairs_identical(self, dataset_a, dataset_b):
        off = _join_pipeline(dataset_a, dataset_b, _engine(), False)
        on = _join_pipeline(dataset_a, dataset_b, _engine(), True)
        assert on.run().pairs == off.run().pairs

    def test_join_funnel_identities_both_configs(self, dataset_a, dataset_b):
        for use_intervals in (False, True):
            engine = _engine()
            join = _join_pipeline(
                dataset_a, dataset_b, engine, use_intervals
            )
            _, funnel = explained(join.run)
            assert not funnel.check(), funnel.check()
            if use_intervals:
                assert (
                    funnel.interval_proven_intersecting
                    + funnel.interval_proven_disjoint
                    > 0
                )

    def test_selection_funnel_identities_both_configs(self, dataset_a, dataset_b):
        query = dataset_b.polygons[0]
        for use_intervals in (False, True):
            engine = _engine()
            selection = _selection_pipeline(
                dataset_a, engine, use_intervals
            )
            _, funnel = explained(lambda: selection.run(query))
            assert not funnel.check(), funnel.check()


class TestBackendEquivalence:
    @pytest.mark.parametrize("method", OVERLAP_METHODS)
    def test_join_stats_and_funnels_identical(
        self, dataset_a, dataset_b, method
    ):
        pairs = {}
        stats = {}
        snapshots = {}
        for backend in ("serial", "batched"):
            engine = _engine(method, backend)
            registry = MetricsRegistry()
            join = _join_pipeline(
                dataset_a, dataset_b, engine, True
            )
            with use_registry(registry):
                pairs[backend] = join.run().pairs
            stats[backend] = engine.stats
            snapshots[backend] = registry.snapshot()
        assert pairs["serial"] == pairs["batched"]
        assert stats["serial"] == stats["batched"]
        funnels = {
            backend: funnels_from_snapshot(snap)
            for backend, snap in snapshots.items()
        }
        assert funnels["serial"] == funnels["batched"]

    def test_selection_stats_and_funnels_identical(
        self, dataset_a, dataset_b
    ):
        queries = dataset_b.polygons[:5]
        ids = {}
        stats = {}
        snapshots = {}
        for backend in ("serial", "batched"):
            engine = _engine(backend=backend)
            registry = MetricsRegistry()
            selection = _selection_pipeline(
                dataset_a, engine, True
            )
            with use_registry(registry):
                ids[backend] = [selection.run(q).ids for q in queries]
            stats[backend] = engine.stats
            snapshots[backend] = registry.snapshot()
        assert ids["serial"] == ids["batched"]
        assert stats["serial"] == stats["batched"]
        funnels = {
            backend: funnels_from_snapshot(snap)
            for backend, snap in snapshots.items()
        }
        assert funnels["serial"] == funnels["batched"]


class TestWorkReduction:
    def test_join_hw_tests_drop(self, dataset_a, dataset_b):
        off_engine = _engine()
        _join_pipeline(
            dataset_a, dataset_b, off_engine, False
        ).run()
        on_engine = _engine()
        result = _join_pipeline(
            dataset_a, dataset_b, on_engine, True
        ).run()
        assert on_engine.stats.hw_tests < off_engine.stats.hw_tests
        assert result.cost.interval_hits + result.cost.interval_drops > 0

    def test_interval_costs_zero_when_off(self, dataset_a, dataset_b):
        result = _join_pipeline(
            dataset_a, dataset_b, _engine(), False
        ).run()
        assert result.cost.interval_hits == 0
        assert result.cost.interval_drops == 0
