"""Tests for the intersection-selection pipeline."""

import pytest

from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.geometry import Polygon, polygons_intersect
from repro.query import IntersectionSelection


def reference_ids(dataset, query):
    return sorted(
        i
        for i, poly in enumerate(dataset.polygons)
        if polygons_intersect(query, poly)
    )


@pytest.fixture(scope="module")
def queries(dataset_b):
    """A few dataset-B polygons reused as selection queries."""
    return [dataset_b.polygons[i] for i in (0, 7, 21)]


class TestCorrectness:
    def test_software_engine_matches_reference(self, dataset_a, queries):
        sel = IntersectionSelection(dataset_a, SoftwareEngine())
        for q in queries:
            assert sel.run(q).ids == reference_ids(dataset_a, q)

    def test_hardware_engine_matches_reference(self, dataset_a, queries):
        sel = IntersectionSelection(
            dataset_a, HardwareEngine(HardwareConfig(resolution=8))
        )
        for q in queries:
            assert sel.run(q).ids == reference_ids(dataset_a, q)

    @pytest.mark.parametrize("level", [0, 1, 2, 4])
    def test_interior_filter_level_does_not_change_results(
        self, dataset_a, queries, level
    ):
        sel = IntersectionSelection(
            dataset_a, SoftwareEngine(), interior_level=level
        )
        for q in queries:
            assert sel.run(q).ids == reference_ids(dataset_a, q)

    def test_rejects_negative_interior_level(self, dataset_a):
        with pytest.raises(ValueError):
            IntersectionSelection(dataset_a, SoftwareEngine(), interior_level=-1)

    @pytest.mark.parametrize("level", [13, 2.5, True])
    def test_rejects_interior_level_at_construction(self, dataset_a, level):
        # A level the filter's grid cannot take is refused here, not at
        # the first run(); a bool is not a level.
        with pytest.raises(ValueError, match="interior_level"):
            IntersectionSelection(dataset_a, SoftwareEngine(), interior_level=level)


class TestCostAccounting:
    def test_stage_counts(self, dataset_a, queries):
        sel = IntersectionSelection(dataset_a, SoftwareEngine(), interior_level=3)
        res = sel.run(queries[0])
        c = res.cost
        assert c.candidates_after_mbr >= len(res.ids)
        assert c.pairs_compared + c.filter_positives == c.candidates_after_mbr
        assert c.results == len(res.ids)
        assert c.mbr_filter_s >= 0.0
        assert c.geometry_s >= 0.0

    def test_interior_filter_time_only_when_enabled(self, dataset_a, queries):
        plain = IntersectionSelection(dataset_a, SoftwareEngine())
        res = plain.run(queries[0])
        assert res.cost.intermediate_filter_s == 0.0
        filtered = IntersectionSelection(
            dataset_a, SoftwareEngine(), interior_level=3
        )
        res2 = filtered.run(queries[0])
        assert res2.cost.intermediate_filter_s > 0.0

    def test_query_set_averaging(self, dataset_a, queries):
        sel = IntersectionSelection(dataset_a, SoftwareEngine())
        avg = sel.run_query_set(queries)
        total = sum(sel.run(q).cost.total_s for q in queries)
        # The average is about total/len (not exact: separate runs).
        assert avg.total_s <= total

    def test_query_set_empty_raises(self, dataset_a):
        sel = IntersectionSelection(dataset_a, SoftwareEngine())
        with pytest.raises(ValueError):
            sel.run_query_set([])


class TestFilteringBehaviour:
    def test_interior_filter_finds_containment_positives(self, dataset_a):
        # A query covering most of the world: many objects fully inside.
        big_query = Polygon.from_coords(
            [(-10, -10), (120, -10), (120, 120), (-10, 120)]
        )
        sel = IntersectionSelection(dataset_a, SoftwareEngine(), interior_level=4)
        res = sel.run(big_query)
        assert res.cost.filter_positives > 0
        assert res.ids == reference_ids(dataset_a, big_query)

    def test_hardware_engine_filters_some_pairs(self, dataset_a, queries):
        hw = HardwareEngine(HardwareConfig(resolution=16))
        sel = IntersectionSelection(dataset_a, hw)
        for q in queries:
            sel.run(q)
        assert hw.stats.hw_tests > 0
