"""Buffer queries around one region: the selection form of section 4.4.

A within-distance *selection* is the within-distance join against a
one-polygon dataset, so that is how it runs - there is no separate
selection pipeline to keep in step with the join.
"""

import pytest

from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.datasets import SpatialDataset, base_distance
from repro.geometry import polygons_within_distance
from repro.query import WithinDistanceJoin


def buffer_selection(dataset, engine, query, d):
    """(ids of ``dataset`` objects within ``d`` of ``query``, cost)."""
    res = WithinDistanceJoin(
        SpatialDataset("query", [query], world=dataset.world),
        dataset,
        engine,
    ).run(d)
    return [j for _, j in res.pairs], res.cost


def reference_ids(dataset, query, d):
    return sorted(
        i
        for i, poly in enumerate(dataset.polygons)
        if polygons_within_distance(query, poly, d)
    )


@pytest.fixture(scope="module")
def queries(dataset_b):
    return [dataset_b.polygons[i] for i in (3, 17, 40)]


@pytest.fixture(scope="module")
def unit_d(dataset_a, dataset_b):
    return base_distance(dataset_a, dataset_b)


class TestCorrectness:
    @pytest.mark.parametrize("factor", [0.0, 0.5, 2.0])
    def test_software_matches_reference(self, dataset_a, queries, unit_d, factor):
        d = unit_d * factor
        for q in queries:
            ids, _ = buffer_selection(dataset_a, SoftwareEngine(), q, d)
            assert ids == reference_ids(dataset_a, q, d)

    def test_hardware_matches_reference(self, dataset_a, queries, unit_d):
        engine = HardwareEngine(HardwareConfig(resolution=8))
        for q in queries:
            ids, _ = buffer_selection(dataset_a, engine, q, unit_d)
            assert ids == reference_ids(dataset_a, q, unit_d)

    def test_field_mode_matches(self, dataset_a, queries, unit_d):
        engine = HardwareEngine(
            HardwareConfig(resolution=8, distance_mode="field")
        )
        for q in queries:
            ids, _ = buffer_selection(dataset_a, engine, q, unit_d)
            assert ids == reference_ids(dataset_a, q, unit_d)

    def test_rejects_negative_distance(self, dataset_a, queries):
        with pytest.raises(ValueError):
            buffer_selection(dataset_a, SoftwareEngine(), queries[0], -1.0)


class TestBehaviour:
    def test_monotone_in_distance(self, dataset_a, queries, unit_d):
        q = queries[0]
        small, _ = buffer_selection(dataset_a, SoftwareEngine(), q, unit_d * 0.2)
        large, _ = buffer_selection(dataset_a, SoftwareEngine(), q, unit_d * 2.0)
        assert set(small) <= set(large)

    def test_one_object_filter_uses_query_geometry(
        self, dataset_a, queries, unit_d
    ):
        # The join retrieves the larger object of each pair - for a
        # region query, almost always the query polygon.
        _, cost = buffer_selection(
            dataset_a, SoftwareEngine(), queries[0], unit_d * 2.0
        )
        assert cost.filter_positives > 0
        assert (
            cost.filter_positives + cost.pairs_compared
            == cost.candidates_after_mbr
        )

    def test_zero_distance_equals_intersection_selection(
        self, dataset_a, queries
    ):
        from repro.query import IntersectionSelection

        inter_sel = IntersectionSelection(dataset_a, SoftwareEngine())
        for q in queries:
            ids, _ = buffer_selection(dataset_a, SoftwareEngine(), q, 0.0)
            assert ids == inter_sel.run(q).ids
