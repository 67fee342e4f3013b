"""Tests for the within-distance join (buffer query) pipeline."""

import pytest

from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.datasets import base_distance
from repro.geometry import polygons_within_distance
from repro.query import WithinDistanceJoin


def reference_pairs(ds_a, ds_b, d):
    return sorted(
        (i, j)
        for i, pa in enumerate(ds_a.polygons)
        for j, pb in enumerate(ds_b.polygons)
        if polygons_within_distance(pa, pb, d)
    )


@pytest.fixture(scope="module")
def base_d(dataset_a, dataset_b):
    return base_distance(dataset_a, dataset_b)


class TestCorrectness:
    @pytest.mark.parametrize("factor", [0.1, 1.0, 4.0])
    def test_software_matches_reference(self, dataset_a, dataset_b, base_d, factor):
        d = base_d * factor
        res = WithinDistanceJoin(dataset_a, dataset_b, SoftwareEngine()).run(d)
        assert res.pairs == reference_pairs(dataset_a, dataset_b, d)

    @pytest.mark.parametrize("factor", [0.1, 1.0, 4.0])
    def test_hardware_matches_reference(self, dataset_a, dataset_b, base_d, factor):
        d = base_d * factor
        engine = HardwareEngine(HardwareConfig(resolution=8))
        res = WithinDistanceJoin(dataset_a, dataset_b, engine).run(d)
        assert res.pairs == reference_pairs(dataset_a, dataset_b, d)

    def test_zero_distance_equals_intersection_join(self, dataset_a, dataset_b):
        from repro.query import IntersectionJoin

        wd = WithinDistanceJoin(dataset_a, dataset_b, SoftwareEngine()).run(0.0)
        ij = IntersectionJoin(dataset_a, dataset_b, SoftwareEngine()).run()
        assert wd.pairs == ij.pairs

    def test_rejects_negative_distance(self, dataset_a, dataset_b):
        join = WithinDistanceJoin(dataset_a, dataset_b, SoftwareEngine())
        with pytest.raises(ValueError):
            join.run(-1.0)


class TestFilterBehaviour:
    def test_filters_identify_positives(self, dataset_a, dataset_b, base_d):
        res = WithinDistanceJoin(dataset_a, dataset_b, SoftwareEngine()).run(
            base_d * 2.0
        )
        c = res.cost
        assert c.filter_positives > 0
        assert c.filter_positives + c.pairs_compared == c.candidates_after_mbr
        assert c.intermediate_filter_s > 0.0

    def test_monotone_in_distance(self, dataset_a, dataset_b, base_d):
        join = WithinDistanceJoin(dataset_a, dataset_b, SoftwareEngine())
        small = set(join.run(base_d * 0.1).pairs)
        large = set(join.run(base_d * 2.0).pairs)
        assert small <= large
