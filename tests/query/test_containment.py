"""Tests for the containment-selection pipeline."""

import pytest

from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.geometry import Polygon
from repro.query import ContainmentSelection


def reference_ids(dataset, query):
    sw = SoftwareEngine()
    return sorted(
        i
        for i, poly in enumerate(dataset.polygons)
        if sw.contains_properly(query, poly)
    )


@pytest.fixture(scope="module")
def big_query(dataset_a):
    w = dataset_a.world
    # A concave region covering much of the world (so containment results
    # exist) with a bite taken out (so non-trivial rejections exist too).
    return Polygon.from_coords(
        [
            (w.xmin - 2, w.ymin - 2),
            (w.xmax + 2, w.ymin - 2),
            (w.xmax + 2, w.ymax * 0.45),
            (w.xmax * 0.55, w.ymax * 0.45),
            (w.xmax * 0.55, w.ymax * 0.8),
            (w.xmax + 2, w.ymax * 0.8),
            (w.xmax + 2, w.ymax + 2),
            (w.xmin - 2, w.ymax + 2),
        ]
    )


class TestCorrectness:
    def test_software_matches_reference(self, dataset_a, big_query):
        sel = ContainmentSelection(dataset_a, SoftwareEngine())
        got = sel.run(big_query)
        assert got.ids == reference_ids(dataset_a, big_query)
        assert len(got.ids) > 0, "query should contain some objects"

    def test_hardware_matches_reference(self, dataset_a, big_query):
        sel = ContainmentSelection(
            dataset_a, HardwareEngine(HardwareConfig(resolution=16))
        )
        assert sel.run(big_query).ids == reference_ids(dataset_a, big_query)

    @pytest.mark.parametrize("level", [0, 2, 4])
    def test_interior_filter_does_not_change_results(
        self, dataset_a, big_query, level
    ):
        sel = ContainmentSelection(
            dataset_a, SoftwareEngine(), interior_level=level
        )
        assert sel.run(big_query).ids == reference_ids(dataset_a, big_query)

    @pytest.mark.parametrize("level", [None, 4])
    def test_hardware_equals_software_through_the_batched_stage(
        self, dataset_a, big_query, level
    ):
        sw, hw = SoftwareEngine(), HardwareEngine(HardwareConfig(resolution=8))
        got_sw = ContainmentSelection(dataset_a, sw, interior_level=level).run(
            big_query
        )
        got_hw = ContainmentSelection(dataset_a, hw, interior_level=level).run(
            big_query
        )
        assert got_hw.ids == got_sw.ids == reference_ids(dataset_a, big_query)
        assert got_hw.cost.pairs_compared == got_sw.cost.pairs_compared
        assert got_hw.cost.filter_positives == got_sw.cost.filter_positives
        # One atlas submission sequence for the whole candidate list.
        assert hw.stats.pairs_tested == got_hw.cost.pairs_compared
        assert 0 < hw.gpu_counters.tile_batches < hw.stats.hw_tests

    def test_rejects_negative_level(self, dataset_a):
        with pytest.raises(ValueError):
            ContainmentSelection(dataset_a, SoftwareEngine(), interior_level=-1)

    @pytest.mark.parametrize("level", [13, 2.5, True])
    def test_rejects_interior_level_at_construction(self, dataset_a, level):
        # A level the filter's grid cannot take is refused here, not at
        # the first run(); a bool is not a level.
        with pytest.raises(ValueError, match="interior_level"):
            ContainmentSelection(dataset_a, SoftwareEngine(), interior_level=level)


class TestFilterBehaviour:
    def test_interior_filter_confirms_positives(self, dataset_a, big_query):
        sel = ContainmentSelection(
            dataset_a, SoftwareEngine(), interior_level=5
        )
        res = sel.run(big_query)
        assert res.cost.filter_positives > 0
        assert (
            res.cost.filter_positives + res.cost.pairs_compared
            == res.cost.candidates_after_mbr
        )

    def test_hardware_confirms_positives_without_sweeps(
        self, dataset_a, big_query
    ):
        hw = HardwareEngine(HardwareConfig(resolution=16))
        sel = ContainmentSelection(dataset_a, hw)
        res = sel.run(big_query)
        # Containment is where the hardware shines: confirmed positives
        # (hw_rejects) replace software sweeps entirely.
        assert hw.stats.hw_rejects > 0
        assert hw.stats.sw_segment_tests < res.cost.pairs_compared

    def test_containment_subset_of_intersection(self, dataset_a, big_query):
        from repro.query import IntersectionSelection

        contained = set(
            ContainmentSelection(dataset_a, SoftwareEngine())
            .run(big_query)
            .ids
        )
        intersecting = set(
            IntersectionSelection(dataset_a, SoftwareEngine())
            .run(big_query)
            .ids
        )
        assert contained <= intersecting
