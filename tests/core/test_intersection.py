"""Tests for Algorithm 3.1: exactness and work-distribution accounting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HardwareConfig,
    HardwareEngine,
    RefinementStats,
    SoftwareEngine,
)
from repro.geometry import Polygon
from tests.oracles.geometry import boundaries_intersect_brute_force
from tests.strategies import polygon_pairs_nearby

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
SHIFTED = Polygon.from_coords([(2, 2), (6, 2), (6, 6), (2, 6)])
INNER = Polygon.from_coords([(1, 1), (3, 1), (3, 3), (1, 3)])
FAR = Polygon.from_coords([(10, 10), (12, 10), (12, 12), (10, 12)])


def reference(a, b):
    return (
        boundaries_intersect_brute_force(a, b)
        or a.contains_point(b.vertices[0])
        or b.contains_point(a.vertices[0])
    )


class TestSoftware:
    def test_known_cases(self):
        sw = SoftwareEngine()
        assert sw.polygons_intersect(SQUARE, SHIFTED)
        assert sw.polygons_intersect(SQUARE, INNER)
        assert not sw.polygons_intersect(SQUARE, FAR)

    def test_stats(self):
        sw = SoftwareEngine()
        stats = sw.stats
        sw.polygons_intersect(SQUARE, INNER)
        assert stats.pip_hits == 1
        assert stats.sw_segment_tests == 0  # containment short-circuits
        sw.polygons_intersect(SQUARE, SHIFTED)
        assert stats.pairs_tested == 2
        assert stats.positives == 2


class TestHybridExactness:
    @settings(max_examples=200, deadline=None)
    @given(polygon_pairs_nearby())
    def test_hybrid_equals_software_equals_reference(self, pair):
        a, b = pair
        hw = HardwareEngine(HardwareConfig(resolution=8))
        expected = reference(a, b)
        assert SoftwareEngine().polygons_intersect(a, b) == expected
        assert hw.polygons_intersect(a, b) == expected

    @settings(max_examples=60, deadline=None)
    @given(polygon_pairs_nearby(), st.sampled_from([1, 2, 16, 32]))
    def test_hybrid_exact_at_every_resolution(self, pair, res):
        a, b = pair
        hw = HardwareEngine(HardwareConfig(resolution=res))
        assert hw.polygons_intersect(a, b) == reference(a, b)

    @settings(max_examples=60, deadline=None)
    @given(polygon_pairs_nearby(), st.sampled_from([0, 4, 10, 10_000]))
    def test_hybrid_exact_at_every_threshold(self, pair, threshold):
        a, b = pair
        hw = HardwareEngine(
            HardwareConfig(resolution=8, sw_threshold=threshold)
        )
        assert hw.polygons_intersect(a, b) == reference(a, b)


class TestWorkDistribution:
    def test_containment_resolved_by_pip(self):
        hw = HardwareEngine(HardwareConfig())
        stats = hw.stats
        assert hw.polygons_intersect(SQUARE, INNER)
        assert stats.pip_hits == 1
        assert stats.hw_tests == 0
        assert stats.sw_segment_tests == 0

    def test_disjoint_mbrs_resolved_without_any_test(self):
        hw = HardwareEngine(HardwareConfig())
        stats = hw.stats
        assert not hw.polygons_intersect(SQUARE, FAR)
        assert stats.hw_tests == 0
        assert stats.sw_segment_tests == 0

    def test_hw_reject_skips_software_sweep(self):
        # Near-miss diagonal strips: hardware proves disjointness.
        a = Polygon.from_coords([(0, 0), (8, 0), (8, 8)])
        b = Polygon.from_coords([(0, 1), (7, 8), (0, 8)])
        hw = HardwareEngine(HardwareConfig(resolution=32))
        stats = hw.stats
        assert not hw.polygons_intersect(a, b)
        assert stats.hw_tests == 1
        assert stats.hw_rejects == 1
        assert stats.sw_segment_tests == 0

    def test_threshold_bypass_counts(self):
        hw = HardwareEngine(HardwareConfig(sw_threshold=1000))
        stats = hw.stats
        # Crossing strips with no vertex containment: PIP misses, and the
        # threshold sends the pair straight to the software sweep.
        plus_a = Polygon.from_coords([(0, 1), (6, 1), (6, 2), (0, 2)])
        plus_b = Polygon.from_coords([(2, -2), (3, -2), (3, 4), (2, 4)])
        assert hw.polygons_intersect(plus_a, plus_b)
        assert stats.threshold_bypasses == 1
        assert stats.hw_tests == 0
        assert stats.sw_segment_tests == 1

    def test_overlap_goes_to_software_sweep(self):
        hw = HardwareEngine(HardwareConfig(resolution=8))
        stats = hw.stats
        # Boundaries cross: PIP misses (no vertex inside), hardware says
        # MAYBE, software sweep decides.
        plus_a = Polygon.from_coords([(0, 1), (6, 1), (6, 2), (0, 2)])
        plus_b = Polygon.from_coords([(2, -2), (3, -2), (3, 4), (2, 4)])
        assert hw.polygons_intersect(plus_a, plus_b)
        assert stats.hw_tests == 1
        assert stats.hw_rejects == 0
        assert stats.sw_segment_tests == 1

    def test_filter_rate_property(self):
        stats = RefinementStats(hw_tests=10, hw_rejects=4)
        assert stats.hw_filter_rate == 0.4
        assert RefinementStats().hw_filter_rate == 0.0

    def test_stats_reset(self):
        a = RefinementStats(hw_tests=2, pip_hits=4)
        a.reset()
        assert a.hw_tests == 0 and a.pip_hits == 0
