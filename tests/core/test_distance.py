"""Tests for the hardware-assisted within-distance test."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.geometry import Polygon, polygons_within_distance_brute_force
from tests.strategies import polygon_pairs_nearby

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
INNER = Polygon.from_coords([(1, 1), (3, 1), (3, 3), (1, 3)])
GAP2 = Polygon.from_coords([(6, 0), (8, 0), (8, 4), (6, 4)])
FAR = Polygon.from_coords([(30, 30), (32, 30), (32, 32), (30, 32)])


class TestSoftware:
    def test_known_cases(self):
        sw = SoftwareEngine()
        assert sw.within_distance(SQUARE, GAP2, 2.0)
        assert not sw.within_distance(SQUARE, GAP2, 1.9)
        assert sw.within_distance(SQUARE, INNER, 0.0)
        assert not sw.within_distance(SQUARE, FAR, 10.0)

    def test_rejects_negative(self):
        import pytest

        with pytest.raises(ValueError):
            SoftwareEngine().within_distance(SQUARE, GAP2, -1.0)

    @settings(max_examples=100)
    @given(polygon_pairs_nearby(), st.integers(0, 32))
    def test_matches_brute_force(self, pair, d_quarters):
        a, b = pair
        d = d_quarters / 4.0
        assert SoftwareEngine().within_distance(a, b, d) == (
            polygons_within_distance_brute_force(a, b, d)
        )


class TestHybridExactness:
    @settings(max_examples=150, deadline=None)
    @given(polygon_pairs_nearby(), st.integers(0, 32))
    def test_hybrid_matches_brute_force(self, pair, d_quarters):
        a, b = pair
        d = d_quarters / 4.0
        hw = HardwareEngine(HardwareConfig(resolution=8))
        assert hw.within_distance(a, b, d) == (
            polygons_within_distance_brute_force(a, b, d)
        )

    @settings(max_examples=50, deadline=None)
    @given(polygon_pairs_nearby(), st.sampled_from([1, 4, 16, 32]))
    def test_hybrid_exact_at_every_resolution(self, pair, res):
        a, b = pair
        d = 1.25
        hw = HardwareEngine(HardwareConfig(resolution=res))
        assert hw.within_distance(a, b, d) == (
            polygons_within_distance_brute_force(a, b, d)
        )

    def test_exact_through_width_limit_fallback(self):
        """When Equation (1) exceeds the device limit the answer must still
        be exact (software fallback, section 4.4)."""
        a = Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon.from_coords([(3, 0), (4, 0), (4, 1), (3, 1)])
        hw = HardwareEngine(HardwareConfig(resolution=32))
        stats = hw.stats
        assert hw.within_distance(a, b, 4.0)
        assert stats.width_limit_fallbacks == 1
        assert stats.sw_distance_tests == 1


class TestWorkDistribution:
    def test_mbr_prefilter_short_circuits(self):
        hw = HardwareEngine(HardwareConfig())
        stats = hw.stats
        assert not hw.within_distance(SQUARE, FAR, 1.0)
        assert stats.hw_tests == 0
        assert stats.sw_distance_tests == 0

    def test_containment_resolved_by_pip(self):
        hw = HardwareEngine(HardwareConfig())
        stats = hw.stats
        assert hw.within_distance(SQUARE, INNER, 0.5)
        assert stats.pip_hits == 1
        assert stats.hw_tests == 0

    def test_hw_reject_skips_mindist(self):
        # Diagonal strips: MBRs overlap (so the MBR prefilter cannot help),
        # but the boundaries stay 1/sqrt(2) apart - beyond d = 0.2.
        a = Polygon.from_coords([(0, 0), (8, 0), (8, 8)])
        b = Polygon.from_coords([(0, 1), (7, 8), (0, 8)])
        hw = HardwareEngine(HardwareConfig(resolution=32))
        stats = hw.stats
        assert not hw.within_distance(a, b, 0.2)
        assert stats.hw_tests == 1
        assert stats.hw_rejects == 1
        assert stats.sw_distance_tests == 0

    def test_threshold_bypass(self):
        hw = HardwareEngine(HardwareConfig(sw_threshold=100))
        stats = hw.stats
        hw.within_distance(SQUARE, GAP2, 2.5)
        assert stats.threshold_bypasses == 1
        assert stats.hw_tests == 0
        assert stats.sw_distance_tests == 1
