"""Tests for the distance-insensitive (distance-field) proximity test.

This is the paper's announced future work (section 5): a within-distance
filter whose rendering cost does not grow with the query distance and that
never hits the device's anti-aliased line-width limit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HardwareConfig,
    HardwareEngine,
    HardwareSegmentTest,
    HardwareVerdict,
    SoftwareEngine,
)
from repro.core.projection import distance_window
from repro.geometry import Polygon
from tests.oracles.geometry import boundary_distance_brute_force
from repro.gpu.distance_field import distance_field
from tests.strategies import polygon_pairs_nearby

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
FAR = Polygon.from_coords([(20, 0), (22, 0), (22, 4), (20, 4)])


class TestDistanceField:
    def test_covered_pixels_are_zero(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        field = distance_field(mask)
        assert field[1, 1] == 0.0
        assert field[1, 2] == 1.0
        assert field[2, 2] == pytest.approx(np.sqrt(2.0))

    def test_empty_mask_infinite(self):
        field = distance_field(np.zeros((3, 3), dtype=bool))
        assert np.isinf(field).all()

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            distance_field(np.zeros((2, 2), dtype=np.float32))


class TestFieldVerdict:
    def test_known_cases(self):
        hw = HardwareSegmentTest(
            HardwareConfig(resolution=16, distance_mode="field")
        )
        w = distance_window(SQUARE.mbr, FAR.mbr, 1.0)
        assert hw.distance_verdict(SQUARE, FAR, w, 1.0) is HardwareVerdict.DISJOINT
        w = distance_window(SQUARE.mbr, FAR.mbr, 17.0)
        assert hw.distance_verdict(SQUARE, FAR, w, 17.0) is HardwareVerdict.MAYBE

    def test_never_unsupported_at_huge_distances(self):
        """The whole point: no line-width limit, regardless of D."""
        hw = HardwareSegmentTest(
            HardwareConfig(resolution=32, distance_mode="field")
        )
        for d in (10.0, 100.0, 10_000.0):
            w = distance_window(SQUARE.mbr, FAR.mbr, d)
            verdict = hw.distance_verdict(SQUARE, FAR, w, d)
            assert verdict is not HardwareVerdict.UNSUPPORTED

    def test_lines_mode_would_fall_back(self):
        """Contrast: the published widened-line test hits the limit."""
        a = Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon.from_coords([(3, 0), (4, 0), (4, 1), (3, 1)])
        lines = HardwareSegmentTest(HardwareConfig(resolution=32))
        w = distance_window(a.mbr, b.mbr, 4.0)
        assert lines.distance_verdict(a, b, w, 4.0) is HardwareVerdict.UNSUPPORTED
        field = HardwareSegmentTest(
            HardwareConfig(resolution=32, distance_mode="field")
        )
        assert (
            field.distance_verdict(a, b, w, 4.0) is not HardwareVerdict.UNSUPPORTED
        )

    def test_rendering_cost_insensitive_to_distance(self):
        # Overlapping MBRs keep both boundaries inside the window at every
        # D, so the per-test work is directly comparable.
        a = Polygon.from_coords([(0, 0), (8, 0), (8, 8)])
        b = Polygon.from_coords([(0, 1), (7, 8), (0, 8)])
        hw = HardwareSegmentTest(
            HardwareConfig(resolution=16, distance_mode="field")
        )
        w = distance_window(a.mbr, b.mbr, 0.25)
        hw.distance_verdict(a, b, w, 0.25)
        small_d = hw.pipeline.counters.snapshot()
        hw.pipeline.counters.reset()
        w = distance_window(a.mbr, b.mbr, 500.0)
        hw.distance_verdict(a, b, w, 500.0)
        large_d = hw.pipeline.counters.snapshot()
        # One field pass either way; footprints shrink in the bigger
        # window (coarser scale) rather than growing with D.
        assert large_d.distance_field_pixels == small_d.distance_field_pixels
        assert large_d.pixels_written <= small_d.pixels_written

    @settings(max_examples=100, deadline=None)
    @given(polygon_pairs_nearby(), st.integers(0, 24))
    def test_never_false_negative(self, pair, d_quarters):
        """Conservativeness: within-d pairs are never called DISJOINT."""
        a, b = pair
        d = d_quarters / 4.0
        hw = HardwareSegmentTest(
            HardwareConfig(resolution=8, distance_mode="field")
        )
        w = distance_window(a.mbr, b.mbr, d)
        verdict = hw.distance_verdict(a, b, w, d)
        if boundary_distance_brute_force(a, b) <= d:
            assert verdict is HardwareVerdict.MAYBE


class TestEngineWithFieldMode:
    @settings(max_examples=80, deadline=None)
    @given(polygon_pairs_nearby(), st.integers(0, 20))
    def test_exact_same_answers_as_software(self, pair, d_quarters):
        a, b = pair
        d = d_quarters / 4.0
        sw = SoftwareEngine()
        hw = HardwareEngine(HardwareConfig(resolution=8, distance_mode="field"))
        assert hw.within_distance(a, b, d) == sw.within_distance(a, b, d)

    def test_no_width_fallbacks_ever(self):
        a = Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon.from_coords([(3, 0), (4, 0), (4, 1), (3, 1)])
        hw = HardwareEngine(HardwareConfig(resolution=32, distance_mode="field"))
        hw.within_distance(a, b, 4.0)
        assert hw.stats.width_limit_fallbacks == 0
