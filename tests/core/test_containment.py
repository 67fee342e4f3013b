"""Tests for the proper-containment predicate and its hardware upgrade."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.geometry import (
    Polygon,
    PointLocation,
    locate_point,
)
from tests.oracles.geometry import boundaries_intersect_brute_force
from tests.strategies import star_polygons

BIG = Polygon.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
INNER = Polygon.from_coords([(2, 2), (5, 2), (5, 5), (2, 5)])
CROSSING = Polygon.from_coords([(8, 8), (12, 8), (12, 12), (8, 12)])
TOUCHING = Polygon.from_coords([(0, 0), (4, 2), (2, 4)])  # vertex on boundary
C_SHAPE = Polygon.from_coords(
    [(0, 0), (10, 0), (10, 2), (2, 2), (2, 8), (10, 8), (10, 10), (0, 10)]
)
IN_NOTCH = Polygon.from_coords([(5, 4), (8, 4), (8, 6), (5, 6)])


def reference(a, b):
    """Brute-force proper containment (simple container)."""
    return (
        locate_point(b.vertices[0], a.vertices) is PointLocation.INSIDE
        and not boundaries_intersect_brute_force(a, b)
    )


class TestSoftware:
    def test_contained(self):
        assert SoftwareEngine().contains_properly(BIG, INNER)

    def test_crossing_not_contained(self):
        assert not SoftwareEngine().contains_properly(BIG, CROSSING)

    def test_touching_boundary_not_proper(self):
        assert not SoftwareEngine().contains_properly(BIG, TOUCHING)

    def test_self_not_contained(self):
        assert not SoftwareEngine().contains_properly(BIG, BIG)

    def test_notch_not_contained_in_c_shape(self):
        # Inside the MBR, but in the concave notch (outside the region).
        assert not SoftwareEngine().contains_properly(C_SHAPE, IN_NOTCH)

    def test_mbr_prefilter(self):
        sw = SoftwareEngine()
        assert not sw.contains_properly(INNER, BIG)
        assert sw.stats.pip_edges == 0  # rejected before any scan


class TestHybrid:
    def test_hardware_confirms_positive_without_sweep(self):
        hw = HardwareEngine(HardwareConfig(resolution=16))
        stats = hw.stats
        assert hw.contains_properly(BIG, INNER)
        assert stats.hw_tests == 1
        assert stats.hw_rejects == 1  # the DISJOINT verdict = confirmation
        assert stats.sw_segment_tests == 0

    def test_threshold_bypass(self):
        hw = HardwareEngine(HardwareConfig(sw_threshold=1000))
        stats = hw.stats
        assert hw.contains_properly(BIG, INNER)
        assert stats.threshold_bypasses == 1
        assert stats.sw_segment_tests == 1

    @settings(max_examples=100, deadline=None)
    @given(star_polygons(), st.integers(2, 6), st.sampled_from([2, 8, 24]))
    def test_hybrid_equals_software_equals_reference(self, outer, shrink, res):
        # Generate a candidate inner polygon by shrinking the outer one.
        inner = outer.scaled(1.0 / shrink)
        hw = HardwareEngine(HardwareConfig(resolution=res))
        expected = reference(outer, inner)
        assert SoftwareEngine().contains_properly(outer, inner) == expected
        assert hw.contains_properly(outer, inner) == expected

    @settings(max_examples=60, deadline=None)
    @given(star_polygons(), star_polygons())
    def test_arbitrary_pairs_agree(self, a, b):
        hw = HardwareEngine(HardwareConfig(resolution=8))
        expected = reference(a, b)
        assert SoftwareEngine().contains_properly(a, b) == expected
        assert hw.contains_properly(a, b) == expected


class TestEngineApi:
    def test_engines_agree(self):
        sw, hw = SoftwareEngine(), HardwareEngine()
        for container, content in [(BIG, INNER), (BIG, CROSSING), (C_SHAPE, IN_NOTCH)]:
            assert sw.contains_properly(container, content) == hw.contains_properly(
                container, content
            )

    def test_containment_implies_intersection(self):
        sw = SoftwareEngine()
        assert sw.contains_properly(BIG, INNER)
        assert sw.polygons_intersect(BIG, INNER)
