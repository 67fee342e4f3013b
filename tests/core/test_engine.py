"""Tests for the refinement engine abstraction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.geometry import Polygon
from tests.strategies import polygon_pairs_nearby

SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
SHIFTED = Polygon.from_coords([(2, 2), (6, 2), (6, 6), (2, 6)])


class TestFactory:
    """Engines are built by their constructors; reports key on ``name``."""

    def test_software(self):
        assert SoftwareEngine().name == "software"

    def test_hardware_default_config(self):
        assert HardwareEngine().name == "hardware[8x8]"

    def test_hardware_custom_config(self):
        e = HardwareEngine(HardwareConfig(resolution=16))
        assert e.name == "hardware[16x16]"


class TestStatsLifecycle:
    def test_software_stats_accumulate_and_reset(self):
        e = SoftwareEngine()
        e.polygons_intersect(SQUARE, SHIFTED)
        e.within_distance(SQUARE, SHIFTED, 1.0)
        assert e.stats.pairs_tested == 2
        e.reset_stats()
        assert e.stats.pairs_tested == 0

    def test_hardware_stats_and_counters_reset(self):
        e = HardwareEngine()
        # Force a hardware test (crossing strips, no containment).
        a = Polygon.from_coords([(0, 1), (6, 1), (6, 2), (0, 2)])
        b = Polygon.from_coords([(2, -2), (3, -2), (3, 4), (2, 4)])
        e.polygons_intersect(a, b)
        assert e.stats.hw_tests == 1
        assert e.gpu_counters.draw_calls > 0
        e.reset_stats()
        assert e.stats.hw_tests == 0
        assert e.gpu_counters.draw_calls == 0

    def test_restrict_search_space_flag(self):
        e = SoftwareEngine(restrict_search_space=False)
        assert e.polygons_intersect(SQUARE, SHIFTED)


class TestEngineAgreement:
    @settings(max_examples=100, deadline=None)
    @given(polygon_pairs_nearby(), st.integers(0, 16))
    def test_engines_agree_on_everything(self, pair, d_quarters):
        a, b = pair
        d = d_quarters / 4.0
        sw = SoftwareEngine()
        hw = HardwareEngine(HardwareConfig(resolution=8, sw_threshold=12))
        assert sw.polygons_intersect(a, b) == hw.polygons_intersect(a, b)
        assert sw.within_distance(a, b, d) == hw.within_distance(a, b, d)
