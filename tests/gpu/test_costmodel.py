"""Tests for the operation counters and the GPU clock that prices them.

There is one GPU price list: :meth:`Platform2003.hardware_seconds`, the
modeled clock every experiment reports.
"""

from dataclasses import fields

import pytest

from repro.core.platform import PLATFORM_2003, Platform2003
from repro.gpu import CostCounters

#: Counters ``hardware_seconds`` does not charge, with the reason its
#: docstring gives (a sized buffer, so ``accum_ops`` is charged per pixel).
DOCUMENTED_FREE = {"buffer_clears", "minmax_ops", "tile_batches", "tiles_packed"}
SIZED_BUFFER = CostCounters(buffer_clears=1, pixels_cleared=64)


def gpu_seconds(platform=PLATFORM_2003, **counts):
    return platform.hardware_seconds(CostCounters(**counts))


class TestCounters:
    def test_reset(self):
        c = CostCounters(draw_calls=3, pixels_written=10)
        c.reset()
        assert c.draw_calls == 0
        assert c.pixels_written == 0

    def test_snapshot_is_independent(self):
        a = CostCounters(minmax_ops=4)
        snap = a.snapshot()
        a.minmax_ops = 9
        assert snap.minmax_ops == 4


class TestCostModel:
    def test_zero_counters_zero_cost(self):
        assert gpu_seconds() == 0.0

    def test_linear_in_each_counter(self):
        for name in CostCounters.__dataclass_fields__:
            one = gpu_seconds(**{name: 1})
            assert gpu_seconds(**{name: 10}) == pytest.approx(10 * one), name

    def test_readback_dominates_minmax(self):
        """The clock must encode the paper's bus-transfer argument: moving a
        pixel across the buses costs far more than scanning it on-card."""
        minmax_cost = gpu_seconds(pixels_scanned=100)
        readback_cost = gpu_seconds(pixels_transferred=100)
        assert readback_cost > 10 * minmax_cost

    def test_evaluate_combines_all(self):
        unit = Platform2003(
            **{f.name: 1.0 for f in fields(Platform2003) if f.name.startswith("gpu_")}
        )
        counters = dict(
            draw_calls=1,
            edges_rendered=2,
            edges_clipped_away=3,
            pixels_written=4,
            buffer_clears=2,
            pixels_cleared=10,
            accum_ops=3,
            pixels_scanned=6,
            distance_field_pixels=8,
            readback_ops=1,
            pixels_transferred=7,
        )
        # 1 + (2 + 3) + 4 + 10 + 6 + 8 + 7 + 1, plus 3 accum ops over
        # 10 / 2 = 5-pixel buffers.
        assert gpu_seconds(unit, **counters) == 57.0 * 1e-6

    def test_distance_field_pixels_are_charged(self):
        """Regression: distance-field sweep pixels were silently free."""
        cost = gpu_seconds(distance_field_pixels=100)
        assert cost == pytest.approx(100 * PLATFORM_2003.gpu_distance_field_pixel_us * 1e-6)
        assert cost > 0.0

    def test_distance_field_dearer_than_fill_cheaper_than_readback(self):
        fill = gpu_seconds(pixels_written=100)
        sweep = gpu_seconds(distance_field_pixels=100)
        readback = gpu_seconds(pixels_transferred=100)
        assert fill < sweep < readback

    def test_every_counter_charged_or_documented_free(self):
        """The charged/free partition of CostCounters is total: a newly
        added counter must either move the GPU clock or be listed in
        DOCUMENTED_FREE with a rationale - it cannot be silently free."""
        base = PLATFORM_2003.hardware_seconds(SIZED_BUFFER)
        for name in CostCounters.__dataclass_fields__:
            counters = SIZED_BUFFER.snapshot()
            setattr(counters, name, getattr(counters, name) + 1)
            cost = PLATFORM_2003.hardware_seconds(counters) - base
            if name in DOCUMENTED_FREE:
                assert cost == 0.0, f"{name} is documented free yet charged"
            else:
                assert cost > 0.0, f"{name} is neither charged nor documented free"

    def test_documented_free_names_are_real_counters(self):
        assert DOCUMENTED_FREE <= set(CostCounters.__dataclass_fields__)
