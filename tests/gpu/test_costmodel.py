"""Tests for operation counters and the abstract GPU cost model."""

from repro.gpu import DOCUMENTED_FREE, CostCounters, GpuCostModel


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
        assert GpuCostModel().evaluate(CostCounters()) == 0.0

    def test_linear_in_each_counter(self):
        model = GpuCostModel()
        base = GpuCostModel().evaluate(CostCounters(pixels_written=1))
        assert model.evaluate(CostCounters(pixels_written=10)) == 10 * base

    def test_readback_dominates_minmax(self):
        """The model must encode the paper's bus-transfer argument: moving a
        pixel across the buses costs far more than scanning it on-card."""
        model = GpuCostModel()
        minmax_cost = model.evaluate(CostCounters(pixels_scanned=100))
        readback_cost = model.evaluate(CostCounters(pixels_transferred=100))
        assert readback_cost > 10 * minmax_cost

    def test_evaluate_combines_all(self):
        model = GpuCostModel(
            cost_draw_call=1.0,
            cost_edge=1.0,
            cost_pixel_write=1.0,
            cost_clear_pixel=1.0,
            cost_accum_op=1.0,
            cost_minmax_pixel=1.0,
            cost_readback_pixel=1.0,
            cost_distance_field_pixel=1.0,
        )
        counters = CostCounters(
            draw_calls=1,
            edges_rendered=2,
            pixels_written=3,
            pixels_cleared=4,
            accum_ops=5,
            pixels_scanned=6,
            pixels_transferred=7,
            distance_field_pixels=8,
        )
        assert model.evaluate(counters) == 36.0

    def test_distance_field_pixels_are_charged(self):
        """Regression: distance-field sweep pixels were silently free."""
        model = GpuCostModel()
        cost = model.evaluate(CostCounters(distance_field_pixels=100))
        assert cost == 100 * model.cost_distance_field_pixel
        assert cost > 0.0

    def test_distance_field_dearer_than_fill_cheaper_than_readback(self):
        model = GpuCostModel()
        fill = model.evaluate(CostCounters(pixels_written=100))
        sweep = model.evaluate(CostCounters(distance_field_pixels=100))
        readback = model.evaluate(CostCounters(pixels_transferred=100))
        assert fill < sweep < readback

    def test_every_counter_charged_or_documented_free(self):
        """The charged/free partition of CostCounters is total: a newly
        added counter must either contribute to evaluate() or be listed in
        DOCUMENTED_FREE with a rationale - it cannot be silently free."""
        model = GpuCostModel()
        for name in CostCounters.__dataclass_fields__:
            cost = model.evaluate(CostCounters(**{name: 1}))
            if name in DOCUMENTED_FREE:
                assert cost == 0.0, f"{name} is documented free yet charged"
            else:
                assert cost > 0.0, f"{name} is neither charged nor documented free"

    def test_documented_free_names_are_real_counters(self):
        assert DOCUMENTED_FREE <= set(CostCounters.__dataclass_fields__)
