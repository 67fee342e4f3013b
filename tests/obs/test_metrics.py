"""Tests for the metrics registry: instruments, snapshots, exact merging."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import current_scope, use_registry
from repro.obs.metrics import Histogram, MetricsRegistry, format_key, parse_key


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc()
        reg.counter("runs").inc(4)
        assert reg.snapshot()["counters"]["runs"] == 5

    def test_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("runs").inc(-1)

    def test_float_amounts(self):
        reg = MetricsRegistry()
        reg.counter("seconds").inc(0.25)
        reg.counter("seconds").inc(0.5)
        assert reg.snapshot()["counters"]["seconds"] == 0.75


class TestGauge:
    def test_last_set_wins(self):
        reg = MetricsRegistry()
        reg.gauge("workers").set(4)
        reg.gauge("workers").set(2)
        assert reg.snapshot()["gauges"]["workers"] == 2

    def test_merge_takes_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("workers").set(2)
        b.gauge("workers").set(8)
        a.merge(b)
        assert a.snapshot()["gauges"]["workers"] == 8


class TestHistogram:
    def test_counts_and_extremes(self):
        h = Histogram()
        for v in (0.0, 0.5, 1.5, 1.5, 300.0):
            h.observe(v)
        assert h.count == 5
        assert h.zeros == 1
        assert h.min == 0.0
        assert h.max == 300.0
        assert h.sum == pytest.approx(303.5)

    def test_fixed_power_of_two_buckets(self):
        h = Histogram()
        h.observe(1.0)  # [1, 2) -> exponent 1
        h.observe(1.99)
        h.observe(2.0)  # [2, 4) -> exponent 2
        assert h.buckets == {1: 2, 2: 1}

    def test_rejects_negative_and_non_finite(self):
        h = Histogram()
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                h.observe(bad)

    def test_exact_sum_of_floats(self):
        # 0.1 added ten times misrounds under naive accumulation; the
        # partial-sums path must return the correctly-rounded exact total.
        h = Histogram()
        for _ in range(10):
            h.observe(0.1)
        assert h.sum == math.fsum([0.1] * 10)


class TestHistogramQuantiles:
    def test_empty_histogram(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        summary = h.summary()
        assert summary["count"] == 0
        assert summary["sum"] == 0.0
        assert summary["mean"] == 0.0
        assert summary["min"] == 0.0
        assert summary["max"] == 0.0
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.0

    def test_single_observation(self):
        h = Histogram()
        h.observe(3.0)
        # Every quantile of a one-point distribution is that point: the
        # bucket upper bound (4.0) must be clamped to the observed max.
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == 3.0
        summary = h.summary()
        assert summary["p50"] == summary["p95"] == summary["p99"] == 3.0
        assert summary["min"] == summary["max"] == 3.0

    def test_all_zero_observations(self):
        h = Histogram()
        for _ in range(5):
            h.observe(0.0)
        assert h.quantile(0.99) == 0.0
        assert h.summary()["max"] == 0.0

    def test_zeros_mixed_with_values(self):
        h = Histogram()
        for _ in range(9):
            h.observe(0.0)
        h.observe(8.0)
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 8.0

    def test_rejects_out_of_range_q(self):
        h = Histogram()
        h.observe(1.0)
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                h.quantile(bad)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_quantiles_monotone_and_conservative(self, values):
        h = Histogram()
        for v in values:
            h.observe(v)
        summary = h.summary()
        p50, p95, p99 = summary["p50"], summary["p95"], summary["p99"]
        # Monotone in q...
        assert p50 <= p95 <= p99
        # ...bounded by the observed range...
        assert 0.0 <= p50 and p99 <= max(values)
        # ...and never below the true (rank-based) quantile: the estimate
        # is the upper boundary of the rank's bucket, clamped to max.
        ordered = sorted(values)
        for q, estimate in ((0.50, p50), (0.95, p95), (0.99, p99)):
            rank = max(1, math.ceil(q * len(ordered)))
            assert estimate >= ordered[rank - 1]


class TestRegistry:
    def test_labels_address_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("verdicts", op="intersect").inc()
        reg.counter("verdicts", op="within").inc(2)
        snap = reg.snapshot()["counters"]
        assert snap["verdicts{op=intersect}"] == 1
        assert snap["verdicts{op=within}"] == 2

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.counter("x", b="2", a="1").inc()
        reg.counter("x", a="1", b="2").inc()
        assert reg.snapshot()["counters"] == {"x{a=1,b=2}": 2}

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing").inc()
        with pytest.raises(TypeError):
            reg.histogram("thing")

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("runs", kind="join").inc(3)
        reg.gauge("capacity").set(256)
        reg.histogram("dur", stage="geometry").observe(0.125)
        clone = MetricsRegistry()
        clone.merge(json.loads(reg.to_json()))
        assert clone.snapshot() == reg.snapshot()

    def test_merge_rejects_foreign_schema(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.merge({"schema": "something-else", "counters": {}})

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("runs", pipeline="join").inc(2)
        reg.histogram("dur").observe(1.5)
        reg.histogram("dur").observe(3.0)
        text = reg.prometheus_text()
        assert "# HELP runs " in text
        assert "# TYPE runs counter" in text
        assert 'runs{pipeline="join"} 2' in text
        assert "# HELP dur " in text
        assert "# TYPE dur histogram" in text
        assert 'dur_bucket{le="2"} 1' in text
        assert 'dur_bucket{le="+Inf"} 2' in text
        assert "dur_count 2" in text

    def test_prometheus_text_escapes_hostile_label_values(self):
        # A scraper must get exactly one series line back out of each of
        # these; the exposition-format escapes are \\, \", and \n.
        reg = MetricsRegistry()
        reg.counter("runs", path='C:\\tmp\\"x"\nrest').inc(1)
        text = reg.prometheus_text()
        assert 'runs{path="C:\\\\tmp\\\\\\"x\\"\\nrest"} 1' in text
        for line in text.splitlines():
            assert "\r" not in line  # one logical line per series
        # The raw control character never leaks into the exposition.
        assert "\nrest" not in text.replace("\\n", "")

    def test_prometheus_help_lines_escape_newlines(self, monkeypatch):
        from repro.obs.metrics import METRIC_HELP

        reg = MetricsRegistry()
        reg.counter("weird_family").inc()
        monkeypatch.setitem(METRIC_HELP, "weird_family", "line one\nline two \\ slash")
        text = reg.prometheus_text()
        assert "# HELP weird_family line one\\nline two \\\\ slash" in text


class TestKeys:
    def test_round_trip(self):
        key = format_key("hw_test_duration_s", (("method", "accum"), ("op", "x")))
        assert key == "hw_test_duration_s{method=accum,op=x}"
        assert parse_key(key) == (
            "hw_test_duration_s",
            (("method", "accum"), ("op", "x")),
        )

    def test_bare_name(self):
        assert parse_key("tiles_per_batch") == ("tiles_per_batch", ())

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            parse_key("x{unclosed")
        with pytest.raises(ValueError):
            parse_key("x{novalue}")


class TestGlobalInstall:
    def test_default_is_none(self):
        assert current_scope().registry is None

    def test_use_registry_restores(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert current_scope().registry is reg
        assert current_scope().registry is None


observations = st.lists(
    st.one_of(
        st.floats(
            min_value=0.0,
            max_value=1e12,
            allow_nan=False,
            allow_infinity=False,
        ),
        st.integers(min_value=0, max_value=10**9),
    ),
    max_size=60,
)


class TestMergeExactness:
    """merge(h1, h2) must equal observing the concatenated stream, exactly."""

    @given(observations, observations)
    @settings(max_examples=200, deadline=None)
    def test_merge_equals_concatenation(self, xs, ys):
        merged = Histogram()
        for v in xs:
            merged.observe(v)
        other = Histogram()
        for v in ys:
            other.observe(v)
        merged._merge(other)

        concat = Histogram()
        for v in xs + ys:
            concat.observe(v)

        assert merged._snapshot() == concat._snapshot()

    @given(observations, observations, observations)
    @settings(max_examples=100, deadline=None)
    def test_merge_order_independent(self, xs, ys, zs):
        def shard(values):
            reg = MetricsRegistry()
            for v in values:
                reg.histogram("h").observe(v)
                reg.counter("c").inc(1)
            return reg.snapshot()

        shards = [shard(xs), shard(ys), shard(zs)]
        forward = MetricsRegistry()
        for s in shards:
            forward.merge(s)
        backward = MetricsRegistry()
        for s in reversed(shards):
            backward.merge(s)
        assert forward.snapshot() == backward.snapshot()

    def test_snapshot_merge_round_trips_through_json(self):
        # The shard->coordinator path serializes snapshots; exactness must
        # survive JSON.
        shard = MetricsRegistry()
        for v in (0.1, 0.2, 0.30000000000000004, 1e-12):
            shard.histogram("h").observe(v)
        wire = json.loads(json.dumps(shard.snapshot()))
        coordinator = MetricsRegistry()
        coordinator.merge(wire)
        assert coordinator.snapshot() == shard.snapshot()
