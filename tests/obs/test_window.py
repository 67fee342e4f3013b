"""Rolling-window instruments: exact retirement, bit-identical aggregates."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.obs.window import (
    WindowConfig,
    WindowedCounter,
    WindowedHistogram,
    WindowedRegistry,
)

import pytest


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _config(clock, width_s=1.0, buckets=4):
    return WindowConfig(width_s=width_s, buckets=buckets, clock=clock)


class TestWindowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(width_s=0)
        with pytest.raises(ValueError):
            WindowConfig(buckets=0)

    @pytest.mark.parametrize("width_s", [float("nan"), float("inf")])
    def test_non_finite_width_refused(self, width_s):
        # A NaN width used to pass and make every epoch() raise
        # "cannot convert float NaN to integer" on the submit path.
        with pytest.raises(ValueError, match="width_s must be positive and finite"):
            WindowConfig(width_s=width_s)

    def test_epoch_and_span(self):
        clock = FakeClock(10.5)
        cfg = _config(clock, width_s=2.0, buckets=3)
        assert cfg.window_s == 6.0
        assert cfg.epoch() == 5
        assert cfg.epoch(0.0) == 0
        assert cfg.epoch(1.999) == 0


class TestWindowedCounter:
    def test_counts_within_window(self):
        clock = FakeClock()
        c = WindowedCounter(_config(clock))
        c.inc()
        c.inc(2)
        assert c.total() == 3
        assert c.rate() == pytest.approx(3 / 4.0)

    def test_exact_retirement(self):
        clock = FakeClock()
        c = WindowedCounter(_config(clock, width_s=1.0, buckets=2))
        c.inc(5)
        clock.advance(1.0)  # next epoch: old bucket still in window
        c.inc(1)
        assert c.total() == 6
        clock.advance(1.0)  # first bucket falls off, exactly
        assert c.total() == 1
        clock.advance(10.0)  # a step past the whole ring empties it
        assert c.total() == 0

    def test_negative_rejected(self):
        c = WindowedCounter(_config(FakeClock()))
        with pytest.raises(ValueError):
            c.inc(-1)


class TestWindowedHistogram:
    def test_quantiles_over_window_only(self):
        clock = FakeClock()
        h = WindowedHistogram(_config(clock, width_s=1.0, buckets=2))
        for _ in range(100):
            h.observe(10.0)  # a bad old burst
        clock.advance(2.0)  # burst retires
        for _ in range(10):
            h.observe(0.01)
        merged = h.merged()
        assert merged.count == 10
        assert merged.quantile(0.99) < 1.0

    def test_summary_has_rate_and_window(self):
        clock = FakeClock()
        h = WindowedHistogram(_config(clock))
        h.observe(1.0)
        s = h.summary()
        assert s["count"] == 1
        assert s["window_s"] == 4.0
        assert s["rate"] == pytest.approx(0.25)


def _fresh_from(observations):
    """The oracle: one histogram fed only the given observations."""
    h = Histogram()
    for v in observations:
        h.observe(v)
    return h


@st.composite
def _windowed_runs(draw):
    """A run of (advance, [values]) steps plus a window shape."""
    width = draw(st.sampled_from([0.5, 1.0, 2.0]))
    buckets = draw(st.integers(min_value=1, max_value=5))
    steps = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
                st.lists(
                    st.floats(
                        min_value=0.0, max_value=1e6, allow_nan=False
                    ),
                    max_size=6,
                ),
            ),
            max_size=8,
        )
    )
    return width, buckets, steps


class TestBitIdenticalProperty:
    """The tentpole property: a windowed histogram across arbitrary clock
    steps and retirements is bit-identical (count, sum parts, buckets,
    zeros, min, max) to a fresh histogram fed only the observations whose
    epochs are still inside the window."""

    @settings(max_examples=200, deadline=None)
    @given(_windowed_runs())
    def test_windowed_equals_fresh_over_live_epochs(self, run):
        width, buckets, steps = run
        clock = FakeClock()
        cfg = WindowConfig(width_s=width, buckets=buckets, clock=clock)
        wh = WindowedHistogram(cfg)
        log = []  # (epoch, value) of every observation ever made
        for advance, values in steps:
            clock.advance(advance)
            for v in values:
                wh.observe(v)
                log.append((cfg.epoch(), v))
        oldest = cfg.epoch() - buckets + 1
        in_window = [v for e, v in log if e >= oldest]
        assert wh.merged()._snapshot() == _fresh_from(in_window)._snapshot()
        assert wh.merged().count == len(in_window)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=10,
        )
    )
    def test_counter_total_equals_live_sum(self, steps):
        clock = FakeClock()
        cfg = WindowConfig(width_s=1.0, buckets=3, clock=clock)
        wc = WindowedCounter(cfg)
        log = []
        for advance, n in steps:
            clock.advance(advance)
            if n:
                wc.inc(n)
                log.append((cfg.epoch(), n))
        oldest = cfg.epoch() - cfg.buckets + 1
        assert wc.total() == sum(n for e, n in log if e >= oldest)


class TestWindowedRegistry:
    def test_addressing_and_kinds(self):
        clock = FakeClock()
        reg = WindowedRegistry(_config(clock))
        c = reg.counter("reqs", op="selection")
        assert reg.counter("reqs", op="selection") is c
        assert reg.counter("reqs", op="join") is not c
        with pytest.raises(TypeError):
            reg.histogram("reqs", op="selection")
        assert list(reg.summary()["counters"]) == [
            "reqs{op=join}", "reqs{op=selection}"
        ]

    def test_summary_shape(self):
        clock = FakeClock()
        reg = WindowedRegistry(_config(clock))
        reg.counter("reqs", op="selection").inc(3)
        reg.histogram("dur", op="selection").observe(0.5)
        s = reg.summary()
        assert s["window_s"] == 4.0
        assert s["bucket_width_s"] == 1.0
        assert s["counters"]["reqs{op=selection}"]["total"] == 3
        assert s["histograms"]["dur{op=selection}"]["count"] == 1
        assert not (set(s) - {"window_s", "bucket_width_s", "counters", "histograms"})

    def test_summary_is_json_able(self):
        import json

        clock = FakeClock()
        reg = WindowedRegistry(_config(clock))
        reg.histogram("dur").observe(math.pi)
        json.dumps(reg.summary())
